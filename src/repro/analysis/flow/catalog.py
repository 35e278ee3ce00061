"""The source/sink/sanitizer catalogue: the contracts, as data.

Labels fall into two families.  The *nondeterminism* family (rule 1)
marks values whose bytes differ across runs, hosts or processes:
``wallclock``, ``env``, ``rusage``, ``random``, ``pyhash``, ``host``.
The *capability* family marks what a value **is**: ``storepath`` (a
path under a shared store), ``lockguard`` (holding it satisfies
lock-discipline), ``proclocal`` (captures process-local state — locks,
open handles, live sinks — and must not cross a fork), ``telobj`` (a
live telemetry object) and ``teldata`` (a value read out of one).

The static tables below name the standard-library facts; everything
repo-specific is declared in the source itself with ``# repro-lint:``
role annotations (grammar in ``repro.analysis.core``) and merged by
:func:`build_catalog`, so the catalogue never goes stale against a
rename the annotations would catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from ..core import Finding, FlowRule, Severity
from .lattice import TaintSet
from .project import Project

WALLCLOCK = "wallclock"
ENV = "env"
RUSAGE = "rusage"
RANDOM = "random"
PYHASH = "pyhash"
HOST = "host"
STOREPATH = "storepath"
LOCKGUARD = "lockguard"
PROCLOCAL = "proclocal"
TELOBJ = "telobj"
TELDATA = "teldata"

#: Rule 1's trigger set: bytes that vary across runs/hosts/processes.
NONDET: TaintSet = frozenset(
    {WALLCLOCK, ENV, RUSAGE, RANDOM, PYHASH, HOST})

ALL_LABELS: TaintSet = NONDET | frozenset(
    {STOREPATH, LOCKGUARD, PROCLOCAL, TELOBJ, TELDATA})

RULE_CACHE_KEY = "flow-cache-key-purity"
RULE_LOCK = "flow-lock-discipline"
RULE_FORK = "flow-fork-safety"
RULE_TELEMETRY = "flow-telemetry-purity"

RULE_TRIGGERS: Dict[str, TaintSet] = {
    RULE_CACHE_KEY: NONDET,
    RULE_LOCK: frozenset({STOREPATH}),
    RULE_FORK: frozenset({PROCLOCAL}),
    RULE_TELEMETRY: frozenset({TELDATA}),
}

#: Fully-qualified external callables whose *result* carries labels.
CALL_SOURCES: Dict[str, TaintSet] = {
    "time.time": frozenset({WALLCLOCK}),
    "time.time_ns": frozenset({WALLCLOCK}),
    "time.monotonic": frozenset({WALLCLOCK}),
    "time.monotonic_ns": frozenset({WALLCLOCK}),
    "time.perf_counter": frozenset({WALLCLOCK}),
    "time.perf_counter_ns": frozenset({WALLCLOCK}),
    "time.process_time": frozenset({WALLCLOCK}),
    "time.process_time_ns": frozenset({WALLCLOCK}),
    "datetime.datetime.now": frozenset({WALLCLOCK}),
    "datetime.datetime.utcnow": frozenset({WALLCLOCK}),
    "datetime.date.today": frozenset({WALLCLOCK}),
    "os.getenv": frozenset({ENV}),
    "os.environ.get": frozenset({ENV}),
    "resource.getrusage": frozenset({RUSAGE}),
    "os.getpid": frozenset({HOST}),
    "os.getppid": frozenset({HOST}),
    "os.uname": frozenset({HOST}),
    "platform.node": frozenset({HOST}),
    "platform.platform": frozenset({HOST}),
    "platform.machine": frozenset({HOST}),
    "socket.gethostname": frozenset({HOST}),
    "socket.getfqdn": frozenset({HOST}),
    "getpass.getuser": frozenset({HOST}),
    "subprocess.run": frozenset({HOST}),
    "subprocess.check_output": frozenset({HOST}),
    "subprocess.Popen": frozenset({HOST}),
    "os.urandom": frozenset({RANDOM}),
    "uuid.uuid1": frozenset({RANDOM}),
    "uuid.uuid4": frozenset({RANDOM}),
    "hash": frozenset({PYHASH}),
    "id": frozenset({PYHASH}),
}

#: Dotted-prefix sources: any call under the prefix carries the labels.
CALL_PREFIX_SOURCES: Tuple[Tuple[str, TaintSet], ...] = (
    ("random.", frozenset({RANDOM})),
    ("secrets.", frozenset({RANDOM})),
)

#: Exceptions to the prefixes: ``random.Random(seed)`` is the
#: sanctioned seeded generator, not a nondeterminism source.
CALL_SOURCE_EXCEPTIONS: FrozenSet[str] = frozenset({"random.Random"})

#: Attribute reads whose value carries labels.
ATTR_SOURCES: Dict[str, TaintSet] = {
    "os.environ": frozenset({ENV}),
}

#: Names (parameters or attributes) that denote shared-store roots.
STORE_PATH_NAMES: FrozenSet[str] = frozenset(
    {"cache_dir", "checkpoint_dir", "manifest_dir", "telemetry_dir",
     "store_dir"})

#: Builtins that return live OS handles (must not cross a fork, and
#: open(..., "w"-ish) is also a raw write).
OPEN_FAMILY: FrozenSet[str] = frozenset({"open", "io.open", "os.fdopen"})

#: ``.write_text``/``.write_bytes`` style raw-write method names.
RAW_WRITE_METHODS: FrozenSet[str] = frozenset(
    {"write_text", "write_bytes"})

#: Method names whose receiver/result is a live telemetry object even
#: when the receiver type cannot be resolved.
RESULT_LABELS_BY_NAME: Dict[str, TaintSet] = {
    "enable_telemetry": frozenset({TELOBJ, PROCLOCAL}),
}

#: Model packages (mirrors the per-file rules' list): ``self.attr =
#: <teldata>`` inside them is a telemetry-purity violation.  A
#: ``<nondet>`` store is a cache-key-purity one only into a ``stats``
#: chain; ``self.attr = time.time()`` elsewhere in a model package is
#: left to the per-file ``no-wallclock``/``no-unseeded-random`` rules.
MODEL_PACKAGES: Tuple[str, ...] = (
    "uarch", "functional", "isa", "vp", "reuse", "redundancy")


def flow_rules() -> List[FlowRule]:
    """The four flow contracts as rule-catalogue entries."""
    return [
        FlowRule(
            RULE_CACHE_KEY,
            "nondeterministic values (wallclock/env/rusage/random/"
            "hash()/host identity) must not reach cache keys, "
            "canonical digests, golden-stats counters or checkpoint "
            "payloads unless sanitized"),
        FlowRule(
            RULE_LOCK,
            "writes reaching shared-store paths must go through "
            "atomic_write_text/bytes or append_line, or run under "
            "FileLock — checked through helper indirection"),
        FlowRule(
            RULE_FORK,
            "objects capturing locks, open file handles or live "
            "telemetry sinks must not flow into worker-process "
            "submission (run_many/Pool)"),
        FlowRule(
            RULE_TELEMETRY,
            "data flows into telemetry sinks/spans/progress, never "
            "back: no telemetry-derived value may be stored into "
            "simulator state or stats"),
    ]


@dataclass(frozen=True)
class CallSink:
    """A call-argument sink, matched by bare callee name so helper
    indirection and unresolved receivers still hit it."""

    rule: str
    description: str
    trigger: TaintSet
    include_receiver: bool = True
    guardable: bool = False


def _cache_key_sinks() -> Dict[str, CallSink]:
    out = {}
    for name in ("canonical_digest", "config_digest", "canonical_json",
                 "span_id", "sweep_digest", "cache_key", "capture",
                 "serialize"):
        out[name] = CallSink(
            RULE_CACHE_KEY,
            "a cache-key/digest/checkpoint input", NONDET)
    return out


def _fork_sinks() -> Dict[str, CallSink]:
    out = {}
    for name in ("imap", "imap_unordered", "map_async", "starmap",
                 "starmap_async", "apply_async", "submit", "Pool",
                 "Process", "ProcessPoolExecutor"):
        out[name] = CallSink(
            RULE_FORK, "worker-process submission",
            frozenset({PROCLOCAL}), include_receiver=False)
    return out


#: The static name-based call sinks; annotations add to these.
CALL_SINKS: Dict[str, CallSink] = {**_cache_key_sinks(), **_fork_sinks()}


@dataclass
class Catalog:
    """The merged (static + annotated) contract catalogue."""

    call_sources: Dict[str, TaintSet] = field(
        default_factory=lambda: dict(CALL_SOURCES))
    call_sinks: Dict[str, CallSink] = field(
        default_factory=lambda: dict(CALL_SINKS))
    #: function qualname -> labels its result is cleansed of
    sanitizers: Dict[str, TaintSet] = field(default_factory=dict)
    #: function qualnames that ARE the sanctioned write path
    trusted_writers: Set[str] = field(default_factory=set)
    #: class qualnames whose instances satisfy lock-discipline
    guard_classes: Set[str] = field(default_factory=set)
    #: functions whose result must stay free of NONDET labels
    pure_names: FrozenSet[str] = frozenset(
        {"canonical_digest", "config_digest", "span_id", "sweep_digest",
         "cache_key"})

    def source_labels(self, origin: str) -> TaintSet:
        """Labels of an external call result, or the empty set."""
        if origin in CALL_SOURCE_EXCEPTIONS:
            return frozenset()
        labels = self.call_sources.get(origin)
        if labels is not None:
            return labels
        for prefix, plabels in CALL_PREFIX_SOURCES:
            if origin.startswith(prefix):
                return plabels
        return frozenset()


def build_catalog(project: Project) -> Tuple[Catalog, List[Finding]]:
    """Merge the ``# repro-lint:`` role annotations of *project* into
    the static catalogue; misapplied roles, and roles whose target line
    is no ``def``/``class``/decorator line, become findings."""
    catalog = Catalog()
    findings: List[Finding] = []
    attached: Set[Tuple[str, int]] = set()

    def bad(relpath: str, line: int, message: str) -> None:
        findings.append(Finding(relpath, line, "bad-annotation",
                                message, Severity.ERROR))

    for qual in sorted(project.functions):
        fn = project.functions[qual]
        ann = fn.annotation
        if ann is None:
            continue
        attached.add((fn.module.relpath, ann.line))
        if ann.role == "sanitizer":
            labels: Set[str] = set()
            for arg in ann.args:
                if arg == "*":
                    labels |= ALL_LABELS
                elif arg in ALL_LABELS:
                    labels.add(arg)
                else:
                    bad(fn.module.relpath, ann.line,
                        f"sanitizer names unknown label [{arg}]; "
                        f"known: {', '.join(sorted(ALL_LABELS))}")
            if labels:
                catalog.sanitizers[qual] = frozenset(labels)
        elif ann.role == "trusted-write":
            catalog.trusted_writers.add(qual)
        elif ann.role == "guard":
            bad(fn.module.relpath, ann.line,
                "guard annotates a class, not a function")
        elif ann.role == "sink":
            for rule in ann.args:
                trigger = RULE_TRIGGERS.get(rule)
                if trigger is None:
                    bad(fn.module.relpath, ann.line,
                        f"sink names unknown rule [{rule}]; known: "
                        f"{', '.join(sorted(RULE_TRIGGERS))}")
                    continue
                existing = catalog.call_sinks.get(fn.name)
                if existing is None:
                    catalog.call_sinks[fn.name] = CallSink(
                        rule, f"a declared {rule} sink ({fn.name})",
                        trigger)
                elif existing.rule != rule:
                    bad(fn.module.relpath, ann.line,
                        f"sink [{rule}] conflicts with the existing "
                        f"[{existing.rule}] sink on {fn.name}")

    for cqual in sorted(project.classes):
        info = project.classes[cqual]
        ann = info.annotation
        if info.name == "FileLock":
            catalog.guard_classes.add(cqual)
        if ann is None:
            continue
        attached.add((info.module.relpath, ann.line))
        if ann.role == "guard":
            catalog.guard_classes.add(cqual)
        else:
            bad(info.module.relpath, ann.line,
                f"{ann.role} annotates a function, not a class")

    for relpath in sorted(project.modules):
        for ann in project.modules[relpath].annotations.values():
            if (relpath, ann.line) not in attached:
                bad(relpath, ann.line,
                    f"{ann.role} annotation attaches to nothing: its "
                    f"target line is no top-level or method "
                    f"def/class/decorator line")
    return catalog, findings
