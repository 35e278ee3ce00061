"""The flow engine: interprocedural taint and lock-discipline analysis.

Where the per-file rules check one module at a time, this subpackage
proves whole-program properties of the determinism contracts: a
project model with call resolution (``project``, also the analysis's
one loader), a taint lattice and worklist solver (``lattice``), an
abstract interpreter with function summaries (``engine``), the
source/sink/sanitizer catalogue and the four flow rules (``catalog``),
and a static call graph (``callgraph``).  The driver is
:class:`repro.analysis.Analyzer`.
"""

from .callgraph import CallEdge, build_callgraph
from .catalog import (RULE_CACHE_KEY, RULE_FORK, RULE_LOCK,
                      RULE_TELEMETRY, Catalog, build_catalog, flow_rules)
from .engine import Engine, Summary
from .lattice import EMPTY, TaintSet, concrete, fixpoint, join, markers
from .project import Project

__all__ = [
    "CallEdge", "build_callgraph",
    "RULE_CACHE_KEY", "RULE_FORK", "RULE_LOCK", "RULE_TELEMETRY",
    "Catalog", "build_catalog", "flow_rules",
    "Engine", "Summary",
    "EMPTY", "TaintSet", "concrete", "fixpoint", "join", "markers",
    "Project",
]
