"""Unit tests for the Value Prediction Table."""

from repro.uarch.config import VPConfig
from repro.vp.table import (
    KIND_ADDRESS,
    KIND_RESULT,
    ValuePredictionTable,
    vp_key,
)

#: The table keys of the instruction at 0x1000.
RESULT = vp_key(0x1000, KIND_RESULT)
ADDRESS = vp_key(0x1000, KIND_ADDRESS)


def make_table(entries=64, assoc=4, threshold=2):
    return ValuePredictionTable(VPConfig(
        enabled=True, entries=entries, associativity=assoc,
        confidence_threshold=threshold))


def instances(table, key):
    """Every instance stored under *key*, confident or not (MRU first)."""
    return [inst for inst in table.sets[key & table.set_mask]
            if inst.tag == key]


class TestInsertionAndConfidence:
    def test_new_value_starts_unconfident(self):
        table = make_table()
        table.update(RESULT, 42)
        assert table.confident(RESULT) == []
        assert len(instances(table, RESULT)) == 1

    def test_value_becomes_confident_after_repeats(self):
        table = make_table()
        table.update(RESULT, 42)
        table.update(RESULT, 42)
        confident = table.confident(RESULT)
        assert [inst.value for inst in confident] == [42]

    def test_confidence_saturates(self):
        table = make_table()
        for _ in range(10):
            table.update(RESULT, 42)
        instance = instances(table, RESULT)[0]
        assert instance.confidence == 3  # 2-bit counter

    def test_misprediction_decrements(self):
        table = make_table()
        for _ in range(4):
            table.update(RESULT, 42)
        table.update(RESULT, actual=43, mispredicted=42)
        values = {inst.value: inst.confidence
                  for inst in instances(table, RESULT)}
        assert values[42] == 2  # decremented from saturation
        assert values[43] == 1  # newly inserted

    def test_confidence_floor_is_zero(self):
        table = make_table()
        table.update(RESULT, 42)
        for _ in range(5):
            table.update(RESULT, actual=1, mispredicted=42)
        values = {inst.value: inst.confidence
                  for inst in instances(table, RESULT)}
        assert values[42] == 0


class TestInstanceManagement:
    def test_up_to_assoc_instances(self):
        table = make_table(assoc=4)
        for value in range(4):
            table.update(RESULT, value)
        assert len(instances(table, RESULT)) == 4

    def test_lru_eviction_beyond_assoc(self):
        table = make_table(assoc=4)
        for value in range(5):
            table.update(RESULT, value)
        values = [inst.value for inst in instances(table, RESULT)]
        assert 0 not in values  # LRU victim
        assert set(values) == {1, 2, 3, 4}

    def test_update_refreshes_lru(self):
        table = make_table(assoc=4)
        for value in range(4):
            table.update(RESULT, value)
        table.update(RESULT, 0)  # value 0 becomes MRU
        table.update(RESULT, 9)  # evicts value 1
        values = {inst.value for inst in instances(table, RESULT)}
        assert 0 in values and 1 not in values

    def test_result_and_address_spaces_are_disjoint(self):
        table = make_table()
        table.update(RESULT, 42)
        table.update(ADDRESS, 0x8000)
        assert [i.value for i in instances(table, RESULT)] == [42]
        assert [i.value for i in instances(table, ADDRESS)] \
            == [0x8000]

    def test_distinct_pcs_distinct_instances(self):
        table = make_table(entries=1 << 16)
        other = vp_key(0x2000, KIND_RESULT)
        table.update(RESULT, 1)
        table.update(other, 2)
        assert [i.value for i in instances(table, RESULT)] == [1]
        assert [i.value for i in instances(table, other)] == [2]

    def test_paper_geometry(self):
        table = ValuePredictionTable(VPConfig(enabled=True))
        assert table.num_sets * table.assoc == 16 * 1024
        assert table.assoc == 4
