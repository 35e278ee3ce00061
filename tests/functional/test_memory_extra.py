"""Additional memory-model coverage (bulk helpers, page accounting)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.functional import Memory
from repro.functional.memory import PAGE_SIZE

#: Addresses clustered around page boundaries (and the top of the 32-bit
#: space), so page-crossing accesses are common.
_ADDRESSES = st.one_of(
    st.builds(lambda page, delta: max(0, page * PAGE_SIZE + delta),
              st.integers(0, 4), st.integers(-4, 4)),
    st.integers(0xFFFF_FFF0, 0xFFFF_FFFF),
    st.integers(0, 5 * PAGE_SIZE))
_SIZES = st.sampled_from([1, 2, 4])
_WORDS = st.integers(0, 0xFFFF_FFFF)


class TestBulkHelpers:
    def test_load_image(self):
        memory = Memory()
        memory.load_image({0x100: 0xAB, 0x101: 0xCD})
        assert memory.read(0x100, 2) == 0xCDAB

    def test_dump(self):
        memory = Memory()
        memory.write_word(0x200, 0x04030201)
        assert memory.dump(0x200, 4) == bytes([1, 2, 3, 4])

    def test_dump_untouched_is_zeros(self):
        assert Memory().dump(0x9000, 8) == bytes(8)

    def test_touched_pages(self):
        memory = Memory()
        memory.write_byte(0, 1)
        memory.write_byte(PAGE_SIZE * 5, 1)
        assert set(memory.touched_pages()) == {0, 5}

    def test_read_word_signed(self):
        memory = Memory()
        memory.write_word(0, 0xFFFFFFFE)
        assert memory.read_word_signed(0) == -2

    def test_high_addresses(self):
        memory = Memory()
        memory.write_word(0xFFFF_FFF0, 0xDEAD)
        assert memory.read_word(0xFFFF_FFF0) == 0xDEAD

    def test_copy_preserves_all_pages(self):
        memory = Memory()
        for page in range(4):
            memory.write_byte(page * PAGE_SIZE + 7, page + 1)
        clone = memory.copy()
        for page in range(4):
            assert clone.read_byte(page * PAGE_SIZE + 7) == page + 1


class TestSizedAccessMatchesBytes:
    """Sized reads/writes equal their byte-wise composition.

    ``read``/``write`` take a single-slice fast path when the access fits
    in one page and fall back to a per-byte loop across a page boundary;
    both must agree with composing ``read_byte``/``write_byte`` by hand,
    on unmapped pages, page-crossing addresses and signed reads alike.
    """

    @staticmethod
    def _bytewise_read(memory, address, nbytes, signed):
        value = 0
        for offset in range(nbytes):
            value |= memory.read_byte(address + offset) << (8 * offset)
        if signed and value & (1 << (8 * nbytes - 1)):
            value -= 1 << (8 * nbytes)
        return value & 0xFFFFFFFF

    @given(writes=st.lists(st.tuples(_ADDRESSES, _WORDS, _SIZES),
                           max_size=12),
           reads=st.lists(st.tuples(_ADDRESSES, _SIZES, st.booleans()),
                          min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_sized_access_equals_bytewise(self, writes, reads):
        memory = Memory()
        reference = Memory()
        for address, value, nbytes in writes:
            memory.write(address, value, nbytes)
            for offset in range(nbytes):
                reference.write_byte(address + offset,
                                     (value >> (8 * offset)) & 0xFF)
        assert set(memory.touched_pages()) \
            == set(reference.touched_pages())
        for address, nbytes, signed in reads:
            assert memory.read(address, nbytes, signed) \
                == self._bytewise_read(reference, address, nbytes, signed)
            assert memory.dump(address, nbytes) \
                == reference.dump(address, nbytes)

    @given(address=_ADDRESSES, nbytes=_SIZES, signed=st.booleans())
    def test_unmapped_reads_are_zero(self, address, nbytes, signed):
        memory = Memory()
        assert memory.read(address, nbytes, signed) == 0
        assert not list(memory.touched_pages())

    @given(offset=st.integers(1, 3), value=_WORDS)
    def test_page_crossing_word(self, offset, value):
        memory = Memory()
        address = 3 * PAGE_SIZE - offset  # straddles pages 2 and 3
        memory.write(address, value, 4)
        assert set(memory.touched_pages()) == {2, 3}
        assert memory.read(address, 4) == value
        signed = memory.read(address, 4, signed=True)
        assert signed == value  # u32-wrapped, like every read
