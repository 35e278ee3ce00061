"""Sparse byte-addressable memory used by both simulators.

Memory is organised as a dictionary of fixed-size ``bytearray`` pages so
that programs can scatter data across a 32-bit address space (text, data,
stack) without allocating gigabytes.  Reads of untouched memory return 0,
matching a zero-initialised address space.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

from ..isa.opcodes import MASK32, s32, u32

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class Memory:
    """Paged sparse memory with word/half/byte accessors."""

    __slots__ = ("_pages",)

    def __init__(self, image: Dict[int, int] | None = None):
        self._pages: Dict[int, bytearray] = {}
        if image:
            for address, byte in image.items():
                self.write_byte(address, byte)

    # -- byte primitives -------------------------------------------------------

    def read_byte(self, address: int) -> int:
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            return 0
        return page[address & PAGE_MASK]

    def write_byte(self, address: int, value: int) -> None:
        page_number = address >> PAGE_SHIFT
        page = self._pages.get(page_number)
        if page is None:
            page = self._pages[page_number] = bytearray(PAGE_SIZE)
        page[address & PAGE_MASK] = value & 0xFF

    # -- sized accessors (little-endian) ---------------------------------------

    def read(self, address: int, nbytes: int, signed: bool = False) -> int:
        start = address & PAGE_MASK
        if start + nbytes <= PAGE_SIZE:
            # Within one page: one slice instead of a call per byte.
            page = self._pages.get(address >> PAGE_SHIFT)
            if page is None:
                return 0
            return int.from_bytes(page[start:start + nbytes], "little",
                                  signed=signed) & MASK32
        value = 0
        for offset in range(nbytes):
            value |= self.read_byte(address + offset) << (8 * offset)
        if signed:
            sign_bit = 1 << (8 * nbytes - 1)
            if value & sign_bit:
                value -= sign_bit << 1
        return u32(value)

    def write(self, address: int, value: int, nbytes: int) -> None:
        value = u32(value)
        start = address & PAGE_MASK
        if start + nbytes <= PAGE_SIZE:
            # Within one page: one slice store instead of a call per byte.
            page_number = address >> PAGE_SHIFT
            page = self._pages.get(page_number)
            if page is None:
                page = self._pages[page_number] = bytearray(PAGE_SIZE)
            page[start:start + nbytes] = (
                value & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little")
            return
        for offset in range(nbytes):
            self.write_byte(address + offset, (value >> (8 * offset)) & 0xFF)

    def read_word(self, address: int) -> int:
        return self.read(address, 4)

    def write_word(self, address: int, value: int) -> None:
        self.write(address, value, 4)

    def read_word_signed(self, address: int) -> int:
        return s32(self.read(address, 4))

    # -- bulk helpers -----------------------------------------------------------

    def load_image(self, image: Dict[int, int]) -> None:
        """Copy a byte-granular image (e.g. :attr:`Program.data`) into memory."""
        for address, byte in image.items():
            self.write_byte(address, byte)

    def copy(self) -> "Memory":
        clone = Memory()
        clone._pages = {number: bytearray(page)
                        for number, page in self._pages.items()}
        return clone

    def snapshot_pages(self) -> Dict[int, bytes]:
        """Immutable page map for warm-state capture (page number -> bytes)."""
        return {number: bytes(page)
                for number, page in self._pages.items()}

    @classmethod
    def from_pages(cls, pages: Dict[int, bytes]) -> "Memory":
        """Rebuild a memory from a :meth:`snapshot_pages` map."""
        memory = cls()
        memory._pages = {number: bytearray(page)
                         for number, page in pages.items()}
        return memory

    def touched_pages(self) -> Iterable[int]:
        """Page numbers that have been written (for tests/inspection)."""
        return self._pages.keys()

    def dump(self, address: int, nbytes: int) -> bytes:
        """Return *nbytes* starting at *address* as ``bytes``."""
        return bytes(self.read_byte(address + i) for i in range(nbytes))
