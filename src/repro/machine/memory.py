"""Sparse simulated physical memory.

Memory is organized as explicitly mapped regions backed by 4 KiB pages
allocated on demand.  Accesses outside any mapped region raise
:class:`MemoryFault`, which the hart converts into access-fault traps —
this is what makes a garbage-decrypted pointer *observable* as a crash,
exactly the paper's argument for pointer randomization.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import MemoryFault

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

ACCESS_MASKS = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF, 8: 0xFFFFFFFFFFFFFFFF}
_STRUCTS = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}


@dataclass(frozen=True)
class MemoryRegion:
    """A mapped address range [base, base + size)."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int, length: int = 1) -> bool:
        return self.base <= address and address + length <= self.end


def fast_reader(size: int):
    """Build ``read_uN`` for a class with a ``_read_map`` and an exact
    ``_read(address, size)`` slow path (:class:`Memory` and the system
    bus).

    An access that lies inside one page of the read map is one dict
    lookup and one unpack; every other access takes the slow path.
    """
    unpack = struct.Struct(_STRUCTS[size]).unpack_from
    last = PAGE_SIZE - size

    def read(self, address: int) -> int:
        page = self._read_map.get(address >> PAGE_SHIFT)
        if page is not None:
            offset = address & PAGE_MASK
            if offset <= last:
                return unpack(page, offset)[0]
        return self._read(address, size)

    read.__name__ = read.__qualname__ = f"read_u{8 * size}"
    return read


def fast_writer(size: int):
    """Build ``write_uN``, the store twin of :func:`fast_reader`.

    It returns whether a device absorbed the write: a fast-path hit is
    always RAM, so False.
    """
    pack = struct.Struct(_STRUCTS[size]).pack_into
    mask = ACCESS_MASKS[size]
    last = PAGE_SIZE - size

    def write(self, address: int, value: int) -> bool:
        page = self._write_map.get(address >> PAGE_SHIFT)
        if page is not None:
            offset = address & PAGE_MASK
            if offset <= last:
                pack(page, offset, value & mask)
                return False
        return self._write(address, size, value)

    write.__name__ = write.__qualname__ = f"write_u{8 * size}"
    return write


class Memory:
    """Sparse byte-addressable memory with region mapping.

    ``strict=False`` turns the whole address space into one implicit
    region (useful for small unit tests); the kernel and benchmarks run
    with ``strict=True``.  ``strict`` is fixed at construction.

    The region list, the page dict, the COW set and the watched set are
    the authoritative state.  Two maps ``page_index -> bytearray`` are a
    cache over them that lets typed accesses skip the checks:

    * the *read map* holds every materialized page that lies wholly
      inside one region and is not reserved for a device;
    * the *write map* is the read map minus COW-shared and watched code
      pages.

    They are kept current where that state changes (page materialization
    and COW copy, :meth:`watch_code_page`, :meth:`reserve_pages`,
    :meth:`fork`, :meth:`from_state`; :meth:`map_region` cannot change
    them) and are never rebound, so the system bus can hold on to them.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.regions: list[MemoryRegion] = []
        self._pages: dict[int, bytearray] = {}
        #: Pages holding translated code: a write that lands on one of
        #: these notifies every registered hook so block caches can
        #: invalidate stale translations (self-modifying code).
        self._watched_pages: set[int] = set()
        self._code_write_hooks: list = []
        #: Pages shared copy-on-write with a forked Memory; the first
        #: write to one replaces it with a private copy.
        self._cow_pages: set[int] = set()
        #: Number of COW page copies this instance has performed.
        self.cow_copies = 0
        #: Pages a bus device touches: never in the fast maps.
        self._reserved_pages: set[int] = set()
        self._read_map: dict[int, bytearray] = {}
        self._write_map: dict[int, bytearray] = {}

    # -- fast maps ---------------------------------------------------------------

    def _admit(self, page_index: int, page: bytearray) -> None:
        """Enter a materialized page into the fast maps if it qualifies.

        Region coverage is checked here, when a page is materialized or
        copied, and nowhere on the access path.
        """
        if page_index in self._reserved_pages:
            return
        if self.strict:
            base = page_index << PAGE_SHIFT
            end = base + PAGE_SIZE
            if not any(r.base <= base and end <= r.base + r.size
                       for r in self.regions):
                return
        self._read_map[page_index] = page
        if (page_index not in self._cow_pages
                and page_index not in self._watched_pages):
            self._write_map[page_index] = page

    def _rebuild_fast_maps(self) -> None:
        """Recompute both fast maps from the authoritative state."""
        self._read_map.clear()
        self._write_map.clear()
        for page_index, page in self._pages.items():
            self._admit(page_index, page)

    def reserve_pages(self, page_indices) -> None:
        """Keep ``page_indices`` out of the fast maps (device pages)."""
        for page_index in page_indices:
            self._reserved_pages.add(page_index)
            self._read_map.pop(page_index, None)
            self._write_map.pop(page_index, None)

    # -- code-write tracking -----------------------------------------------------

    def watch_code_page(self, page_index: int) -> None:
        """Report future writes to ``page_index`` to the code-write hooks."""
        self._watched_pages.add(page_index)
        self._write_map.pop(page_index, None)

    def add_code_write_hook(self, hook) -> None:
        """Register ``hook(page_index)`` to run on writes to watched pages."""
        self._code_write_hooks.append(hook)

    # -- copy-on-write forking ---------------------------------------------------

    def fork(self) -> "Memory":
        """Return a child sharing every current page copy-on-write.

        Parent and child each mark today's pages as shared; whichever
        side writes a shared page first replaces it with a private copy,
        so neither can observe the other's subsequent writes.  Region
        mapping and the watched-code-page set are copied; code-write
        hooks are *not* — they bind to the parent's hart, and the
        child's consumers must register their own.
        """
        child = Memory(strict=self.strict)
        child.regions = list(self.regions)
        shared = set(self._pages)
        child._pages = dict(self._pages)
        child._cow_pages = set(shared)
        self._cow_pages |= shared
        child._watched_pages = set(self._watched_pages)
        child._reserved_pages = set(self._reserved_pages)
        # Every page is now COW on both sides: reads stay fast, writes
        # take the slow path until each side copies the page.
        child._read_map.update(self._read_map)
        self._write_map.clear()
        return child

    @classmethod
    def from_state(
        cls, strict: bool, regions, pages: dict, watched_pages=()
    ) -> "Memory":
        """Build memory from ``(name, base, size)`` regions, a
        ``page_index -> bytes`` dict and watched code pages (snapshot
        restore)."""
        memory = cls(strict=strict)
        memory.regions = [MemoryRegion(*region) for region in regions]
        memory._pages = {
            index: bytearray(data) for index, data in pages.items()
        }
        memory._watched_pages = set(watched_pages)
        memory._rebuild_fast_maps()
        return memory

    def shared_page_count(self) -> int:
        """Pages still shared with a fork (not yet privately copied)."""
        return len(self._cow_pages)

    # -- mapping ---------------------------------------------------------------

    def map_region(self, name: str, base: int, size: int) -> MemoryRegion:
        """Map [base, base+size); overlapping an existing region is an error."""
        if size <= 0:
            raise ValueError(f"region {name!r} must have positive size")
        region = MemoryRegion(name, base, size)
        for existing in self.regions:
            if base < existing.end and existing.base < region.end:
                raise ValueError(
                    f"region {name!r} overlaps {existing.name!r}"
                )
        # No present page can newly qualify for the fast maps: in strict
        # mode a page exists only because a write landed inside an
        # existing region, which the new region may not overlap; in
        # non-strict mode every page already qualifies.
        self.regions.append(region)
        return region

    def is_mapped(self, address: int, length: int = 1) -> bool:
        if not self.strict:
            return True
        return any(r.contains(address, length) for r in self.regions)

    def region_at(self, address: int) -> MemoryRegion | None:
        for region in self.regions:
            if region.contains(address):
                return region
        return None

    def _check(self, address: int, length: int) -> None:
        if address < 0:
            raise MemoryFault(address, "negative address")
        if not self.is_mapped(address, length):
            raise MemoryFault(address, "access to unmapped memory")

    # -- raw byte access -------------------------------------------------------

    def read_bytes(self, address: int, length: int) -> bytes:
        self._check(address, length)
        out = bytearray(length)
        offset = 0
        while offset < length:
            page_index = (address + offset) >> PAGE_SHIFT
            page_offset = (address + offset) & (PAGE_SIZE - 1)
            chunk = min(length - offset, PAGE_SIZE - page_offset)
            page = self._pages.get(page_index)
            if page is not None:
                out[offset:offset + chunk] = page[
                    page_offset:page_offset + chunk
                ]
            offset += chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        """Write ``data``; code-write hooks fire after the full write.

        Hooks run at most once per watched page per call (a multi-page
        write used to fire them once per written chunk), and only after
        every byte has landed, so a block-invalidation hook observes the
        fully-written page.
        """
        self._check(address, len(data))
        offset = 0
        length = len(data)
        watched = self._watched_pages
        touched: list[int] = []
        while offset < length:
            page_index = (address + offset) >> PAGE_SHIFT
            page_offset = (address + offset) & (PAGE_SIZE - 1)
            chunk = min(length - offset, PAGE_SIZE - page_offset)
            page = self._pages.get(page_index)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[page_index] = page
                self._admit(page_index, page)
            elif self._cow_pages and page_index in self._cow_pages:
                # First write to a page shared with a fork: go private.
                page = bytearray(page)
                self._pages[page_index] = page
                self._cow_pages.discard(page_index)
                self.cow_copies += 1
                self._admit(page_index, page)
            page[page_offset:page_offset + chunk] = data[
                offset:offset + chunk
            ]
            if watched and page_index in watched and (
                not touched or touched[-1] != page_index
            ):
                touched.append(page_index)
            offset += chunk
        for page_index in touched:
            for hook in self._code_write_hooks:
                hook(page_index)

    # -- typed access -----------------------------------------------------------

    def _read(self, address: int, size: int) -> int:
        return int.from_bytes(self.read_bytes(address, size), "little")

    def _write(self, address: int, size: int, value: int) -> bool:
        self.write_bytes(
            address, (value & ACCESS_MASKS[size]).to_bytes(size, "little")
        )
        return False

    read_u8 = fast_reader(1)
    read_u16 = fast_reader(2)
    read_u32 = fast_reader(4)
    read_u64 = fast_reader(8)
    write_u8 = fast_writer(1)
    write_u16 = fast_writer(2)
    write_u32 = fast_writer(4)
    write_u64 = fast_writer(8)

    # -- program loading ---------------------------------------------------------

    def load_program(self, program) -> None:
        """Map and copy every section of an assembled Program.

        A section already fully inside a mapped region reuses it; one
        entirely in unmapped space gets a fresh page-rounded region.  A
        section *partially* overlapping an existing region is reported
        explicitly — the page-rounded mapping would otherwise fail with
        an unhelpful generic region-overlap error.
        """
        for section in program.sections.values():
            if not section.data:
                continue
            length = len(section.data)
            size = (length + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
            if not self.is_mapped(section.base, length):
                end = section.base + size
                clash = next(
                    (r for r in self.regions
                     if section.base < r.end and r.base < end),
                    None,
                )
                if clash is not None:
                    raise ValueError(
                        f"section {section.name!r} "
                        f"[{section.base:#x}, {section.base + length:#x}) "
                        f"partially overlaps region {clash.name!r} "
                        f"[{clash.base:#x}, {clash.end:#x}): a section "
                        "must lie fully inside one mapped region or in "
                        "unmapped space (its mapping is page-rounded to "
                        f"{size:#x} bytes)"
                    )
                self.map_region(section.name, section.base, size)
            self.write_bytes(section.base, bytes(section.data))
