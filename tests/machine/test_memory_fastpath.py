"""Differential tests for the RAM fast path of ``Memory`` and ``SystemBus``.

Typed accesses first try one lookup in the memory's page-indexed read
or write map and fall back to the exact checked path on a miss.  These
tests drive random region layouts, sub-page devices, non-strict mode,
COW forks and watched code pages against a byte-level reference model
that lives here, and after every operation check that both fast maps
equal a from-scratch rebuild from the authoritative state.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import snapshot as snap
from repro.errors import MemoryFault
from repro.isa import assemble
from repro.machine import Machine
from repro.machine.devices import Device
from repro.machine.machine import SystemBus
from repro.machine.memory import PAGE_SHIFT, PAGE_SIZE, Memory

#: Every random layout lives in the first WINDOW_PAGES pages.
WINDOW_PAGES = 6
WINDOW = WINDOW_PAGES * PAGE_SIZE
MASK64 = (1 << 64) - 1


class RecordingDevice(Device):
    """A device whose reads are a pure function of the access and whose
    writes land in a shared log."""

    def __init__(self, name: str, base: int, size: int, log: list):
        self.name = name
        self.base = base
        self.size = size
        self.log = log

    def read(self, address: int, size: int) -> int:
        return device_value(self.base, address, size)

    def write(self, address: int, size: int, value: int) -> None:
        self.log.append((self.name, address, size, value))


def device_value(base: int, address: int, size: int) -> int:
    # Wider than the access, so the bus's masking is observable.
    return ((address - base + 1) * 0x9E3779B97F4A7C15 + size) & MASK64


class Model:
    """Reference semantics of one memory (and its bus), byte by byte."""

    def __init__(self, strict: bool, regions: list, devices: list):
        self.strict = strict
        self.regions = regions          # [(base, size)]
        self.devices = devices          # [(name, base, size)]
        self.data: dict[int, int] = {}  # address -> byte
        self.pages: set[int] = set()
        self.cow: set[int] = set()
        self.watched: set[int] = set()
        self.cow_copies = 0
        self.hook_calls: list[int] = []
        self.device_log: list = []

    def fork(self) -> "Model":
        child = Model(self.strict, list(self.regions), self.devices)
        child.data = dict(self.data)
        child.pages = set(self.pages)
        child.cow = set(self.pages)
        child.watched = set(self.watched)
        self.cow |= self.pages
        return child

    def _device(self, address: int, size: int):
        for name, base, length in self.devices:
            if base <= address and address + size <= base + length:
                return name, base
        return None

    def _check(self, address: int, size: int):
        if address < 0:
            return MemoryFault(address, "negative address")
        if self.strict and not any(
            base <= address and address + size <= base + length
            for base, length in self.regions
        ):
            return MemoryFault(address, "access to unmapped memory")
        return None

    def read(self, address: int, size: int, via_bus: bool):
        if via_bus:
            device = self._device(address, size)
            if device is not None:
                mask = (1 << (8 * size)) - 1
                return device_value(device[1], address, size) & mask
        fault = self._check(address, size)
        if fault is not None:
            return fault
        return sum(
            self.data.get(address + i, 0) << (8 * i) for i in range(size)
        )

    def write(self, address: int, size: int, value: int, via_bus: bool):
        if via_bus:
            device = self._device(address, size)
            if device is not None:
                self.device_log.append((device[0], address, size, value))
                return True
        fault = self._check(address, size)
        if fault is not None:
            return fault
        touched = []
        for i in range(size):
            page = (address + i) >> PAGE_SHIFT
            if not touched or touched[-1] != page:
                touched.append(page)
            self.data[address + i] = (value >> (8 * i)) & 0xFF
        for page in touched:
            if page not in self.pages:
                self.pages.add(page)
            elif page in self.cow:
                self.cow.discard(page)
                self.cow_copies += 1
        self.hook_calls.extend(page for page in touched if page in self.watched)
        return False


class Instance:
    """One Memory, its bus and its model."""

    def __init__(self, memory: Memory, model: Model):
        self.memory = memory
        self.model = model
        self.hook_calls: list[int] = []
        memory.add_code_write_hook(self.hook_calls.append)
        self.device_log: list = []
        self.bus = SystemBus(memory, [
            RecordingDevice(name, base, size, self.device_log)
            for name, base, size in model.devices
        ])


def expected_maps(memory: Memory, devices: list) -> tuple[dict, dict]:
    """Both fast maps rebuilt from scratch, as ``page -> id(bytearray)``."""
    reserved = {
        page
        for _, base, size in devices
        for page in range(base >> PAGE_SHIFT,
                          ((base + size - 1) >> PAGE_SHIFT) + 1)
    }
    reads, writes = {}, {}
    for index, page in memory._pages.items():
        start = index << PAGE_SHIFT
        whole = not memory.strict or any(
            r.base <= start and start + PAGE_SIZE <= r.end
            for r in memory.regions
        )
        if index in reserved or not whole:
            continue
        reads[index] = id(page)
        if index not in memory._cow_pages and \
                index not in memory._watched_pages:
            writes[index] = id(page)
    return reads, writes


def assert_maps_consistent(memory: Memory, devices: list) -> None:
    reads, writes = expected_maps(memory, devices)
    assert {k: id(v) for k, v in memory._read_map.items()} == reads
    assert {k: id(v) for k, v in memory._write_map.items()} == writes


def assert_same_outcome(got, expected) -> None:
    if isinstance(expected, MemoryFault):
        assert isinstance(got, MemoryFault), got
        assert got.address == expected.address
        assert str(got) == str(expected)
    else:
        assert not isinstance(got, MemoryFault), got
        assert got == expected


# -- strategies ---------------------------------------------------------------

#: Addresses within a few bytes of a page boundary.
near_page_edges = st.tuples(
    st.integers(0, WINDOW_PAGES), st.integers(-9, 8)
).map(lambda pair: pair[0] * PAGE_SIZE + pair[1])


@st.composite
def layouts(draw):
    """Regions cut from one sorted set of points in the window, so they
    can be adjacent, sub-page or not page-aligned; plus sub-page devices
    that may sit inside RAM pages."""
    strict = draw(st.sampled_from([True, True, True, False]))
    edges = sorted(draw(st.sets(
        st.one_of(
            st.integers(0, WINDOW),
            st.integers(0, WINDOW_PAGES).map(lambda p: p * PAGE_SIZE),
            near_page_edges.filter(lambda a: 0 <= a <= WINDOW),
        ),
        min_size=2, max_size=8,
    )))
    regions = [
        (lo, hi - lo)
        for lo, hi in zip(edges, edges[1:])
        if draw(st.booleans())
    ]
    devices = [
        (f"dev{i}", base, size)
        for i, (base, size) in enumerate(draw(st.lists(
            st.tuples(
                st.integers(0, WINDOW - 16),
                st.sampled_from([1, 2, 4, 8, 16]),
            ),
            max_size=2,
        )))
    ]
    return strict, regions, devices


addresses = st.one_of(
    st.integers(-16, WINDOW + 16), near_page_edges
)

operations = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 7), addresses,
              st.sampled_from([1, 2, 4, 8]), st.booleans()),
    st.tuples(st.just("write"), st.integers(0, 7), addresses,
              st.sampled_from([1, 2, 4, 8]), st.booleans(),
              st.integers(0, MASK64)),
    st.tuples(st.just("fork"), st.integers(0, 7)),
    st.tuples(st.just("watch"), st.integers(0, 7),
              st.integers(0, WINDOW_PAGES)),
    st.tuples(st.just("map"), st.integers(0, 7),
              st.one_of(st.integers(0, WINDOW), near_page_edges),
              st.integers(1, 2 * PAGE_SIZE)),
)


# -- the differential property -----------------------------------------------


@given(layouts(), st.lists(operations, min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_fast_path_matches_reference(layout, ops):
    strict, regions, devices = layout
    memory = Memory(strict=strict)
    for i, (base, size) in enumerate(regions):
        memory.map_region(f"r{i}", base, size)
    instances = [Instance(memory, Model(strict, list(regions), devices))]

    for op in ops:
        instance = instances[op[1] % len(instances)]
        memory, model = instance.memory, instance.model
        kind = op[0]
        if kind == "read":
            _, _, address, size, via_bus = op
            target = instance.bus if via_bus else memory
            try:
                got = getattr(target, f"read_u{8 * size}")(address)
            except MemoryFault as fault:
                got = fault
            assert_same_outcome(got, model.read(address, size, via_bus))
        elif kind == "write":
            _, _, address, size, via_bus, value = op
            target = instance.bus if via_bus else memory
            try:
                got = getattr(target, f"write_u{8 * size}")(address, value)
            except MemoryFault as fault:
                got = fault
            expected = model.write(address, size, value, via_bus)
            if isinstance(expected, MemoryFault) or via_bus:
                assert_same_outcome(got, expected)
            else:
                assert got is False
        elif kind == "fork":
            child = Instance(memory.fork(), model.fork())
            instances.append(child)
        elif kind == "watch":
            memory.watch_code_page(op[2])
            model.watched.add(op[2])
        else:
            _, _, base, size = op
            overlaps = any(
                base < lo + length and lo < base + size
                for lo, length in model.regions
            )
            try:
                memory.map_region("late", base, size)
            except ValueError:
                assert overlaps
            else:
                assert not overlaps
                model.regions.append((base, size))

        for each in instances:
            assert each.hook_calls == each.model.hook_calls
            assert each.device_log == each.model.device_log
            assert set(each.memory._pages) == each.model.pages
            assert each.memory._cow_pages == each.model.cow
            assert each.memory.cow_copies == each.model.cow_copies
            assert_maps_consistent(each.memory, devices)

    for each in instances:
        for index, page in each.memory._pages.items():
            start = index << PAGE_SHIFT
            assert bytes(page) == bytes(
                each.model.data.get(start + i, 0) for i in range(PAGE_SIZE)
            )


# -- fixed cases ----------------------------------------------------------------


def test_fast_path_hits_only_whole_private_pages():
    memory = Memory()
    memory.map_region("ram", 0x1000, 0x3000)
    memory.map_region("tail", 0x4000, 0x800)      # sub-page region
    memory.write_u64(0x1000, 1)
    memory.write_u64(0x2000, 2)
    memory.write_u64(0x4000, 3)
    assert set(memory._read_map) == {1, 2}
    assert set(memory._write_map) == {1, 2}
    memory.watch_code_page(1)
    assert set(memory._write_map) == {2}
    child = memory.fork()
    assert set(child._read_map) == {1, 2}
    assert child._write_map == {} and memory._write_map == {}
    child.write_u64(0x2000, 5)
    assert set(child._write_map) == {2}
    assert memory.read_u64(0x2000) == 2


def test_device_pages_are_reserved():
    memory = Memory()
    memory.map_region("ram", 0x0, 0x4000)
    memory.write_u64(0x1000, 7)
    log: list = []
    bus = SystemBus(memory, [RecordingDevice("d", 0x1010, 8, log)])
    assert 1 not in memory._read_map and 1 not in memory._write_map
    assert bus.device_at(0x1010, 8) is bus.devices[0]
    assert bus.device_at(0x1014, 8) is None
    assert bus.write_u64(0x1010, 9) is True
    assert bus.write_u64(0x1000, 8) is False
    assert memory.read_u64(0x1000) == 8
    assert log == [("d", 0x1010, 8, 9)]


def test_restore_rebuilds_fast_maps():
    program = assemble(
        "_start:\n"
        "    li t0, 0x0800f000\n"
        "    li t1, 0x1234\n"
        "    sd t1, 0(t0)\n"
        "    ld t2, 0(t0)\n"
        "    j _start\n"
    )
    machine = Machine.from_program(program)
    machine.run(max_steps=50)
    restored = snap.restore(snap.from_bytes(snap.to_bytes(
        snap.capture(machine)
    )))
    memory = restored.memory
    assert set(memory._pages) == set(machine.memory._pages)
    assert memory._watched_pages == machine.memory._watched_pages
    devices = [(type(d).__name__, d.base, d.size) for d in restored.bus.devices]
    assert_maps_consistent(memory, devices)
    assert memory._read_map  # the restored stack and text pages are fast
    assert restored.bus.read_u64(0x0800F000) == 0x1234
    text_page = program.entry >> PAGE_SHIFT
    assert text_page in memory._read_map
    assert text_page not in memory._write_map  # still watched
    calls: list[int] = []
    memory.add_code_write_hook(calls.append)
    restored.bus.write_u32(program.entry, 0x13)
    assert calls == [text_page]
    restored.bus.write_u64(0x0800F000, 0x99)
    assert machine.bus.read_u64(0x0800F000) == 0x1234
    assert_maps_consistent(memory, devices)


def test_sibling_forks_are_isolated():
    program = assemble("_start:\n    j _start\n")
    parent = Machine.from_program(program)
    parent.bus.write_u64(0x0800F000, 1)
    first = snap.fork(parent)
    second = snap.fork(parent)
    for machine in (parent, first, second):
        assert machine.memory._write_map == {}
    first.bus.write_u64(0x0800F000, 2)     # COW copy, then fast
    first.bus.write_u64(0x0800F008, 3)
    assert first.memory.cow_copies == 1
    assert first.memory._write_map[0x0800F] is \
        first.memory._pages[0x0800F]
    assert parent.bus.read_u64(0x0800F000) == 1
    assert second.bus.read_u64(0x0800F000) == 1
    assert second.bus.read_u64(0x0800F008) == 0
    second.bus.write_u64(0x0800F000, 4)
    assert first.bus.read_u64(0x0800F000) == 2
    assert parent.bus.read_u64(0x0800F000) == 1
    for machine in (parent, first, second):
        devices = [
            (type(d).__name__, d.base, d.size) for d in machine.bus.devices
        ]
        assert_maps_consistent(machine.memory, devices)
