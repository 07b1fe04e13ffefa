"""Per-layer host-time accounting, installed from outside the program.

The traced run replaces the public entry points of each layer with
timing wrappers *before any machine is built*, so translated and
compiled blocks capture the wrapped bus and crypto methods too.  Nothing
here attaches a hart tracer: the compiled tier keeps running, which the
traced run checks by comparing its compiled-block count against an
untraced run of the same seed.

Two kinds of record are kept:

* per-layer accumulators ``[calls, inclusive seconds, self seconds]``;
  a layer's self time is its inclusive time minus the inclusive time of
  the wrapped layers it called (a stack of open frames tracks that);
* coarse spans ``(name, start, end, parent)`` for cell, build, boot,
  fork and run, written out at the end of the run.

The hot boundaries (bus accesses, crypto ops, trap entry) only touch
the accumulators.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

perf = time.perf_counter

#: Layers with an accumulator.  ``hart`` is the dispatch loop
#: (``Machine.run``/``run_until``); its self time excludes the memory,
#: crypto and trap layers it calls.
LAYERS = (
    "build", "compile", "assemble", "boot", "fork", "hart",
    "mem.read", "mem.write", "crypto", "trap",
)

#: Count-only probes (no timing): cipher calls, memo attempts/hits,
#: Trap constructions, blocks compiled by the third tier.
COUNTERS = (
    "qarma.calls", "memo.attempts", "memo.hits", "trap.raised",
    "compiled_blocks", "hart.instret",
)

#: Layers that get a coarse span per call, and the span's name.
SPAN_NAMES = {"build": "build", "boot": "boot", "fork": "fork", "hart": "run"}

SPAN_LIMIT = 200_000


class Ledger:
    """Accumulators, open-frame stack and coarse spans of one process."""

    def __init__(self):
        self.acc = {name: [0, 0.0, 0.0] for name in LAYERS}
        self.counts = dict.fromkeys(COUNTERS, 0)
        #: Open timed frames; each holds the seconds its children took.
        self.stack: list[list[float]] = []
        #: Finished spans: ``[name, start, end, parent index]``.
        self.spans: list[list] = []
        self._open_spans: list[int] = []

    def reset(self) -> None:
        for acc in self.acc.values():
            acc[0], acc[1], acc[2] = 0, 0.0, 0.0
        for name in self.counts:
            self.counts[name] = 0
        self.spans.clear()
        self._open_spans.clear()

    def snapshot(self) -> dict:
        return {
            "acc": {name: list(acc) for name, acc in self.acc.items()},
            "counts": dict(self.counts),
        }

    # -- coarse spans ------------------------------------------------------------

    def open_span(self, name: str) -> int:
        parent = self._open_spans[-1] if self._open_spans else -1
        if len(self.spans) >= SPAN_LIMIT:
            self._open_spans.append(-1)
            return -1
        self.spans.append([name, perf(), None, parent])
        index = len(self.spans) - 1
        self._open_spans.append(index)
        return index

    def close_span(self, index: int) -> None:
        self._open_spans.pop()
        if index >= 0:
            self.spans[index][2] = perf()

    def span_dicts(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
            if end is not None
        ]


# -- wrappers ---------------------------------------------------------------------


def _timed(ledger: Ledger, layer: str, fn):
    acc = ledger.acc[layer]
    stack = ledger.stack
    span_name = SPAN_NAMES.get(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = [0.0]
        stack.append(frame)
        span = ledger.open_span(span_name) if span_name else -1
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf() - start
            if span_name:
                ledger.close_span(span)
            stack.pop()
            acc[0] += 1
            acc[1] += elapsed
            acc[2] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed

    return wrapper


def _hart_timed(ledger: Ledger, fn):
    """``Machine.run``/``run_until``: the dispatch layer, plus the
    instructions each call retired."""
    timed = _timed(ledger, "hart", fn)
    counts = ledger.counts

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        before = self.hart.instret
        try:
            return timed(self, *args, **kwargs)
        finally:
            counts["hart.instret"] += self.hart.instret - before

    return wrapper


def _counted(ledger: Ledger, name: str, fn):
    counts = ledger.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _boot_timed(ledger: Ledger, fn):
    """``BootCache.machine_for``: time only the calls that boot a template.

    A boot shows as the cache's ``boots`` counter moving; the fork every
    call ends with is its own layer and is subtracted.
    """
    acc = ledger.acc["boot"]
    fork_acc = ledger.acc["fork"]
    stack = ledger.stack

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        boots = self.boots
        fork_before = fork_acc[1]
        frame = [0.0]
        stack.append(frame)
        span = ledger.open_span("boot")
        start = perf()
        try:
            return fn(self, *args, **kwargs)
        finally:
            elapsed = perf() - start
            ledger.close_span(span)
            stack.pop()
            if self.boots > boots:
                acc[0] += self.boots - boots
                acc[1] += elapsed - (fork_acc[1] - fork_before)
                acc[2] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed

    return wrapper


def _memo_counted(ledger: Ledger, fn):
    counts = ledger.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        counts["memo.attempts"] += 1
        if result is not None:
            counts["memo.hits"] += 1
        return result

    return wrapper


def _trap_init_counted(ledger: Ledger, fn):
    counts = ledger.counts

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        counts["trap.raised"] += 1
        fn(self, *args, **kwargs)

    return wrapper


#: A delayed bus method times one call in this many to track its mean cost.
DELAY_SAMPLE_EVERY = 16


def _delayed(factor: float, fn):
    """Make a bus method (``(self, address[, value])``) about ``factor``
    times as slow.

    After every call the wrapper spins for ``factor - 1`` times the
    method's mean cost, estimated from every ``DELAY_SAMPLE_EVERY``-th
    call (timing each call would itself slow the run down by ~12%).  At
    factor 1.0 the wrapper only adds a call.
    """
    extra = factor - 1.0
    if not extra:
        @functools.wraps(fn)
        def passthrough(self, *args):
            return fn(self, *args)

        return passthrough
    #: [calls, sampled calls, sampled seconds]
    state = [0, 0, 0.0]

    @functools.wraps(fn)
    def wrapper(self, *args):
        state[0] += 1
        if state[0] % DELAY_SAMPLE_EVERY == 1:
            start = perf()
            result = fn(self, *args)
            state[2] += perf() - start
            state[1] += 1
        else:
            result = fn(self, *args)
        stop = perf() + state[2] / state[1] * extra
        while perf() < stop:
            pass
        return result

    return wrapper


def replace_function(module_name: str, attr: str, make_wrapper) -> None:
    """Swap a module-level function everywhere it has been imported.

    ``from x import f`` copies the binding, so every loaded ``repro``
    module whose namespace holds the original object gets the wrapper.
    """
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(loaded)
        for key, value in list(namespace.items()):
            if value is original:
                setattr(loaded, key, wrapper)


def replace_method(cls, attr: str, make_wrapper) -> None:
    setattr(cls, attr, make_wrapper(cls.__dict__[attr]))


_BUS_READS = ("read_u8", "read_u16", "read_u32", "read_u64")
_BUS_WRITES = ("write_u8", "write_u16", "write_u32", "write_u64")


def _import_program():
    """Load every module a wrapper touches (and their importers)."""
    for name in (
        "repro.bench.runner", "repro.kernel", "repro.kernel.build",
        "repro.kernel.bootcache", "repro.compiler", "repro.isa",
        "repro.snapshot", "repro.machine.machine", "repro.machine.hart",
        "repro.crypto.engine", "repro.crypto.memo", "repro.crypto.qarma",
        "repro.machine.trap",
    ):
        importlib.import_module(name)


def install_compile_counter(ledger: Ledger) -> None:
    """Count third-tier block compilations (the only probe of an
    untraced run: a few hundred calls per matrix, each far costlier
    than the count)."""
    _import_program()
    replace_function(
        "repro.machine.blockcompile", "compile_block",
        lambda fn: _counted(ledger, "compiled_blocks", fn),
    )


def install(ledger: Ledger) -> None:
    """Wrap every layer boundary; call before any machine is built."""
    _import_program()
    from repro.crypto.engine import CryptoEngine
    from repro.crypto.memo import CipherMemo
    from repro.crypto.qarma import Qarma64
    from repro.kernel.bootcache import BootCache
    from repro.machine.hart import Hart
    from repro.machine.machine import Machine, SystemBus
    from repro.machine.trap import Trap

    install_compile_counter(ledger)
    replace_function(
        "repro.kernel.build", "build_kernel",
        lambda fn: _timed(ledger, "build", fn),
    )
    replace_function(
        "repro.compiler.pipeline", "compile_module",
        lambda fn: _timed(ledger, "compile", fn),
    )
    replace_function(
        "repro.isa.assembler", "assemble",
        lambda fn: _timed(ledger, "assemble", fn),
    )
    replace_function(
        "repro.snapshot.fork", "fork",
        lambda fn: _timed(ledger, "fork", fn),
    )
    replace_method(BootCache, "machine_for", lambda fn: _boot_timed(ledger, fn))
    for attr in ("run", "run_until"):
        replace_method(Machine, attr, lambda fn: _hart_timed(ledger, fn))
    for attr in _BUS_READS:
        replace_method(SystemBus, attr, lambda fn: _timed(ledger, "mem.read", fn))
    for attr in _BUS_WRITES:
        replace_method(
            SystemBus, attr, lambda fn: _timed(ledger, "mem.write", fn)
        )
    for attr in ("encrypt", "decrypt"):
        replace_method(
            CryptoEngine, attr, lambda fn: _timed(ledger, "crypto", fn)
        )
        replace_method(
            Qarma64, attr, lambda fn: _counted(ledger, "qarma.calls", fn)
        )
    replace_method(CipherMemo, "lookup", lambda fn: _memo_counted(ledger, fn))
    replace_method(Hart, "_enter_trap", lambda fn: _timed(ledger, "trap", fn))
    replace_method(Trap, "__init__", lambda fn: _trap_init_counted(ledger, fn))


def install_mem_delay(factor: float) -> None:
    """Regression self-test: make every bus access ``factor`` times as slow."""
    from repro.machine.machine import SystemBus

    for attr in _BUS_READS + _BUS_WRITES:
        replace_method(SystemBus, attr, lambda fn: _delayed(factor, fn))


def add_snapshots(a: dict, b: dict) -> dict:
    """Two ledger snapshots summed, accumulator by accumulator."""
    return {
        "acc": {
            name: [x + y for x, y in zip(acc, b["acc"][name])]
            for name, acc in a["acc"].items()
        },
        "counts": {
            name: count + b["counts"][name]
            for name, count in a["counts"].items()
        },
    }


def layer_metrics(snap: dict, per: float, scale: float) -> dict:
    """Per-layer figures from a ledger snapshot, per matrix (``per`` is
    the number of passes); times are multiplied by the run's host-speed
    ``scale`` (see calibrate.py)."""
    acc, counts = snap["acc"], snap["counts"]
    reads, writes = acc["mem.read"], acc["mem.write"]
    mem_calls = reads[0] + writes[0]
    mem_s = (reads[1] + writes[1]) * scale
    hart_s = acc["hart"][2] * scale
    instret = counts["hart.instret"]
    memo_attempts = counts["memo.attempts"]
    return {
        "build.calls": acc["build"][0] / per,
        "build.s": acc["build"][1] * scale / per,
        "compile.s": acc["compile"][1] * scale / per,
        "assemble.s": acc["assemble"][1] * scale / per,
        "fork.calls": acc["fork"][0] / per,
        "fork.s": acc["fork"][1] * scale / per,
        "hart.instret": instret / per,
        "hart.s": hart_s / per,
        "hart.ns_per_instr": hart_s / instret * 1e9 if instret else 0.0,
        "mem.reads": reads[0] / per,
        "mem.writes": writes[0] / per,
        "mem.s": mem_s / per,
        "mem.ns_per_access": mem_s / mem_calls * 1e9 if mem_calls else 0.0,
        "crypto.ops": acc["crypto"][0] / per,
        "crypto.s": acc["crypto"][1] * scale / per,
        "qarma.calls": counts["qarma.calls"] / per,
        "memo.hit_ratio": (
            counts["memo.hits"] / memo_attempts if memo_attempts else 0.0
        ),
        "trap.count": counts["trap.raised"] / per,
        "trap.per_kinstr": (
            counts["trap.raised"] / instret * 1e3 if instret else 0.0
        ),
    }
