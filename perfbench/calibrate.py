"""Host-speed calibration for the timed figures.

The benchmark shares its cores with other tenants, and their load moves
the speed of a pure-Python loop by ±20% within seconds and drifts it by
as much over minutes.  Raw host seconds from two runs minutes apart
then differ by more than any useful regression bound.  So every timed
figure is reported at a *nominal host speed*: next to the work, the
benchmark times a fixed interpreter-bound loop (integer arithmetic,
dict and bytearray traffic, ``int.to_bytes``/``from_bytes``, the mix
the simulator itself spends its time on), and scales each raw time by
``NOMINAL_S / loop time``.

The loop runs in a sibling interpreter that never imports the program
(this file run as ``calibrate.py --serve``): the benchmark process
writes a request line and blocks until the sibling answers with the
loop's time.  Anything the program does to its own interpreter — a
profiler signal, a ``sys.setprofile`` hook, a busy thread, garbage
collections — therefore slows the program's figures and not the
yardstick they are divided by.

A figure changes with the program's own speed exactly as the raw time
would; the raw times are printed on stderr for reference.
"""

from __future__ import annotations

import atexit
import subprocess
import sys
import time

MASK = (1 << 64) - 1
#: Loop iterations per calibration sample (about 5 ms).
ITERATIONS = 2500
#: Time of one sample at nominal host speed (2-core container the
#: benchmark was defined on, median over several minutes).
NOMINAL_S = 0.005


def _loop(iterations: int) -> int:
    memory = bytearray(4096)
    table = dict.fromkeys(range(256), 0)
    acc = 0x9E3779B97F4A7C15
    for i in range(iterations):
        a = (i * 2654435761 + acc) & 0xFFFFFFFF
        table[a & 0xFF] = a
        offset = (a >> 3) & 0xFF8
        memory[offset:offset + 8] = (acc ^ a).to_bytes(8, "little")
        acc = (
            acc * 6364136223846793005
            + int.from_bytes(memory[offset:offset + 8], "little")
            + table[i & 0xFF]
        ) & MASK
    return acc


def serve() -> None:
    """Sibling side: one timed loop per request line, until EOF.  A
    line may name the loop's iterations; the reply is always scaled to
    ``ITERATIONS``."""
    requests, replies = sys.stdin.buffer, sys.stdout
    while line := requests.readline():
        iterations = int(line) if line.strip() else ITERATIONS
        start = time.perf_counter()
        _loop(iterations)
        elapsed = (time.perf_counter() - start) * ITERATIONS / iterations
        replies.write(f"{elapsed!r}\n")
        replies.flush()


_sibling: subprocess.Popen | None = None


def _start() -> subprocess.Popen:
    global _sibling
    if _sibling is None:
        _sibling = subprocess.Popen(
            [sys.executable, __file__, "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        atexit.register(stop)
    return _sibling


def sample(iterations: int | None = None) -> float:
    """Seconds one calibration loop takes right now (in the sibling).
    A shorter loop of ``iterations`` is timed and scaled to a full one."""
    sibling = _start()
    sibling.stdin.write(f"{iterations or ''}\n")
    sibling.stdin.flush()
    return float(sibling.stdout.readline())


def stop() -> None:
    """End the sibling and wait for it."""
    global _sibling
    if _sibling is not None:
        _sibling.stdin.close()
        try:
            _sibling.wait(10)
        except subprocess.TimeoutExpired:
            # A forked child still holds the pipe open.
            _sibling.kill()
            _sibling.wait()
        _sibling.stdout.close()
        _sibling = None


def factor(samples: list[float]) -> float:
    """Scale from raw seconds to nominal seconds for these samples."""
    return NOMINAL_S * len(samples) / sum(samples)


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    serve()
