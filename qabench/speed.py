"""The host's current speed, read from a fixed pure-Python loop.

The benchmark runs on a shared host whose speed drifts: the same work
can take twice as long for seconds or minutes at a time, in CPU time as
well as in wall time, so a fastest-of-N pick does not escape a slow
period that lasts a whole run. The program's processes and this loop
slow down together. So every timed unit of the benchmark is bracketed
by readings of the loop, taken in the benchmark process while no
program process is working, and its wall time is scaled by REFERENCE_S over the mean
of the two readings. A change to the program moves the scaled time as
it moves the wall time; a slow host period moves the wall time and the
readings alike, and cancels out.

The loop is the benchmark's own code and does the kind of work the
program does (lower-casing, splitting, counting in a dict, sorting), so
a change to the program does not change it.
"""

import os
import time

# The loop's time on the host the bounds were set on (2-vCPU cloud VM,
# Python 3.11) in its fast state; scaled times are seconds at that speed.
REFERENCE_S = 0.0046
READING_LOOPS = 4

_TEXT = " ".join(
    f"Word{i % 97} token{i % 389} The {i % 13} quick{i % 7} fox" for i in range(5000)
)


def _loop() -> int:
    counts: dict[str, int] = {}
    for token in _TEXT.lower().split():
        counts[token] = counts.get(token, 0) + 1
    return len(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU.

    The readings then see the same CPU, and the same neighbours on the
    host, as the program they scale.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reading() -> float:
    """Seconds one loop takes now: the mean over READING_LOOPS loops."""
    t0 = time.perf_counter()
    for _ in range(READING_LOOPS):
        _loop()
    return (time.perf_counter() - t0) / READING_LOOPS


def scaled(wall: float, before: float, after: float) -> float:
    """`wall` at the reference speed, from the readings around it."""
    return wall * REFERENCE_S * 2.0 / (before + after)
