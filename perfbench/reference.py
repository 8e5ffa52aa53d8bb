"""A speedometer for the host: a fixed pure-Python loop run beside each call.

The benchmark's machine is a few cores of a shared host.  Each core's speed
flips between a fast and a slow state (about 1.8x apart) every few seconds,
and the cores do not flip together, so a raw time varies by 10-35% from run
to run however long the run is.  The benchmark therefore pins itself to one
core and runs this loop there, in a process of its own at low priority (nice
10, about a tenth of the core), for the whole run.  The scheduler interleaves
the loop with the CLI call in slices of a few milliseconds, so the loop sees
the same mix of fast and slow states as the call.  A call's cost is then
reported in units of the loop's CPU time over the call's interval ("ref"):
a call that costs as much CPU as 500 loops reads 500 ref, whatever the
core's speed was.  Set-up time is scaled the same way but kept in seconds:
it is reported at the speed at which one loop takes LOOP_CPU_S.

The loop uses only the standard library, so a change to ycalc cannot move
it.  It mixes the work ycalc does most (`Fraction` arithmetic, tuple-keyed
dicts, `random.Random` draws), so that it slows down the way ycalc does.

    python3 perfbench/reference.py           # times a few loops and prints them
    python3 perfbench/reference.py --meter   # the speedometer process

The speedometer prints "ready" once its first loop is done, then runs until
SIGTERM and prints one JSON list of [monotonic time, own CPU time] pairs,
one pair per finished loop.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import sys
import time
from fractions import Fraction

METER_NICE = 10
# The loop's CPU time on a fast core of a 2-vCPU Xeon VM.  Times that must
# stay in seconds (setup_s) are scaled to the speed at which a loop takes
# this long.  Fixed once; changing it rescales every setup_s.
LOOP_CPU_S = 0.010


def loop() -> Fraction:
    """One reference loop: about 10 ms of CPU on a fast core of a 2-vCPU Xeon VM."""
    rng = random.Random(20030622)
    table: dict[tuple, Fraction] = {}
    total = Fraction(0)
    for _ in range(5):
        # A truncated product of two rational power series, as in series.mul.
        a = [Fraction(rng.randrange(1, 30), rng.randrange(1, 30)) for _ in range(12)]
        b = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 12)) for _ in range(12)]
        prod = [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(12)]
        # Cached lookups keyed by small partitions, as in the moments caches.
        for j in range(120):
            key = tuple(sorted((rng.randrange(5), rng.randrange(4), j % 7), reverse=True))
            hit = table.get(key)
            if hit is None:
                hit = table[key] = Fraction(sum(key) + 1, len(table) + 1)
            total += hit * prod[j % 12] / (j + 1)
        total = Fraction(total.numerator % 1_000_003, total.denominator % 1_000_003 or 1)
    return total


def cpu_per_loop(samples: list, start: float, end: float) -> float | None:
    """CPU seconds per loop over the interval [start, end] of the monotonic clock.

    `samples` are the speedometer's [time, cpu] pairs.  The loops counted are
    those finished after the last one before `start`, up to the last one
    finished by `end` (or the first one after it, if none finished inside).
    """
    before = [i for i, (t, _) in enumerate(samples) if t < start]
    if not before:
        return None
    first = before[-1]
    inside = [i for i, (t, _) in enumerate(samples) if start <= t <= end]
    later = [i for i, (t, _) in enumerate(samples) if t > end]
    last = inside[-1] if inside else (later[0] if later else None)
    if last is None:
        return None
    return (samples[last][1] - samples[first][1]) / (last - first)


def _meter() -> int:
    os.nice(METER_NICE)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    while not stop:
        loop()
        samples.append([time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time()])
        if len(samples) == 1:
            print("ready", flush=True)
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--meter"]:
        sys.exit(_meter())
    cpus = []
    for _ in range(50):
        cpu = time.process_time()
        loop()
        cpus.append(time.process_time() - cpu)
    print(f"reference loop: median {statistics.median(cpus) * 1000:.2f} ms CPU, "
          f"range {min(cpus) * 1000:.2f}-{max(cpus) * 1000:.2f} ms over {len(cpus)} loops")
