"""Reference work timed next to every measured span.

The speed of the machine the benchmark was written on swings by up to a
factor of two, in phases that last from seconds to several minutes, longer
than a run.  So each timed span is paired with a fixed piece of reference
work run right before and after it, and reported as the time it would take
when the reference takes its nominal time (its time in the fast phase of
that machine):  ``elapsed * nominal / mean(before, after)``.

In-process spans use ``kernel_s``; CLI child processes use ``process_s``,
a child process that starts the interpreter and runs the kernel, so that
process start-up is scaled by process start-up.

    python3 bench/reference.py      # the child of process_s
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction

KERNEL_S = 0.005
PROCESS_S = 0.06
GAP_S = 0.3  # phases last seconds or more, so a reference this often suffices

clock = time.perf_counter


@dataclass(frozen=True)
class _Point:
    name: str
    weight: Fraction
    dim: int


def kernel() -> str:
    """Fixed work of the kinds the program does: frozen dataclasses with
    exact-rational fields, sets, sorting, grouping and JSON."""
    points = [_Point(f"c{k}", Fraction(k % 7 + 1, k % 5 + 1), k % 9) for k in range(60)]
    for _ in range(4):
        values = sorted({p.weight for p in points})
        levels = [tuple(p for p in points if p.weight == v) for v in values]
        points = [replace(p, weight=p.weight + Fraction(1, len(levels))) for p in points]
    return json.dumps([[p.name, str(p.weight), p.dim] for p in points])


def kernel_s() -> float:
    start = clock()
    kernel()
    return clock() - start


def process_s() -> float:
    start = clock()
    subprocess.run([sys.executable, __file__], check=True)
    return clock() - start


def scaled(elapsed: float, nominal: float, before: float, after: float) -> float:
    return elapsed * nominal / ((before + after) / 2)


def timed_pass(run_one, count: int, measure, nominal: float):
    """Run items ``run_one(k) -> (seconds or None, output)`` for k < count,
    taking the reference ``measure()`` at the start, at the end, and before
    an item once GAP_S has passed since the last reference.  Returns the
    times as measured, the outputs, and the times at the reference speed."""
    refs, marks, times, outputs = [measure()], [], [], []
    last = clock()
    for k in range(count):
        if clock() - last >= GAP_S:
            refs.append(measure())
            last = clock()
        marks.append(len(refs) - 1)
        elapsed, output = run_one(k)
        times.append(elapsed)
        outputs.append(output)
    refs.append(measure())
    at_reference = [
        None if t is None else scaled(t, nominal, refs[m], refs[m + 1])
        for t, m in zip(times, marks)
    ]
    return times, outputs, at_reference


if __name__ == "__main__":
    kernel()
