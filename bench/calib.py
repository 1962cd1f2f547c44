"""Host-speed calibration for op latencies.

The benchmark runs on a shared host whose speed drifts: the same pure-Python
work takes up to 1.6 times as long from one second to the next, and the
host can stay slow for minutes.  Every timing is therefore taken together
with a fixed calibration bracket, a few quanta of pure-Python work that uses
no program code, timed just before and just after the op (or set-up step).
A timing is reported scaled to the reference speed:

    scaled = measured * REF_BRACKET_S / bracket

where `bracket` is the mean of the brackets on either side of the timed
interval.  A program change moves the scaled value in the same proportion as the
measured one; a host slowdown moves both the op and its brackets and cancels.
REF_BRACKET_S is the bracket time on the reference machine (2 cores, Python
3.11.7), so scaled values read in that machine's seconds.
"""

from __future__ import annotations

import time

REF_BRACKET_S = 0.0008
QUANTA = 16


def _quantum() -> int:
    # big-integer arithmetic, small allocations and dict churn: the mix the
    # program's exact arithmetic spends its time on
    x = 3
    for i in range(50):
        x = (x * x + i) % 1000000000000000000000000000057
    d = {}
    for i in range(120):
        d[(i * 31) % 53] = [i, x]
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(4)] for i in range(4)]
    for k in range(3):
        for i in range(k + 1, 4):
            rows[i] = [a * rows[k][k] - b * rows[i][k] for a, b in zip(rows[i], rows[k])]
    return x + len(d) + rows[3][3]


def bracket() -> float:
    """Seconds taken by one calibration bracket at the current host speed."""
    start = time.perf_counter()
    for _ in range(QUANTA):
        _quantum()
    return time.perf_counter() - start


def warm_up() -> None:
    for _ in range(8):
        bracket()
