"""Summary statistics and the compare verdict.

Timings are summarised as a median plus the highest percentile that
still has at least ten samples beyond it, always with the sample count.
Two result sets (say parent and change) are compared metric by metric:
a gain needs the change to win at least nine tenths of the pairs and to
move the median by more than the parent's own quartile spread; a loss
is a median worse than the parent's by more than the metric's bound.
Where the parent's own spread is wider than the bound, the verdict is
unresolved unless every run of one side beats every run of the other.
A change that fails more operations or runs than the parent gets the
verdict failed, whatever its timings.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# Percentiles considered for the tail, lowest first.
PERCENTILE_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_SAMPLES = 10
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), by ``statistics.quantiles``."""
    vals = list(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def _rank(p: float, n: int) -> int:
    """Nearest rank of the p-th percentile among n samples, in exact arithmetic."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below."""
    vals = sorted(values)
    return vals[_rank(p, len(vals)) - 1]


def tail_percentile(n: int):
    """Highest ladder percentile with at least ten of n samples beyond it.

    With nearest rank, the samples beyond the p-th percentile number
    n - ceil(p/100 * n).  Returns None when even the median lacks ten.
    """
    best = None
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= TAIL_SAMPLES:
            best = p
    return best


def percentile_label(p: float) -> str:
    return f"p{p:g}".replace(".", "_")


def compare(
    parent, change, better: str, bound: float, parent_failed: int = 0, change_failed: int = 0
) -> dict:
    """Verdict for one metric of one workload.

    ``parent`` and ``change`` are the per-run values in the order they
    were run; run i of one side is paired with run i of the other.
    ``parent_failed`` and ``change_failed`` count each side's failed
    operations and incorrect runs.
    """
    pairs = list(zip(parent, change))
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    wide = (p3 - p1) > bound * abs(pm)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) < 0 for c in change for p in parent)
    if change_failed > parent_failed:
        verdict = "failed"
    elif len(pairs) < MIN_PAIRS:
        verdict = "unresolved"
    elif wins >= WIN_SHARE * len(pairs) and gain > (p3 - p1):
        verdict = "improved"
    elif -gain > bound * abs(pm) and (all_worse or not wide):
        verdict = "regressed"
    elif wide and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3, "n": len(parent)},
        "change": {"q1": c1, "median": cm, "q3": c3, "n": len(change)},
        "pairs": len(pairs),
        "win_frac": wins / len(pairs) if pairs else 0.0,
        "verdict": verdict,
    }
