"""Min-plus calculus on 2x2 order (valuation) matrices.

An order matrix [[ord a, ord g], [r + ord h, ord b]] records the t-adic
orders of the blocks of a two-block commutant element of the shape
(u, u-r), the lower-left entry shifted by r.  Its min-plus powers bound the
orders of the element's powers from below, with equality absent
cancellation.  Entry (i, j) of [[k, 0], [r, l]]^s is the cheapest
length-s path from state i to j: a move 0 -> 1 costs 0, a move 1 -> 0
costs r, a stay costs k in state 0 or l in state 1 (`closed_form_power`).
The top-left entry and the saturation terms u and 2u - r predict the corank
profile, hence the Jordan type, of a generic point on an equation locus;
the exact formula `commutator._two_part_types` reads stays the source of truth.
"""

from __future__ import annotations

from functools import lru_cache

from .burge import check_cell
from .partitions import Partition, jordan_from_coranks

# 2x2 nested tuples of int-or-inf
OrderMatrix = tuple


def minplus_mul(x: OrderMatrix, y: OrderMatrix) -> OrderMatrix:
    return tuple(
        tuple(min(x[i][0] + y[0][j], x[i][1] + y[1][j]) for j in (0, 1)) for i in (0, 1)
    )


def minplus_power(t: OrderMatrix, s: int) -> OrderMatrix:
    """s-fold min-plus product: minimum over length-s paths of summed entries."""
    if s < 1:
        raise ValueError("need s >= 1")
    acc = t
    for _ in range(s - 1):
        acc = minplus_mul(acc, t)
    return acc


def closed_form_power(k: int, l: int, r: int, s: int) -> OrderMatrix:
    """Order matrix of [[k, 0], [r, l]]^s, entry (i, j) counted over paths.

    A length-s path from i to j that never changes state costs s k or s l.
    Otherwise it makes c changes, 1 <= c <= s, c = [i != j] mod 2, and costs
    (s - c) min(k, l) + floor((c + i) / 2) r, linear in c: only the extreme c matter.
    """
    if s < 1:
        raise ValueError("need s >= 1")

    def entry(i: int, j: int) -> int:
        lo = 1 if i != j else 2
        hi = s - (s - lo) % 2
        costs = [(s - c) * min(k, l) + (c + i) // 2 * r for c in (lo, hi) if lo <= hi]
        return min(costs + [s * (k, l)[i]] * (i == j))

    return tuple(tuple(entry(i, j) for j in (0, 1)) for i in (0, 1))


def _predicted_corank(u: int, r: int, k: int, l: int, s: int) -> int:
    t11 = min(closed_form_power(k, min(l, r - k), r, s)[0][0], u)
    return min((k + l) * s, t11 + (u - r), 2 * u - r)


def predicted_coranks(u: int, r: int, k: int, l: int, s_max: int) -> list[int]:
    """Generic corank of the s-th power on the (k, l) locus, s = 1..s_max: the
    top-left order at lower-right order min(l, r - k), clamped at u, saturated at 2u - r."""
    check_cell(u, r, k, l)
    return [_predicted_corank(u, r, k, l, s) for s in range(1, s_max + 1)]


@lru_cache(maxsize=4096)
def predicted_jordan_type(u: int, r: int, k: int, l: int) -> Partition:
    """Generic Jordan type on the (k, l) locus via the predicted corank profile
    over s = 1..n, n = 2u - r, computed once per cell (a bad cell raises on
    every call).  As k + l >= 2 and a closed path at state 0 costs at least
    its length, all three terms reach n by s = n - 1: the profile is stationary."""
    return jordan_from_coranks([0] + predicted_coranks(u, r, k, l, 2 * u - r))
