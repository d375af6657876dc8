"""Min-plus calculus on 2x2 order (valuation) matrices.

An order matrix [[ord a, ord g], [r + ord h, ord b]] records the t-adic
orders of the blocks of a two-block commutant element of the shape
(u, u-r), the lower-left entry shifted by r.  The min-plus powers of an
element's order matrix bound the orders of its powers from below, with
equality absent cancellation, and `closed_form_power` gives the powers of
[[k, 0], [r, l]] in closed form.  Their top-left entry, combined with the
two saturation terms u and 2u - r, predicts the corank profile, hence the
Jordan type, of a generic point on an equation locus.  `_predicted_corank`
is the no-cancellation form of the exact formula that
`commutator._two_part_types` reads, which remains the source of truth.
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
    """Order matrix of the s-th power of [[k, 0], [r, l]], no-cancellation case.

    Every length-s path cost is a convex combination of k, r/2 and l, so
    only the extreme mixtures matter; the even and odd branches below list
    them.  Agrees with the path-minimum oracle for all small parameters.
    """
    if s == 1:
        return ((k, 0), (r, l))
    if s < 1:
        raise ValueError("need s >= 1")
    if s % 2 == 0:
        h, h1 = s // 2, (s - 2) // 2
        return (
            (
                min(s * k, h * r, (s - 2) * l + r),
                min((s - 1) * k, k + h1 * r, l + h1 * r, (s - 1) * l),
            ),
            (
                min((s - 1) * k + r, k + h * r, l + h * r, (s - 1) * l + r),
                min((s - 2) * k + r, h * r, s * l),
            ),
        )
    h = (s - 1) // 2
    return (
        (
            min(s * k, k + h * r, l + h * r, (s - 2) * l + r),
            min((s - 1) * k, h * r, (s - 1) * l),
        ),
        (
            min((s - 1) * k + r, (h + 1) * r, (s - 1) * l + r),
            min((s - 2) * k + r, k + h * r, l + h * r, s * l),
        ),
    )


def _predicted_corank(u: int, r: int, k: int, l: int, s: int) -> int:
    lp = min(l, r - k)
    t11 = k if s == 1 else min(closed_form_power(k, lp, r, s)[0][0], u)
    return min((k + l) * s, t11 + (u - r), 2 * u - r)


def predicted_coranks(u: int, r: int, k: int, l: int, s_max: int) -> list[int]:
    """Generic corank of the s-th power on the (k, l) locus, s = 1..s_max.

    Uses the closed-form top-left order with the effective lower-right
    order min(l, r - k), clamped at u, then saturated at 2u - r.
    """
    check_cell(u, r, k, l)
    return [_predicted_corank(u, r, k, l, s) for s in range(1, s_max + 1)]


@lru_cache(maxsize=4096)
def predicted_jordan_type(u: int, r: int, k: int, l: int) -> Partition:
    """Generic Jordan type on the (k, l) locus via the predicted corank profile,
    computed once per cell (a bad cell raises on every call)."""
    check_cell(u, r, k, l)
    profile = [0]
    s = 1
    while len(profile) < 2 or profile[-1] != profile[-2]:
        profile.append(_predicted_corank(u, r, k, l, s))
        s += 1
        if s > 2 * u + 4:
            raise RuntimeError(f"corank profile failed to stabilize for {(u, r, k, l)}")
    return jordan_from_coranks(profile)

