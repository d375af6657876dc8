"""Exact arithmetic over a large prime field.

Scalars live in GF(p); matrices are numpy int64 arrays reduced mod p
(object arrays of Python integers for p >= 2^31).  No package code builds
a `TruncPoly`: it stays only for the benchmark's construction count.  Exact
ranks come from one kernel, `_eliminate`, an inverse-free elimination
over a whole (S, rows, cols) stack.  It serves the Jordan-type readout,
which ranks all powers of a chunk of sampled matrices at once, and, as
its one-matrix case `rank`, the sparse rectangular Jacobians of the
locus equations.  Both readouts' powers come from `_mulmod`: one
machine-word product while its sums stay exact (int64 while n (p-1)^2 <
2^63 for inner dimension n, uint64 while below 2^64) and it makes at most
`_PRODUCT_MAX_WORK` multiply-adds, float64 BLAS products of exact limbs
otherwise, and Python integers past n = 2^21 or for p >= 2^31.  That is
delayed reduction: accumulate in machine words up to the exactness bound,
then reduce once.  Both stack kernels take already-reduced arrays, so a
readout reduces its input once; `rank` and `matmul` are their public
forms, which check p and reduce a copy first.
The int64 path rests on the bounds stated at `_INT64_SAFE`.  The default
prime is large enough that random cancellations never disturb desk-scale
Monte-Carlo runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_PRIME = 1_000_000_007

# p < 2^31 keeps int64 exact through these bounds: elimination entries
# and products (`_eliminate`) stay below p^2 < 2^62; `_mulmod`'s one word
# product is taken only when its sums, at most n (p-1)^2, stay below 2^63
# (int64) or 2^64 (uint64); otherwise its float64 limb products and
# partial sums stay below 2^53, where float64 integers are exact, and its
# int64 recombination stays below 2^54
_INT64_SAFE = 2**31

# `_mulmod` takes one word product only up to this many multiply-adds, as
# numpy's integer matmul runs no BLAS.  Best-of-15 times (least of three
# runs), numpy 2.4 on a shared 2-vCPU x86-64 host, of (S,n,n) @ (S,n,c),
# float64 limbs vs one word product, by multiply-adds S n^2 c:
#
#   p               S, n, c      multiply-adds   limbs   word
#   default prime   4, 17, 2          2,312      17.2     6.0 us (uint64)
#                   4, 17, 8          9,248      22.2    13.8
#                   4, 17, 16        18,496      26.3    20.7
#                   6, 17, 16        27,744      29.3    25.0
#                   4, 17, 32        36,992      30.8    34.4
#   65,537          4, 17, 8          9,248      13.7    10.6 us (int64)
#                   4, 17, 16        18,496      13.6    19.3
#
# The default prime takes two limbs and 65,537 one, so the crossover moves
# from about 30,000 to about 12,000; one cap sits between.  Past it, a
# survey-sized (5,4,15,15) @ (5,1,15,15) (67,500) took 52.2 vs 58.0 us
# (uint64) and (8,7,9,9) @ (8,1,9,9) (40,824) 61.5 vs 53.6 us (int64)
_PRODUCT_MAX_WORK = 20_000

# int64 arrays of at least this many entries are reduced by `a - a // p * p`
# rather than `%` (`_reduce`).  Medians of paired runs on elimination-sized
# values, numpy 2.4 on a 2-vCPU x86-64 host, `%` vs the subtraction: 2.2 vs
# 2.5 us at 343 entries, 3.1 vs 2.9 us at 512, 9.3 vs 6.6 us at 1,936 and
# 81 vs 21 us at 9,248
_REDUCE_BY_DIVISION = 512


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 37, deterministic and exact for n < 2^64."""
    if n < 2:
        return False
    for w in _WITNESSES:
        if n % w == 0:
            return n == w
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _check_modulus(p: int) -> None:
    """The one modulus rule, checked once per p by every sampler, every array
    kernel and `CommutatorElement`: 2 <= p < 2^63 (samples are int64) and p prime."""
    if not 2 <= p < 2**63:
        raise ValueError(f"modulus {p} is out of range: supported primes are 2 <= p < 2^63")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not a prime")


@dataclass(frozen=True)
class TruncPoly:
    """Element of k[t]/(t^N) over GF(p), coeffs[j] the coefficient of t^j.

    Kept, validated and with no arithmetic, for the benchmark alone:
    `perfbench/layertrace.py` patches `TruncPoly.__post_init__` for the
    metric "modpoly.truncpoly.count", and
    `perfbench/tests/test_perfbench.py::_bindings` reads `nilcommute.TruncPoly`.
    It leaves once the benchmark drops that counter."""

    coeffs: tuple[int, ...]
    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("the modulus exponent must be at least 1")
        object.__setattr__(self, "coeffs", tuple(int(c) % self.p for c in self.coeffs))


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """Reduce the array `a` mod p in place, into [0, p), and return it.

    Large int64 arrays subtract p * (a // p): numpy divides by a scalar
    with vectorized code, but runs int64 `%` as one hardware division per
    entry (see `_REDUCE_BY_DIVISION`).
    """
    if a.dtype == object or a.size < _REDUCE_BY_DIVISION:
        a %= p  # in place; a scalar (a vector product) is rebound
        return a
    q = a // p
    q *= p
    a -= q
    return a


def _as_field_matrix(mat, p: int) -> np.ndarray:
    """A reduced copy of `mat` (int64 for p < 2^31, Python integers above), the
    entry of every array kernel: it checks p, as a Python integer for `is_prime`."""
    _check_modulus(int(p))
    return _reduce(np.array(mat, dtype=np.int64 if p < _INT64_SAFE else object), p)


@lru_cache(maxsize=256)
def _grid_index(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each entry of a row-major flattened rows x cols matrix."""
    row_of, col_of = np.divmod(np.arange(rows * cols), cols)
    row_of.flags.writeable = col_of.flags.writeable = False
    return row_of, col_of


def _eliminate(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks of the reduced (S, rows, cols) stack `a`, which it overwrites.

    Each step pivots every matrix A on its first nonzero entry (i, j) in
    row-major order and replaces it by a_ij A - A[:, j] (x) A[i, :] mod p.
    That zeroes row i and column j and lowers the rank by exactly one, with
    no modular inverse, so a rank is the number of steps that found a
    pivot.  A zero matrix has pivot 0 and stays zero, so finished matrices
    stay in the stack until they are at least half of it.
    """
    count, rows, cols = a.shape
    out = np.zeros(count, dtype=np.intp)
    found = np.zeros(count, dtype=np.intp)  # pivots found by each matrix of `flat`
    live = at = np.arange(count)
    flat = a.reshape(count, rows * cols)
    row_of, col_of = _grid_index(rows, cols)
    for _ in range(min(rows, cols)):
        first = (flat != 0).argmax(axis=1)
        pivot = flat[at, first]
        nonzero = pivot != 0
        kept = np.count_nonzero(nonzero)
        if not kept:
            break
        found += nonzero
        if 2 * kept <= live.size:
            out[live] = found
            live, found, flat = live[nonzero], found[nonzero], flat[nonzero]
            first, pivot, at = first[nonzero], pivot[nonzero], at[:kept]
        m = flat.reshape(-1, rows, cols)
        outer = m[at, :, col_of[first], None] * m[at, None, row_of[first]]
        m *= pivot[:, None, None]
        m -= outer
        _reduce(m, p)
    out[live] = found
    return out


def rank(mat, p: int = DEFAULT_PRIME) -> int:
    """Exact rank over GF(p): the one-matrix case of the stacked `_eliminate`.

    Args:
        mat: rectangular array-like of integers (copied, not mutated).
        p: prime modulus.
    """
    a = _as_field_matrix(mat, p)
    if a.ndim != 2:
        raise ValueError("rank expects a 2-d matrix")
    return int(_eliminate(a[None], p)[0])


def _word_dtype(a: np.ndarray, b: np.ndarray, p: int):
    """The dtype of `_mulmod`'s one word product of the reduced factors
    a @ b, or None for its float64 limbs.

    Every sum is at most n (p-1)^2 for inner dimension n, reckoned in Python
    integers (a numpy-integer p would wrap around): int64 while that is
    below 2^63, else uint64 while below 2^64, which is exact because reduced
    factors are non-negative.  Either is taken only up to
    `_PRODUCT_MAX_WORK` multiply-adds, counted as a's entries times b's
    columns: the true count whenever b's stack dimensions broadcast into
    a's, as in every product the readouts take.  A larger stack of b is
    undercounted, which costs time, never exactness.
    """
    bound = a.shape[-1] * int(p - 1) ** 2
    if bound >= 2**64 or a.size * (b.shape[-1] if b.ndim > 1 else 1) > _PRODUCT_MAX_WORK:
        return None
    return np.int64 if bound < 2**63 else np.uint64


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p of reduced factors; `a` may be a stack.

    A product whose sums fit a machine word and that is small enough takes
    one int64 or uint64 product (`_word_dtype`), reduced once.  Otherwise,
    for p < 2^31 the left factor is cut into w-bit limbs, w = 22 -
    ceil(log2 n) for inner dimension n.  Every float64 limb product and
    partial sum is then an integer below n * 2^w * p <= 2^53, exact in any
    summation order, so each limb takes one BLAS product, from the top
    limb down.  Horner's rule recombines them in int64, reducing before
    each shift.  An inner dimension above 2^21 leaves no limb width
    (w < 1) and falls back to Python integers, as p >= 2^31 always does.
    """
    if a.dtype == object:
        return (a @ b) % p  # a vector product is a Python integer
    word = _word_dtype(a, b, p)
    if word is np.int64:
        return _reduce(a @ b, p)
    if word is not None:  # uint64 views of the same non-negative bits
        return _reduce(a.view(word) @ b.view(word), int(p)).view(np.int64)
    w = 22 - (a.shape[-1] - 1).bit_length()
    if w < 1:
        return _mulmod(a.astype(object), b.astype(object), p).astype(np.int64)
    bf, mask, acc = b.astype(np.float64), (1 << w) - 1, None
    for s in range((int(p - 1).bit_length() - 1) // w * w, -1, -w):
        part = ((a >> s & mask).astype(np.float64) @ bf).astype(np.int64)
        if acc is not None:
            part += acc << w
        acc = _reduce(part, p)
    return acc


def matmul(a, b, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Exact (a @ b) mod p; `a` may be an (S, n, k) stack of left factors.

    The factors are reduced into copies and multiplied by `_mulmod`:
    int64 results for p < 2^31, Python integers above.
    """
    return _mulmod(_as_field_matrix(a, p), _as_field_matrix(b, p), p)
