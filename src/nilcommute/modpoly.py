"""Exact arithmetic over a large prime field.

Scalars live in GF(p); matrices are numpy int64 arrays reduced mod p
(object arrays of Python integers for p >= 2^31).  No package code builds
a `TruncPoly`: it stays only for the benchmark's construction count.  Exact
ranks come from `_eliminate`, an inverse-free elimination of an (S, rows,
cols) stack with two loops of the same steps: a scalar loop on Python
integers, one matrix at a time (`_rank_scalar`), while the stack's
worst-case work S rows cols min(rows, cols) is at most `_SCALAR_MAX_WORK`,
and a loop over the whole stack at once in numpy (`_eliminate_stacked`)
above it.  It serves the sparse rectangular Jacobians of the locus
equations, through its one-matrix case `rank`, and the Jordan-type
readout of a chunk of matrices, which hands it their doubled powers M,
..., M^K as one stack.  A readout of one small matrix takes
`_power_ranks` instead: it builds the powers one at a time and ranks each
on the scalar loop, up to the first whose rank is 0 or drops by exactly
one, when a single Jordan block is left and every later rank is one less
than the one before, and it proves the matrix nilpotent by squaring.  The
readouts' products come from `_mulmod`: one machine-word product while
its sums stay exact (int64 while n (p-1)^2 < 2^63 for inner dimension n,
uint64 while below 2^64) and it makes at most `_PRODUCT_MAX_WORK`
multiply-adds, float64 BLAS products of exact limbs otherwise, and Python
integers past n = 2^21 or for p >= 2^31.  That is delayed reduction:
accumulate in machine words up to the exactness bound, then reduce once.
The kernels take already-reduced arrays, so a readout reduces its input
once; `rank` and `matmul` are their public forms, which check p and
refuse non-integer entries (`_as_integers`) before they reduce a copy,
and reduce Python integers and uint64 entries before a cast to int64
could overflow or wrap them (`_as_field_matrix`).  The int64 path rests
on the bounds stated at `_INT64_SAFE`.  The default prime is large enough
that random cancellations never disturb desk-scale Monte-Carlo runs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

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

# `_eliminate` ranks an (S, rows, cols) stack on Python integers while its
# worst-case work S rows cols min(rows, cols) is at most this, as each
# stacked step pays numpy's per-call cost.  Best-of-5 times (least of three
# runs), numpy 2.4 on a shared 2-vCPU x86-64 host, default prime, of the
# stacked loop (its copy of the input excluded) vs the scalar loop (its
# `tolist` included), on dense full-rank matrices, the widest Jacobian
# block and the doubled powers M, ..., M^K of chunks of commutant samples,
# flattened to S K matrices; "readout" is `_power_ranks` on each sample of
# the chunk, which builds its own powers (its products included):
#
#   stack                     S, rows, cols      work   stacked   scalar  readout
#   dense, full rank             1,  4, 20         320      27.0     10.3        -
#   dense, full rank             1, 12, 12       1,728      81.5     60.7        -
#   dense, full rank             1, 13, 13       2,197      88.5     76.0        -
#   dense, full rank             1, 12, 16       2,304      82.6     76.8        -
#   dense, full rank             1, 16, 12       2,304      82.1     97.8        -
#   dense, full rank             1, 14, 14       2,744      96.7     92.1        -
#   dense, full rank             1, 15, 15       3,375       104      112        -
#   dense, full rank             1, 16, 16       4,096       112      132        -
#   dense, full rank             1, 20, 20       8,000       146      250        -
#   (2,1), 1 sample              3,  3,  3          81      17.2      2.7      5.7 us
#   (5,3), 1 sample              8,  8,  8       4,096      49.5     16.0     21.7
#   (8), 1 sample                8,  8,  8       4,096      60.8     13.4      9.3
#   (4,3,2,1), 1 sample          8, 10, 10       8,000      69.3     39.6     45.3
#   (12,5), 1 sample            16, 17, 17      78,608       170      102      102
#   (22), 1 sample              22, 22, 22     234,256       388      189     60.2
#   (8,5,2), 5 samples          40, 15, 15     135,000       189      339      438
#   (10,7,4,1), 5 samples       80, 22, 22     851,840       571    1,381    1,463
#
# The cap sits where dense square matrices cross over, between 14 x 14 and
# 15 x 15; a tall matrix does worse on the scalar loop, one row at a time,
# and a wide one better.  It holds the Jacobian blocks of the cells of
# (8,3), (12,5) and (13,4) (at most 4 x 20).  A power stack loses rows
# fast, so the scalar loop wins on it well past the cap, but a one-sample
# stack is read by `_power_ranks` (`commutator._POWER_RANKS_MAX_N`), which
# also builds only the powers it ranks, and the chunks of `survey` are far
# past the cap either way
_SCALAR_MAX_WORK = 3_072


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


@lru_cache(maxsize=None, typed=True)
def _check_modulus(p) -> int:
    """The one modulus rule, checked once per p by every sampler, every array
    kernel and `CommutatorElement`: p is an integer, 2 <= p < 2^63 (samples
    are int64) and p prime.  Returns p as a Python integer.  The cache is
    typed, so 7.0 never reads the entry of an equal np.int64(7): `operator.index`
    refuses it."""
    p = operator.index(p)
    if not 2 <= p < 2**63:
        raise ValueError(f"modulus {p} is out of range: supported primes are 2 <= p < 2^63")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not a prime")
    return p


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


def _as_integers(mat) -> np.ndarray:
    """`mat` as an array of integers: a bool or integer dtype, an object array
    of integers only, or no entries at all (`[]` is float64).  Anything else
    raises `TypeError`, where a cast to int64 would truncate 0.5 to 0."""
    a = np.asarray(mat)
    if a.dtype.kind in "biu" or not a.size or a.dtype == object and all(isinstance(x, Integral) for x in a.flat):
        return a
    raise TypeError(f"expected integer entries, got {a.dtype} input")


def _as_field_matrix(mat, p: int) -> np.ndarray:
    """A reduced copy of the integers `mat` (int64 for p < 2^31, Python
    integers above), the entry of every array kernel: it checks p.  A uint64
    or object input is reduced before the cast, which would wrap uint64
    entries of 2^63 and up and refuse Python integers beyond int64."""
    p = _check_modulus(p)
    a = _as_integers(mat)
    if a.dtype == np.uint64:
        a = a % np.uint64(p)
    elif a.dtype == object:
        a = a % p  # Python integers of any size, so none overflows the cast
    return _reduce(np.array(a, dtype=np.int64 if p < _INT64_SAFE else object), p)


@lru_cache(maxsize=256)
def _grid_index(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each entry of a row-major flattened rows x cols matrix."""
    row_of, col_of = np.divmod(np.arange(rows * cols), cols)
    row_of.flags.writeable = col_of.flags.writeable = False
    return row_of, col_of


def _eliminate(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks of the (S, rows, cols) reduced stack `a`, which it may
    overwrite; p is a Python integer.

    Each step pivots every matrix A on its first nonzero entry (i, j) in
    row-major order and replaces it by a_ij A - A[:, j] (x) A[i, :] mod p.
    That zeroes row i and column j and lowers the rank by exactly one, with
    no modular inverse, so a rank is the number of steps that found a
    pivot.  A stack whose worst-case work S rows cols min(rows, cols) is at
    most `_SCALAR_MAX_WORK` takes these steps on Python integers, one matrix
    at a time (`_rank_scalar`), a larger one on the whole stack at once
    (`_eliminate_stacked`).
    """
    rows, cols = a.shape[1:]
    if a.size * min(rows, cols) <= _SCALAR_MAX_WORK:
        return _eliminate_scalar(a, p)
    return _eliminate_stacked(a, p)


def _eliminate_scalar(a: np.ndarray, p: int) -> np.ndarray:
    """The steps of `_eliminate`, one matrix at a time on Python integers
    (`_rank_scalar`): exact for every p, and `a` is left as it is."""
    return np.array([_rank_scalar(m, p) for m in a.tolist()], dtype=np.intp)


def _power_ranks(m: np.ndarray, p: int) -> list[int]:
    """The ranks of M, M^2, ... of the reduced n x n matrix `m` up to the
    first that is 0, for a nilpotent M; any other M raises ValueError.

    Each power is one `_mulmod` of the one before by M and is ranked on
    Python integers (`_rank_scalar`), up to the first power M^s whose rank
    r is 0 or drops by exactly one from the power before (rank M^0 = n).
    For a nilpotent M the rest is then r - 1, ..., 0, by the rank-drop
    lemma (`commutator.jordan_types`): once the drop is one, a single
    Jordan block of size s or more is left, of size s + r, which is the
    nilpotency index.
    A squaring certificate proves that M is nilpotent: M^(2^j) for the
    least 2^j >= s + r, squared up from the largest power of two built,
    must be zero.  If M is nilpotent it is, as s + r is the index; if not,
    no power of M is zero.  The ranks stop at s = n at the latest, where a
    nilpotent M has rank 0, so a rank above 0 there is refused too.
    """
    n = len(m)
    powers, ranks, before = [m], [], n
    while True:
        r = _rank_scalar(powers[-1].tolist(), p)
        ranks.append(r)
        if r == 0 or before - r == 1 or len(powers) == n:
            break
        powers.append(_mulmod(powers[-1], m, p))
        before = r
    if r:
        s = len(powers)
        i = s.bit_length() - 1  # M^(2^i) is built, and 2^i <= s < s + r
        square = powers[(1 << i) - 1]
        for _ in range(i, (s + r - 1).bit_length()):
            square = _mulmod(square, square, p)
        if square.any():
            raise ValueError("matrix is not nilpotent")
        ranks += range(r - 1, -1, -1)
    return ranks


def _rank_scalar(m: list[list[int]], p: int) -> int:
    """The rank of one matrix, given as lists of reduced Python integers, by
    the steps of `_eliminate`; `m` is left as it is.

    Zero rows are dropped as they appear, so the pivot row is the first row
    left, and it is zero after its own step.  A row with a zero in the pivot
    column is left as it is: the step would only scale it by a_ij != 0,
    which moves no zero and so no later pivot.
    """
    left = [row for row in m if any(row)]
    found = 0
    while left:
        top = left.pop(0)
        pivot = next(filter(None, top))
        j = top.index(pivot)  # every entry before the first nonzero one is 0
        found += 1
        step = []
        for row in left:
            x = row[j]
            if x:
                row = [(pivot * v - x * t) % p for v, t in zip(row, top)]
                if not any(row):
                    continue
            step.append(row)
        left = step
    return found


def _eliminate_stacked(a: np.ndarray, p: int) -> np.ndarray:
    """`_eliminate` on the whole stack at once, in place in `a`.

    A zero matrix has pivot 0 and stays zero, so finished matrices stay in
    the stack until they are at least half of it.
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
    """Exact rank over GF(p): the one-matrix case of `_eliminate`, which
    ranks a reduced copy of `mat` (small ones on Python integers).

    Args:
        mat: rectangular array-like of integers (not mutated).
        p: prime modulus.
    """
    p = _check_modulus(p)
    a = _as_field_matrix(mat, p)
    if a.ndim != 2:
        raise ValueError("rank expects a 2-d matrix")
    return int(_eliminate(a[None], p)[0])


def _word_dtype(a: np.ndarray, b: np.ndarray, p: int):
    """The dtype of `_mulmod`'s one word product of the reduced factors
    a @ b, or None for its float64 limbs.

    Every sum is at most n (p-1)^2 for inner dimension n, reckoned in
    Python integers (p is one; a numpy-integer p would wrap around): int64
    while that is below 2^63, else uint64 while below 2^64, which is exact
    because reduced factors are non-negative.  Either is taken only up to
    `_PRODUCT_MAX_WORK` multiply-adds, counted as a's entries times b's
    columns: the true count whenever b's stack dimensions broadcast into
    a's, as in every product the readouts take.  A larger stack of b is
    undercounted, which costs time, never exactness.
    """
    bound = a.shape[-1] * (p - 1) ** 2
    if bound >= 2**64 or a.size * (b.shape[-1] if b.ndim > 1 else 1) > _PRODUCT_MAX_WORK:
        return None
    return np.int64 if bound < 2**63 else np.uint64


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p of reduced factors; `a` may be a stack, and p is
    a Python integer.

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
        return _reduce(a.view(word) @ b.view(word), p).view(np.int64)
    w = 22 - (a.shape[-1] - 1).bit_length()
    if w < 1:
        return _mulmod(a.astype(object), b.astype(object), p).astype(np.int64)
    bf, mask, acc = b.astype(np.float64), (1 << w) - 1, None
    for s in range(((p - 1).bit_length() - 1) // w * w, -1, -w):
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
    p = _check_modulus(p)
    return _mulmod(_as_field_matrix(a, p), _as_field_matrix(b, p), p)
