"""Block parametrization of matrices commuting with a nilpotent Jordan matrix.

A block entry (i, j) is a module map k[t]/(t^{q_j}) -> k[t]/(t^{q_i}):
multiplication by a truncated polynomial followed by the natural
projection, well defined exactly when its order is at least q_i - q_j.
For a stable shape the nilpotent commutant is the linear slice where every
diagonal entry has positive order.  An element is stored as its block
coefficients, one row numbered by the shape's layout record (`_layout`),
which holds everything a reader takes from the shape alone.  Assembling the
blocks in bases ordered by decreasing t-power reproduces the familiar
banded matrices, and the coranks of the powers of an element give its
Jordan type.  `jordan_types` reads them for any stack of matrices and is
the test oracle of the two faster readouts: `_power_ranks` for one small
matrix, and `_two_part_coranks` for rows of a two-part shape, read from
its 2x2 minors without assembling an element.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .modpoly import DEFAULT_PRIME, _as_field_matrix, _as_integers, _check_modulus, _eliminate, _mulmod, _rank_scalar, _reduce
from .modpoly import matmul
from .modpoly import rank  # noqa: F401  (perfbench's tracer test asserts commutator.rank exists)
from .partitions import EMPTY, Partition, dominance_max, is_stable, jordan_from_coranks

# samples per elimination in `jordan_types`: enough to share numpy's
# per-call cost, few enough that a chunk's powers stay small (n = 22 with
# 12 powers is 372 KB of int64 per chunk, eliminated in place; reading a
# chunk of (10, 7, 4, 1) samples, n = 22 with 10 powers, peaks at 1.7 MB
# under tracemalloc, doubling included)
_CHUNK = 8

# `jordan_types` reads a chunk of one n x n matrix with n at most this by
# `_power_ranks`, every other chunk by doubling its powers and one
# `modpoly._eliminate`.  Times per chunk, the least of nine timed passes
# over six chunks, numpy 2.4 on a shared 2-vCPU x86-64 host, default prime,
# of the whole readout of a chunk of S commutant samples of each shape,
# doubled vs one `_power_ranks` per matrix:
#
#   shape              n     S = 1               S = 2               S = 5
#   (2,1)              3   11.1    6.0 us     13.2    11.4 us     19.2    27.2 us
#   (5,3)              8   63.6   21.8        71.2    43.2        86.8     106
#   (8)                8   75.5    9.8        86.0    18.8         109    46.1
#   (4,3,2,1)         10   87.1   45.6         100    90.7         132     226
#   (8,5,2)           15    138   89.0         169     177         249     442
#   (12,5)            17    219    103         292     207         563     514
#   (9,6,3)           18    209    163         270     327         497     792
#   (6,5,4,2,1)       18    219    234         290     467         571   1,140
#   (7,5,4,2,1)       19    244    268         320     538         652   1,336
#   (8,6,4,2)         20    207    248         260     488         466   1,214
#   (10,7,4,1)        22    282    296         421     592         821   1,475
#   (22)              22    477   61.3         816     121       1,832     304
#
# One matrix shares no per-call cost with another, so `_power_ranks` wins
# alone up to n = 17 on every shape timed (also (7,5,3,2), (5,4,3,2,1) and
# (4,3,2,1,1)) and ties at n = 18.  Past that it wins where one Jordan block
# dominates, as in (22), and loses up to 1.2x where the first rank drop of
# one comes late.  Two matrices win only up to about n = 12 and five lose
# on most shapes, so a chunk of two or more takes the doubled stack
_POWER_RANKS_MAX_N = 18


def _chunks(samples: int):
    """The (lo, hi) bounds of `samples` draws in `_CHUNK`-row chunks, for every
    Monte-Carlo harness; fewer than one sample is refused at the call."""
    if samples < 1:
        raise ValueError("need at least one sample")
    return ((lo, min(lo + _CHUNK, samples)) for lo in range(0, samples, _CHUNK))


def _rng(seed) -> np.random.Generator:
    """`np.random.default_rng(seed)`, in the same state.  A list of Python
    integers in [0, 2^32), as the harnesses pass, goes as a uint32 array:
    numpy's seed sequence reads each such integer as that one 32-bit word,
    and then skips converting the items one by one.  Any other seed goes to
    `default_rng` as it is, so a float or negative seed raises exactly as
    there."""
    if isinstance(seed, list) and all(type(x) is int and 0 <= x < 2**32 for x in seed):
        return np.random.default_rng(np.array(seed, dtype=np.uint32))
    return np.random.default_rng(seed)


class _Layout(NamedTuple):
    """The numbering of the block coefficient row of a shape, the one record
    that every reader of a row takes its numbers from.

    Coefficients are numbered block by block in row-major order, then by
    t-power: block (i, j) of the l x l grid holds q_i coefficients from
    `starts[i, j]` = l (q_1 + ... + q_(i-1)) + j q_i, and a row holds
    `width` = l n.  `take` maps each matrix cell to its coefficient, or to -1
    (a zero appended after the last) for a structural zero; `free` lists the
    coefficients free in the nilpotent commutant, in draw order, and `fixed`
    the rest, in order: the slice is the rows that are zero at `fixed`.
    `depth` is the (n, 1) depth of each matrix row in its block, 1 for its
    top row.  `cols`, the (n, l) numbers of the last column of each block
    column, permutes the row, as a block holds all its coefficients in its
    last column; `gather` assembles an element, or any power, from its
    generator columns flattened row by row, then a zero (-1)."""

    take: np.ndarray
    free: np.ndarray
    fixed: np.ndarray
    depth: np.ndarray
    starts: np.ndarray
    cols: np.ndarray
    gather: np.ndarray
    width: int


def _layout(parts) -> _Layout:
    """The layout record of `parts`, of any shape: integer parts of at least 1, in
    any order, checked before the cache, where (2.0,) would read the record of (2,)."""
    parts = tuple(parts)
    if not all(isinstance(q, (int, np.integer)) and q >= 1 for q in parts):
        raise ValueError(f"shape {parts} needs integer parts of at least 1")
    return _build_layout(parts)


@lru_cache(maxsize=512)
def _build_layout(parts: tuple[int, ...]) -> _Layout:
    """The layout record of checked parts, built once per shape.

    Constant terms between equal-size blocks form one matrix per size
    class, and the element is nilpotent exactly when each class matrix is.
    Conjugation by commutant units puts any class matrix in strictly upper
    triangular form without changing the Jordan type, so freeing only the
    constant terms with i < j still meets the dense orbit.  For a stable
    shape this is the nilpotent commutant slice.
    """
    n, offs, width = sum(parts), np.cumsum((0,) + parts), sum(parts) * len(parts)
    starts = len(parts) * offs[:-1, None] + np.diff(offs)[:, None] * np.arange(len(parts))
    take = np.full((n, n), -1, dtype=np.intp)
    free = []
    for i, qi in enumerate(parts):
        for j, qj in enumerate(parts):
            # entry (row, col) is the coefficient of f at q_i - q_j + col - row,
            # i.e. multiplication by f in bases (t^{m-1}, ..., t, 1)
            deg = (qi - qj) + np.arange(qj)[None, :] - np.arange(qi)[:, None]
            take[offs[i] : offs[i + 1], offs[j] : offs[j + 1]] = np.where(deg >= 0, starts[i, j] + deg, -1)
            lo = 1 if qi == qj and i >= j else max(0, qi - qj)
            free.extend(range(starts[i, j] + lo, starts[i, j] + qi))
    fixed = np.ones(width, dtype=bool)  # a mask: np.setdiff1d imports a numpy submodule
    fixed[free] = False
    depth = np.arange(1, n + 1) - np.repeat(offs[:-1], parts)
    cols = take[:, offs[1:] - 1]
    gather = np.append(np.argsort(cols, axis=None), -1)[take]
    layout = _Layout(take, np.array(free, dtype=np.intp), np.flatnonzero(fixed), depth[:, None], starts, cols,
                     gather, width)
    for a in layout[:-1]:
        a.flags.writeable = False
    return layout


def assemble_blocks(parts, coeffs) -> np.ndarray:
    """Assemble a row of block coefficients of `parts`, numbered as in
    `_layout`, into an n x n matrix, or (S, coefficients) rows of them into
    an (S, n, n) stack.  A row must hold all `_Layout.width` coefficients:
    numpy would broadcast a length-1 row into every one."""
    layout, coeffs = _layout(parts), _as_integers(coeffs)
    if coeffs.shape[-1:] != (layout.width,):
        raise ValueError(f"shape {tuple(parts)} takes rows of {layout.width} block coefficients, "
                         f"got shape {coeffs.shape}")
    flat = np.zeros(coeffs.shape[:-1] + (layout.width + 1,), dtype=np.int64)
    flat[..., :-1] = coeffs
    return flat[..., layout.take]


def _draw_free(parts: tuple[int, ...], rng, p: int, count: int) -> np.ndarray:
    """Block coefficient rows of `count` uniform draws from the slice `_layout`
    describes (a chunk of `_chunks`), drawn exactly as by `count` one-row calls."""
    p, layout = _check_modulus(p), _layout(parts)
    coeffs = np.zeros((count, layout.width), dtype=np.int64)
    coeffs[:, layout.free] = rng.integers(p, size=(count, layout.free.size))
    return coeffs


def jordan_types(stack, p: int = DEFAULT_PRIME) -> list[Partition]:
    """Jordan types of an (S, n, n) stack of nilpotent matrices, via coranks
    of their powers; a matrix that is not nilpotent raises ValueError.

    The stack is reduced mod p once into a copy, read `_CHUNK` matrices
    at a time.  A chunk of one matrix with n at most `_POWER_RANKS_MAX_N`
    is read by `_power_ranks`, which stops at the settle point below.  In
    any other chunk, the powers M, ..., M^k times M^k give M^(k+1), ...,
    M^(2k), so the powers up to the first one that is zero on every matrix
    (at most n) take at most ceil(log2 n) products (`_mulmod`), and one
    elimination (`_eliminate`) of the S K powers reads every corank; both
    kernels take the reduced copy as it is.  A matrix whose powers reach
    zero early contributes only zero powers after that, which repeat its
    final corank n.  Either way a row is cut at its first corank n
    (`_profile_types`).

    The rank-drop lemma: d_s = rank M^(s-1) - rank M^s (rank M^0 = n) is
    the number of Jordan blocks of size at least s.  Proof: rank M^s sums
    rank J_m^s = max(m - s, 0) over the blocks J_m, and each term drops by
    one from s - 1 to s exactly when m >= s.  So the drops decrease weakly,
    and once d_s = 1 just one block has size at least s.  Only it adds to
    r = rank M^s, so its size is s + r, the ranks after M^s are r - 1, ...,
    0, and the nilpotency index of M, its largest block, is s + r.
    """
    p = _check_modulus(p)
    m = _as_field_matrix(stack, p)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError("jordan_types expects an (S, n, n) stack")
    count, n, _ = m.shape
    if n == 0:
        return [EMPTY] * count
    rows = []
    for lo in range(0, count, _CHUNK):
        chunk = m[lo : lo + _CHUNK]
        if len(chunk) == 1 and n <= _POWER_RANKS_MAX_N:
            rows.append([n - r for r in _power_ranks(chunk[0], p)])
            continue
        powers = chunk[:, None]
        while powers[:, -1].any():
            k = powers.shape[1]
            if k >= n:
                raise ValueError("matrix is not nilpotent")
            powers = np.concatenate([powers, _mulmod(powers[:, : n - k], powers[:, -1:], p)], axis=1)
        coranks = n - _eliminate(powers.reshape(-1, n, n), p).reshape(powers.shape[:2])
        rows.extend(coranks.tolist())
    return _profile_types(rows, n)


def _power_ranks(m: np.ndarray, p: int) -> list[int]:
    """The ranks of M, M^2, ... of the reduced n x n matrix `m` up to the
    first that is 0, for a nilpotent M; any other M raises ValueError.

    Each power is one `_mulmod` of the one before by M, ranked on Python
    integers (`_rank_scalar`), up to the first power M^s whose rank r is 0
    or drops by exactly one, at M^n at the latest; by the rank-drop lemma
    (`jordan_types`) the later ranks are r - 1, ..., 0.  A generic
    `dmap_oracle` sample has a stable type, whose largest part q_1 exceeds
    the next by at least 2, so its drop comes by power q_2 + 1 < q_1.

    The squaring certificate: M is accepted only if r = 0 or M^(2^j) = 0
    for the least 2^j >= s + r, squared up from the largest power of two
    built.  That is exact both ways.  If M is nilpotent, the lemma makes
    its index s + r <= 2^j, so M^(2^j) = 0.  If M is not nilpotent, no
    power of M is zero, so it is refused, even where its rank drops by one
    before its ranks stall, as for diag(J_2, 1) at s = 1.
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


@lru_cache(maxsize=4096)
def _profile_type(key: tuple[int, ...], n: int) -> Partition:
    """Jordan type of the corank row `key` of an n x n matrix, memoized
    across calls (a bad row raises on every call: errors are not cached)."""
    return jordan_from_coranks([0, *key, n])


def _profile_types(rows, n: int) -> list[Partition]:
    """Jordan types of corank rows (powers 1..k of n x n matrices with
    M^k = 0), converting each distinct row once per process.  A row is keyed
    up to its first corank n, so a type has one key whichever path read it
    and however many zero powers its chunk added."""
    return [_profile_type(tuple(row[: row.index(n) + 1]), n) for row in rows]


@lru_cache(maxsize=512)
def _antidiagonal_sums(u: int, m: int) -> np.ndarray:
    """The read-only float64 0/1 matrix that sums a flattened (u, m) array
    along its anti-diagonals, built once per (u, m)."""
    degree = np.add.outer(np.arange(u), np.arange(m)).reshape(-1, 1)
    sums = (degree == np.arange(u + m - 1)).astype(np.float64)
    sums.flags.writeable = False
    return sums


@lru_cache(maxsize=1024)
def _settled_prefix(t: Partition) -> tuple[int, ...]:
    """Coranks of powers 1..s* of a nilpotent matrix of Jordan type t: its
    settle point s* is the first power whose corank rises by exactly one
    (just one block has size at least s*) or reaches n (M^s* = 0), so
    min(t_2 + 1, t_1) with t_2 = 0 for one block.  A nilpotent matrix has
    type t exactly when its coranks up to s* are these (`_two_part_coranks`)."""
    settle = min(t[1] + 1, t[0]) if len(t) > 1 else 1
    return tuple(sum(min(part, s) for part in t) for s in range(1, settle + 1))


def _two_part_coranks(rows, u: int, r: int, p: int, powers: int) -> np.ndarray:
    """Coranks of powers 1..`powers` of (S, 2n) block coefficient rows of
    nilpotent commutant elements of the shape (u, u-r), n = 2u - r, numbered
    by its layout record (`_layout`), as an (S, powers) array, read without
    assembling an element or ranking any power.

    An element is an endomorphism phi of k[t]^2 / D k[t]^2, D = diag(t^u,
    t^(u-r)), given by any polynomial lift Phi = [[a, t^r g], [h, b]].
    dim ker phi^s = dim coker phi^s = length k[t]^2 / (Phi^s k[t]^2 +
    D k[t]^2), the order of the gcd of the 2x2 minors of [Phi^s | D] (its
    Fitting ideal).  For Phi^s = [[x11, x12], [x21, x22]] they are
    (det Phi)^s, t^(u-r) x11, t^(u-r) x12, -t^u x21, -t^u x22 and t^(2u-r):

        corank phi^s = min(s ord(ab - t^r g h), (u-r) + ord row_1, u + ord row_2, 2u - r).

    Row orders of u (row 1) or u - r (row 2) and up only reach the last
    term, so row i may be read mod t^(q_i), as the assembled matrix holds
    it; a zero row counts as order u or u - r, which implies the last term.
    Columns u - 1 and n - 1 of M^s are phi^s of the generators, so the
    doubled W = [ME, ..., M^k E] holds every row order (M^k E = 0 exactly
    when M^k = 0, as M commutes with J).  W starts as the rows' generator
    columns (`_Layout.cols`), and each doubling round assembles M^k from the
    last column pair of W (`_Layout.gather`) and makes one product, M^k W
    (`_mulmod`: one word product while it is small), of only the columns
    that reach M^powers, written in place into W, which is allocated once
    for the budget.  The rounds stop at M^powers or at the first power
    that is zero on every row, whose later coranks are all n.

    The slice certificate: phi mod t acts on M/tM, spanned by the two
    generators, as [[a_0, 0], [h_0, b_0]] (t^r g vanishes mod t, r >= 1).
    phi is nilpotent exactly when that lower triangular matrix is, that is
    when a_0 = b_0 = 0: if it is, phi^2 maps M into tM, so phi^(2u) maps M
    into t^u M = 0, and if phi^s = 0 then so is its reduction.  So a row of
    the slice (nonzero only at `_Layout.free`, hence a_0 = b_0 = 0) is
    nilpotent, and a row with a_0 or b_0 nonzero is refused up front; a row
    nonzero elsewhere at `_Layout.fixed` is no module map and is refused too.
    As a nilpotent n x n matrix has M^n = 0, a budget of n reads every
    row's whole profile, in the rounds that reach its chunk's largest
    nilpotency index.

    The prefix-equality rule: a nilpotent row has the Jordan type t exactly
    when its coranks up to t's settle point s* (`_settled_prefix`) are t's.
    The coranks up to s* give the drops d_1, ..., d_s*, the numbers of
    blocks of size at least 1, ..., s*.  If t's corank reaches n at s*, so
    does the row's, and its later coranks are all n.  If it rises by one
    at s*, the rank-drop lemma (`jordan_types`) leaves one block of size
    s* + rank M^s* and fixes every later corank.  Either way the prefix
    fixes the whole profile, so a budget of s* decides the question.

    delta = ord(ab - t^r g h) comes from the blocks a | t^r g | h | b of
    the rows: the reduced outer products ab - (t^r g) h, summed along
    anti-diagonals (`_antidiagonal_sums`), in float64 for p < 2^31 (exact:
    every sum is below (u-r) p < 2^53) and on Python integers above.
    """
    rows, layout, n = np.asarray(rows), _layout((u, u - r)), 2 * u - r
    if rows.ndim != 2 or rows.shape[1] != layout.width:
        raise ValueError(f"_two_part_coranks expects (S, {layout.width}) coefficient rows, got shape {rows.shape}")
    p = _check_modulus(p)
    rows = _as_field_matrix(rows, p)
    _, tg0, h0, b0 = layout.starts.ravel().tolist()
    off_slice = rows.take(layout.fixed, axis=1)
    if np.count_nonzero(off_slice):  # the slice certificate
        coeff = layout.fixed[(off_slice != 0).any(axis=0)][0]
        raise ValueError("matrix is not nilpotent" if coeff in (0, b0) else _order_error((u, u - r), layout, coeff))
    count = len(rows)
    w = np.empty((count, n, 2 * powers), rows.dtype)
    w[:, :, :2] = rows.take(layout.cols, axis=1)
    k = 1  # powers in W
    pair = np.zeros((count, layout.width + 1), rows.dtype)  # the last column pair of W, then a zero
    while k < powers and np.count_nonzero(w[:, :, 2 * k - 2 : 2 * k]):
        pair[:, :-1] = w[:, :, 2 * k - 2 : 2 * k].reshape(count, -1)
        step = min(k, powers - k)
        w[:, :, 2 * k : 2 * (k + step)] = _mulmod(pair.take(layout.gather, axis=1), w[:, :, : 2 * step], p)  # M^k W
        k += step
    # W's row i < u holds t^(u-1-i) of row 1 and its row u + j holds
    # t^(u-r-1-j) of row 2: at depth i + 1 or j + 1 in its block, both
    # (u-r) + ord row_1 and u + ord row_2 are n minus the deepest nonzero
    # entry's depth, or n for a zero row
    deepest = ((w[:, :, : 2 * k] != 0) * layout.depth).max(axis=1)
    deepest = deepest.reshape(count, k, 2).max(axis=2)  # per power s
    a, tg, h, b = rows[:, :tg0, None], rows[:, tg0:h0, None], rows[:, None, h0:b0], rows[:, None, b0:]
    outer = _reduce(a * b - tg * h, p).reshape(count, -1)
    sums = _antidiagonal_sums(u, u - r)
    if outer.dtype == object:
        det = outer @ sums.astype(np.int64) % p != 0
    else:
        det = outer.astype(np.float64) @ sums % p != 0
    delta = np.where(det.any(axis=1), det.argmax(axis=1), n)[:, None]
    coranks = np.full((count, powers), n)  # M^k = 0 on every row, so every later corank is n
    coranks[:, :k] = np.minimum(np.arange(1, k + 1) * delta, n - deepest)
    return coranks


def _two_part_types(rows, u: int, r: int, p: int = DEFAULT_PRIME) -> list[Partition]:
    """Jordan types of (S, 2n) block coefficient rows of nilpotent commutant
    elements of the shape (u, u-r): their whole corank profiles, read by
    `_two_part_coranks` with a budget of n."""
    n = 2 * u - r
    return _profile_types(_two_part_coranks(rows, u, r, p, n).tolist(), n)


def jordan_type_of_matrix(mat, p: int = DEFAULT_PRIME) -> Partition:
    """Jordan type of a nilpotent matrix: the one-matrix case of `jordan_types`."""
    return jordan_types(np.asarray(mat)[None], p)[0]


@dataclass(frozen=True)
class CommutatorElement:
    """Nilpotent commutant element of the Jordan matrix of a stable shape q,
    stored as its block coefficients in the `_layout` numbering, its one
    representation; each coefficient and p must be integers."""

    q: Partition
    coeffs: tuple[int, ...]
    p: int = DEFAULT_PRIME

    def __post_init__(self):
        q = Partition(self.q)
        object.__setattr__(self, "q", q)
        if not q or not is_stable(q):
            raise ValueError(f"shape must be a nonempty stable partition: {tuple(q)}")
        p, layout = _check_modulus(self.p), _layout(q)
        c = tuple(operator.index(x) % p for x in self.coeffs)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", c)
        if len(c) != layout.width:
            raise ValueError(f"shape {tuple(q)} has {layout.width} block coefficients, got {len(c)}")
        off_slice = [i for i in layout.fixed.tolist() if c[i]]
        if off_slice:
            raise ValueError(_order_error(q, layout, off_slice[0]))

    @classmethod
    def jordan(cls, q, p: int = DEFAULT_PRIME) -> "CommutatorElement":
        """The element assembling to the Jordan matrix itself: t in each
        diagonal block (i, i), whose t^1 coefficient is number
        `_Layout.starts`[i, i] + 1 (a block with q_i = 1 has none)."""
        q = Partition(q)
        layout = _layout(q)
        coeffs = np.zeros(layout.width, dtype=np.int64)
        coeffs[[layout.starts[i, i] + 1 for i, qi in enumerate(q) if qi > 1]] = 1
        return cls(q, coeffs, p)

    def assemble(self) -> np.ndarray:
        return assemble_blocks(self.q, self.coeffs)

    def jordan_type(self) -> Partition:
        return jordan_type_of_matrix(self.assemble(), self.p)

    def __matmul__(self, other: "CommutatorElement") -> "CommutatorElement":
        """Composition of block maps, assembling to the matrix product: this
        element applied to the other's generator columns (`_Layout.cols`)."""
        if self.q != other.q or self.p != other.p:
            raise ValueError("elements live on different shapes")
        cols = _layout(self.q).cols
        out = np.zeros(cols.size, dtype=object)
        out[cols.ravel()] = matmul(self.assemble(), np.asarray(other.coeffs)[cols], self.p).ravel()
        return CommutatorElement(self.q, out, self.p)


def _order_error(parts, layout: _Layout, coeff: int) -> str:
    """Name the block entry holding the fixed coefficient `coeff` and the order it needs."""
    i, j = divmod(int(np.searchsorted(layout.starts.ravel(), coeff, side="right")) - 1, len(parts))
    start = layout.starts[i, j]
    # the fixed coefficients of a block are its lowest degrees
    need = np.count_nonzero((start <= layout.fixed) & (layout.fixed < start + parts[i]))
    return f"entry ({i},{j}) needs order >= {need}"


def sample_commutator(q, rng, *, p: int = DEFAULT_PRIME) -> CommutatorElement:
    """Uniform draw from the nilpotent commutant slice of a stable shape."""
    q = Partition(q)
    return CommutatorElement(q, _draw_free(q, rng, p, 1)[0].tolist(), p)


def _two_part_offsets(u: int, r: int) -> tuple[int, int, int]:
    """Block coefficient numbers of g_0, h_0 and b_0 for the shape (u, u-r).

    The layout's blocks are a | t^r g | h | b: a_0 is number 0, g_0 the t^r of the second.
    """
    _, tg, h, b = _layout((u, u - r)).starts.ravel().tolist()
    return tg + r, h, b


def _generic_type(types) -> Partition:
    """The dominance maximum of the sampled types, or EMPTY when no type
    dominates the rest (a prime small enough for cancellations to be
    common): then there is no generic type."""
    try:
        return dominance_max(types)
    except ValueError:
        return EMPTY


def dmap_oracle(
    p_type,
    samples: int,
    rng,
    *,
    prime: int = DEFAULT_PRIME,
    size_limit: int = 12,
) -> Partition:
    """Monte-Carlo estimate of the generic commuting Jordan type of p_type.

    Draws nilpotent commutant elements of a Jordan matrix of the given (not
    necessarily stable) type, a chunk of `_chunks` per draw, assembled as one
    stack and read one matrix at a time (`jordan_type_of_matrix`), and returns
    the dominance maximum of the observed types (EMPTY for the empty type), or
    EMPTY when none dominates the rest (`_generic_type`).  This is a
    cross-check for the word-based map, never a ground truth for single samples.
    """
    pt = Partition(p_type)
    if pt.size > size_limit:
        raise ValueError(f"|P|={pt.size} exceeds the oracle limit {size_limit}")
    types = set()
    for lo, hi in _chunks(samples):
        stack = assemble_blocks(pt, _draw_free(pt, rng, prime, hi - lo))
        types.update(jordan_type_of_matrix(m, prime) for m in stack)
    return _generic_type(types)
