"""Block parametrization of matrices commuting with a nilpotent Jordan matrix.

A block entry (i, j) is a module map k[t]/(t^{q_j}) -> k[t]/(t^{q_i}):
multiplication by a truncated polynomial followed by the natural
projection, well defined exactly when its order is at least q_i - q_j.
For a stable shape the nilpotent commutant is the linear slice where every
diagonal entry has positive order.  An element is stored as its block
coefficients, numbered by `_layout`, and products compose blocks on them
(`_blocks`).  For a two-part shape (u, u-r) the coordinates a, g, h, b of
the locus equations are slices of them (`_two_part_offsets`).
Assembling the blocks in bases ordered by decreasing t-power reproduces
the familiar banded matrices, and ranks of powers of the assembled matrix
recover the Jordan type.  A chunk of samples is drawn as coefficient rows
in one generator call (`_draw_free`, the same draws as one per sample),
assembled by `assemble_blocks` and read as one (S, n, n) stack, reduced
mod p once.  `jordan_types` ranks every power of a chunk (doubled by
`modpoly._mulmod`) in one stacked `modpoly._eliminate`, for `survey`,
`dmap_oracle`, `jordan_type_of_matrix` and `CommutatorElement.jordan_type`.
`verify_cell` and `intersect_experiment` use `_two_part_types`, which reads
a two-part shape from the 2x2 minors of [Phi^s | D] and squares no power;
`jordan_types` is its test oracle.  Both end in the same corank profiles
over and over, so each distinct profile is converted to a Jordan type once
per process (`_profile_type`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .modpoly import DEFAULT_PRIME, _as_field_matrix, _eliminate, _mulmod, _reduce
from .modpoly import rank  # noqa: F401  (perfbench's tracer test asserts commutator.rank exists)
from .partitions import EMPTY, Partition, dominance_max, is_stable, jordan_from_coranks

# samples per elimination in `jordan_types`: enough to share numpy's
# per-call cost, few enough that a chunk's powers stay small (n = 22 with
# 12 powers is 372 KB of int64 per chunk, eliminated in place; reading a
# chunk of (10, 7, 4, 1) samples, n = 22 with 10 powers, peaks at 1.7 MB
# under tracemalloc, doubling included)
_CHUNK = 8


@lru_cache(maxsize=512)
def _layout(parts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient numbering of the block grid of `parts`, of any shape.

    Coefficients are numbered block by block in row-major order, then by
    t-power.  `take` maps each matrix cell to the number of its
    coefficient, or to -1 (a zero appended after the last) for a
    structural zero; `free` lists the coefficients that are free in the
    nilpotent commutant, in draw order.

    Constant terms between equal-size blocks form one matrix per size
    class, and the element is nilpotent exactly when each class matrix is.
    Conjugation by commutant units puts any class matrix in strictly upper
    triangular form without changing the Jordan type, so freeing only the
    constant terms with i < j still meets the dense orbit.  For a stable
    shape this is the nilpotent commutant slice.
    """
    n = sum(parts)
    take = np.full((n, n), -1, dtype=np.intp)
    free = []
    offs = np.cumsum((0,) + parts)
    coeff = 0
    for i, qi in enumerate(parts):
        for j, qj in enumerate(parts):
            # entry (row, col) is the coefficient of f at q_i - q_j + col - row,
            # i.e. multiplication by f in bases (t^{m-1}, ..., t, 1)
            deg = (qi - qj) + np.arange(qj)[None, :] - np.arange(qi)[:, None]
            take[offs[i] : offs[i + 1], offs[j] : offs[j + 1]] = np.where(deg >= 0, coeff + deg, -1)
            lo = 1 if qi == qj and i >= j else max(0, qi - qj)
            free.extend(range(coeff + lo, coeff + qi))
            coeff += qi
    free_idx = np.array(free, dtype=np.intp)
    take.flags.writeable = free_idx.flags.writeable = False
    return take, free_idx


def assemble_blocks(parts, coeffs) -> np.ndarray:
    """Assemble a row of block coefficients of `parts`, numbered as in
    `_layout`, into an n x n matrix, or (S, coefficients) rows of them into
    an (S, n, n) stack.  A row must hold all sum(parts) * len(parts)
    coefficients: numpy would broadcast a length-1 row into every one."""
    parts, shape = tuple(parts), np.shape(coeffs)
    width = sum(parts) * len(parts)
    if shape[-1:] != (width,):
        raise ValueError(f"shape {parts} takes rows of {width} block coefficients, got shape {shape}")
    flat = np.zeros(shape[:-1] + (width + 1,), dtype=np.int64)
    flat[..., :-1] = coeffs
    return flat[..., _layout(parts)[0]]


def _draw_free(parts: tuple[int, ...], rng, p: int, count: int | None = None) -> np.ndarray:
    """Block coefficients of a uniform draw from the slice `_layout` describes,
    or `count` rows of them, drawn exactly as by `count` one-draw calls."""
    lead = () if count is None else (count,)
    coeffs = np.zeros(lead + (sum(parts) * len(parts),), dtype=np.int64)
    free = _layout(parts)[1]
    coeffs[..., free] = rng.integers(p, size=lead + (free.size,))
    return coeffs


def _blocks(parts, coeffs) -> list[list[tuple[int, ...]]]:
    """The l x l grid of block coefficient lists of `coeffs`, numbered as in
    `_layout`: row i holds q_i coefficients per block."""
    it = iter(coeffs)
    return [[tuple(islice(it, qi)) for _ in parts] for qi in parts]


def jordan_types(stack, p: int = DEFAULT_PRIME) -> list[Partition]:
    """Jordan types of an (S, n, n) stack of nilpotent matrices, via coranks
    of their powers.

    The stack is reduced mod p once into a copy, read `_CHUNK` matrices
    at a time.  Within a chunk, the powers M, ..., M^k times M^k give
    M^(k+1), ..., M^(2k), so the powers up to the first one that is zero on
    every matrix (at most n) take at most ceil(log2 n) products
    (`_mulmod`), and one elimination (`_eliminate`) reads every corank in
    place; both kernels take the reduced copy as it is.  A matrix whose
    powers reach zero early contributes only zero powers after that, which
    repeat its final corank n.
    """
    m = _as_field_matrix(stack, p)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError("jordan_types expects an (S, n, n) stack")
    count, n, _ = m.shape
    if n == 0:
        return [EMPTY] * count
    rows = []
    for lo in range(0, count, _CHUNK):
        powers = m[lo : lo + _CHUNK, None]
        while powers[:, -1].any():
            k = powers.shape[1]
            if k >= n:
                raise ValueError("matrix is not nilpotent")
            powers = np.concatenate([powers, _mulmod(powers[:, : n - k], powers[:, -1:], p)], axis=1)
        coranks = n - _eliminate(powers.reshape(-1, n, n), p).reshape(len(powers), -1)
        rows.extend(coranks.tolist())
    return _profile_types(rows, n)


@lru_cache(maxsize=4096)
def _profile_type(key: tuple[int, ...], n: int) -> Partition:
    """Jordan type of the corank row `key` of an n x n matrix, memoized
    across calls (a bad row raises on every call: errors are not cached)."""
    return jordan_from_coranks([0, *key, n])


def _profile_types(rows, n: int) -> list[Partition]:
    """Jordan types of corank rows (powers 1..k of n x n matrices with
    M^k = 0), converting each distinct row once per process."""
    return [_profile_type(tuple(row), n) for row in rows]


@lru_cache(maxsize=512)
def _two_part_indices(u: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """For the shape (u, u-r), n = 2u - r: the index that assembles a
    commutant element from its generator columns u - 1 and n - 1 (flattened
    row by row as an (n, 2) pair; -1 is an appended zero, as in `_layout`),
    and the 0/1 matrix summing a flattened (u, u-r) array along its
    anti-diagonals.  Column u-1-i is J^i times column u - 1, and column
    n-1-i is J^i times column n - 1; J^i shifts each block's rows up by i."""
    n = 2 * u - r
    row, col = np.arange(n)[:, None], np.arange(n)[None, :]
    gen = col >= u
    src = row + np.where(gen, n - 1, u - 1) - col
    gather = np.where(src <= np.where(row < u, u - 1, n - 1), 2 * src + gen, -1)
    degree = np.add.outer(np.arange(u), np.arange(u - r)).reshape(-1, 1)
    sums = (degree == np.arange(n - 1)).astype(np.int64)
    gather.flags.writeable = sums.flags.writeable = False
    return gather, sums


def _two_part_types(stack, u: int, r: int, p: int = DEFAULT_PRIME) -> list[Partition]:
    """Jordan types of an (S, n, n) stack of nilpotent commutant elements of
    the shape (u, u-r), n = 2u - r, read without ranking any n x n power.

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
    when M^k = 0, as M commutes with J).  A map commuting with J is fixed
    by its images of the generators, so each doubling round gathers M^k
    from the last column pair of W and makes one product, M^k W.

    delta = ord(ab - t^r g h) comes from V = ME: the reduced outer product
    of (a, t^r g) and (h, b), summed along anti-diagonals by a 0/1 matrix,
    in float64 for p < 2^31 (exact: every sum is below (u-r) p < 2^53) and
    on Python integers above.
    """
    stack, n = np.asarray(stack), 2 * u - r
    if stack.shape[1:] != (n, n):
        raise ValueError(f"_two_part_types expects an (S, {n}, {n}) stack")
    gather, sums = _two_part_indices(u, r)
    w = _as_field_matrix(stack[:, :, [u - 1, n - 1]], p)
    while w[:, :, -2:].any():
        if w.shape[2] >= 2 * n:
            raise ValueError("matrix is not nilpotent")
        pair = np.concatenate([w[:, :, -2:].reshape(len(w), -1), np.zeros((len(w), 1), w.dtype)], axis=1)
        w = np.concatenate([w, _mulmod(pair[:, gather], w, p)], axis=2)  # M^k from M^k E, times W
    # rows in increasing t-power: row 2 of Phi^s, then row 1
    nz = (w[:, ::-1] != 0).reshape(len(w), n, -1, 2).any(axis=3)
    row2 = np.where(nz[:, : u - r].any(axis=1), nz[:, : u - r].argmax(axis=1), u - r)
    row1 = np.where(nz[:, u - r :].any(axis=1), nz[:, u - r :].argmax(axis=1), u)
    top, bottom = w[:, u - 1 :: -1, :2], w[:, : u - 1 : -1, :2]  # (a, t^r g), (h, b)
    outer = top[:, :, None, 0] * bottom[:, None, :, 1] - top[:, :, None, 1] * bottom[:, None, :, 0]
    outer = _reduce(outer, p).reshape(len(w), -1)
    det = outer.astype(np.float64 if outer.dtype != object else object) @ sums % p != 0
    delta = np.where(det.any(axis=1), det.argmax(axis=1), n)[:, None]
    s = np.arange(1, w.shape[2] // 2 + 1)
    coranks = np.minimum(np.minimum(s * delta, (u - r) + row1), u + row2)
    return _profile_types(coranks.tolist(), n)


def jordan_type_of_matrix(mat, p: int = DEFAULT_PRIME) -> Partition:
    """Jordan type of a nilpotent matrix: the one-matrix case of `jordan_types`."""
    return jordan_types(np.asarray(mat)[None], p)[0]


@dataclass(frozen=True)
class CommutatorElement:
    """Nilpotent commutant element of the Jordan matrix of a stable shape q,
    stored as its block coefficients in the `_layout` numbering, its one
    representation."""

    q: Partition
    coeffs: tuple[int, ...]
    p: int = DEFAULT_PRIME

    def __post_init__(self):
        q = Partition(self.q)
        object.__setattr__(self, "q", q)
        if not q or not is_stable(q):
            raise ValueError(f"shape must be a nonempty stable partition: {tuple(q)}")
        c = tuple(int(x) % self.p for x in self.coeffs)
        object.__setattr__(self, "coeffs", c)
        if len(c) != q.size * len(q):
            raise ValueError(f"shape {tuple(q)} has {q.size * len(q)} block coefficients, got {len(c)}")
        free = _layout(q)[1].tolist()
        fixed = {i for i, x in enumerate(c) if x}.difference(free)
        if fixed:
            raise ValueError(_order_error(q, min(fixed), free))

    @classmethod
    def jordan(cls, q, p: int = DEFAULT_PRIME) -> "CommutatorElement":
        """The element assembling to the Jordan matrix itself: t in each
        diagonal block (i, i), whose t^1 coefficient is number
        len(q) * sum(q[:i]) + i * q_i + 1 (a block with q_i = 1 has none)."""
        q = Partition(q)
        coeffs = [0] * (q.size * len(q))
        for i, qi in enumerate(q):
            if qi > 1:
                coeffs[len(q) * sum(q[:i]) + i * qi + 1] = 1
        return cls(q, coeffs, p)

    def assemble(self) -> np.ndarray:
        return assemble_blocks(self.q, self.coeffs)

    def jordan_type(self) -> Partition:
        return jordan_type_of_matrix(self.assemble(), self.p)

    def multiply(self, other: "CommutatorElement") -> "CommutatorElement":
        """Composition of block maps; assembles to the matrix product.

        Block (i, j) is the sum over m of f_im f_mj truncated at t^{q_i}, in
        Python integers; any lift of f_mj serves, as ord f_im >= q_i - q_m."""
        if self.q != other.q or self.p != other.p:
            raise ValueError("elements live on different shapes")
        q = self.q
        left, right = _blocks(q, self.coeffs), _blocks(q, other.coeffs)
        out = []
        for i, qi in enumerate(q):
            for j in range(len(q)):
                acc = [0] * qi
                for f, g in zip(left[i], (row[j] for row in right)):
                    for d, x in enumerate(f):
                        if x:
                            for e, y in enumerate(g[: qi - d]):
                                acc[d + e] += x * y
                out.extend(acc)
        return CommutatorElement(q, out, self.p)

    def __matmul__(self, other: "CommutatorElement") -> "CommutatorElement":
        return self.multiply(other)

    def __add__(self, other: "CommutatorElement") -> "CommutatorElement":
        if self.q != other.q or self.p != other.p:
            raise ValueError("elements live on different shapes")
        return CommutatorElement(self.q, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)), self.p)


def _order_error(parts, coeff: int, free) -> str:
    """Name the block entry holding the fixed coefficient `coeff` and the order it needs."""
    start = 0
    for i, qi in enumerate(parts):
        for j in range(len(parts)):
            if coeff < start + qi:
                # the fixed coefficients of a block are its lowest degrees
                need = qi - sum(start <= f < start + qi for f in free)
                return f"entry ({i},{j}) needs order >= {need}"
            start += qi


def sample_commutator(q, rng, *, p: int = DEFAULT_PRIME) -> CommutatorElement:
    """Uniform draw from the nilpotent commutant slice of a stable shape."""
    q = Partition(q)
    return CommutatorElement(q, _draw_free(q, rng, p).tolist(), p)


def _two_part_offsets(u: int, r: int) -> tuple[int, int, int]:
    """Block coefficient numbers of g_0, h_0 and b_0 for the shape (u, u-r).

    The layout's blocks are a | t^r g | h | b, and a_0 is number 0.
    """
    return u + r, 2 * u, 3 * u - r


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
    necessarily stable) type and returns the dominance maximum of the
    observed types, or EMPTY when none dominates the rest (`_generic_type`).
    This is a cross-check for the word-based map, never a ground truth for
    single samples.
    """
    pt = Partition(p_type)
    if pt.size > size_limit:
        raise ValueError(f"|P|={pt.size} exceeds the oracle limit {size_limit}")
    if samples < 1:
        raise ValueError("need at least one sample")
    if not pt:
        return EMPTY
    types = set()
    for _ in range(samples):
        types.add(jordan_type_of_matrix(assemble_blocks(pt, _draw_free(pt, rng, prime)), prime))
    return _generic_type(types)
