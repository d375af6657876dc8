"""Block parametrization of matrices commuting with a nilpotent Jordan matrix.

A block entry (i, j) is a module map k[t]/(t^{q_j}) -> k[t]/(t^{q_i}):
multiplication by a truncated polynomial followed by the natural
projection, well defined exactly when its order is at least q_i - q_j.
For a stable shape the nilpotent commutant is the linear slice where every
diagonal entry has positive order.  Assembling the blocks in bases ordered
by decreasing t-power reproduces the familiar banded matrices, and ranks
of powers of the assembled matrix recover the Jordan type.  The powers
are built by repeated doubling, and all of them are ranked in one stacked
elimination (`modpoly.ranks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modpoly import DEFAULT_PRIME, TruncPoly, _as_field_matrix, det2, matmul, ranks
from .modpoly import rank  # noqa: F401  (perfbench's tracer test asserts commutator.rank exists)
from .partitions import EMPTY, Partition, dominance_max, is_stable, jordan_from_coranks


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


def _assemble_flat(parts: tuple[int, ...], coeffs) -> np.ndarray:
    """Assemble the block coefficients of `parts`, numbered as in `_layout`."""
    flat = np.zeros(sum(parts) * len(parts) + 1, dtype=np.int64)
    flat[:-1] = coeffs
    return flat[_layout(parts)[0]]


def _draw_free(parts: tuple[int, ...], rng, p: int) -> np.ndarray:
    """Block coefficients of a uniform draw from the slice `_layout` describes."""
    coeffs = np.zeros(sum(parts) * len(parts), dtype=np.int64)
    free = _layout(parts)[1]
    coeffs[free] = rng.integers(p, size=free.size)
    return coeffs


def assemble_blocks(parts, entries, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Assemble an l x l grid of block entries into one n x n matrix."""
    return _assemble_flat(tuple(parts), [c for row in entries for f in row for c in f.coeffs])


def jordan_type_of_matrix(mat, p: int = DEFAULT_PRIME) -> Partition:
    """Jordan type of a nilpotent matrix via coranks of its powers.

    The stack M, ..., M^k times M^k gives M^(k+1), ..., M^(2k), so the
    powers up to the first zero one (at most n) take at most ceil(log2 n)
    products, and one `ranks` call reads every corank.
    """
    m = _as_field_matrix(mat, p)
    n = m.shape[0]
    if n == 0:
        return EMPTY
    powers = m[None]
    while powers[-1].any():
        k = len(powers)
        if k >= n:
            raise ValueError("matrix is not nilpotent")
        powers = np.concatenate([powers, matmul(powers[: n - k], powers[-1], p)])
    return jordan_from_coranks([0, *(n - ranks(powers, p)).tolist(), n])


@dataclass(frozen=True)
class CommutatorElement:
    """Nilpotent commutant element of the Jordan matrix of a stable shape q."""

    q: Partition
    entries: tuple[tuple[TruncPoly, ...], ...]
    p: int = DEFAULT_PRIME

    def __post_init__(self):
        q = Partition(self.q)
        object.__setattr__(self, "q", q)
        if not q or not is_stable(q):
            raise ValueError(f"shape must be a nonempty stable partition: {tuple(q)}")
        ell = len(q)
        if len(self.entries) != ell or any(len(row) != ell for row in self.entries):
            raise ValueError(f"entries must form an {ell}x{ell} grid")
        for i in range(ell):
            for j in range(ell):
                f = self.entries[i][j]
                if f.p != self.p or f.n != q[i]:
                    raise ValueError(
                        f"entry ({i},{j}) must live in k[t]/(t^{q[i]}) over GF({self.p})"
                    )
                need = 1 if i == j else max(0, q[i] - q[j])
                if f.order() < need:
                    raise ValueError(f"entry ({i},{j}) needs order >= {need}")

    @classmethod
    def zero(cls, q, p: int = DEFAULT_PRIME) -> "CommutatorElement":
        q = Partition(q)
        rows = tuple(tuple(TruncPoly.zero(qi, p) for _ in q) for qi in q)
        return cls(q, rows, p)

    @classmethod
    def jordan(cls, q, p: int = DEFAULT_PRIME) -> "CommutatorElement":
        """The element assembling to the Jordan matrix itself (t on the diagonal)."""
        q = Partition(q)
        rows = tuple(
            tuple(
                TruncPoly.t_power(1, qi, p) if i == j else TruncPoly.zero(qi, p)
                for j in range(len(q))
            )
            for i, qi in enumerate(q)
        )
        return cls(q, rows, p)

    def assemble(self) -> np.ndarray:
        return assemble_blocks(self.q, self.entries, self.p)

    def jordan_type(self) -> Partition:
        return jordan_type_of_matrix(self.assemble(), self.p)

    def multiply(self, other: "CommutatorElement") -> "CommutatorElement":
        """Composition of block maps; assembles to the matrix product."""
        if self.q != other.q or self.p != other.p:
            raise ValueError("elements live on different shapes")
        q, p = self.q, self.p
        ell = len(q)
        rows = []
        for i in range(ell):
            row = []
            for j in range(ell):
                acc = TruncPoly.zero(q[i], p)
                for m in range(ell):
                    acc = acc + self.entries[i][m].mul_trunc(other.entries[m][j].lift(q[i]), q[i])
                row.append(acc)
            rows.append(tuple(row))
        return CommutatorElement(q, tuple(rows), p)

    def __matmul__(self, other: "CommutatorElement") -> "CommutatorElement":
        return self.multiply(other)

    def __add__(self, other: "CommutatorElement") -> "CommutatorElement":
        if self.q != other.q or self.p != other.p:
            raise ValueError("elements live on different shapes")
        rows = tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)
        )
        return CommutatorElement(self.q, rows, self.p)


def sample_commutator(q, rng, *, p: int = DEFAULT_PRIME) -> CommutatorElement:
    """Uniform draw from the nilpotent commutant slice of a stable shape."""
    q = Partition(q)
    if not q or not is_stable(q):
        raise ValueError(f"need a nonempty stable shape, got {tuple(q)}")
    coeffs = _draw_free(q, rng, p).tolist()
    rows = []
    pos = 0
    for qi in q:
        row = []
        for _ in q:
            row.append(TruncPoly(tuple(coeffs[pos : pos + qi]), p))
            pos += qi
        rows.append(tuple(row))
    return CommutatorElement(q, tuple(rows), p)


def sample_commutant_matrix(parts, rng, *, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Assembled random nilpotent commutant element of J_parts (see `_layout`).

    For a stable shape it equals `sample_commutator(parts, rng).assemble()`.
    """
    parts = tuple(parts)
    return _assemble_flat(parts, _draw_free(parts, rng, p))


@dataclass(frozen=True)
class TwoPartElement:
    """Commutant element of the two-block shape (u, u-r) in named coordinates.

    a = a_1 t + ... + a_{u-1} t^{u-1} mod t^u and b likewise mod t^{u-r};
    g and h live mod t^{u-r} with free constant terms.  Assembled, g sits
    above the diagonal carrying a t^r shift and h below it.
    """

    u: int
    r: int
    a: TruncPoly
    b: TruncPoly
    g: TruncPoly
    h: TruncPoly

    def __post_init__(self):
        u, r = self.u, self.r
        if not u > r >= 2:
            raise ValueError(f"need u > r >= 2, got u={u}, r={r}")
        if (self.a.n, self.b.n, self.g.n, self.h.n) != (u, u - r, u - r, u - r):
            raise ValueError("coefficient lengths must be u, u-r, u-r, u-r")
        if len({self.a.p, self.b.p, self.g.p, self.h.p}) != 1:
            raise ValueError("mixed primes")
        if self.a.coeffs[0] or self.b.coeffs[0]:
            raise ValueError("nilpotency needs zero constant terms in a and b")

    @property
    def p(self) -> int:
        return self.a.p

    @property
    def q(self) -> Partition:
        return Partition((self.u, self.u - self.r))

    def to_element(self) -> CommutatorElement:
        top = (self.a, self.g.shift(self.r, self.u))
        bottom = (self.h, self.b)
        return CommutatorElement(self.q, (top, bottom), self.p)

    @classmethod
    def from_element(cls, e: CommutatorElement) -> "TwoPartElement":
        if len(e.q) != 2:
            raise ValueError(f"need a two-part shape, got {tuple(e.q)}")
        u, v = e.q
        r = u - v
        shifted = e.entries[0][1]
        if any(shifted.coeffs[:r]):
            raise ValueError("upper-right entry must be divisible by t^r")
        g = TruncPoly(tuple(shifted.coeffs[r:]), e.p)
        return cls(u, r, e.entries[0][0], e.entries[1][1], g, e.entries[1][0])

    def det2(self) -> TruncPoly:
        """ab - g h t^r in k[t]/(t^u)."""
        return det2(self.a, self.b, self.g, self.h, self.r)

    def assemble(self) -> np.ndarray:
        # blocks a, t^r g, h, b in the layout's row-major order
        shifted_g = (0,) * self.r + self.g.coeffs
        return _assemble_flat(self.q, self.a.coeffs + shifted_g + self.h.coeffs + self.b.coeffs)

    def jordan_type(self) -> Partition:
        return jordan_type_of_matrix(self.assemble(), self.p)

    def to_json(self) -> dict:
        return {
            "u": self.u,
            "r": self.r,
            "a": list(self.a.coeffs),
            "b": list(self.b.coeffs),
            "g": list(self.g.coeffs),
            "h": list(self.h.coeffs),
            "p": self.p,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TwoPartElement":
        u, r, p = data["u"], data["r"], data["p"]
        return cls(
            u,
            r,
            TruncPoly.from_coeffs(data["a"], u, p),
            TruncPoly.from_coeffs(data["b"], u - r, p),
            TruncPoly.from_coeffs(data["g"], u - r, p),
            TruncPoly.from_coeffs(data["h"], u - r, p),
        )


def sample_two_part(u: int, r: int, rng, *, p: int = DEFAULT_PRIME) -> TwoPartElement:
    """Uniform draw from the full nilpotent commutant of the shape (u, u-r)."""
    if not u > r >= 2:
        raise ValueError(f"need u > r >= 2, got u={u}, r={r}")
    m = u - r
    a = TruncPoly((0,) + tuple(int(x) for x in rng.integers(p, size=u - 1)), p)
    b = TruncPoly((0,) + tuple(int(x) for x in rng.integers(p, size=m - 1)), p)
    g = TruncPoly(tuple(int(x) for x in rng.integers(p, size=m)), p)
    h = TruncPoly(tuple(int(x) for x in rng.integers(p, size=m)), p)
    return TwoPartElement(u, r, a, b, g, h)


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
    observed types.  This is a cross-check for the word-based map, never a
    ground truth for single samples.
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
        types.add(jordan_type_of_matrix(sample_commutant_matrix(pt, rng, p=prime), prime))
    try:
        return dominance_max(types)
    except ValueError as exc:
        raise RuntimeError(
            f"oracle for {tuple(pt)} saw dominance-incomparable top types; sampler bug"
        ) from exc
