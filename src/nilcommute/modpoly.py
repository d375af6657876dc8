"""Exact arithmetic over a large prime field.

Scalars live in GF(p); truncated polynomials represent elements of
k[t]/(t^N) as dense coefficient tuples; matrices are numpy int64 arrays
reduced mod p (object arrays of Python integers for p >= 2^31).  Exact
ranks come from two kernels: `rank`, a scalar Gaussian elimination that
serves the sparse rectangular Jacobians of the locus equations, and
`ranks`, an inverse-free elimination over a whole (S, rows, cols) stack
that serves the Jordan-type readout, which ranks all powers of one matrix
at once.  The default prime is large enough that random cancellations
never disturb desk-scale Monte-Carlo runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_PRIME = 1_000_000_007

# int64 row operations need factor * entry < 2^63, the split matmul below
# needs p * 2^15 * n < 2^63, and the inverse-free elimination in `ranks`
# keeps every entry and product below p^2 < 2^62; all hold for p < 2^31
_INT64_SAFE = 2**31


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
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


@dataclass(frozen=True)
class TruncPoly:
    """Element of k[t]/(t^N): coeffs[j] is the coefficient of t^j for j < N."""

    coeffs: tuple[int, ...]
    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("the modulus exponent must be at least 1")
        object.__setattr__(self, "coeffs", tuple(int(c) % self.p for c in self.coeffs))

    @classmethod
    def from_coeffs(cls, coeffs, n: int, p: int = DEFAULT_PRIME) -> "TruncPoly":
        """Build from an arbitrary coefficient sequence, padded or cut to length n."""
        c = [int(x) % p for x in list(coeffs)[:n]]
        return cls(tuple(c) + (0,) * (n - len(c)), p)

    @classmethod
    def zero(cls, n: int, p: int = DEFAULT_PRIME) -> "TruncPoly":
        return cls((0,) * n, p)

    @classmethod
    def one(cls, n: int, p: int = DEFAULT_PRIME) -> "TruncPoly":
        return cls((1,) + (0,) * (n - 1), p)

    @classmethod
    def t_power(cls, j: int, n: int, p: int = DEFAULT_PRIME) -> "TruncPoly":
        if j >= n:
            return cls.zero(n, p)
        return cls((0,) * j + (1,) + (0,) * (n - 1 - j), p)

    @property
    def n(self) -> int:
        """Modulus exponent N."""
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def order(self) -> int | float:
        """t-adic order; math.inf for the zero element."""
        for j, c in enumerate(self.coeffs):
            if c:
                return j
        return math.inf

    def _check(self, other: "TruncPoly") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")
        if self.n != other.n:
            raise ValueError(
                f"mixed moduli t^{self.n} and t^{other.n}; retarget with mul_trunc or lift"
            )

    def __add__(self, other: "TruncPoly") -> "TruncPoly":
        self._check(other)
        return TruncPoly(tuple((a + b) % self.p for a, b in zip(self.coeffs, other.coeffs)), self.p)

    def __sub__(self, other: "TruncPoly") -> "TruncPoly":
        self._check(other)
        return TruncPoly(tuple((a - b) % self.p for a, b in zip(self.coeffs, other.coeffs)), self.p)

    def __mul__(self, other: "TruncPoly") -> "TruncPoly":
        self._check(other)
        return self.mul_trunc(other, self.n)

    def mul_trunc(self, other: "TruncPoly", n: int) -> "TruncPoly":
        """Product truncated at t^n; the one place mixed moduli are allowed."""
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")
        out = [0] * n
        for i, a in enumerate(self.coeffs[:n]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: n - i]):
                if b:
                    out[i + j] = (out[i + j] + a * b) % self.p
        return TruncPoly(tuple(out), self.p)

    def lift(self, n: int) -> "TruncPoly":
        """Canonical representative in k[t]/(t^n), zero-padded or truncated."""
        return TruncPoly.from_coeffs(self.coeffs, n, self.p)

    def shift(self, r: int, n: int) -> "TruncPoly":
        """t^r * self, landing in k[t]/(t^n)."""
        return TruncPoly.from_coeffs((0,) * r + self.coeffs, n, self.p)


def det2(a: TruncPoly, b: TruncPoly, g: TruncPoly, h: TruncPoly, r: int) -> TruncPoly:
    """ab - g h t^r in k[t]/(t^n) with n = a.n, lifting the short entries.

    The canonical lift of b is ambiguous above t^(b.n); the ambiguity only
    reaches the result at order >= ord(a) + b.n, which is exactly where the
    corank formula caps it, so every coefficient that is ever used is
    intrinsic.
    """
    n = a.n
    ab = a.mul_trunc(b.lift(n), n)
    gh = g.lift(n).mul_trunc(h.lift(n), n)
    return ab - gh.shift(r, n)


def _as_field_matrix(mat, p: int) -> np.ndarray:
    dtype = np.int64 if p < _INT64_SAFE else object
    a = np.array(mat, dtype=dtype)
    return a % p


def rank(mat, p: int = DEFAULT_PRIME) -> int:
    """Exact rank over GF(p) by Gaussian elimination.

    Args:
        mat: rectangular array-like of integers (copied, not mutated).
        p: prime modulus.
    """
    a = _as_field_matrix(mat, p)
    if a.ndim != 2:
        raise ValueError("rank expects a 2-d matrix")
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivots = np.nonzero(a[r:, c])[0]
        if pivots.size == 0:
            continue
        pr = int(pivots[0]) + r
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = a[r] * inv % p
        below = np.nonzero(a[r + 1 :, c])[0] + r + 1
        if below.size:
            a[below] = (a[below] - np.outer(a[below, c], a[r])) % p
        r += 1
    return r


def ranks(stack, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Exact ranks over GF(p) of every matrix in an (S, rows, cols) stack.

    Each step pivots every live matrix A on its first nonzero entry (i, j)
    in row-major order and replaces it by a_ij A - A[:, j] (x) A[i, :] mod p.
    That zeroes row i and column j and lowers the rank by exactly one, with
    no modular inverse.  A matrix with no nonzero entry left at step s has
    rank s and leaves the stack, so the loop stops one step after the
    largest rank.

    Args:
        stack: array-like of integers of shape (S, rows, cols) (not mutated).
        p: prime modulus.
    """
    a = _as_field_matrix(stack, p)
    if a.ndim != 3:
        raise ValueError("ranks expects an (S, rows, cols) stack")
    count, rows, cols = a.shape
    out = np.zeros(count, dtype=np.intp)
    if not a.size:
        return out
    live = at = np.arange(count)
    a = a.reshape(count, rows * cols)
    # no rank exceeds min(rows, cols), so the last step finds no pivot
    for step in range(min(rows, cols) + 1):
        first = (a != 0).argmax(axis=1)
        pivot = a[at, first]
        if not pivot.all():
            nonzero = pivot != 0
            out[live[~nonzero]] = step
            live, a, first, pivot = live[nonzero], a[nonzero], first[nonzero], pivot[nonzero]
            if not live.size:
                break
            at = np.arange(live.size)
        i, j = np.divmod(first, cols)
        m = a.reshape(live.size, rows, cols)
        m = pivot[:, None, None] * m - m[at, :, j][:, :, None] * m[at, i][:, None, :]
        a = m.reshape(live.size, rows * cols) % p
    return out


def matmul(a, b, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Exact (a @ b) mod p; `a` may be an (S, n, k) stack of left factors.

    For p below 2^31 the factors are split into high and low 15-bit halves
    so the accumulation stays inside int64; larger primes fall back to
    Python integers.
    """
    if p < _INT64_SAFE:
        aa = np.asarray(a, dtype=np.int64) % p
        bb = np.asarray(b, dtype=np.int64) % p
        hi, lo = aa >> 15, aa & 0x7FFF
        return ((hi @ bb % p) * (1 << 15) + lo @ bb) % p
    aa = np.asarray(a, dtype=object) % p
    bb = np.asarray(b, dtype=object) % p
    return (aa @ bb) % p
