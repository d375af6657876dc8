import math

import numpy as np
import pytest

from nilcommute import modpoly
from nilcommute.modpoly import DEFAULT_PRIME, TruncPoly, _as_field_matrix, _eliminate, _reduce, is_prime, matmul, rank

P = DEFAULT_PRIME
BIG = 2_147_483_659  # first prime past the int64 fast path
EDGE_PRIMES = [2, 3, 65_537, P, 2**31 - 1, BIG]


def poly(coeffs, n, p=P):
    """The element of k[t]/(t^n) with the given low coefficients, zero-padded."""
    return TruncPoly(tuple(coeffs) + (0,) * (n - len(coeffs)), p)


def zero(n, p=P):
    """The zero of k[t]/(t^n)."""
    return poly((), n, p)


def t_power(j, n, p=P):
    """t^j in k[t]/(t^n), which is zero for j >= n."""
    return poly((0,) * j + (1,), n, p) if j < n else zero(n, p)


def reference_rank(mat, p=P):
    """Exact rank over GF(p) by scalar Gaussian elimination: pivot search,
    row swaps, modular inverses and below-pivot updates.  The oracle for
    `rank`, the stacked `_eliminate` and the Jordan-type readout,
    independent of their inverse-free elimination."""
    a = np.array(mat, dtype=np.int64 if p < 2**31 else object) % p
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


class TestPrime:
    def test_default_prime(self):
        assert is_prime(DEFAULT_PRIME)

    def test_small(self):
        assert is_prime(2) and is_prime(97)
        assert not is_prime(1) and not is_prime(91)

    def test_matches_trial_division(self):
        def slow(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert all(is_prime(n) == slow(n) for n in range(-2, 5000))

    def test_large_moduli(self):
        # Mersenne 2^61 - 1, the largest primes below 2^63 and 2^64
        for p in (2**61 - 1, 2**63 - 25, 2**64 - 59):
            assert is_prime(p)
        # Carmichael numbers, strong pseudoprimes to the bases 2..7 and
        # 2..23, and a square of a large prime
        for n in (561, 41041, 3215031751, 3825123056546413051, (2**31 - 1) ** 2):
            assert not is_prime(n)


class TestTruncPoly:
    def test_order(self):
        # the test-side order, the reference of the valuation claims
        from test_commutator import order

        assert order(poly([0, 0, 1, 3], 5).coeffs) == 2
        assert order(zero(4).coeffs) == math.inf

    def test_order_additive(self):
        # (t * unit) * (t * unit) has order 2 below the truncation
        from test_commutator import mul_trunc, order

        u = poly([0, 1, 2], 3)
        v = poly([0, 3, 4], 3)
        assert order(mul_trunc(u.coeffs, v.coeffs, 3)) == 2

    def test_truncation(self):
        from test_commutator import mul_trunc

        one_plus = poly([1, 1], 2)
        one_minus = poly([1, -1], 2)
        assert mul_trunc(one_plus.coeffs, one_minus.coeffs, 2) == t_power(0, 2).coeffs

    def test_square(self):
        from test_commutator import mul_trunc

        f = poly([0, 1, 1], 4)
        assert mul_trunc(f.coeffs, f.coeffs, 4) == (0, 0, 1, 2)

    def test_order_additivity_random(self):
        from test_commutator import mul_trunc, order

        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            f = poly([int(x) for x in rng.integers(P, size=n)], n)
            g = poly([int(x) for x in rng.integers(P, size=n)], n)
            of, og = order(f.coeffs), order(g.coeffs)
            if of + og < n:
                assert order(mul_trunc(f.coeffs, g.coeffs, n)) == of + og


class TestRank:
    def test_identity(self):
        assert rank(np.eye(6, dtype=np.int64)) == 6

    def test_jordan_block(self):
        j = np.eye(7, k=1, dtype=np.int64)
        assert rank(j) == 6

    def test_known_rank_product(self):
        rng = np.random.default_rng(3)
        left = np.vstack([np.eye(4, dtype=np.int64), rng.integers(P, size=(2, 4))])
        right = np.hstack([np.eye(4, dtype=np.int64), rng.integers(P, size=(4, 2))])
        assert rank(matmul(left, right, P)) == 4

    def test_transpose_and_shuffle_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = rng.integers(P, size=(5, 7))
            r = rank(m)
            assert rank(m.T) == r
            perm = rng.permutation(5)
            assert rank(m[perm]) == r

    def test_big_prime_fallback(self):
        p = BIG
        assert is_prime(p)
        m = [[1, 2], [2, 4]]
        assert rank(m, p) == 1
        prod = matmul([[p - 1, 1]], [[1], [1]], p)
        assert int(prod[0][0]) == 0

    def test_input_not_mutated(self):
        for mat in [np.arange(12, dtype=np.int64).reshape(3, 4),
                    np.random.default_rng(5).integers(P, size=(6, 9)) + P,
                    np.arange(12, dtype=np.int64).reshape(3, 4).astype(object)]:
            before = mat.copy()
            rank(mat)
            assert np.array_equal(mat, before)

    def test_empty_matrices(self):
        for shape in [(0, 4), (4, 0), (0, 0)]:
            assert rank(np.zeros(shape, dtype=np.int64)) == 0
            assert rank(np.zeros(shape, dtype=np.int64), BIG) == 0

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            rank(np.zeros((2, 3, 3), dtype=np.int64))


class TestMatmul:
    def test_matches_object_arithmetic(self):
        rng = np.random.default_rng(5)
        a = rng.integers(P, size=(6, 6))
        b = rng.integers(P, size=(6, 6))
        expect = (a.astype(object) @ b.astype(object)) % P
        assert np.array_equal(matmul(a, b, P), expect.astype(np.int64))

    @pytest.mark.parametrize("p", [P, BIG])
    def test_stack_matches_each_slice(self, p):
        rng = np.random.default_rng(6)
        stack = rng.integers(p, size=(5, 4, 6))
        b = rng.integers(p, size=(6, 3))
        out = matmul(stack, b, p)
        assert out.shape == (5, 4, 3)
        assert all(np.array_equal(out[s], matmul(stack[s], b, p)) for s in range(5))

    @pytest.mark.parametrize("p", EDGE_PRIMES)
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 300])
    def test_exact_at_the_extremes(self, p, n):
        # inner dimensions across the limb-width changes; entries p - 1
        # push every limb product and partial sum to its bound
        rng = np.random.default_rng(n)
        for a, b in [
            (np.full((2, 3, n), p - 1), np.full((n, 4), p - 1)),
            (np.full((3, n), p - 1), rng.integers(p, size=(n, 2))),
            (rng.integers(p, size=(2, 3, n)), rng.integers(p, size=(n, 4))),
            (rng.integers(p, size=(5, n)), np.full((n, 3), p - 1)),
        ]:
            expect = (a.astype(object) @ b.astype(object)) % p
            out = matmul(a, b, p)
            assert out.dtype == (np.int64 if p < 2**31 else object)
            assert np.array_equal(out, expect)

    def test_inner_dimension_above_2_21_uses_python_integers(self):
        # no limb width keeps float64 exact past n = 2^21; small entries keep
        # the object arrays' integers shared
        n = 2**21 + 1
        a = np.ones((1, n), dtype=np.int64)
        b = np.ones((n, 1), dtype=np.int64)
        a[0, :3] = b[:2, 0] = P - 1
        out = matmul(a, b, P)
        assert out.dtype == np.int64
        assert int(out[0, 0]) == (2 * (P - 1) ** 2 + (P - 1) + n - 3) % P

    @pytest.mark.parametrize("p", [P, BIG])
    def test_vector_factors(self, p):
        u, v = [p - 1, 2, p + 3], [[p - 1], [5], [-1]]
        assert int(matmul(u, [x for (x,) in v], p)) == ((p - 1) ** 2 + 10 - 3) % p
        assert matmul(u, v, p).tolist() == [((p - 1) ** 2 + 10 - 3) % p]
        assert matmul([[1], [p - 1]], [p - 1], p).tolist() == [p - 1, 1]

    def test_inputs_not_mutated(self):
        a = np.full((2, 3, 3), P + 5, dtype=np.int64)
        b = np.arange(9, dtype=np.int64).reshape(3, 3) - 4
        before = a.copy(), b.copy()
        matmul(a, b, P)
        assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])


class TestInt64Product:
    """`_mulmod` takes one int64 product exactly when the inner dimension n
    is at most `_PRODUCT_MAX_INNER` and n (p-1)^2 < 2^63 in Python integers,
    and the float64 limbs otherwise; both agree with Python integers at the
    bound, where every entry is p - 1."""

    CAP = modpoly._PRODUCT_MAX_INNER

    @pytest.mark.parametrize("p, n, product", [
        (P, 9, True),  # 9 (p-1)^2 < 2^63
        (P, 10, False),  # 10 (p-1)^2 > 2^63
        (2**31 - 1, 2, True),  # 2 (p-1)^2 = 2^63 - 2^34 + 8
        (2**31 - 1, 3, False),
        (np.int64(P), 10, False),  # in int64, 10 (p-1)^2 would wrap below 2^63
        (np.int64(2**31 - 1), 3, False),  # the same, within the cap
        (65_537, CAP, True),
        (65_537, CAP + 1, False),
        (3, CAP, True),
        (3, CAP + 1, False),  # exact in int64 far beyond, but past the cap
    ], ids=lambda v: f"int64_{v}" if isinstance(v, np.integer) else None)
    def test_path_follows_the_bound(self, monkeypatch, p, n, product):
        chosen = []
        exact = modpoly._int64_product_exact

        def spy(n, p):
            chosen.append(exact(n, p))
            return chosen[-1]

        monkeypatch.setattr(modpoly, "_int64_product_exact", spy)
        top = int(p) - 1
        cases = [
            (np.full((n, n), top), np.full((n, n), top)),
            (np.full((2, 3, 4, n), top), np.full((2, 1, n, 5), top)),
            (np.full(n, top), np.full(n, top)),
        ]
        for a, b in cases:
            expect = (a.astype(object) @ b.astype(object)) % int(p)
            out = matmul(a, b, p)
            assert np.array_equal(out, expect)
            assert np.asarray(out).dtype == np.int64
        assert chosen == [product] * len(cases)


class TestReduce:
    @pytest.mark.parametrize("size_offset", [-1, 0, 4000])
    def test_both_sides_of_the_crossover(self, size_offset):
        size = modpoly._REDUCE_BY_DIVISION + size_offset
        rng = np.random.default_rng(size)
        for p in [2, 3, 2**31 - 1]:
            # signed values as an elimination step leaves them, |x| < 2^62
            x = rng.integers(p, size=size) * rng.integers(p, size=size)
            x -= rng.integers(p, size=size) * rng.integers(p, size=size)
            x[:2] = [(p - 1) ** 2, -((p - 1) ** 2)]
            expect = [v % p for v in x.tolist()]
            out = _reduce(x, p)
            assert out is x and x.tolist() == expect

    def test_object_arrays(self):
        x = np.array([BIG**2 + 3, -BIG - 1, 0], dtype=object)
        assert _reduce(x, BIG).tolist() == [3, BIG - 1, 0]


class TestRanks:
    """The stacked elimination, on stacks reduced as the readout reduces them."""

    @staticmethod
    def check(stack, p):
        expect = [reference_rank(m, p) for m in stack]
        assert _eliminate(_as_field_matrix(stack, p), p).tolist() == expect
        assert [rank(m, p) for m in stack] == expect

    @pytest.mark.parametrize("p", [2, 3, P, BIG, 2**63 - 25])
    def test_random_and_deficient_stacks(self, p):
        rng = np.random.default_rng(p % 1000)
        for rows, cols in [(1, 1), (4, 4), (3, 7), (7, 3), (9, 9)]:
            self.check(rng.integers(p, size=(6, rows, cols)), p)
            for inner in range(0, min(rows, cols) + 1):
                left = rng.integers(p, size=(5, rows, inner))
                right = rng.integers(p, size=(inner, cols))
                self.check(matmul(left, right, p), p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_sparse_stacks(self, p):
        rng = np.random.default_rng(11)
        for density in (0.1, 0.3, 0.6):
            stack = rng.integers(1, p, size=(40, 6, 8)) * (rng.random((40, 6, 8)) < density)
            self.check(stack, p)

    @pytest.mark.parametrize("p", [P, BIG])
    def test_zero_and_empty_matrices(self, p):
        self.check(np.zeros((3, 4, 5), dtype=np.int64), p)
        mixed = np.zeros((3, 4, 4), dtype=np.int64)
        mixed[1] = np.eye(4, dtype=np.int64)
        self.check(mixed, p)
        for shape in [(2, 0, 3), (2, 3, 0), (2, 0, 0), (0, 3, 3)]:
            self.check(np.zeros(shape, dtype=np.int64), p)

    def test_input_not_mutated(self):
        # `rank` on views into a stack, reduced int64 included: the
        # elimination works in place on a copy
        for stack in [np.arange(18, dtype=np.int64).reshape(2, 3, 3),
                      np.random.default_rng(3).integers(P, size=(40, 5, 5)),
                      np.arange(18, dtype=np.int64).reshape(2, 3, 3).astype(object)]:
            before = stack.copy()
            for m in stack:
                rank(m)
            assert np.array_equal(stack, before)

    @pytest.mark.parametrize("count", [3, 40])
    def test_int64_edge(self, count):
        # p = 2^31 - 1 with entries at and near p - 1: pivot and outer
        # products come near 2^62; 3 x 5 x 5 is below the reduction
        # crossover, 40 x 5 x 5 above it
        p = 2**31 - 1
        rng = np.random.default_rng(count)
        self.check(np.full((count, 5, 5), p - 1), p)
        self.check(p - 1 - rng.integers(3, size=(count, 5, 5)), p)
        self.check(p - 1 - rng.integers(3, size=(count, 4, 7)), p)

    @pytest.mark.parametrize("p", [3, 2**31 - 1, BIG])
    def test_deficient_stacks_with_early_finishers(self, p):
        # 30 of 40 matrices (zeros among them) finish within 3 steps, so the
        # 10 products through inner dimension 8 continue after the finished
        # ones are dropped; square and both rectangular shapes, so a row and
        # column mix-up in the pivot's grid index or the compaction shows
        rng = np.random.default_rng(7)
        inner = [0, 1, 2, 3] * 7 + [2, 0] + [8] * 10
        for rows, cols in [(8, 8), (6, 9), (9, 6)]:
            mats = [matmul(rng.integers(p, size=(rows, k)), rng.integers(p, size=(k, cols)), p) for k in inner]
            stack = np.stack(mats)[rng.permutation(len(mats))]
            self.check(stack, p)
            expect = [reference_rank(m, p) for m in stack]
            assert sum(r <= 3 for r in expect) >= 30 and max(expect) >= 6


class TestDet2:
    """The test-side `det2` (ab - g h t^r, in `test_commutator`), the
    reference of the valuation claims."""

    def test_jordan_point(self):
        from test_commutator import det2, two_part

        z = zero(2)
        e = two_part(5, 3, t_power(1, 5), t_power(1, 2), z, z)
        assert det2(e) == t_power(2, 5).coeffs

    def test_with_offdiagonal(self):
        from test_commutator import det2, two_part

        one = t_power(0, 2)
        e = two_part(5, 3, t_power(1, 5), t_power(1, 2), one, one)
        assert det2(e) == (0, 0, 1, P - 1, 0)  # t^2 - t^3

    def test_diagonal_case(self):
        from test_commutator import det2, mul_trunc, two_part

        a = poly([0, 0, 4], 5)
        b = poly([0, 9], 2)
        z = zero(2)
        assert det2(two_part(5, 3, a, b, z, z)) == mul_trunc(a.coeffs, b.coeffs, 5)

    def test_order_submultiplicative_on_products(self):
        # det of a composition never drops below the truncated sum of orders
        from test_commutator import det2, order

        from nilcommute.commutator import sample_commutator

        rng = np.random.default_rng(6)
        for _ in range(25):
            e1 = sample_commutator((7, 4), rng)
            e2 = sample_commutator((7, 4), rng)
            prod = e1 @ e2
            lhs = order(det2(prod))
            rhs = min(order(det2(e1)) + order(det2(e2)), 7)
            assert lhs >= min(rhs, 7)
