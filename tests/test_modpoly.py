import math

import numpy as np
import pytest

from nilcommute.modpoly import DEFAULT_PRIME, TruncPoly, det2, is_prime, matmul, rank, ranks

P = DEFAULT_PRIME
BIG = 2_147_483_659  # first prime past the int64 fast path


def poly(coeffs, n, p=P):
    return TruncPoly.from_coeffs(coeffs, n, p)


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
        assert poly([0, 0, 1, 3], 5).order() == 2
        assert TruncPoly.zero(4).order() == math.inf

    def test_order_additive(self):
        # (t * unit) * (t * unit) has order 2 below the truncation
        u = poly([0, 1, 2], 3)
        v = poly([0, 3, 4], 3)
        assert (u * v).order() == 2

    def test_truncation(self):
        one_plus = poly([1, 1], 2)
        one_minus = poly([1, -1], 2)
        assert one_plus * one_minus == TruncPoly.one(2)

    def test_mul_zero(self):
        f = poly([0, 5, 7], 3)
        assert (f * TruncPoly.zero(3)).is_zero()

    def test_square(self):
        f = poly([0, 1, 1], 4)
        assert (f * f).coeffs == (0, 0, 1, 2)

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            poly([1], 2) + poly([1], 3)
        with pytest.raises(ValueError):
            _ = poly([1], 2) * poly([1], 3)

    def test_mul_trunc_retarget(self):
        f = poly([0, 1], 5)
        g = poly([1, 1], 2)
        assert f.mul_trunc(g, 2).coeffs == (0, 1)

    def test_shift_and_lift(self):
        g = poly([1, 2], 2)
        assert g.shift(3, 5).coeffs == (0, 0, 0, 1, 2)
        assert g.lift(4).coeffs == (1, 2, 0, 0)
        assert poly([1, 2, 3], 3).lift(2).coeffs == (1, 2)

    def test_order_additivity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            f = poly([int(x) for x in rng.integers(P, size=n)], n)
            g = poly([int(x) for x in rng.integers(P, size=n)], n)
            of, og = f.order(), g.order()
            if of + og < n:
                assert (f * g).order() == of + og


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


class TestRanks:
    @staticmethod
    def check(stack, p):
        assert ranks(stack, p).tolist() == [rank(m, p) for m in stack]

    @pytest.mark.parametrize("p", [2, 3, P, BIG])
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
        stack = np.arange(18, dtype=np.int64).reshape(2, 3, 3)
        before = stack.copy()
        ranks(stack)
        assert np.array_equal(stack, before)

    def test_rejects_non_stack(self):
        with pytest.raises(ValueError):
            ranks(np.eye(3, dtype=np.int64))


class TestDet2:
    def test_jordan_point(self):
        a = TruncPoly.t_power(1, 5)
        b = TruncPoly.t_power(1, 2)
        z = TruncPoly.zero(2)
        assert det2(a, b, z, z, 3) == TruncPoly.t_power(2, 5)

    def test_with_offdiagonal(self):
        a = TruncPoly.t_power(1, 5)
        b = TruncPoly.t_power(1, 2)
        one = TruncPoly.one(2)
        d = det2(a, b, one, one, 3)
        assert d.coeffs == (0, 0, 1, P - 1, 0)  # t^2 - t^3

    def test_diagonal_case(self):
        a = poly([0, 0, 4], 5)
        b = poly([0, 9], 2)
        z = TruncPoly.zero(2)
        assert det2(a, b, z, z, 3) == a.mul_trunc(b.lift(5), 5)

    def test_order_submultiplicative_on_products(self):
        # det of a composition never drops below the truncated sum of orders
        from nilcommute.commutator import sample_two_part

        rng = np.random.default_rng(6)
        for _ in range(25):
            e1 = sample_two_part(7, 3, rng)
            e2 = sample_two_part(7, 3, rng)
            prod = e1 @ e2
            lhs = prod.det2().order()
            rhs = min(e1.det2().order() + e2.det2().order(), 7)
            assert lhs >= min(rhs, 7)
