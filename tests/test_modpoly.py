import itertools
import math

import numpy as np
import pytest

from nilcommute import commutator, modpoly
from nilcommute.commutator import _draw_free, assemble_blocks, dmap_oracle, jordan_type_of_matrix, jordan_types
from nilcommute.loci import equations, sample_on_locus, survey
from nilcommute.modpoly import (
    DEFAULT_PRIME,
    TruncPoly,
    _as_field_matrix,
    _eliminate,
    _eliminate_scalar,
    _eliminate_stacked,
    _power_ranks,
    _reduce,
    is_prime,
    matmul,
    rank,
)
from nilcommute.partitions import partitions_of

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


class TestModulusRule:
    def test_reads_p_as_an_integer(self):
        for p in [np.int64(11), np.uint64(11), 11]:
            assert type(modpoly._check_modulus(p)) is int and modpoly._check_modulus(p) == 11
        # the cache must not answer 7.0 or 11.0 from the equal entries of
        # np.int64(7) and np.int64(11), which are wrapped alike in its keys
        assert rank([[1]], np.int64(7)) == 1
        for p in [7.0, 11.0, np.float64(11), "7"]:
            with pytest.raises(TypeError):
                modpoly._check_modulus(p)
        with pytest.raises(TypeError):
            rank([[1]], 7.0)

    def test_numpy_integer_modulus_reads_like_the_python_one(self):
        # the kernels compute with the checked Python integer: near 2^63,
        # a product of two entries overflows an np.int64 modulus; the
        # strictly upper triangle is permuted, so that elimination steps
        # update rows
        m = np.random.default_rng(3).integers(P, size=(6, 6))
        order = [3, 0, 5, 1, 4, 2]
        nilpotent = np.triu(m, 1)[order][:, order]
        for p in [np.int64(P), np.int64(BIG), np.int64(2**63 - 25)]:
            assert rank(m, p) == rank(m, int(p))
            assert np.array_equal(matmul(m, m, p), matmul(m, m, int(p)))
            assert jordan_type_of_matrix(nilpotent, p) == jordan_type_of_matrix(nilpotent, int(p))


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

    def test_uint64_input_is_reduced_before_the_cast(self):
        # 2^64 - 1 = 0 and 2^63 = 2 mod 3; cast to int64 first, they would
        # read as -1 = 2 and -2^63 = 1, a matrix of rank 2, not nilpotent
        m = np.array([[2**64 - 1, 2**63], [0, 2**64 - 1]], dtype=np.uint64)
        exact = m.astype(object)
        for p in [3, P, BIG]:
            assert np.array_equal(matmul(m, m, p), exact @ exact % p)
            assert rank(m, p) == reference_rank(exact % p, p)
        assert rank(m, 3) == 1
        assert jordan_type_of_matrix(m, 3) == (2,)

    def test_big_integers_are_reduced_before_the_cast(self):
        # 10^30 = 1 and -10^30 = 6 mod 7: an object array past int64,
        # reduced as Python integers before the int64 cast would overflow
        assert rank([[10**30, 0], [0, 1]], 7) == 2
        assert rank([[-10**30, 0], [0, 1]], 7) == 2
        assert matmul([[10**30]], [[1]], 7).tolist() == [[1]]
        assert jordan_type_of_matrix([[0, 10**30], [0, 0]]) == (2,)
        # p >= 2^31 keeps Python integers throughout
        assert rank([[10**30, 0], [0, 1]], BIG) == 2
        assert matmul([[10**30]], [[1]], BIG).tolist() == [[10**30 % BIG]]
        assert rank([[BIG * 10**20, 0], [0, 1]], BIG) == 1


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


def spy_word_dtype(monkeypatch):
    """Record each dtype `_mulmod`'s path choice returns (None: float64 limbs)."""
    chosen = []
    word_dtype = modpoly._word_dtype

    def spy(a, b, p):
        chosen.append(word_dtype(a, b, p))
        return chosen[-1]

    monkeypatch.setattr(modpoly, "_word_dtype", spy)
    return chosen


def check_product(a, b, p):
    """`matmul` equals Python-integer arithmetic and returns int64."""
    expect = (a.astype(object) @ b.astype(object)) % int(p)
    out = matmul(a, b, p)
    assert np.array_equal(out, expect)
    assert np.asarray(out).dtype == np.int64


def top_factors(n, p):
    """Square, stacked and vector factors of inner dimension n with every
    entry p - 1, each within the work cap for n <= 20."""
    top = int(p) - 1
    return [
        (np.full((n, n), top), np.full((n, n), top)),
        (np.full((2, 3, 4, n), top), np.full((2, 1, n, 5), top)),
        (np.full((3, 4, n), top), np.full((n, 2), top)),
        (np.full(n, top), np.full(n, top)),
        (np.full((4, n), top), np.full(n, top)),
    ]


class TestInt64Product:
    """`_mulmod` takes one int64 product exactly when n (p-1)^2 < 2^63 in
    Python integers for inner dimension n, within the work cap; it agrees
    with Python integers at the bound, where every entry is p - 1."""

    @pytest.mark.parametrize("p, n, product", [
        (P, 9, True),  # 9 (p-1)^2 < 2^63
        (P, 10, False),  # 10 (p-1)^2 > 2^63
        (2**31 - 1, 2, True),  # 2 (p-1)^2 = 2^63 - 2^34 + 8
        (2**31 - 1, 3, False),
        (np.int64(P), 10, False),  # in int64, 10 (p-1)^2 would wrap below 2^63
        (np.int64(2**31 - 1), 3, False),  # the same at n = 3
        (65_537, 9, True),
        (65_537, 10, True),  # exact in int64 far beyond: no inner-dimension cap
        (3, 9, True),
        (3, 10, True),
    ], ids=lambda v: f"int64_{v}" if isinstance(v, np.integer) else None)
    def test_path_follows_the_bound(self, monkeypatch, p, n, product):
        chosen = spy_word_dtype(monkeypatch)
        cases = top_factors(n, p)
        for a, b in cases:
            check_product(a, b, p)
        assert [word is np.int64 for word in chosen] == [product] * len(cases)


class TestWordProduct:
    """Past the int64 bound `_mulmod` takes one uint64 product while
    n (p-1)^2 < 2^64, and any word product only up to `_PRODUCT_MAX_WORK`
    multiply-adds; the float64 limbs take the rest."""

    @pytest.mark.parametrize("p, n, word", [
        (P, 10, np.uint64),  # 10 (p-1)^2 > 2^63
        (P, 18, np.uint64),  # 18 (p-1)^2 < 2^64
        (P, 19, None),  # 19 (p-1)^2 > 2^64
        (2**31 - 1, 3, np.uint64),
        (2**31 - 1, 4, np.uint64),  # 4 (p-1)^2 < 2^64
        (2**31 - 1, 5, None),
        (np.int64(P), 19, None),  # in int64, 19 (p-1)^2 would wrap below 2^64
        (np.int64(2**31 - 1), 5, None),
        (3, 20, np.int64),
    ], ids=lambda v: f"int64_{v}" if isinstance(v, np.integer) else getattr(v, "__name__", None))
    def test_dtype_follows_the_exactness_bound(self, monkeypatch, p, n, word):
        chosen = spy_word_dtype(monkeypatch)
        cases = top_factors(n, p)
        for a, b in cases:
            check_product(a, b, p)
        assert chosen == [word] * len(cases)

    @pytest.mark.parametrize("p, n, word", [(P, 9, np.int64), (P, 17, np.uint64), (3, 20, np.int64)],
                             ids=lambda v: getattr(v, "__name__", None))
    def test_work_cap(self, monkeypatch, p, n, word):
        # (S, n, n) @ (S, n, 1) makes S n^2 multiply-adds; the cap is inclusive
        chosen = spy_word_dtype(monkeypatch)
        cap = modpoly._PRODUCT_MAX_WORK
        for count, expect in [(cap // (n * n), word), (cap // (n * n) + 1, None)]:
            a = np.random.default_rng(count).integers(p, size=(count, n, n))
            a[0] = p - 1
            check_product(a, np.full((count, n, 1), p - 1), p)
            assert (a.size <= cap, chosen[-1]) == (expect is not None, expect)


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
    """Both elimination loops, each called directly, and `_eliminate`, which
    picks one, on stacks reduced as the readout reduces them."""

    @staticmethod
    def check(stack, p):
        expect = [reference_rank(m, p) for m in stack]
        for eliminate in (_eliminate, _eliminate_scalar, _eliminate_stacked):
            assert eliminate(_as_field_matrix(stack, p), p).tolist() == expect
        assert [rank(m, p) for m in stack] == expect

    @pytest.mark.parametrize("p, shape", [(2, (3, 3)), (3, (2, 3))])
    def test_every_small_matrix(self, p, shape):
        entries = itertools.product(range(p), repeat=math.prod(shape))
        self.check(np.array(list(entries)).reshape(-1, *shape), p)

    @pytest.mark.parametrize("p", [3, P])
    def test_power_stacks_of_commutant_samples(self, p):
        # what the oracle ranks: M, ..., M^n of commutant draws of every
        # partition of n <= 8, zero powers included
        rng = np.random.default_rng(p % 1000)
        for n in range(1, 9):
            for parts in partitions_of(n):
                for m in assemble_blocks(parts, _draw_free(parts, rng, p, 2)):
                    powers = [m % p]
                    while len(powers) < n:
                        powers.append(matmul(powers[-1], m, p))
                    self.check(np.array(powers), p)

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


def random_unit(n, p, rng):
    """A random invertible n x n matrix over GF(p) and its inverse, by
    Gauss-Jordan elimination on Python integers."""
    while True:
        u = rng.integers(p, size=(n, n)).astype(object)
        if reference_rank(u, p) == n:
            break
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(u.tolist())]
    for c in range(n):
        r = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[r] = aug[r], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
    return u, np.array([row[n:] for row in aug], dtype=object)


def power_stack(mats, p, k=None):
    """The (S, K, n, n) stack of the powers M, ..., M^K of each of the n x n
    matrices `mats`, reduced mod p; K = n unless given."""
    out = []
    for m in mats:
        powers = [_as_field_matrix(m, p)]
        while len(powers) < (len(m) if k is None else k):
            powers.append(matmul(powers[-1], m, p))
        out.append(powers)
    return np.array(out, dtype=out[0][0].dtype)


class TestPowerRanks:
    """`_power_ranks` on the first power of each (K, n, n) sequence of an
    (S, K, n, n) power stack, which builds its own powers and stops at the
    first rank of 0, and both elimination loops on the flattened stack, each
    called directly, against `reference_rank` on every power."""

    @staticmethod
    def check(stack, p):
        count, k, n, _ = stack.shape
        expect = [[reference_rank(m, p) for m in powers] for powers in stack]
        for powers, ranks in zip(stack, expect):
            assert _power_ranks(powers[0], p) == ranks[: ranks.index(0) + 1]
        flat = stack.reshape(-1, n, n)
        assert _eliminate_scalar(flat, p).reshape(count, k).tolist() == expect
        assert _eliminate_stacked(flat.copy(), p).reshape(count, k).tolist() == expect
        assert _eliminate(flat.copy(), p).reshape(count, k).tolist() == expect

    @pytest.mark.parametrize("p", [2, 3, P, BIG])
    def test_every_jordan_type_conjugated(self, p):
        from test_commutator import jordan_matrix

        rng = np.random.default_rng(p % 1000)
        for n in range(1, 9):
            mats = []
            for parts in partitions_of(n):
                u, inverse = random_unit(n, p, rng)
                assert (u @ inverse % p == np.eye(n, dtype=np.int64)).all()
                mats.append(u @ jordan_matrix(parts) @ inverse % p)
            self.check(power_stack(mats, p), p)
            # the doubling loop may stop at the nilpotency index
            for m, parts in zip(mats, partitions_of(n)):
                self.check(power_stack([m], p, parts[0]), p)

    @pytest.mark.parametrize("p", [3, P])
    def test_commutant_draws(self, p):
        rng = np.random.default_rng(p % 1000)
        for n in range(1, 9):
            for parts in partitions_of(n):
                self.check(power_stack(assemble_blocks(parts, _draw_free(parts, rng, p, 2)), p), p)

    def test_every_nilpotent_3x3_over_gf2(self):
        mats = np.array(list(itertools.product(range(2), repeat=9))).reshape(-1, 3, 3)
        nilpotent = [m for m in mats if not matmul(matmul(m, m, 2), m, 2).any()]
        assert len(nilpotent) == 2 ** (3 * 2)  # p^(n^2 - n) nilpotent n x n matrices over GF(p)
        self.check(power_stack(nilpotent, 2), 2)


def spy_ranks(monkeypatch):
    """Record the size of each matrix the scalar loop ranks."""
    ranked = []

    def spy(m, p, rank_scalar=modpoly._rank_scalar):
        ranked.append(len(m))
        return rank_scalar(m, p)

    monkeypatch.setattr(modpoly, "_rank_scalar", spy)
    return ranked


def spy_products(monkeypatch):
    """Record the inner dimension of each product `_mulmod` takes."""
    products = []

    def spy(a, b, p, mulmod=modpoly._mulmod):
        products.append(a.shape[-1])
        return mulmod(a, b, p)

    monkeypatch.setattr(modpoly, "_mulmod", spy)
    return products


def first_drop_of_one(p, rng):
    """Matrices that are not nilpotent, though the first rank drop of their
    powers is one: diag(J_2, 1), J_3 + [5] and J_m + I_k (m <= 7, k = 1, 2)
    conjugated by a random unit."""
    from test_commutator import jordan_matrix

    def block(m, k, c=1):
        mat = jordan_matrix((m,) + (1,) * k)
        mat[m:, m:] = c * np.eye(k, dtype=np.int64)
        return mat

    mats = [block(2, 1), block(3, 1, 5)]
    for m in range(1, 8):
        for k in (1, 2):
            u, inverse = random_unit(m + k, p, rng)
            mats.append(u @ block(m, k) @ inverse % p)
    return mats


class TestPowerRankStop:
    """`_power_ranks` ranks a matrix's powers only up to the first whose rank
    is 0 or drops by one, builds them one product at a time, and refuses by
    its squaring certificate a matrix that is not nilpotent; `jordan_types`
    refuses it on both sides of its switch."""

    @pytest.mark.parametrize("parts, ranked", [
        ((8,), 1), ((1,) * 5, 1), ((3, 1), 2), ((2, 2), 2), ((5, 3, 2), 4), ((4, 4, 1), 4),
    ])
    def test_powers_ranked(self, monkeypatch, parts, ranked):
        from test_commutator import jordan_matrix

        powers = power_stack([jordan_matrix(parts)], P)[0]
        expect = [reference_rank(m) for m in powers]
        calls = spy_ranks(monkeypatch)
        assert _power_ranks(powers[0], P) == expect[: expect.index(0) + 1]
        assert len(calls) == ranked

    @pytest.mark.parametrize("n", range(1, 9))
    def test_fill_ends_at_k(self, monkeypatch, n):
        # J_n: one power ranked, the fill n - 2, ..., 0 ends exactly at
        # M^n, and the certificate squares M up to M^(2^j) >= M^n: ceil(log2 n)
        # products
        from test_commutator import jordan_matrix

        calls, products = spy_ranks(monkeypatch), spy_products(monkeypatch)
        assert _power_ranks(_as_field_matrix(jordan_matrix((n,)), P), P) == list(range(n - 1, -1, -1))
        assert calls == [n]
        assert len(products) == math.ceil(math.log2(n)) == (n - 1).bit_length()

    @pytest.mark.parametrize("count", [1, 40])
    def test_nonzero_last_power_is_refused(self, count):
        # J_4 with a 1 in its last diagonal entry, so M^4 != 0, last of
        # `count`: one matrix is read by `_power_ranks`, 40 in doubled stacks
        from test_commutator import jordan_matrix

        mats = np.zeros((count, 4, 4), dtype=np.int64)
        mats[-1] = jordan_matrix((4,))
        mats[-1, 3, 3] = 1
        with pytest.raises(ValueError, match="not nilpotent"):
            jordan_types(mats, P)
        mats[-1, 3, 3] = 0
        assert jordan_types(mats, P) == [(1,) * 4] * (count - 1) + [(4,)]

    @pytest.mark.parametrize("p", [2, 3, P, BIG])
    def test_first_drop_of_one_is_refused(self, p):
        # the rank-drop rule alone would read diag(J_2, 1) as (2, 1); each
        # matrix is refused alone (`_power_ranks`) and last of a chunk of
        # five (the doubled stack)
        for m in first_drop_of_one(p, np.random.default_rng(p % 1000)):
            n = len(m)
            assert reference_rank(m, p) == n - 1
            with pytest.raises(ValueError, match="not nilpotent"):
                _power_ranks(_as_field_matrix(m, p), p)
            with pytest.raises(ValueError, match="not nilpotent"):
                jordan_type_of_matrix(m, p)
            chunk = np.zeros((5, n, n), dtype=object)
            chunk[-1] = m
            with pytest.raises(ValueError, match="not nilpotent"):
                jordan_types(chunk, p)


def spy_loops(monkeypatch):
    """Record the name of the loop `_eliminate` takes on each call."""
    taken = []
    for name in ("_eliminate_scalar", "_eliminate_stacked"):
        def spy(a, p, loop=getattr(modpoly, name), name=name):
            taken.append(name)
            return loop(a, p)

        monkeypatch.setattr(modpoly, name, spy)
    return taken


def spy_readouts(monkeypatch):
    """Record the name of the readout `jordan_types` takes on each chunk:
    `_power_ranks` for each matrix, or one `_eliminate` of doubled powers."""
    taken = []
    for name in ("_power_ranks", "_eliminate"):
        def spy(a, p, readout=getattr(commutator, name), name=name):
            taken.append(name)
            return readout(a, p)

        monkeypatch.setattr(commutator, name, spy)
    return taken


class TestScalarBound:
    """`_eliminate` takes the scalar loop while a stack's worst-case work
    S rows cols min(rows, cols) is at most `_SCALAR_MAX_WORK`, `jordan_types`
    reads a chunk of one matrix of n at most `_POWER_RANKS_MAX_N` by
    `_power_ranks`, and where that puts each benchmarked caller."""

    @pytest.mark.parametrize("n", [4, 8])
    def test_work_cap(self, monkeypatch, n):
        # (S, n, n) is at the cap, which is inclusive; one more row is past it
        taken = spy_loops(monkeypatch)
        count = modpoly._SCALAR_MAX_WORK // n**3
        assert count * n**3 == modpoly._SCALAR_MAX_WORK
        rng = np.random.default_rng(n)
        for rows, loop in [(n, "_eliminate_scalar"), (n + 1, "_eliminate_stacked")]:
            stack = rng.integers(P, size=(count, rows, n))
            assert _eliminate(_as_field_matrix(stack, P), P).tolist() == [reference_rank(m) for m in stack]
            assert taken[-1] == loop

    @pytest.mark.parametrize("n, k", [(4, 4), (8, 8)])
    def test_work_cap_for_power_stacks(self, monkeypatch, n, k):
        # a chunk past the readout switch hands `_eliminate` the K powers of
        # each of its S samples as one (S K, n, n) stack of S K matrices: the
        # cap holds 12 samples' powers at n = 4 and 6 powers, fewer than one
        # sample's, at n = 8; one more sample's powers take the stacked loop,
        # as does a chunk of 2 J_8 (work 8,192)
        from test_commutator import jordan_matrix

        loops = spy_loops(monkeypatch)
        fit = modpoly._SCALAR_MAX_WORK // n**3
        assert fit * n**3 == modpoly._SCALAR_MAX_WORK
        samples = fit // k + 2
        stack = power_stack([jordan_matrix((n,))] * samples, P, k).reshape(-1, n, n)
        ranks = list(range(n - 1, -1, -1)) * samples
        assert ranks == [reference_rank(m) for m in stack]
        for count, loop in [(fit, "_eliminate_scalar"), (fit + k, "_eliminate_stacked")]:
            assert _eliminate(stack[:count], P).tolist() == ranks[:count]
            assert loops[-1] == loop
        readouts = spy_readouts(monkeypatch)
        loops.clear()
        assert jordan_types(np.stack([jordan_matrix((n,))] * 2)) == [(n,)] * 2
        assert readouts == ["_eliminate"]
        assert loops == ["_eliminate_scalar" if 2 * k * n**3 <= modpoly._SCALAR_MAX_WORK else "_eliminate_stacked"]

    def test_dense_full_rank_crossover(self, monkeypatch):
        # dense square matrices take the scalar loop up to 14 x 14 and the
        # stacked one from 15 x 15, where the table puts the crossover
        taken = spy_loops(monkeypatch)
        rng = np.random.default_rng(14)
        for n, loop in [(14, "_eliminate_scalar"), (15, "_eliminate_stacked")]:
            m = rng.integers(P, size=(n, n))
            assert rank(m) == reference_rank(m) == n
            assert taken[-1] == loop

    def test_readout_switch(self, monkeypatch):
        # one matrix up to the switch takes `_power_ranks`; one past it, or
        # two of any size, take the doubled stack
        from test_commutator import jordan_matrix

        top = commutator._POWER_RANKS_MAX_N
        taken = spy_readouts(monkeypatch)
        for n, count, readout in [(top, 1, "_power_ranks"), (top + 1, 1, "_eliminate"),
                                  (1, 2, "_eliminate"), (top, 2, "_eliminate")]:
            taken.clear()
            assert jordan_types(np.stack([jordan_matrix((n,))] * count)) == [(n,)] * count
            assert taken == [readout]

    def test_oracle_readouts_take_the_scalar_loop(self, monkeypatch):
        # every readout of the oracle up to its benchmarked size 8 is one
        # matrix, read by `_power_ranks` on the scalar loop
        assert 8 <= commutator._POWER_RANKS_MAX_N
        taken = spy_readouts(monkeypatch)
        for n in range(1, 9):
            for parts in partitions_of(n):
                dmap_oracle(parts, 2, np.random.default_rng(list(parts)))
        assert set(taken) == {"_power_ranks"}

    def test_jacobian_blocks_take_the_scalar_loop(self, monkeypatch):
        # every cell of the two-part shapes that the benchmark verifies; the
        # largest block, 4 x 20, has work 320
        taken = spy_loops(monkeypatch)
        rng = np.random.default_rng(0)
        blocks = []
        for u, m in [(8, 3), (12, 5), (13, 4)]:
            for k, l in itertools.product(range(1, u - m), range(1, m + 1)):
                eqs = equations(u, u - m, k, l)
                blocks.append(eqs._jacobian_block[0])
                eqs.jacobian_rank_at(sample_on_locus(u, u - m, k, l, rng))
        assert max(blocks, key=lambda shape: shape[0] * shape[1]) == (4, 20)
        assert 4 * 20 * 4 <= modpoly._SCALAR_MAX_WORK
        assert set(taken) == {"_eliminate_scalar"}

    @pytest.mark.parametrize("q", [(8, 5, 2), (10, 7, 4, 1)])
    def test_survey_chunks_take_the_stacked_loop(self, monkeypatch, q):
        # the benchmark surveys 5 samples of each shape: one chunk, with its powers
        taken = spy_loops(monkeypatch)
        survey(q, 5)
        assert taken == ["_eliminate_stacked"]


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
