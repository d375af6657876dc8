import numpy as np
import pytest

from nilcommute.commutator import (
    CommutatorElement,
    TwoPartElement,
    _assemble_flat,
    _draw_free,
    assemble_blocks,
    dmap_oracle,
    jordan_type_of_matrix,
    sample_commutant_matrix,
    sample_commutator,
    sample_two_part,
)
from nilcommute.burge import dmap
from nilcommute.modpoly import DEFAULT_PRIME, TruncPoly, matmul, rank
from nilcommute.partitions import EMPTY, Partition, jordan_from_coranks, partitions_of

P = DEFAULT_PRIME


def two_part_matrix(u, r, a, b, g, h, p=P):
    """Literal banded layout of a two-block commutant matrix.

    Independent of the block assembler: the top-left u x u band carries
    a_1, a_2, ... on its superdiagonals, the top-right block has g_0 on its
    main diagonal, the bottom-left block starts h_0 at column r + 1, and
    the bottom-right band carries b_1, b_2, ...
    """
    m = u - r
    n = u + m
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(1, u + 1):
        for j in range(1, u + 1):
            if j - i >= 1:
                out[i - 1, j - 1] = a[j - i]
        for jj in range(1, m + 1):
            if 0 <= jj - i <= m - 1:
                out[i - 1, u + jj - 1] = g[jj - i]
    for ii in range(1, m + 1):
        for j in range(1, u + 1):
            if 0 <= j - r - ii <= m - 1:
                out[u + ii - 1, j - 1] = h[j - r - ii]
        for jj in range(1, m + 1):
            if jj - ii >= 1:
                out[u + ii - 1, u + jj - 1] = b[jj - ii]
    return out


def hom_block(f, qi, qj):
    """Block of multiplication by f, built from the degree of each cell."""
    # entry (row, col) is the coefficient of f at q_i - q_j + col - row,
    # i.e. multiplication by f in bases (t^{m-1}, ..., t, 1)
    deg = (qi - qj) + np.arange(qj)[None, :] - np.arange(qi)[:, None]
    carr = np.asarray(f.coeffs, dtype=np.int64)
    return np.where((deg >= 0) & (deg < qi), carr[np.clip(deg, 0, qi - 1)], 0)


def reference_assemble(parts, entries):
    """Block-by-block assembly, independent of the cached layout."""
    n = sum(parts)
    mat = np.zeros((n, n), dtype=np.int64)
    offs = np.cumsum((0,) + tuple(parts))
    for i, qi in enumerate(parts):
        for j, qj in enumerate(parts):
            mat[offs[i] : offs[i + 1], offs[j] : offs[j + 1]] = hom_block(entries[i][j], qi, qj)
    return mat


def reference_jordan_type(mat, p=P):
    """Power-by-power readout with one scalar `rank` per power."""
    m0 = np.asarray(mat, dtype=np.int64 if p < 2**31 else object) % p
    n = m0.shape[0]
    if n == 0:
        return EMPTY
    coranks = [0]
    power = m0
    for _ in range(n):
        c = n - rank(power, p)
        coranks.append(c)
        if c == n:
            break
        power = matmul(power, m0, p)
    if coranks[-1] != n:
        raise ValueError("matrix is not nilpotent")
    coranks.append(n)
    return jordan_from_coranks(coranks)


def jordan_matrix(parts):
    n = sum(parts)
    out = np.zeros((n, n), dtype=np.int64)
    off = 0
    for q in parts:
        out[off : off + q, off : off + q] = np.eye(q, k=1, dtype=np.int64)
        off += q
    return out


class TestAssemble:
    def test_jordan_matrix(self):
        e = CommutatorElement.jordan((5, 2))
        expect = np.zeros((7, 7), dtype=np.int64)
        expect[:5, :5] = np.eye(5, k=1)
        expect[5:, 5:] = np.eye(2, k=1)
        assert np.array_equal(e.assemble(), expect)

    def test_matches_banded_layout(self):
        rng = np.random.default_rng(0)
        for u in range(3, 13):
            for r in range(2, u):
                for _ in range(20):
                    e = sample_two_part(u, r, rng)
                    a = list(e.a.coeffs)
                    b = list(e.b.coeffs)
                    expect = two_part_matrix(u, r, a, b, list(e.g.coeffs), list(e.h.coeffs))
                    assert np.array_equal(e.assemble(), expect)

    def test_matches_block_by_block_reference(self):
        # random grids, not only commutant elements, on every shape of
        # size 1..10, including repeated parts
        rng = np.random.default_rng(2)
        for n in range(1, 11):
            for parts in partitions_of(n):
                entries = [
                    [TruncPoly(tuple(int(x) for x in rng.integers(P, size=qi))) for _ in parts]
                    for qi in parts
                ]
                assert np.array_equal(assemble_blocks(parts, entries), reference_assemble(parts, entries))

    def test_structural_zeros_stay_zero(self):
        rng = np.random.default_rng(1)
        u, r = 7, 3
        zero = sample_two_part(u, r, rng)
        mask = two_part_matrix(
            u, r, [0] + [1] * (u - 1), [0] + [1] * (u - r - 1), [1] * (u - r), [1] * (u - r)
        )
        for _ in range(100):
            e = sample_two_part(u, r, rng)
            assert not np.any(e.assemble()[mask == 0])

    def test_zero_element(self):
        e = CommutatorElement.zero((8, 5, 2))
        assert e.assemble().shape == (15, 15)
        assert not e.assemble().any()

    def test_rejects_bad_orders(self):
        a = TruncPoly.one(5)  # constant term on the diagonal
        z2 = TruncPoly.zero(2)
        with pytest.raises(ValueError):
            CommutatorElement((5, 2), ((a, TruncPoly.zero(5)), (z2, z2)))

    def test_rejects_shallow_shift(self):
        # upper-right entry must vanish to order r
        z5 = TruncPoly.zero(5)
        t5 = TruncPoly.t_power(1, 5)
        z2 = TruncPoly.zero(2)
        with pytest.raises(ValueError):
            CommutatorElement((5, 2), ((t5, TruncPoly.one(5)), (z2, z2)))

    def test_rejects_unstable_shape(self):
        with pytest.raises(ValueError):
            CommutatorElement.zero((5, 4))


class TestJordanType:
    def test_jordan_matrix(self):
        assert CommutatorElement.jordan((5, 2)).jordan_type() == (5, 2)

    def test_special_point(self):
        e = TwoPartElement(
            5, 3,
            TruncPoly.t_power(2, 5),
            TruncPoly.t_power(1, 2),
            TruncPoly.one(2),
            TruncPoly.one(2),
        )
        assert e.jordan_type() == (4, 1, 1, 1)

    def test_block_diagonal_action(self):
        e = TwoPartElement(
            5, 3, TruncPoly.t_power(1, 5), TruncPoly.zero(2), TruncPoly.zero(2), TruncPoly.zero(2)
        )
        assert e.jordan_type() == (5, 1, 1)

    def test_non_nilpotent_rejected(self):
        with pytest.raises(ValueError):
            jordan_type_of_matrix(np.eye(3, dtype=np.int64))
        with pytest.raises(ValueError):
            jordan_type_of_matrix(np.eye(3, dtype=np.int64), 2_147_483_659)
        # a Jordan block with eigenvalue 1 in its last entry: ranks stall at 1
        m = jordan_matrix((4,))
        m[3, 3] = 1
        with pytest.raises(ValueError):
            jordan_type_of_matrix(m)

    def test_empty_matrix(self):
        assert jordan_type_of_matrix(np.zeros((0, 0), dtype=np.int64)) == EMPTY

    @pytest.mark.parametrize("p", [2, 3, 1_000_000_007, 2_147_483_659])
    def test_matches_per_power_reference(self, p):
        rng = np.random.default_rng(p % 1000)
        for n in range(1, 11):
            for parts in partitions_of(n):
                for _ in range(2):
                    m = sample_commutant_matrix(parts, rng, p=p)
                    assert jordan_type_of_matrix(m, p) == reference_jordan_type(m, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_reference_on_sparse_samples(self, p):
        # zeroing free coefficients stays in the nilpotent commutant and
        # makes cancellations between powers common
        rng = np.random.default_rng(30 + p)
        for n in range(1, 11):
            for parts in partitions_of(n):
                for density in (0.2, 0.5):
                    coeffs = _draw_free(parts, rng, p)
                    coeffs[rng.random(coeffs.size) > density] = 0
                    m = _assemble_flat(parts, coeffs)
                    assert jordan_type_of_matrix(m, p) == reference_jordan_type(m, p)


class TestSampling:
    def test_seed_determinism(self):
        e1 = sample_commutator((5, 2), np.random.default_rng(7))
        e2 = sample_commutator((5, 2), np.random.default_rng(7))
        assert e1 == e2

    def test_generic_type_is_shape(self):
        rng = np.random.default_rng(8)
        types = [sample_commutator((5, 2), rng).jordan_type() for _ in range(30)]
        assert all(t == (5, 2) for t in types)

    def test_dmap_of_sampled_types(self):
        rng = np.random.default_rng(9)
        q = Partition((8, 5, 2))
        for _ in range(10):
            t = sample_commutator(q, rng).jordan_type()
            assert dmap(t) == q

    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            sample_commutator((3, 2), np.random.default_rng(0))


class TestCommutantMatrix:
    def test_commutes_and_is_nilpotent(self):
        # any shape: equal-size blocks keep only strictly upper constant terms
        rng = np.random.default_rng(19)
        for n in range(1, 9):
            for parts in partitions_of(n):
                jm = jordan_matrix(parts)
                for _ in range(3):
                    m = sample_commutant_matrix(parts, rng)
                    assert np.array_equal(matmul(m, jm), matmul(jm, m))
                    assert jordan_type_of_matrix(m).size == n

    @pytest.mark.parametrize("q", [(1,), (5, 2), (8, 5, 2), (10, 7, 4, 1)])
    def test_equals_assembled_element_on_stable_shapes(self, q):
        m = sample_commutant_matrix(q, np.random.default_rng(20))
        e = sample_commutator(q, np.random.default_rng(20))
        assert np.array_equal(m, e.assemble())


class TestMultiply:
    def test_zero_annihilates(self):
        rng = np.random.default_rng(10)
        e = sample_commutator((5, 2), rng)
        z = CommutatorElement.zero((5, 2))
        assert (e @ z) == z and (z @ e) == z

    def test_jordan_square(self):
        j = CommutatorElement.jordan((5, 2))
        sq = (j @ j).assemble()
        expect = np.linalg.matrix_power(j.assemble(), 2)
        assert np.array_equal(sq, expect % P)

    @pytest.mark.parametrize("q", [(5, 2), (7, 3), (8, 5, 2)])
    def test_assemble_compatibility(self, q):
        from nilcommute.modpoly import matmul

        rng = np.random.default_rng(11)
        for _ in range(20):
            e1 = sample_commutator(q, rng)
            e2 = sample_commutator(q, rng)
            assert np.array_equal((e1 @ e2).assemble(), matmul(e1.assemble(), e2.assemble(), P))

    def test_algebra_laws(self):
        from nilcommute.modpoly import matmul

        rng = np.random.default_rng(12)
        q = (7, 3)
        for _ in range(5):
            e1, e2, e3 = (sample_commutator(q, rng) for _ in range(3))
            assert ((e1 @ e2) @ e3) == (e1 @ (e2 @ e3))
            assert (e1 @ (e2 + e3)) == (e1 @ e2) + (e1 @ e3)

    def test_rejects_mixed_shapes(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            sample_commutator((5, 2), rng) @ sample_commutator((7, 3), rng)


class TestTwoPartElement:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(14)
        e = sample_two_part(5, 3, rng)
        data = e.to_json()
        assert set(data) == {"u", "r", "a", "b", "g", "h", "p"}
        assert TwoPartElement.from_json(data) == e

    def test_element_roundtrip(self):
        rng = np.random.default_rng(15)
        e = sample_two_part(9, 4, rng)
        assert TwoPartElement.from_element(e.to_element()) == e


class TestDmapOracle:
    def test_small_examples(self):
        rng = np.random.default_rng(16)
        assert dmap_oracle((2, 1, 1), 100, rng) == (4,)
        assert dmap_oracle((1, 1), 50, rng) == (2,)

    def test_almost_rectangular(self):
        rng = np.random.default_rng(17)
        for m, k in [(6, 2), (7, 3), (5, 5)]:
            from nilcommute.partitions import almost_rectangular

            p = almost_rectangular(m, k)
            assert dmap_oracle(p, 100, rng) == dmap(p)

    def test_agrees_with_code_small(self):
        rng = np.random.default_rng(18)
        for n in range(1, 7):
            for p in partitions_of(n):
                assert dmap_oracle(p, 120, rng) == dmap(p)

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            dmap_oracle((13,), 10, np.random.default_rng(0))
