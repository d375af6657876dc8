import math
import re
from itertools import islice

import numpy as np
import pytest

from nilcommute import commutator
from nilcommute.commutator import (
    CommutatorElement,
    _chunks,
    _draw_free,
    _generic_type,
    _layout,
    _settled_prefix,
    _two_part_coranks,
    _two_part_offsets,
    _two_part_types,
    assemble_blocks,
    dmap_oracle,
    jordan_type_of_matrix,
    jordan_types,
    sample_commutator,
)
from nilcommute.burge import dmap
from nilcommute.loci import sample_on_locus
from nilcommute.modpoly import DEFAULT_PRIME, TruncPoly, _as_field_matrix, _mulmod, matmul, rank
from nilcommute.partitions import EMPTY, Partition, dominates, is_stable, jordan_from_coranks, partitions_of
from test_modpoly import reference_rank, t_power, zero

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


def two_part(u, r, a, b, g, h, p=P):
    """The element with named coordinates a, b, g, h, laid out a | t^r g | h | b."""
    return CommutatorElement((u, u - r), a.coeffs + (0,) * r + g.coeffs + h.coeffs + b.coeffs, p)


def commutant_matrix(parts, rng, p=P):
    """An assembled uniform draw from the nilpotent commutant slice of any shape."""
    return assemble_blocks(tuple(parts), _draw_free(tuple(parts), rng, p, 1)[0])


def coords(e):
    """The coefficient tuples (a, b, g, h) of an element of a two-part shape:
    a mod t^u and b, g, h mod t^(u-r)."""
    u, m = e.q
    g0, h0, b0 = _two_part_offsets(u, u - m)
    c = e.coeffs
    return c[:u], c[b0:], c[g0:h0], c[h0:b0]


def order(coeffs):
    """t-adic order of a coefficient tuple; math.inf for zero."""
    return next((j for j, c in enumerate(coeffs) if c), math.inf)


def mul_trunc(f, g, n, p=P):
    """f g truncated at t^n, on coefficient tuples; a factor shorter than n
    is lifted by zero padding.  The reference product of the valuation
    claims."""
    out = [0] * n
    for i, x in enumerate(f[:n]):
        for j, y in enumerate(g[: n - i]):
            out[i + j] += x * y
    return tuple(c % p for c in out)


def det2(e):
    """ab - g h t^r in k[t]/(t^u), on Python integers, for an element of the
    shape (u, u-r).

    b, g and h are lifted from k[t]/(t^(u-r)) by zero padding.  The lift of
    b is ambiguous above t^(u-r), which reaches the result only at order
    >= ord(a) + u - r.  Its order is ord(ab - t^r g h) only below u: read it
    for orders below u, or capped at u.  Once ord a > r the determinant
    term of the corank formula can lie at t^u or above, where this misses
    it: for the shape (5, 3) with a = t^3 and b = t^2 it returns 0 while
    the corank is 5.  `tests/test_tropical.py::two_part_corank` reads the
    full formula.
    """
    u, m = e.q
    r = u - m
    a, b, g, h = coords(e)
    out = [0] * u
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < u:
                out[i + j] += x * y
    for i, x in enumerate(g):
        for j, y in enumerate(h):
            if r + i + j < u:
                out[r + i + j] -= x * y
    return tuple(c % e.p for c in out)


def grid(parts, coeffs, p=P):
    """The grid of `TruncPoly` entries whose block coefficients are `coeffs`,
    numbered as in `_layout`: row i holds q_i coefficients per block."""
    it = iter(coeffs)
    return tuple(tuple(TruncPoly(tuple(islice(it, qi)), p) for _ in parts) for qi in parts)


def flatten(entries):
    """The block coefficients of a grid of entries, numbered as in `_layout`
    (the inverse of `grid`)."""
    return [c for row in entries for f in row for c in f.coeffs]


def jordan_grid(parts, p=P):
    """The grid with t on the diagonal and zero elsewhere: the Jordan matrix."""
    return tuple(
        tuple(t_power(1, qi, p) if i == j else zero(qi, p) for j in range(len(parts)))
        for i, qi in enumerate(parts)
    )


def reference_order_violation(q, entries):
    """The first entry (i, j) that breaks the per-entry order rule, with the
    order it needs, or None: entry (i, j) needs order >= 1 on the diagonal
    and >= q_i - q_j off it."""
    for i in range(len(q)):
        for j in range(len(q)):
            need = 1 if i == j else max(0, q[i] - q[j])
            if order(entries[i][j].coeffs) < need:
                return i, j, need
    return None


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
    """Power-by-power readout with one scalar `reference_rank` per power."""
    m0 = np.asarray(mat, dtype=np.int64 if p < 2**31 else object) % p
    n = m0.shape[0]
    if n == 0:
        return EMPTY
    coranks = [0]
    power = m0
    for _ in range(n):
        c = n - reference_rank(power, p)
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

    def test_jordan_writes_the_t_diagonal_grid(self):
        # every stable shape with n <= 24, parts of size 1 included
        shapes = [q for n in range(1, 25) for q in partitions_of(n) if is_stable(q)]
        assert len(shapes) == 372
        for q in shapes:
            assert CommutatorElement.jordan(q) == CommutatorElement(q, flatten(jordan_grid(q)))
        for q in [(1,), (5, 2), (6, 4, 1)]:
            e = CommutatorElement.jordan(q, 2)
            assert e == CommutatorElement(q, flatten(jordan_grid(q, 2)), 2)
            assert np.array_equal(e.assemble(), jordan_matrix(q))

    def test_matches_banded_layout(self):
        rng = np.random.default_rng(0)
        for u in range(3, 13):
            for r in range(2, u):
                for _ in range(20):
                    e = sample_commutator((u, u - r), rng)
                    expect = two_part_matrix(u, r, *coords(e))
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
                expect = reference_assemble(parts, entries)
                assert np.array_equal(assemble_blocks(parts, flatten(entries)), expect)

    @pytest.mark.parametrize("p", [2, 3, P, 2**63 - 25])
    @pytest.mark.parametrize("q", [(1,), (5, 2), (8, 5, 2), (10, 7, 4, 1)])
    def test_rows_match_one_row_calls_and_reference(self, q, p):
        # every coefficient drawn, structural zeros included, up to p - 1 < 2^63
        rng = np.random.default_rng([p % 1000, *q])
        rows = rng.integers(p, size=(5, sum(q) * len(q)), dtype=np.int64)
        stack = assemble_blocks(q, rows)
        assert stack.shape == (5, sum(q), sum(q))
        for row, mat in zip(rows, stack):
            assert np.array_equal(assemble_blocks(q, row), mat)
            assert np.array_equal(mat, reference_assemble(q, grid(q, row.tolist(), p)))

    def test_rejects_wrong_width_rows(self):
        # a short, a long and a length-1 row, which numpy would broadcast
        for coeffs in [[0] * 13, [0] * 15, [1], np.zeros((3, 13), dtype=np.int64), 1]:
            with pytest.raises(ValueError, match="14 block coefficients"):
                assemble_blocks((5, 2), coeffs)

    def test_structural_zeros_stay_zero(self):
        rng = np.random.default_rng(1)
        u, r = 7, 3
        mask = two_part_matrix(
            u, r, [0] + [1] * (u - 1), [0] + [1] * (u - r - 1), [1] * (u - r), [1] * (u - r)
        )
        for _ in range(100):
            e = sample_commutator((u, u - r), rng)
            assert not np.any(e.assemble()[mask == 0])

    def test_zero_element(self):
        q = (8, 5, 2)
        e = CommutatorElement(q, (0,) * (sum(q) * len(q)))
        assert e.assemble().shape == (15, 15)
        assert not e.assemble().any()

    def test_rejects_bad_orders(self):
        a = t_power(0, 5)  # constant term on the diagonal
        z2 = zero(2)
        with pytest.raises(ValueError, match=r"^entry \(0,0\) needs order >= 1$"):
            CommutatorElement((5, 2), flatten(((a, zero(5)), (z2, z2))))

    def test_rejects_shallow_shift(self):
        # upper-right entry must vanish to order r
        t5 = t_power(1, 5)
        z2 = zero(2)
        with pytest.raises(ValueError, match=r"^entry \(0,1\) needs order >= 3$"):
            CommutatorElement((5, 2), flatten(((t5, t_power(0, 5)), (z2, z2))))

    def test_rejects_unstable_shape(self):
        q = (5, 4)
        with pytest.raises(ValueError, match="stable"):
            CommutatorElement(q, (0,) * (sum(q) * len(q)))

    def test_validity_matches_per_entry_rule(self):
        # one nonzero coefficient at a time, on every stable shape with at
        # most 3 parts and size at most 12, and on a 4 x 4 block grid
        shapes = [q for n in range(1, 13) for q in partitions_of(n) if len(q) <= 3 and is_stable(q)]
        for q in shapes + [(7, 5, 3, 1)]:
            size = sum(q) * len(q)
            for c in range(size):
                coeffs = [0] * size
                coeffs[c] = 1
                violation = reference_order_violation(q, grid(q, coeffs))
                if violation is None:
                    assert CommutatorElement(q, coeffs).coeffs == tuple(coeffs)
                    continue
                i, j, need = violation
                with pytest.raises(ValueError, match=rf"^entry \({i},{j}\) needs order >= {need}$"):
                    CommutatorElement(q, coeffs)


class TestJordanType:
    def test_jordan_matrix(self):
        assert CommutatorElement.jordan((5, 2)).jordan_type() == (5, 2)

    def test_special_point(self):
        e = two_part(
            5, 3,
            t_power(2, 5),
            t_power(1, 2),
            t_power(0, 2),
            t_power(0, 2),
        )
        assert e.jordan_type() == (4, 1, 1, 1)

    def test_block_diagonal_action(self):
        e = two_part(
            5, 3, t_power(1, 5), zero(2), zero(2), zero(2)
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
                    m = commutant_matrix(parts, rng, p)
                    assert jordan_type_of_matrix(m, p) == reference_jordan_type(m, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_reference_on_sparse_samples(self, p):
        # zeroing free coefficients stays in the nilpotent commutant and
        # makes cancellations between powers common
        rng = np.random.default_rng(30 + p)
        for n in range(1, 11):
            for parts in partitions_of(n):
                for density in (0.2, 0.5):
                    coeffs = _draw_free(parts, rng, p, 1)[0]
                    coeffs[rng.random(coeffs.size) > density] = 0
                    m = assemble_blocks(parts, coeffs)
                    assert jordan_type_of_matrix(m, p) == reference_jordan_type(m, p)


def mixed_stack(n, count, rng, p):
    """`count` nilpotent n x n matrices of many nilpotency indices: commutant
    samples of every partition of n, some sparsified, and the zero matrix."""
    shapes = list(partitions_of(n))
    out = [np.zeros((n, n), dtype=np.int64)]
    while len(out) < count:
        parts = shapes[len(out) % len(shapes)]
        coeffs = _draw_free(parts, rng, p, 1)[0]
        if len(out) % 3 == 0:
            coeffs[rng.random(coeffs.size) > 0.3] = 0
        out.append(assemble_blocks(parts, coeffs))
    return np.stack(out[:count])


class TestJordanTypes:
    @pytest.mark.parametrize("p", [3, P, 2_147_483_659])
    @pytest.mark.parametrize("count", [1, 7, 8, 9, 17])
    def test_matches_per_matrix_reference(self, p, count):
        rng = np.random.default_rng(count)
        for n in (1, 4, 7):
            stack = mixed_stack(n, count, rng, p)
            assert jordan_types(stack, p) == [reference_jordan_type(m, p) for m in stack]

    def test_stack_mixes_nilpotency_indices(self):
        stack = mixed_stack(7, 17, np.random.default_rng(0), P)
        types = jordan_types(stack)
        assert types[0] == (1,) * 7
        assert len({t[0] for t in types}) >= 4

    def test_one_ranks_call_per_chunk(self, monkeypatch):
        # a chunk of two or more matrices is one `_eliminate` of its powers;
        # a chunk of one (n = 6) is one `_power_ranks`
        from test_modpoly import spy_readouts

        calls = spy_readouts(monkeypatch)
        for count in (1, 8, 9, 17):
            calls.clear()
            jordan_types(mixed_stack(6, count, np.random.default_rng(1), P))
            full, last = divmod(count, commutator._CHUNK)
            assert calls == ["_eliminate"] * full + ["_power_ranks"] * last

    def test_input_not_mutated(self):
        # an already reduced int64 stack: the readout must eliminate a
        # copy in place, never the caller's array
        stack = mixed_stack(6, 9, np.random.default_rng(4), P)
        for s in [stack, stack.astype(object)]:
            before = s.copy()
            jordan_types(s, P)
            assert np.array_equal(s, before)

    def test_object_dtype_input(self):
        p = 2_147_483_659
        stack = mixed_stack(5, 9, np.random.default_rng(2), p)
        assert jordan_types(stack.astype(object), p) == jordan_types(stack, p)

    def test_empty(self):
        assert jordan_types(np.zeros((3, 0, 0), dtype=np.int64)) == [EMPTY] * 3
        assert jordan_types(np.zeros((0, 4, 4), dtype=np.int64)) == []

    @pytest.mark.parametrize("p", [P, 2_147_483_659])
    def test_non_nilpotent_member_rejected(self, p):
        stack = mixed_stack(4, 12, np.random.default_rng(3), p)
        stack[10] = np.eye(4, k=1, dtype=np.int64)
        stack[10, 3, 0] = 1  # a 4-cycle: a permutation matrix, never nilpotent
        with pytest.raises(ValueError, match="not nilpotent"):
            jordan_types(stack, p)

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError, match="stack"):
            jordan_types(np.zeros((2, 3, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="stack"):
            jordan_types(np.zeros((3, 3), dtype=np.int64))


TWO_PART_SHAPES = [(2, 1), (3, 1), (5, 2), (7, 1), (8, 3), (9, 7), (12, 5), (13, 4), (20, 9)]


def two_part_rows(q, rng, p):
    """Block coefficient rows of commutant elements of J_q for a two-part q:
    zero, J_q itself, commutant draws (every other one 60% sparsified, which
    makes cancellations common) and two on-locus draws of every table cell."""
    u, m = q
    r = u - m
    jordan = np.zeros(2 * (u + m), dtype=np.int64)
    jordan[1] = 1  # t in each diagonal block; q may be unstable
    if m > 1:
        jordan[_two_part_offsets(u, r)[2] + 1] = 1
    out = [0 * jordan, jordan]
    for i in range(12):
        coeffs = _draw_free(q, rng, p, 1)[0]
        if i % 2:
            coeffs[rng.random(coeffs.size) < 0.6] = 0
        out.append(coeffs)
    cells = [(k, l) for k in range(1, r) for l in range(1, m + 1)]
    out += [sample_on_locus(u, r, k, l, rng, prime=p).coeffs for k, l in cells for _ in range(2)]
    return np.array(out, dtype=np.int64)


class TestTwoPartTypes:
    @pytest.mark.parametrize("p", [3, 5, P, 2_147_483_659])
    @pytest.mark.parametrize("q", TWO_PART_SHAPES)
    def test_equals_jordan_types_row_for_row(self, q, p):
        u, m = q
        rows = two_part_rows(q, np.random.default_rng([p % 1000, u, m]), p)
        for lo in range(0, len(rows), commutator._CHUNK):
            chunk = rows[lo : lo + commutator._CHUNK]
            assert _two_part_types(chunk, u, u - m, p) == jordan_types(assemble_blocks(q, chunk), p)

    @pytest.mark.parametrize("p", [3, P, 2_147_483_659])
    def test_whole_stack_without_elimination(self, monkeypatch, p):
        # one call on rows of many nilpotency indices, as int64, Python
        # integers or lists, and no `assemble_blocks` or `_eliminate`
        rows = two_part_rows((13, 4), np.random.default_rng(5), p)
        expected = jordan_types(assemble_blocks((13, 4), rows), p)

        def refuse(*args):
            raise AssertionError("the two-part readout assembled or ranked a matrix")

        monkeypatch.setattr(commutator, "assemble_blocks", refuse)
        monkeypatch.setattr(commutator, "_eliminate", refuse)
        for c in [rows, rows.astype(object), rows.tolist()]:
            before = np.array(c, dtype=object)
            assert _two_part_types(c, 13, 9, p) == expected
            assert np.array_equal(np.array(c, dtype=object), before)

    @pytest.mark.parametrize("p", [3, P, 2_147_483_659])
    def test_non_nilpotent_member_rejected(self, p):
        # a_0 = b_0 = 1 assembles to the identity, which commutes with J and
        # is never nilpotent
        rows = two_part_rows((8, 3), np.random.default_rng(6), p)[:8]
        b0 = _two_part_offsets(8, 5)[2]
        rows[5] = 0
        rows[5, [0, b0]] = 1
        assert np.array_equal(assemble_blocks((8, 3), rows[5]), np.eye(11, dtype=np.int64))
        with pytest.raises(ValueError, match="not nilpotent"):
            _two_part_types(rows, 8, 5, p)

    def test_rejects_wrong_shape(self):
        for shape in [(2, 20), (2, 23), (22,), (2, 11, 11)]:
            with pytest.raises(ValueError, match="coefficient rows"):
                _two_part_types(np.zeros(shape, dtype=np.int64), 8, 5)


def conjugate(t):
    """The conjugate partition: part j counts the parts of t of size at least j."""
    return [sum(part >= j for part in t) for j in range(1, (t[0] if t else 0) + 1)]


def full_profile(t):
    """Coranks of powers 1..n of a nilpotent matrix of Jordan type t, from
    its conjugate: corank M^s is the sum of its first s parts."""
    c = conjugate(t)
    return [sum(c[:s]) for s in range(1, sum(t) + 1)]


class TestTwoPartCoranks:
    @pytest.mark.parametrize("p", [3, 5, P, 2_147_483_659])
    @pytest.mark.parametrize("q", TWO_PART_SHAPES)
    def test_budget_read_is_a_prefix_of_the_full_read(self, q, p):
        # a budget of K reads the first K coranks of the budget-n read, row
        # for row, for K at and next to each round's 2^j powers, where the
        # last round builds one, all but one or all of the powers it doubles to
        u, m = q
        n = u + m
        budgets = sorted({k for j in range(6) for k in (2**j - 1, 2**j, 2**j + 1) if 1 <= k <= n} | {n})
        rows = two_part_rows(q, np.random.default_rng([p % 1000, u, m, 1]), p)
        for lo in range(0, len(rows), commutator._CHUNK):
            chunk = rows[lo : lo + commutator._CHUNK]
            full = _two_part_coranks(chunk, u, u - m, p, n)
            assert full.shape == (len(chunk), n) and (full[:, -1] == n).all()
            for k in budgets:
                assert _two_part_coranks(chunk, u, u - m, p, k).tolist() == full[:, :k].tolist()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_settled_prefix_decides_the_type(self, n):
        # the prefix is the full profile's up to the settle point: the first
        # power whose corank rises by exactly one or reaches n; and no other
        # type of size n shares it
        profiles = {t: full_profile(t) for t in partitions_of(n)}
        for t, full in profiles.items():
            settle = next(s for s in range(1, n + 1) if full[s - 1] - ([0] + full)[s - 1] == 1 or full[s - 1] == n)
            assert _settled_prefix(t) == tuple(full[:settle])
            assert [o for o, other in profiles.items() if other[:settle] == full[:settle]] == [t]

    @pytest.mark.parametrize("p", [2, 3, P, 2_147_483_659])
    @pytest.mark.parametrize("q", [(5, 2), (8, 3), (13, 4)])
    def test_constant_term_refused_before_any_power(self, q, p):
        # J_q with b_0 = 1 is diag(J_u, I): its corank rises by one at s = 1,
        # so a budget of 1 would read it as the one-block type (n); the slice
        # certificate refuses it, and a_0 = 1 alike
        u, m = q
        n, (_, _, b0) = u + m, _two_part_offsets(u, u - m)
        for const in (b0, 0):
            row = np.array(CommutatorElement.jordan(q).coeffs)
            row[const] = 1
            assert reference_rank(assemble_blocks(q, row), p) == n - 1
            rows = np.stack([np.array(CommutatorElement.jordan(q).coeffs), row])
            assert _settled_prefix(Partition((n,))) == (1,)
            with pytest.raises(ValueError, match="not nilpotent"):
                _two_part_coranks(rows, u, u - m, p, 1)

    def test_fixed_coefficient_refused_with_its_order(self):
        # below t^r the second block of a row is no module map: refused as
        # `CommutatorElement` refuses it
        u, r = 8, 5
        row = np.zeros(_layout((u, u - r)).width, dtype=np.int64)
        row[_two_part_offsets(u, r)[0] - 1] = 1  # t^(r-1) of the block t^r g
        with pytest.raises(ValueError, match=r"entry \(0,1\) needs order >= 5"):
            CommutatorElement((u, u - r), row)
        with pytest.raises(ValueError, match=r"entry \(0,1\) needs order >= 5"):
            _two_part_coranks(row[None], u, r, P, 3)


class TestDominatedByShape:
    """Every type read from rows of the stable shape Q = (u, u-r) is
    dominated by Q, the generic type of its nilpotent commutant.  So its
    largest part, the nilpotency index, is at most u, and at most
    ceil(log2 u) doubling rounds run, one `_mulmod` each."""

    @staticmethod
    def rows(q, rng, p):
        # commutant and on-locus draws, each also with a_k (a_1 for a
        # commutant draw), g_0 or h_0 zeroed: points the samplers never draw
        u, m = q
        r = u - m
        g0, h0, _ = _two_part_offsets(u, r)
        cells = [(k, l) for k in range(1, r) for l in range(1, m + 1)]
        out = []
        for k, l in [(1, None)] * 4 + cells:
            if l is None:
                row = _draw_free(q, rng, p, 1)[0]
            else:
                row = np.array(sample_on_locus(u, r, k, l, rng, prime=p).coeffs, dtype=np.int64)
            out.append(row)
            for zeroed in (k, g0, h0):
                out.append(row.copy())
                out[-1][zeroed] = 0
        return np.array(out)

    @pytest.mark.parametrize("p", [2, 3, P])
    @pytest.mark.parametrize("q", [q for q in TWO_PART_SHAPES if is_stable(q)])
    def test_types_dominated_and_rounds_bounded(self, monkeypatch, q, p):
        u, m = q
        rounds = []

        def counting(a, b, p):
            rounds[-1] += 1
            return _mulmod(a, b, p)

        monkeypatch.setattr(commutator, "_mulmod", counting)
        rows = self.rows(q, np.random.default_rng([p, u, m]), p)
        for lo in range(0, len(rows), commutator._CHUNK):
            rounds.append(0)
            types = _two_part_types(rows[lo : lo + commutator._CHUNK], u, u - m, p)
            assert all(dominates(q, t) for t in types)
            # round j doubles the powers read to 2^j: the last round is the
            # first to reach the chunk's largest nilpotency index
            index = max(t[0] for t in types)
            assert rounds[-1] == math.ceil(math.log2(index)) <= math.ceil(math.log2(u))


class TestLayout:
    """`_layout` is the one record of a shape's block coefficient row."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_starts_and_width_match_the_formula(self, n):
        # block (i, j) starts at l (q_1 + ... + q_(i-1)) + j q_i; a row holds l n
        for q in partitions_of(n):
            layout, l = _layout(q), len(q)
            expect = [[l * sum(q[:i]) + j * q[i] for j in range(l)] for i in range(l)]
            assert layout.starts.tolist() == expect and layout.width == l * n
            for i in range(l):
                for j in range(l):
                    block = layout.take[sum(q[:i]) : sum(q[: i + 1]), sum(q[:j]) : sum(q[: j + 1])]
                    cells = block[block >= 0]
                    assert ((expect[i][j] <= cells) & (cells < expect[i][j] + q[i])).all()

    def test_fields_read_by_position_and_read_only(self):
        layout = _layout((8, 5, 2))
        assert layout[0] is layout.take and layout[1] is layout.free
        for a in (layout.take, layout.free, layout.starts, layout.cols, layout.gather):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_two_part_offsets(self):
        for u in range(3, 31):
            for r in range(2, u):
                offsets = _two_part_offsets(u, r)
                assert offsets == (u + r, 2 * u, 3 * u - r)
                assert all(type(x) is int for x in offsets)

    @pytest.mark.parametrize("parts", [(2, 0), (3, -1), (0,), (2.5,), (2.0, 1.0), ("3",)])
    def test_refuses_parts_below_one_or_not_integers(self, parts):
        # (2.0, 1.0) would read the cached record of (2, 1)
        _layout((2, 1))
        with pytest.raises(ValueError, match=rf"^shape {re.escape(str(parts))} needs integer parts of at least 1$"):
            _layout(parts)
        with pytest.raises(ValueError, match="needs integer parts"):
            assemble_blocks(parts, [0, 1] * len(parts))

    def test_any_order_and_numpy_integers(self):
        # the layout serves any shape, unsorted ones included
        assert _layout((1, 2)).starts.tolist() == [[0, 1], [2, 4]]
        assert _layout((np.int64(2), 1)) is _layout((2, 1)) is _layout(Partition((2, 1)))
        assert _layout(()).width == 0


class TestIntegerInput:
    """Entries that are not integers are refused, never truncated."""

    @pytest.mark.parametrize("run", [
        lambda m: jordan_type_of_matrix(m),
        lambda m: jordan_types(np.asarray(m)[None]),
        lambda m: rank(m, 7),
        lambda m: matmul(m, [[1], [1]]),
    ])
    @pytest.mark.parametrize("mat", [
        [[0, 0.5], [0, 0]],
        np.array([[0, 1], [0, 0]], dtype=np.float64),
        np.array([[0, 0.5], [0, 0]], dtype=object),
        [["0", "1"], ["0", "0"]],
    ])
    def test_readouts_refuse_non_integer_entries(self, run, mat):
        with pytest.raises(TypeError, match="integer entries"):
            run(mat)

    def test_integer_bool_and_object_entries_still_read(self):
        for mat in [[[0, 1], [0, 0]], np.array([[0, 1], [0, 0]], dtype=object),
                    np.array([[False, True], [False, False]]), np.array([[0, 1], [0, 0]], dtype=np.uint8)]:
            assert jordan_type_of_matrix(mat) == (2,)
        # no entries at all: numpy reads [[]] as float64
        assert jordan_type_of_matrix(np.zeros((0, 0))) == EMPTY and rank([[]], 7) == 0

    def test_assemble_refuses_non_integer_rows(self):
        for coeffs in [[0, 0.7, 0, 0, 0, 0], np.array([0, 1, 0, 0, 0, 0], dtype=object) * 0.5]:
            with pytest.raises(TypeError, match="integer entries"):
                assemble_blocks((2, 1), coeffs)
        assert assemble_blocks((2, 1), np.array([0, 1, 0, 0, 0, 0], dtype=object))[0, 1] == 1

    def test_two_part_readout_refuses_non_integer_rows(self):
        rows = np.zeros((2, 14))
        with pytest.raises(TypeError, match="integer entries"):
            _two_part_types(rows, 5, 3)

    def test_element_reads_each_coefficient_as_an_index(self):
        c = [0] * 14
        c[1] = 1.5
        for coeffs in [c, ["0"] * 14, [0.0] * 14]:
            with pytest.raises(TypeError):
                CommutatorElement((5, 2), coeffs)
        e = CommutatorElement((5, 2), np.array(CommutatorElement.jordan((5, 2)).coeffs), np.int64(P))
        assert e == CommutatorElement.jordan((5, 2)) and type(e.p) is int


class TestGeneratorGather:
    @pytest.mark.parametrize("q", TWO_PART_SHAPES)
    def test_generator_columns_permute_the_row(self, q):
        u, m = q
        n = u + m
        cols = _layout(q).cols
        assert sorted(cols.ravel().tolist()) == list(range(2 * n))
        rows = two_part_rows(q, np.random.default_rng([u, m, 2]), P)
        assert np.array_equal(rows[:, cols], assemble_blocks(q, rows)[:, :, [u - 1, n - 1]])

    @pytest.mark.parametrize("p", [3, P, 2_147_483_659])
    @pytest.mark.parametrize("q", TWO_PART_SHAPES)
    def test_powers_assemble_from_their_generator_columns(self, q, p):
        # every power M^k of a commutant element is fixed by M^k E
        rows = two_part_rows(q, np.random.default_rng([p % 1000, *q, 1]), p)
        self.check_powers(q, rows, p)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_shape_permutes_the_row(self, n):
        # generator columns are the last column of each block column
        for q in partitions_of(n):
            cols = _layout(q).cols
            assert cols.shape == (n, len(q))
            assert sorted(cols.ravel().tolist()) == list(range(n * len(q)))
            rows = _draw_free(q, np.random.default_rng([n, *q]), P, count=4)
            gens = np.cumsum(q) - 1
            assert np.array_equal(rows[:, cols], assemble_blocks(q, rows)[:, :, gens])

    @pytest.mark.parametrize("p", [3, P, 2_147_483_659])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_shape_assembles_its_powers(self, n, p):
        # repeated parts included: the gather reads `_layout` alone
        for q in partitions_of(n):
            rows = _draw_free(q, np.random.default_rng([p % 1000, n, *q]), p, count=6)
            rows[1::2][np.random.default_rng([n, *q]).random(rows[1::2].shape) < 0.6] = 0
            self.check_powers(q, rows, p)

    @staticmethod
    def check_powers(q, rows, p):
        """Every power of each row's element equals `pair[:, gather]` of its
        own generator columns, up to the first zero power."""
        n, cols, gather = sum(q), _layout(q).cols, _layout(q).gather
        stack = _as_field_matrix(assemble_blocks(q, rows), p)
        power = stack
        for _ in range(n):
            pair = np.zeros((len(power), cols.size + 1), dtype=power.dtype)
            pair[:, :-1] = power[:, :, np.cumsum(q) - 1].reshape(len(power), -1)
            assert np.array_equal(pair[:, gather], power)
            power = _mulmod(power, stack, p)
        assert not power.any()


class TestProfileTypes:
    """`_profile_type` memoizes the conversion of a corank profile across
    calls; each test starts and ends with an empty memo."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(coranks):
            calls.append(tuple(coranks))
            return jordan_from_coranks(coranks)

        commutator._profile_type.cache_clear()
        monkeypatch.setattr(commutator, "jordan_from_coranks", counting)
        yield calls
        commutator._profile_type.cache_clear()

    def test_each_distinct_profile_converted_once(self, calls):
        # the doubled chunk holds M, ..., M^4, but each row is keyed up to
        # its first corank 4, so `_two_part_types` and the one-matrix
        # readout (`_power_ranks`) find the same keys
        stack = np.stack([jordan_matrix((3, 1))] * 5 + [jordan_matrix((2, 2))] * 3)
        for _ in range(2):
            assert jordan_types(stack) == [(3, 1)] * 5 + [(2, 2)] * 3
        assert _two_part_types([CommutatorElement.jordan((3, 1)).coeffs] * 5, 3, 2) == [(3, 1)] * 5
        assert [jordan_type_of_matrix(m) for m in stack[4:6]] == [(3, 1), (2, 2)]
        assert calls == [(0, 2, 3, 4, 4), (0, 2, 4, 4)]
        # other matrices with the same profiles convert nothing
        assert jordan_types(2 * stack[::-1]) == [(2, 2)] * 3 + [(3, 1)] * 5
        assert len(calls) == 2

    def test_invalid_profile_still_raises(self, calls):
        for _ in range(2):
            with pytest.raises(ValueError, match="weakly decreasing"):
                commutator._profile_types([[1, 3]], 3)
        assert calls == [(0, 1, 3, 3)] * 2


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
                    m = commutant_matrix(parts, rng)
                    assert np.array_equal(matmul(m, jm), matmul(jm, m))
                    assert jordan_type_of_matrix(m).size == n

    @pytest.mark.parametrize("q", [(1,), (5, 2), (8, 5, 2), (10, 7, 4, 1)])
    def test_equals_assembled_element_on_stable_shapes(self, q):
        m = commutant_matrix(q, np.random.default_rng(20))
        e = sample_commutator(q, np.random.default_rng(20))
        assert np.array_equal(m, e.assemble())


class TestMultiply:
    def test_zero_annihilates(self):
        rng = np.random.default_rng(10)
        e = sample_commutator((5, 2), rng)
        q = (5, 2)
        z = CommutatorElement(q, (0,) * (sum(q) * len(q)))
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

    @pytest.mark.parametrize("p", [2, 3, 2_147_483_659, 2**63 - 25])
    @pytest.mark.parametrize("q", [(5, 2), (8, 5, 2), (10, 7, 4, 1)])
    def test_assembles_to_matrix_product_at_every_prime(self, q, p):
        # the product goes through `matmul` on Python integers above 2^31
        rng = np.random.default_rng([p % 1000, *q])
        for _ in range(10):
            e1, e2 = sample_commutator(q, rng, p=p), sample_commutator(q, rng, p=p)
            assert np.array_equal((e1 @ e2).assemble(), matmul(e1.assemble(), e2.assemble(), p))

    def test_algebra_laws(self):
        from nilcommute.modpoly import matmul

        def plus(e, f):
            return CommutatorElement(e.q, [x + y for x, y in zip(e.coeffs, f.coeffs)], e.p)

        rng = np.random.default_rng(12)
        q = (7, 3)
        for _ in range(5):
            e1, e2, e3 = (sample_commutator(q, rng) for _ in range(3))
            assert ((e1 @ e2) @ e3) == (e1 @ (e2 @ e3))
            assert (e1 @ plus(e2, e3)) == plus(e1 @ e2, e1 @ e3)

    def test_two_part_product_stays_two_part(self):
        rng = np.random.default_rng(23)
        for u, r in [(3, 2), (5, 3), (7, 3), (12, 5)]:
            e1, e2 = sample_commutator((u, u - r), rng), sample_commutator((u, u - r), rng)
            prod = e1 @ e2
            assert prod.q == (u, u - r)
            assert np.array_equal(prod.assemble(), matmul(e1.assemble(), e2.assemble(), P))

    def test_rejects_mixed_shapes(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            sample_commutator((5, 2), rng) @ sample_commutator((7, 3), rng)


class TestTwoPartElement:
    @pytest.mark.parametrize("p", [2, 1_000_000_007, 2**61 - 1])
    def test_blocks_roundtrip(self, p):
        rng = np.random.default_rng(21)
        for u in range(3, 11):
            for r in range(2, u):
                e = sample_commutator((u, u - r), rng, p=p)
                assert len(e.coeffs) == 4 * u - 2 * r
                assert CommutatorElement((u, u - r), e.coeffs, p) == e

    @pytest.mark.parametrize("p", [2**63 + 29, 2**64 - 59])
    def test_rejects_primes_past_int64(self, p):
        # the assembled matrices are int64, so the CLI's bound holds here too
        with pytest.raises(ValueError, match=r"2 <= p < 2\^63"):
            CommutatorElement((5, 2), [0, p - 1] + [0] * 12, p)

    @pytest.mark.parametrize("p", [4, 9, 2**31 - 3, 2**61 + 1])
    def test_rejects_composite_modulus(self, p):
        # ranks read over Z/4 would give a wrong type, [2,1,1,1,1,1]
        with pytest.raises(ValueError, match=f"modulus {p} is not a prime"):
            CommutatorElement((5, 2), [0, 2] + [0] * 12, p)

    def test_from_blocks_rejects_shallow_shift(self):
        coeffs = [0] * (4 * 5 - 2 * 3)
        coeffs[5] = 1  # t^0 of the upper-right block, below its t^r shift
        with pytest.raises(ValueError, match=r"entry \(0,1\) needs order >= 3"):
            CommutatorElement((5, 2), coeffs)

    def test_every_free_coordinate_is_drawn(self):
        # the other direction is test_structural_zeros_stay_zero
        rng = np.random.default_rng(22)
        for u, r in [(3, 2), (5, 3), (7, 3), (9, 4), (12, 5)]:
            seen = np.zeros(4 * u - 2 * r, dtype=bool)
            for _ in range(20):
                seen |= np.array(sample_commutator((u, u - r), rng).coeffs) != 0
            assert np.flatnonzero(seen).tolist() == _layout((u, u - r))[1].tolist()


def reference_dmap_oracle(pt, samples, rng, prime):
    """The one-sample loop that `dmap_oracle` replaced: per sample one draw,
    one assembly and one readout.  Returns the estimate and the set of types."""
    free = _layout(pt)[1]
    types = set()
    for _ in range(samples):
        coeffs = np.zeros(sum(pt) * len(pt), dtype=np.int64)
        coeffs[free] = rng.integers(prime, size=free.size)
        types.add(jordan_type_of_matrix(assemble_blocks(pt, coeffs), prime))
    return _generic_type(types), types


class TestChunks:
    @pytest.mark.parametrize("samples, bounds", [
        (1, [(0, 1)]),
        (7, [(0, 7)]),
        (8, [(0, 8)]),
        (9, [(0, 8), (8, 9)]),
        (17, [(0, 8), (8, 16), (16, 17)]),
    ])
    def test_bounds(self, samples, bounds):
        assert list(_chunks(samples)) == bounds

    @pytest.mark.parametrize("samples", [0, -4])
    def test_refuses_no_samples_at_the_call(self, samples):
        # before any chunk is read, so a harness refuses before it draws
        with pytest.raises(ValueError, match="need at least one sample"):
            _chunks(samples)


class TestDmapOracle:
    @pytest.mark.parametrize("prime", [2, 3, P])
    @pytest.mark.parametrize("samples", [1, 8, 9, 17])
    def test_chunks_match_the_one_sample_loop(self, monkeypatch, samples, prime):
        # one draw and one assembly per chunk, still one readout per sample
        draws, seen = [], []
        draw, read = commutator._draw_free, commutator.jordan_type_of_matrix
        monkeypatch.setattr(commutator, "_draw_free", lambda *a: draws.append(a) or draw(*a))
        monkeypatch.setattr(commutator, "jordan_type_of_matrix", lambda m, p: seen.append(read(m, p)) or seen[-1])
        for n in range(1, 8):
            for pt in partitions_of(n):
                draws.clear()
                seen.clear()
                seed = [prime % 1000, samples, *pt]
                est = dmap_oracle(pt, samples, np.random.default_rng(seed), prime=prime)
                assert (est, set(seen)) == reference_dmap_oracle(pt, samples, np.random.default_rng(seed), prime)
                assert len(draws) == math.ceil(samples / 8) and len(seen) == samples
        # the empty type takes the same path: empty rows, each read as EMPTY
        assert dmap_oracle((), samples, np.random.default_rng(0), prime=prime) == EMPTY

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

    def test_incomparable_types_give_no_generic_type(self):
        # at p = 2 cancellations make incomparable top types common; the
        # generator is the one `nilcommute --seed 3 oracle` builds
        p = (3, 3, 2, 1, 1)
        assert dmap_oracle(p, 40, np.random.default_rng([3, *p]), prime=2) == EMPTY


@pytest.mark.parametrize("p", [4, 9, 2**61 + 1])
@pytest.mark.parametrize("run", [
    lambda p: rank([[2, 0], [0, 2]], p),
    lambda p: matmul([[2, 0], [0, 2]], [[1], [1]], p),
    lambda p: jordan_types(np.zeros((1, 2, 2), dtype=np.int64), p),
    lambda p: jordan_type_of_matrix([[0, 1], [0, 0]], p),
])
def test_readouts_refuse_a_composite_modulus(run, p):
    # the one modulus rule, checked where every array kernel reduces its input
    with pytest.raises(ValueError, match=f"modulus {p} is not a prime"):
        run(p)
