import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from nilcommute import commutator, loci
from nilcommute.burge import check_cell, table
from nilcommute.commutator import (
    CommutatorElement,
    _draw_free,
    _layout,
    _settled_prefix,
    _two_part_coranks,
    _two_part_offsets,
    dmap_oracle,
    sample_commutator,
)
from nilcommute.loci import (
    BranchReport,
    CellReport,
    IntersectReport,
    Quadric,
    _draw_bounds,
    _generic_type,
    _plan_rows,
    _solve_plan,
    _type_counts,
    closure_contains,
    equations,
    intersect_experiment,
    sample_on_locus,
    survey,
    verify_cell,
)
from nilcommute.modpoly import DEFAULT_PRIME, TruncPoly, _mulmod, rank
from nilcommute.partitions import EMPTY, Partition
from nilcommute.tropical import predicted_jordan_type
from test_commutator import coords, det2, order, two_part
from test_modpoly import reference_rank, t_power, zero

P = DEFAULT_PRIME


def reference_equations(u, r, k, l):
    """The (k, l) locus equations by the paper's formula, in a, b, g, h
    indices, as the triple (linear_a, linear_b, quadrics): a_1..a_{k-1} and
    b_1..b_{l-1} when k + l <= r, otherwise a_1..a_{k-1}, b_1..b_{r-k-1}
    and, for d = 0..k+l-r-1, the coefficient of t^{r+d} in ab - g h t^r."""
    check_cell(u, r, k, l)
    if k + l <= r:
        lin_b = tuple(range(1, l))
        quads = ()
    else:
        lin_b = tuple(range(1, r - k))
        quads = tuple(
            Quadric(
                ab_terms=tuple((k + j, r - k + d - j) for j in range(d + 1)),
                gh_terms=tuple((j, d - j) for j in range(d + 1)),
            )
            for d in range(k + l - r)
        )
    return tuple(range(1, k)), lin_b, quads


def reference_values(eqs, e):
    """Values of the equations at e, read off its named coordinates: the
    linear coordinates, then each quadric sum a_i b_j - sum g_i h_j mod p;
    all zero iff e lies on the locus.  `eqs` is an `EquationSet` or the
    triple of `reference_equations`."""
    if isinstance(eqs, loci.EquationSet):
        assert e.q == (eqs.u, eqs.u - eqs.r)
        eqs = eqs.linear_a, eqs.linear_b, eqs.quadrics
    linear_a, linear_b, quadrics = eqs
    a, b, g, h = coords(e)
    return (*(a[i] for i in linear_a), *(b[i] for i in linear_b), *(
        (sum(a[i] * b[j] for i, j in qd.ab_terms) - sum(g[i] * h[j] for i, j in qd.gh_terms)) % e.p
        for qd in quadrics))


def reference_jacobian(eqs, e):
    """Jacobian with named columns a_1.., b_1.., g_0.., h_0.., read off the
    named coordinates of e; independent of the block numbering."""
    u, r = eqs.u, eqs.r
    names = ([f"a{i}" for i in range(1, u)] + [f"b{i}" for i in range(1, u - r)]
             + [f"g{j}" for j in range(u - r)] + [f"h{j}" for j in range(u - r)])
    cols = {name: c for c, name in enumerate(names)}
    jac = np.zeros((eqs.codim, len(names)), dtype=np.int64)
    row = 0
    for i in eqs.linear_a:
        jac[row, cols[f"a{i}"]] = 1
        row += 1
    for i in eqs.linear_b:
        jac[row, cols[f"b{i}"]] = 1
        row += 1
    p = e.p
    a, b, g, h = coords(e)
    for qd in eqs.quadrics:
        for ai, bi in qd.ab_terms:
            jac[row, cols[f"a{ai}"]] = (jac[row, cols[f"a{ai}"]] + b[bi]) % p
            jac[row, cols[f"b{bi}"]] = (jac[row, cols[f"b{bi}"]] + a[ai]) % p
        for gi, hi in qd.gh_terms:
            jac[row, cols[f"g{gi}"]] = (jac[row, cols[f"g{gi}"]] - h[hi]) % p
            jac[row, cols[f"h{hi}"]] = (jac[row, cols[f"h{hi}"]] - g[gi]) % p
        row += 1
    return jac


def reference_plan_point(plan, rng, prime, zero_gh=None):
    """One point of the plan's locus, drawn alone: the free coordinates, then
    a nonzero pivot, then each step, led by its pivot term, solved in turn."""
    u, r = plan.u, plan.r
    c = _draw_free((u, u - r), rng, prime, 1)[0]
    c[list(plan.zero)] = 0
    c[plan.pivot] = 1 + rng.integers(prime - 1)
    if zero_gh is not None:
        c[plan.split[zero_gh]] = 0
    c = c.tolist()
    inv_ak = pow(c[plan.pivot], -1, prime)
    for (lead, pivot, solved), *terms in plan.steps:
        assert (lead, pivot) == (1, plan.pivot)
        rhs = -sum(sign * c[i] * c[j] for sign, i, j in terms)
        c[solved] = rhs % prime * inv_ak % prime
    return c


def reference_closure_failure(u, r, outer, inner, samples, *, seed=0, prime=P):
    """The first inner sample, drawn one at a time, that misses the outer
    equations, or None; `closure_contains`' montecarlo is `is None`."""
    eqs = equations(u, r, *outer)
    rng = np.random.default_rng([seed, u, r, *outer, *inner])
    for i in range(samples):
        if any(reference_values(eqs, sample_on_locus(u, r, *inner, rng, prime=prime))):
            return i
    return None


def reference_verify_cell(u, r, k, l, samples, *, seed=0, prime=P):
    """`verify_cell` reading one sample at a time, in draw order."""
    eqs = equations(u, r, k, l)
    expected = table((u, u - r))[k - 1][l - 1]
    rng = np.random.default_rng([seed, u, r, k, l])
    types = []
    jac_hits = 0
    for _ in range(samples):
        e = sample_on_locus(u, r, k, l, rng, prime=prime)
        types.append(e.jordan_type())
        jac_hits += eqs.jacobian_rank_at(e) == eqs.codim
    converse_hits = 0
    converse_ok = True
    for _ in range(samples):
        amb = sample_commutator((u, u - r), rng, p=prime)
        if amb.jordan_type() == expected:
            converse_hits += 1
            converse_ok = converse_ok and not any(reference_values(eqs, amb))
    return CellReport(
        q=Partition((u, u - r)), cell=(k, l), prime=prime, seed=seed, samples=samples,
        max_type=_generic_type(types), expected=expected,
        match_rate=sum(t == expected for t in types) / samples,
        converse_hits=converse_hits, converse_ok=converse_ok,
        tropical_agree=predicted_jordan_type(u, r, k, l) == expected,
        jacobian_rank_ok=jac_hits / samples >= 0.99,
    )


def reference_intersect(u, r, cells, samples, *, seed=0, prime=P):
    """`intersect_experiment` reading one sample at a time, in draw order."""
    cells = sorted({(int(k), int(l)) for k, l in cells})
    plan = _solve_plan(u, r, tuple(cells))
    base = dict(q=Partition((u, u - r)), cells=tuple(cells), prime=prime, seed=seed, samples=samples)
    if plan.reason:
        return IntersectReport(**base, sampled=False, reason=plan.reason, branches=())
    branches = []
    branch_defs = [("g0=0", 0), ("h0=0", 1)] if plan.split else [("", None)]
    for bidx, (label, zero_gh) in enumerate(branch_defs):
        rng = np.random.default_rng([seed, u, r, bidx] + [x for c in cells for x in c])
        counts = Counter()
        for _ in range(samples):
            e = CommutatorElement((u, u - r), reference_plan_point(plan, rng, prime, zero_gh), prime)
            counts[e.jordan_type()] += 1
        branches.append(BranchReport(label, _generic_type(counts), _type_counts(counts)))
    return IntersectReport(**base, sampled=True, reason="", branches=tuple(branches))


class TestEquations:
    def test_golden_52(self):
        assert equations(5, 3, 1, 1).labels() == ()
        assert equations(5, 3, 1, 2).labels() == ("b1",)
        assert equations(5, 3, 2, 1).labels() == ("a1",)
        assert equations(5, 3, 2, 2).labels() == ("a1", "a2b1-g0h0")

    def test_mixed_cell(self):
        eqs = equations(7, 4, 2, 3)
        assert eqs.labels() == ("a1", "b1", "a2b2-g0h0")

    def test_counts(self):
        for u, r in [(5, 3), (7, 4), (9, 4), (8, 5)]:
            for k in range(1, r):
                for l in range(1, u - r + 1):
                    assert equations(u, r, k, l).codim == k + l - 2

    def test_matches_reference_formula(self):
        # the one-cell plan read in a, b, g, h indices is the paper's staircase
        cells = 0
        for u in range(3, 17):
            for r in range(2, u):
                for k in range(1, r):
                    for l in range(1, u - r + 1):
                        eqs = equations(u, r, k, l)
                        fields = (eqs.linear_a, eqs.linear_b, eqs.quadrics)
                        assert fields == reference_equations(u, r, k, l), (u, r, k, l)
                        cells += 1
        assert cells == 2_380

    def test_built_from_the_cell_alone(self):
        # the equations are not arguments, so a set cannot list other
        # equations than the ones its row checks read
        assert loci.EquationSet(5, 3, 2, 2) == equations(5, 3, 2, 2)
        with pytest.raises(TypeError):
            loci.EquationSet(5, 3, 2, 2, (), (), ())
        with pytest.raises(ValueError):
            loci.EquationSet(5, 3, 3, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            equations(5, 3, 3, 1)
        with pytest.raises(ValueError):
            equations(5, 3, 1, 3)

    def test_restriction_compatibility(self):
        # growing u by one leaves the equation sets identical as polynomials
        for u in range(5, 10):
            for r in range(2, u):
                for k in range(1, r):
                    for l in range(1, u - r + 1):
                        small = equations(u, r, k, l)
                        big = equations(u + 1, r, k, l)
                        assert big.linear_a == small.linear_a
                        assert big.linear_b == small.linear_b
                        assert big.quadrics == small.quadrics


class TestEvaluate:
    def test_jordan_point_off_locus(self):
        e = two_part(5, 3, t_power(1, 5), t_power(1, 2), zero(2), zero(2))
        eqs = equations(5, 3, 2, 2)
        assert reference_values(eqs, e)[0] == 1  # a_1 = 1
        assert not eqs._holds(e.coeffs, e.p)

    def test_special_point_on_locus(self):
        e = two_part(5, 3, t_power(2, 5), t_power(1, 2), t_power(0, 2), t_power(0, 2))
        eqs = equations(5, 3, 2, 2)
        assert reference_values(eqs, e) == (0, 0) and eqs._holds(e.coeffs, e.p)

    def test_order_form_equivalence_random(self):
        # the valuation reading of the equations: ord(a) >= k and
        # ord(ab - g h t^r) >= k + l, away from the thin stratum ord(a) > k
        def order_form_holds(eqs, e):
            return order(coords(e)[0]) >= eqs.k and order(det2(e)) >= eqs.k + eqs.l

        rng = np.random.default_rng(30)
        eqs = equations(7, 4, 2, 3)
        for _ in range(50):
            on = sample_on_locus(7, 4, 2, 3, rng)
            assert eqs._holds(on.coeffs, on.p) and order_form_holds(eqs, on)
            off = sample_commutator((7, 3), rng)
            assert eqs._holds(off.coeffs, off.p) == order_form_holds(eqs, off)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(31)
        with pytest.raises(ValueError):
            equations(5, 3, 2, 2).jacobian_rank_at(sample_commutator((7, 3), rng))

    @pytest.mark.parametrize("p", [2, 3, P, 2**63 - 25])
    def test_holds_matches_reference_values(self, p):
        # on-locus and commutant points of every cell with u <= 9, and both
        # with about 60% of their coordinates zeroed
        rng = np.random.default_rng(p % 1000)
        outcomes = Counter()
        for u in range(3, 10):
            for r in range(2, u):
                for k in range(1, r):
                    for l in range(1, u - r + 1):
                        eqs = equations(u, r, k, l)
                        for e in (sample_on_locus(u, r, k, l, rng, prime=p), sample_commutator((u, u - r), rng, p=p)):
                            sparse = np.where(rng.random(len(e.coeffs)) < 0.6, 0, e.coeffs)
                            for c in (list(e.coeffs), sparse.tolist()):
                                point = CommutatorElement((u, u - r), c, p)
                                holds = eqs._holds(c, p)
                                assert holds == (not any(reference_values(eqs, point))), (u, r, k, l, c)
                                outcomes[holds] += 1
        assert outcomes[True] and outcomes[False]


class TestSampleOnLocus:
    @pytest.mark.parametrize("cell", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_always_on_locus(self, cell):
        rng = np.random.default_rng(32)
        eqs = equations(5, 3, *cell)
        for _ in range(20):
            assert not any(reference_values(eqs, sample_on_locus(5, 3, *cell, rng)))

    def test_every_cell_up_to_u10(self):
        # the sampler solves its own plan; the paper's formula is an independent check
        rng = np.random.default_rng(34)
        for u in range(3, 11):
            for r in range(2, u):
                for k in range(1, r):
                    for l in range(1, u - r + 1):
                        eqs = reference_equations(u, r, k, l)
                        for _ in range(3):
                            assert not any(reference_values(eqs, sample_on_locus(u, r, k, l, rng)))

    def test_orders(self):
        rng = np.random.default_rng(33)
        e = sample_on_locus(5, 3, 2, 2, rng)
        assert order(coords(e)[0]) == 2
        assert order(det2(e)) >= 4

    def test_dimension_count(self):
        for u, r in [(5, 3), (8, 3), (9, 5)]:
            for k in range(1, r):
                for l in range(1, u - r + 1):
                    eqs = equations(u, r, k, l)
                    assert len(_layout((u, u - r))[1]) - eqs.codim == 4 * u - 3 * r - k - l


class TestPlanRows:
    @pytest.mark.parametrize("p", [2, 3, P, 2_147_483_659, 2**63 - 25])
    def test_rows_continue_the_generator_as_one_point_draws(self, p):
        # every cell of three shapes, and the split plans of intersect --q 7,4
        # --cells 1,2+2,2 and --cells 1,2+2,3 (the second with a step) on
        # each branch and unsplit
        plans = [(_solve_plan(u, r, ((k, l),)), None)
                 for u, r in [(5, 3), (8, 5), (12, 7)]
                 for k in range(1, r) for l in range(1, u - r + 1)]
        for cells in [((1, 2), (2, 2)), ((1, 2), (2, 3))]:
            split = _solve_plan(7, 3, cells)
            assert split.split and not split.reason
            plans += [(split, zero_gh) for zero_gh in (None, 0, 1)]
        assert split.steps
        for i, (plan, zero_gh) in enumerate(plans):
            for count in (1, 3, 9):
                stacked, alone = np.random.default_rng([i, count]), np.random.default_rng([i, count])
                rows = _plan_rows(plan, stacked, p, count, zero_gh)
                assert rows.shape == (count, 4 * plan.u - 2 * plan.r)
                assert rows.tolist() == [reference_plan_point(plan, alone, p, zero_gh) for _ in range(count)]
                assert stacked.bit_generator.state == alone.bit_generator.state
            assert _plan_rows(plan, stacked, p, 0, zero_gh).shape == (0, 4 * plan.u - 2 * plan.r)
            assert stacked.bit_generator.state == alone.bit_generator.state

    def test_cached_draw_bounds_and_plan_fields(self):
        # the draw bounds and the zero index are read-only, built once per
        # (free count, prime) or plan, as the layout's arrays are
        plan = equations(12, 7, 5, 4)._plan
        free = _layout((12, 5)).free.size
        bounds = _draw_bounds(free, P)
        assert bounds.tolist() == [P] * free + [P - 1] and _draw_bounds(free, P) is bounds
        assert plan._zero_index.tolist() == list(plan.zero) and plan._zero_index is plan._zero_index
        assert plan._solve_steps == tuple((terms[0][2], terms[1:]) for terms in plan.steps)
        for a in (bounds, plan._zero_index):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    @pytest.mark.parametrize("p", [2, 3, P])
    def test_closure_montecarlo_matches_one_sample_draws(self, p):
        failures = set()
        for u, r in [(5, 3), (7, 4)]:
            cells = [(k, l) for k in range(1, r) for l in range(1, u - r + 1)]
            for seed in range(4):
                for outer in cells:
                    for inner in cells:
                        for samples in (1, 20):
                            first = reference_closure_failure(u, r, outer, inner, samples, seed=seed, prime=p)
                            rep = closure_contains(u, r, outer, inner, samples, seed=seed, prime=p)
                            assert rep.montecarlo == (first is None), (outer, inner, samples, seed)
                            failures.add(first)
        if p == 2:
            # failures on the first sample, later in the first chunk and in a later chunk
            assert 0 in failures and failures & set(range(1, 8)) and failures & set(range(8, 20))


class TestJacobian:
    def test_generic_rank(self):
        rng = np.random.default_rng(34)
        eqs = equations(5, 3, 2, 2)
        e = sample_on_locus(5, 3, 2, 2, rng)
        assert eqs.jacobian_rank_at(e) == 2

    def test_degenerate_point(self):
        z = zero(2)
        e = two_part(5, 3, t_power(3, 5), z, z, z)
        eqs = equations(5, 3, 2, 2)
        assert eqs.jacobian_rank_at(e) < eqs.codim

    def test_empty_set(self):
        rng = np.random.default_rng(35)
        eqs = equations(5, 3, 1, 1)
        assert eqs.jacobian_rank_at(sample_on_locus(5, 3, 1, 1, rng)) == 0

    @pytest.mark.parametrize("p", [2, 3, 1_000_000_007, 2**61 - 1])
    def test_matches_named_column_reference(self, p):
        # on-locus points of every cell with u <= 10, one in three made
        # sparse by zeroing about half of its coordinates
        rng = np.random.default_rng(p % 1000)
        for u in range(3, 11):
            for r in range(2, u):
                for k in range(1, r):
                    for l in range(1, u - r + 1):
                        eqs = equations(u, r, k, l)
                        for i in range(3):
                            e = sample_on_locus(u, r, k, l, rng, prime=p)
                            if i == 2:
                                keep = rng.random(4 * u - 2 * r) < 0.5
                                e = CommutatorElement((u, u - r), np.where(keep, e.coeffs, 0), p)
                            assert eqs.jacobian_rank_at(e) == reference_rank(reference_jacobian(eqs, e), p)

    @pytest.mark.parametrize("p", [2, 3, P, 2_147_483_659])
    def test_quadric_block_reduction(self, p):
        # |linear| + rank of the quadric block is the Jacobian's rank: on-locus,
        # commutant (off-locus) and on-locus points with a_k = 0, with g = h = 0,
        # or with a_k = 0 and g = h = b = 0 (the degree-r quadric then has a
        # zero row), on every cell, including the cells without quadrics
        rng = np.random.default_rng(p % 1000)
        deficient = 0
        for u, r in [(5, 3), (8, 5), (9, 4), (12, 7)]:
            g0, _, b0 = _two_part_offsets(u, r)
            for k in range(1, r):
                for l in range(1, u - r + 1):
                    eqs = equations(u, r, k, l)
                    points = [sample_on_locus(u, r, k, l, rng, prime=p).coeffs,
                              sample_commutator((u, u - r), rng, p=p).coeffs]
                    for zero in ([k], range(g0, b0), [k, *range(g0, 4 * u - 2 * r)]):
                        c = list(sample_on_locus(u, r, k, l, rng, prime=p).coeffs)
                        for i in zero:
                            c[i] = 0
                        points.append(c)
                    wants = []
                    for c in points:
                        e = CommutatorElement((u, u - r), c, p)
                        wants.append(reference_rank(reference_jacobian(eqs, e), p))
                        assert eqs.jacobian_rank_at(e) == wants[-1], (u, r, k, l, c)
                        deficient += wants[-1] < eqs.codim
                    # the blocks of all points, scattered in one step
                    assert eqs._jacobian_ranks(np.array(points, dtype=np.int64), p) == wants
        assert deficient > 0

    @pytest.mark.parametrize("p", [2, 3, 1_000_000_007, 2_147_483_659, 2**63 - 25])
    def test_ranks_match_reference_on_verified_cells(self, monkeypatch, p):
        # every Jacobian that verify_cell ranks on each cell of three shapes;
        # p >= 2^31 takes the Python-integer path
        seen = []

        def recorded(mat, prime):
            seen.append((mat, prime, rank(mat, prime)))
            return seen[-1][2]

        monkeypatch.setattr(loci, "rank", recorded)
        for u, r in [(8, 5), (12, 7), (13, 9)]:
            for k in range(1, r):
                for l in range(1, u - r + 1):
                    verify_cell(u, r, k, l, 2, seed=1, prime=p)
        assert len(seen) == 2 * 74
        assert all(prime == p and got == reference_rank(mat, p) for mat, prime, got in seen)


class TestVerifyCell:
    def test_deep_cell_passes(self):
        rep = verify_cell(5, 3, 2, 2, 50, seed=42)
        assert rep.passed
        assert rep.max_type == (4, 1, 1, 1)
        assert rep.to_dict()["pass"] is True

    def test_hook_cell(self):
        rep = verify_cell(5, 3, 1, 2, 50, seed=42)
        assert rep.max_type == (5, 1, 1)
        assert rep.passed

    def test_wide_cell(self):
        rep = verify_cell(9, 5, 3, 4, 50, seed=42)
        from nilcommute.burge import decode, two_part_code

        assert rep.max_type == decode(two_part_code(9, 5, 3, 4))
        assert rep.passed

    def test_generic_cell_converse_hits(self):
        rep = verify_cell(5, 3, 1, 1, 30, seed=1)
        # ambient samples land on the open cell, so the converse check is non-vacuous
        assert rep.converse_hits > 0 and rep.converse_ok

    @pytest.mark.parametrize("p", [3, 1_000_000_007])
    @pytest.mark.parametrize("u,r", [(8, 5), (12, 7)])
    def test_matches_one_sample_reference(self, u, r, p):
        # 10 samples: 20 chained draws in chunks of 8, 8 and 4; the second
        # chunk holds the last on-locus and the first converse draws
        for k in range(1, r):
            for l in range(1, u - r + 1):
                assert verify_cell(u, r, k, l, 10, seed=4, prime=p) == reference_verify_cell(
                    u, r, k, l, 10, seed=4, prime=p)

    @pytest.mark.parametrize("samples,chunks", [(1, [2]), (2, [4]), (4, [8]), (5, [8, 2]), (10, [8, 8, 4])])
    def test_one_chained_readout(self, monkeypatch, samples, chunks):
        # on-locus then converse draws are one stream, read _CHUNK at a time
        seen = []

        def counting_two_part_coranks(rows, u, r, p, powers):
            seen.append(len(rows))
            return _two_part_coranks(rows, u, r, p, powers)

        monkeypatch.setattr(loci, "_two_part_coranks", counting_two_part_coranks)
        assert verify_cell(8, 5, 2, 2, samples, seed=2) == reference_verify_cell(8, 5, 2, 2, samples, seed=2)
        assert seen == chunks

    @pytest.mark.parametrize("q", [(8, 3), (12, 5), (13, 4)])
    def test_rounds_follow_the_entry_settle_point(self, monkeypatch, q):
        # each chunk is read up to the entry's settle point s* only: ceil(log2 s*)
        # products, where the converse draws of type q would take ceil(log2 u);
        # an on-locus miss, read again in full, would add rounds
        u, m = q
        rounds = []

        def counting_coranks(rows, u, r, p, powers):
            rounds.append(0)
            return _two_part_coranks(rows, u, r, p, powers)

        def counting_mulmod(a, b, p):
            rounds[-1] += 1
            return _mulmod(a, b, p)

        monkeypatch.setattr(loci, "_two_part_coranks", counting_coranks)
        monkeypatch.setattr(commutator, "_mulmod", counting_mulmod)
        for k in range(1, u - m):
            for l in range(1, m + 1):
                rounds.clear()
                settle = len(_settled_prefix(table(q)[k - 1][l - 1]))
                assert verify_cell(u, u - m, k, l, 5, seed=3).passed  # chunks of 8 and 2
                assert rounds == [math.ceil(math.log2(settle))] * 2

    @pytest.mark.parametrize("p", [3, P])
    def test_reads_rows_without_assembly(self, monkeypatch, p):
        # on-locus and converse rows go straight to the two-part readout;
        # the one-sample references assemble through `CommutatorElement`
        def refuse(*args):
            raise AssertionError("a two-part harness assembled a matrix")

        monkeypatch.setattr(loci, "assemble_blocks", refuse)
        for k in (1, 2, 4):
            assert verify_cell(8, 5, k, 2, 5, seed=1, prime=p) == reference_verify_cell(8, 5, k, 2, 5, seed=1, prime=p)
        cells = [(1, 2), (2, 2)]
        assert intersect_experiment(5, 3, cells, 20, seed=8, prime=p) == reference_intersect(5, 3, cells, 20, seed=8, prime=p)
        with pytest.raises(AssertionError, match="assembled"):
            survey((5, 2), 2)

    def test_memory_bounded_by_one_chunk(self):
        # the (13, 4) cell (3, 2); caches filled first, so only the loops count
        verify_cell(13, 9, 3, 2, 1)
        tracemalloc.start()
        try:
            verify_cell(13, 9, 3, 2, 16)
            small = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            verify_cell(13, 9, 3, 2, 400)
            large = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert large <= 1.5 * small, (small, large)

    def test_report_schema(self):
        d = verify_cell(5, 3, 1, 1, 5, seed=3).to_dict()
        for key in ("q", "cell", "prime", "seed", "samples", "max_type",
                    "expected", "jacobian_rank_ok", "tropical_agree", "pass"):
            assert key in d


class TestClosureContains:
    def test_nested_column(self):
        rep = closure_contains(5, 3, (2, 1), (2, 2), 50, seed=5)
        assert rep.predicate and rep.montecarlo

    def test_non_containment(self):
        rep = closure_contains(5, 3, (1, 2), (2, 1), 50, seed=5)
        assert not rep.predicate and not rep.montecarlo

    def test_self(self):
        rep = closure_contains(5, 3, (2, 2), (2, 2), 20, seed=5)
        assert rep.predicate and rep.montecarlo

    @pytest.mark.parametrize("samples", [0, -4])
    def test_rejects_no_samples(self, samples):
        with pytest.raises(ValueError, match="need at least one sample"):
            closure_contains(5, 3, (2, 2), (1, 1), samples)

    @pytest.mark.parametrize("u,r", [(5, 3), (6, 3), (7, 4), (9, 4)])
    def test_predicate_matches_montecarlo(self, u, r):
        cells = [(k, l) for k in range(1, r) for l in range(1, u - r + 1)]
        for outer in cells:
            for inner in cells:
                rep = closure_contains(u, r, outer, inner, 25, seed=6)
                assert rep.agree, (outer, inner)

    def test_containment_implies_dominance(self):
        from nilcommute.partitions import dominates

        for u, r in [(5, 3), (7, 4)]:
            grid = table((u, u - r))
            cells = [(k, l) for k in range(1, r) for l in range(1, u - r + 1)]
            for outer in cells:
                for inner in cells:
                    rep = closure_contains(u, r, outer, inner, 10, seed=7)
                    if rep.predicate:
                        assert dominates(grid[outer[0] - 1][outer[1] - 1],
                                         grid[inner[0] - 1][inner[1] - 1])


class TestIntersect:
    def test_two_linear_cells(self):
        rep = intersect_experiment(5, 3, [(1, 2), (2, 1)], 150, seed=8)
        assert rep.sampled
        assert [tuple(b.max_type) for b in rep.branches] == [(3, 3, 1)]

    def test_monomial_split(self):
        rep = intersect_experiment(5, 3, [(1, 2), (2, 2)], 150, seed=8)
        assert rep.sampled
        assert [b.label for b in rep.branches] == ["g0=0", "h0=0"]
        assert all(b.max_type == (3, 2, 1, 1) for b in rep.branches)

    def test_single_cell(self):
        rep = intersect_experiment(5, 3, [(2, 2)], 100, seed=8)
        assert rep.branches[0].max_type == (4, 1, 1, 1)

    def test_branch_points_satisfy_all_cells(self):
        # hand-built points of the g0 = 0 branch (a1 = b1 = g0 = 0) lie on
        # both loci, which is what the experiment samples
        rng = np.random.default_rng(9)
        eq_sets = [equations(5, 3, k, l) for k, l in [(1, 2), (2, 2)]]
        for _ in range(20):
            e = two_part(
                5, 3,
                TruncPoly((0, 0, *(int(x) for x in rng.integers(P, size=3)))),
                zero(2),
                TruncPoly((0, int(rng.integers(P)))),
                TruncPoly(tuple(int(x) for x in rng.integers(P, size=2))),
            )
            assert not any(v for eqs in eq_sets for v in reference_values(eqs, e))

    def test_plan_samples_lie_on_every_cell(self):
        rng = np.random.default_rng(11)
        for u, r in [(5, 3), (7, 3), (8, 4), (9, 4)]:
            cells = [(k, l) for k in range(1, r) for l in range(1, u - r + 1)]
            for i, c1 in enumerate(cells):
                for c2 in cells[i + 1 :]:
                    plan = _solve_plan(u, r, (c1, c2))
                    if plan.reason:
                        continue
                    eq_sets = [equations(u, r, *c) for c in (c1, c2)]
                    for zero_gh in (0, 1) if plan.split else (None,):
                        e = CommutatorElement((u, u - r), _plan_rows(plan, rng, P, 1, zero_gh)[0], P)
                        assert not any(v for eqs in eq_sets for v in reference_values(eqs, e))
                        if zero_gh is not None:
                            assert coords(e)[2 + zero_gh][0] == 0

    def test_no_generic_type_at_tiny_prime(self):
        # at p = 2 the sampled types of this intersection have no dominance
        # maximum; that is a sampled outcome, not an error
        rep = intersect_experiment(7, 4, [(2, 1), (1, 3)], 200, seed=0, prime=2)
        assert rep.sampled and [b.max_type for b in rep.branches] == [EMPTY]
        assert len(rep.branches[0].type_counts) > 1

    @pytest.mark.parametrize("u,r,cells,samples,seed,prime", [
        (7, 4, [(1, 2), (2, 2)], 200, 3, 1_000_000_007),
        (7, 4, [(1, 2), (2, 2)], 200, 3, 3),
        (7, 4, [(2, 1), (1, 3)], 200, 0, 2),  # no generic type
        (5, 3, [(2, 2)], 17, 3, 1_000_000_007),
    ])
    def test_matches_one_sample_reference(self, u, r, cells, samples, seed, prime):
        rep = intersect_experiment(u, r, cells, samples, seed=seed, prime=prime)
        assert rep == reference_intersect(u, r, cells, samples, seed=seed, prime=prime)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            intersect_experiment(5, 3, [(2, 2)], 0)

    def test_reads_each_cell_as_an_index(self):
        # int() would read (1.7, 2) as the cell (1, 2) and sample it
        with pytest.raises(TypeError):
            intersect_experiment(5, 3, [(1.7, 2)], 4)
        cells = [(1, 2), (2, 2)]
        rep = intersect_experiment(5, 3, [(np.int64(k), np.int64(l)) for k, l in cells], 20, seed=8)
        assert rep == intersect_experiment(5, 3, cells, 20, seed=8)
        assert all(type(x) is int for cell in rep.cells for x in cell)

    def test_unsampled_reported(self):
        rep = intersect_experiment(9, 4, [(1, 5), (3, 5)], 5, seed=10)
        if not rep.sampled:
            assert rep.reason
        # either way the call must not raise


class TestSurvey:
    def test_two_part(self):
        rep = survey((5, 2), 80, seed=11)
        assert rep.all_in_box
        assert rep.box_size == 4

    def test_three_part(self):
        rep = survey((8, 5, 2), 80, seed=11)
        assert rep.all_in_box and rep.box_size == 8

    def test_single_part_gives_almost_rectangular(self):
        rep = survey((7,), 60, seed=11)
        assert rep.all_in_box
        for t, _ in rep.type_counts:
            assert t[0] - t[-1] <= 1

    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            survey((5, 4), 10, seed=0)

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError, match="need at least one sample"):
            survey((8, 5, 2), 0)

    @pytest.mark.parametrize("p", [3, 5, P, 2_147_483_659])
    @pytest.mark.parametrize("samples", [1, 7, 8, 9, 17])
    def test_chunked_draws_match_per_sample_reading(self, samples, p):
        # one draw per chunk continues the generator exactly as one per sample
        for q in [(5, 2), (8, 5, 2)]:
            rng = np.random.default_rng([3, *q])
            types = Counter(sample_commutator(q, rng, p=p).jordan_type() for _ in range(samples))
            assert survey(q, samples, seed=3, prime=p).type_counts == _type_counts(types)


class TestOnePlanPerCell:
    def test_each_cell_builds_its_plan_once(self, monkeypatch):
        built = []
        solve = loci._solve_plan
        monkeypatch.setattr(loci, "_solve_plan", lambda *args: built.append(args) or solve(*args))
        equations.cache_clear()
        verify_cell(8, 3, 2, 3, 4)
        assert built == [(8, 3, ((2, 3),))]
        verify_cell(8, 3, 2, 3, 4)
        assert len(built) == 1
        equations(8, 3, 1, 1)
        assert len(built) == 2
        closure_contains(8, 3, (1, 1), (2, 3), 4)
        sample_on_locus(8, 3, 2, 3, np.random.default_rng(0))
        assert len(built) == 2

    def test_every_step_leads_with_its_pivot_term(self):
        for u in range(3, 17):
            for r in range(2, u):
                b0 = _two_part_offsets(u, r)[2]
                for k in range(1, r):
                    for l in range(1, u - r + 1):
                        steps = equations(u, r, k, l)._plan.steps
                        pivots = [(1, k, b0 + r - k + d) for d in range(k + l - r)]
                        assert [terms[0] for terms in steps] == pivots, (u, r, k, l)


HARNESSES = [
    lambda prime: verify_cell(5, 3, 2, 2, 20, prime=prime),
    lambda prime: closure_contains(5, 3, (2, 1), (2, 2), 5, prime=prime),
    lambda prime: intersect_experiment(5, 3, [(2, 2)], 5, prime=prime),
    lambda prime: intersect_experiment(9, 4, [(1, 5), (3, 5)], 5, prime=prime),  # unsampled
    lambda prime: survey((5, 2), 50, prime=prime),
    lambda prime: dmap_oracle((3, 2, 1), 50, np.random.default_rng(0), prime=prime),
    lambda prime: dmap_oracle((), 5, np.random.default_rng(0), prime=prime),
]


@pytest.mark.parametrize("prime", [4, 2**64 - 59])
@pytest.mark.parametrize("run", HARNESSES)
def test_every_harness_refuses_an_unsupported_modulus(run, prime):
    # one rule (`modpoly._check_modulus`), checked before the first draw,
    # also where no draw is made (an unsampled system, the empty type)
    with pytest.raises(ValueError, match=f"modulus {prime} is (not a prime|out of range: .* 2 <= p < 2\\^63)"):
        run(prime)


@pytest.mark.parametrize("run", HARNESSES)
def test_every_harness_reads_a_numpy_integer_modulus(run):
    # the rule reads p with `operator.index`: np.int64(p) is p, draws and
    # readouts included (Miller-Rabin's three-argument pow refused it), and
    # a report stores the checked Python integer, which JSON can write
    at_int64, at_int = run(np.int64(P)), run(P)
    assert at_int64 == at_int
    dump = [json.dumps(out, default=lambda rep: rep.to_dict()) for out in (at_int64, at_int)]
    assert dump[0] == dump[1]
    with pytest.raises(TypeError):
        run(float(P))


@pytest.mark.parametrize("run", [
    lambda seed: verify_cell(5, 3, 2, 2, 1, seed=seed),
    lambda seed: closure_contains(5, 3, (2, 1), (2, 2), 1, seed=seed),
    lambda seed: intersect_experiment(5, 3, [(2, 2)], 1, seed=seed),
    lambda seed: intersect_experiment(9, 4, [(1, 5), (3, 5)], 5, seed=seed),  # unsampled
    lambda seed: survey((5, 2), 1, seed=seed),
])
def test_negative_seed_is_refused(run):
    # -3 and 3 would otherwise name one generator state under two seeds
    run(3)
    with pytest.raises(ValueError):
        run(-3)


def test_generic_type():
    assert _generic_type([(3, 3), (2, 2, 2), (3, 2, 1)]) == (3, 3)
    # (3,3) and (4,1,1) are incomparable in dominance order
    assert _generic_type([(3, 3), (4, 1, 1)]) == EMPTY
    assert _generic_type([(3, 3), (4, 1, 1), (6,)]) == (6,)


REPORT_KEYS = {
    "CellReport": {"q", "cell", "prime", "seed", "samples", "max_type", "expected",
                   "jacobian_rank_ok", "tropical_agree", "pass", "match_rate",
                   "converse_hits", "converse_ok"},
    "ContainmentReport": {"q", "outer", "inner", "prime", "seed", "samples", "predicate",
                          "montecarlo", "agree"},
    "BranchReport": {"label", "max_type", "type_counts"},
    "IntersectReport": {"q", "cells", "prime", "seed", "samples", "sampled", "reason", "branches"},
    "SurveyReport": {"q", "prime", "seed", "samples", "box_size", "type_counts", "outside",
                     "all_in_box"},
}


def test_report_key_sets():
    intersect = intersect_experiment(5, 3, [(1, 2), (2, 2)], 5, seed=8)
    reports = [
        verify_cell(5, 3, 1, 1, 5, seed=3),
        closure_contains(5, 3, (2, 1), (2, 2), 5, seed=5),
        intersect.branches[0],
        intersect,
        survey((5, 2), 5, seed=1),
    ]
    for rep in reports:
        assert set(rep.to_dict()) == REPORT_KEYS[type(rep).__name__]
    assert all(set(b.to_dict()) == REPORT_KEYS["BranchReport"] for b in intersect.to_dict()["branches"])
