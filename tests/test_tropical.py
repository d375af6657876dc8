import math

import numpy as np
import pytest

from nilcommute.burge import decode, two_part_code
from nilcommute.commutator import sample_commutator
from nilcommute.loci import sample_on_locus
from nilcommute.modpoly import DEFAULT_PRIME, TruncPoly, matmul, rank
from nilcommute.tropical import (
    closed_form_power,
    minplus_power,
    predicted_coranks,
    predicted_jordan_type,
)
from test_commutator import coords, mul_trunc, order, two_part

P = DEFAULT_PRIME
INF = math.inf


def order_matrix(e):
    """Entrywise orders [[ord a, ord g], [r + ord h, ord b]] of an element of
    the shape (u, u-r)."""
    a, b, g, h = coords(e)
    return ((order(a), order(g)), (e.q[0] - e.q[1] + order(h), order(b)))


def two_part_corank(e, s=1):
    """Corank of the s-th power of a two-part element from its coefficient
    rows, as `_two_part_types` reads it:

        min(s ord det Phi, (u-r) + ord row_1 Phi^s, u + ord row_2 Phi^s, 2u - r),

    with Phi = [[a, t^r g], [h, b]] and det Phi = ab - t^r g h taken on the
    zero-padded lifts: of degree at most 2u - r - 2, so read mod t^(2u-r)
    it is whole (mod t^u it is not, see `test_determinant_past_u`)."""
    u, m = e.q
    r = u - m
    a, b, g, h = coords(e)
    det = [(x - y) % e.p for x, y in zip(mul_trunc(a, b, u + m), (0,) * r + mul_trunc(g, h, u + m))]
    power = e
    for _ in range(s - 1):
        power = power @ e
    a, b, g, h = coords(power)
    row1, row2 = min(order(a), r + order(g)), min(order(h), order(b))
    return min(s * order(det), m + row1, u + row2, u + m)


class TestOrderMatrix:
    def test_jordan_point(self):
        e = two_part(
            5, 3, TruncPoly.t_power(1, 5), TruncPoly.t_power(1, 2),
            TruncPoly.zero(2), TruncPoly.zero(2),
        )
        assert order_matrix(e) == ((1, INF), (INF, 1))

    def test_generic_orders(self):
        e = two_part(
            5, 3, TruncPoly.t_power(2, 5), TruncPoly.t_power(1, 2),
            TruncPoly.t_power(0, 2), TruncPoly.t_power(0, 2),
        )
        assert order_matrix(e) == ((2, 0), (3, 1))

    def test_zero_element(self):
        e = two_part(5, 3, TruncPoly.zero(5), TruncPoly.zero(2),
                     TruncPoly.zero(2), TruncPoly.zero(2))
        assert order_matrix(e) == ((INF, INF), (INF, INF))


class TestMinPlus:
    def test_square_golden(self):
        assert minplus_power(((1, 0), (3, 1)), 2) == ((2, 1), (4, 2))

    def test_power_one(self):
        t = ((2, 0), (5, 1))
        assert minplus_power(t, 1) == t

    def test_path_minimum(self):
        assert minplus_power(((3, 0), (4, 1)), 4)[0][0] == 6


class TestClosedForm:
    def test_cube_entry(self):
        assert closed_form_power(1, 1, 3, 3)[0][0] == 3

    def test_matches_oracle_pointwise(self):
        assert closed_form_power(3, 1, 4, 4)[0][0] == 6
        assert closed_form_power(1, 1, 2, 2) == ((2, 1), (3, 2))

    def test_matches_oracle_exhaustive(self):
        for k in range(0, 7):
            for l in range(0, 7):
                for r in range(0, 9):
                    base = ((k, 0), (r, l))
                    for s in range(1, 13):
                        assert closed_form_power(k, l, r, s) == minplus_power(base, s), (k, l, r, s)

    def test_entry_bound(self):
        # top-left never exceeds the lower-left, which is the upper-right plus r
        for k in range(1, 6):
            for l in range(1, 6):
                for r in range(max(k, l) + 1, 9):
                    for s in range(2, 10):
                        t = closed_form_power(k, l, r, s)
                        assert t[0][0] <= t[1][0]
                        assert t[1][0] == t[0][1] + r


class TestCorankFromOrders:
    """The coefficient-row corank formula against the exact rank of the
    assembled matrix's powers."""

    @staticmethod
    def exact_corank(e, s=1):
        mat = power = e.assemble()
        for _ in range(s - 1):
            power = matmul(power, mat, P)
        return mat.shape[0] - rank(power, P)

    def check_profile(self, e):
        for s in range(1, e.assemble().shape[0] + 1):
            assert two_part_corank(e, s) == self.exact_corank(e, s), s

    def test_jordan_point(self):
        e = two_part(5, 3, TruncPoly.t_power(1, 5), TruncPoly.t_power(1, 2),
                     TruncPoly.zero(2), TruncPoly.zero(2))
        assert two_part_corank(e) == self.exact_corank(e) == 2
        self.check_profile(e)

    def test_cancellation_case(self):
        e = two_part(5, 3, TruncPoly.t_power(2, 5), TruncPoly.t_power(1, 2),
                     TruncPoly.t_power(0, 2), TruncPoly.t_power(0, 2))
        assert two_part_corank(e) == self.exact_corank(e) == 4
        self.check_profile(e)

    def test_diagonal_case(self):
        e = two_part(7, 4, TruncPoly.t_power(2, 7), TruncPoly.t_power(1, 3),
                     TruncPoly.zero(3), TruncPoly.zero(3))
        # min(k + l, k + u - r)
        assert two_part_corank(e) == self.exact_corank(e) == min(2 + 1, 2 + 3)
        self.check_profile(e)

    def test_determinant_past_u(self):
        # ab = t^5 vanishes mod t^u but is the least term: det Phi is read untruncated
        e = two_part(5, 2, TruncPoly.t_power(3, 5), TruncPoly.t_power(2, 3),
                     TruncPoly.zero(3), TruncPoly.zero(3))
        assert two_part_corank(e) == self.exact_corank(e) == 3 + 2
        self.check_profile(e)


class TestPredictions:
    def test_hook_cell(self):
        assert predicted_coranks(5, 3, 1, 2, 7) == [3, 4, 5, 6, 7, 7, 7]
        assert predicted_jordan_type(5, 3, 1, 2) == (5, 1, 1)

    def test_deep_cell(self):
        assert predicted_jordan_type(5, 3, 2, 2) == (4, 1, 1, 1)

    def test_corner_cell(self):
        assert predicted_jordan_type(5, 3, 1, 1) == (5, 2)

    def test_rejects_bad_cell(self):
        with pytest.raises(ValueError):
            predicted_jordan_type(5, 3, 3, 1)

    def test_computed_once_per_cell_and_bad_cells_raise_each_time(self):
        predicted_jordan_type.cache_clear()
        assert predicted_jordan_type(5, 3, 1, 2) is predicted_jordan_type(5, 3, 1, 2)
        assert predicted_jordan_type.cache_info()[:2] == (1, 1)  # hits, misses
        for _ in range(2):
            with pytest.raises(ValueError):
                predicted_jordan_type(5, 3, 3, 1)
        assert predicted_jordan_type.cache_info().currsize == 1

    def test_matches_decoded_codes_exhaustive(self):
        for u in range(3, 13):
            for r in range(2, u):
                for k in range(1, r):
                    for l in range(1, u - r + 1):
                        expect = decode(two_part_code(u, r, k, l))
                        assert predicted_jordan_type(u, r, k, l) == expect, (u, r, k, l)

    def test_profiles_are_valid_partitions(self):
        for u in range(3, 15):
            for r in range(2, u):
                for k in range(1, r):
                    for l in range(1, u - r + 1):
                        prof = predicted_coranks(u, r, k, l, 2 * u)
                        incs = [prof[0]] + [prof[i] - prof[i - 1] for i in range(1, len(prof))]
                        assert all(d >= 0 for d in incs)
                        assert all(incs[i] >= incs[i + 1] for i in range(len(incs) - 1))


class TestSoundness:
    def test_exact_orders_dominate_minplus(self):
        rng = np.random.default_rng(20)
        agree = 0
        total = 0
        for _ in range(150):
            e = sample_commutator((7, 4), rng)
            t = order_matrix(e)
            exact = e
            for s in range(2, 6):
                exact = exact @ e
                ts = minplus_power(t, s)
                got = order_matrix(exact)
                for i in (0, 1):
                    for j in (0, 1):
                        total += 1
                        # truncation can only push orders up; the g and b
                        # slots saturate at u - r, the a and shifted-h slots at u
                        cap = exact.q[j]
                        if ts[i][j] < cap:
                            assert got[i][j] >= ts[i][j]
                            agree += got[i][j] == ts[i][j]
                        else:
                            agree += 1
        assert agree / total >= 0.99

    def test_predicted_profile_matches_exact_on_locus(self):
        rng = np.random.default_rng(21)
        hits = 0
        trials = 60
        for i in range(trials):
            u, r = 7, 3
            k = 1 + int(rng.integers(r - 1))
            l = 1 + int(rng.integers(u - r))
            e = sample_on_locus(u, r, k, l, rng)
            mat = e.assemble()
            n = mat.shape[0]
            pred = predicted_coranks(u, r, k, l, n)
            power = mat
            ok = True
            for s in range(1, n + 1):
                ok = ok and (n - rank(power, P) == pred[s - 1])
                power = matmul(power, mat, P)
            hits += ok
        assert hits / trials >= 0.99
