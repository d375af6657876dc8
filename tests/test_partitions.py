import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcommute.burge import dmap, encode
from nilcommute.partitions import (
    EMPTY,
    Partition,
    almost_rectangular,
    ar_blocks,
    ar_notation,
    classify,
    delta,
    dominance_max,
    dominates,
    frequency,
    is_stable,
    jordan_from_coranks,
    key,
    min_ar_cover,
    partitions_of,
    r_set,
)

FREQUENCY_READERS = [frequency, r_set, ar_blocks, classify, delta, encode, dmap]

partitions = st.lists(st.integers(1, 10), max_size=8).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def reference_ar_blocks(p):
    """Maximal almost-rectangular blocks of p, scanned from the largest part:
    each block takes every following part within one of its first."""
    blocks = []
    i = 0
    while i < len(p):
        j = i
        while j < len(p) and p[j] >= p[i] - 1:
            j += 1
        blocks.append(tuple(p[i:j]))
        i = j
    return blocks


class TestPartitionType:
    def test_valid(self):
        assert Partition([5, 2]) == (5, 2)
        assert Partition() == ()
        assert Partition([3, 3, 1]).size == 7

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([2, 3])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition([3, 0])

    @pytest.mark.parametrize("reader", [Partition, *FREQUENCY_READERS])
    def test_rejects_non_integer_parts(self, reader):
        # int() would truncate: (2.5,) would read as (2,)
        with pytest.raises(TypeError):
            reader((2.5,))

    @pytest.mark.parametrize("reader", FREQUENCY_READERS)
    @pytest.mark.parametrize("parts", [(3, -1), (3, 0), (-1,), (0,)])
    def test_frequency_readers_refuse_parts_below_one(self, reader, parts):
        # a part below 1 is refused, never read as some other partition
        with pytest.raises(ValueError, match="must be positive"):
            reader(parts)

    @pytest.mark.parametrize("reader", FREQUENCY_READERS)
    @pytest.mark.parametrize("parts", [(2, 5, 5, 1), (1, 3), (1, 2)])
    def test_frequency_readers_sort_their_input(self, reader, parts):
        # only the multiset of parts counts: a step on unsorted runs would
        # give a wrong answer with no error
        assert reader(parts) == reader(Partition(sorted(parts, reverse=True)))


class TestFrequency:
    def test_worked_example(self):
        assert frequency((7, 6, 5, 5, 5, 2, 2, 1)) == (1, 2, 0, 0, 3, 1, 1)

    def test_empty(self):
        assert frequency(EMPTY) == ()

    def test_two_threes(self):
        assert frequency((3, 3)) == (0, 0, 2)

    @given(partitions)
    def test_weighted_sum_is_size(self, p):
        f = frequency(p)
        assert sum((i + 1) * m for i, m in enumerate(f)) == p.size


class TestRSet:
    def test_worked_example(self):
        assert r_set((7, 6, 5, 5, 5, 2, 2, 1)) == {7, 5, 2}

    def test_single_block(self):
        assert r_set((2, 2)) == {2}

    def test_empty(self):
        assert r_set(EMPTY) == frozenset()

    @given(partitions)
    def test_matches_block_decomposition(self, p):
        # independent reading: maximal almost-rectangular prefixes from the top
        assert r_set(p) == {blk[0] for blk in reference_ar_blocks(p)}

    @given(partitions)
    def test_blocks_are_almost_rectangular(self, p):
        for blk in ar_blocks(p):
            assert blk[0] - blk[-1] <= 1


class TestFrequencyParse:
    def test_blocks_and_frequency_match_scans_exhaustive(self):
        for n in range(19):
            for p in partitions_of(n):
                assert ar_blocks(p) == reference_ar_blocks(p)
                assert frequency(p) == tuple(p.count(i) for i in range(1, max(p, default=0) + 1))


class TestClassify:
    def test_worked_example(self):
        assert classify((7, 6, 5, 5, 5, 2, 2, 1)) == "A"

    def test_ones(self):
        assert classify((1, 1)) == "B"

    def test_empty(self):
        assert classify(EMPTY) == "A"


class TestDelta:
    def test_figure_chain(self):
        p = Partition((7, 6, 5, 5, 5, 2, 2, 1))
        d1 = delta(p)
        assert d1 == (6, 6, 5, 5, 4, 2, 1, 1)
        d2 = delta(d1)
        # the drawn diagram (and the box count |dP| - |r_set(dP)| = 27)
        # ends in three parts of size 1
        assert d2 == (6, 5, 5, 5, 3, 1, 1, 1)
        assert delta(d2) == (5, 5, 5, 5, 2, 1, 1)

    def test_single_box(self):
        assert delta((1,)) == EMPTY

    def test_empty_fixed(self):
        assert delta(EMPTY) == EMPTY

    @given(partitions)
    def test_size_law(self, p):
        assert delta(p).size == p.size - len(r_set(p))

    @given(partitions)
    def test_length_law(self, p):
        expected = len(p) - (1 if classify(p) == "B" else 0)
        assert len(delta(p)) == expected

    @pytest.mark.parametrize("m,k", [(7, 3), (9, 4), (5, 5), (6, 2)])
    def test_almost_rectangular_law(self, m, k):
        if m > k:
            assert delta(almost_rectangular(m, k)) == almost_rectangular(m - 1, k)


class TestAlmostRectangular:
    def test_with_remainder(self):
        assert almost_rectangular(7, 3) == (3, 2, 2)

    def test_exact(self):
        assert almost_rectangular(4, 2) == (2, 2)

    def test_all_ones(self):
        assert almost_rectangular(5, 5) == (1, 1, 1, 1, 1)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            almost_rectangular(2, 3)


class TestStability:
    def test_examples(self):
        assert is_stable((5, 2))
        assert not is_stable((5, 4))
        assert is_stable((7,))
        assert is_stable(EMPTY)

    def test_key(self):
        assert key((8, 5, 2)) == (2, 2, 2)
        assert key((5, 2)) == (2, 2)
        assert key((7,)) == (7,)

    def test_key_rejects_unstable(self):
        with pytest.raises(ValueError):
            key((5, 4))
        with pytest.raises(ValueError):
            key(EMPTY)


class TestDominance:
    def test_ge(self):
        assert dominates((5, 1, 1), (4, 2, 1)) and not dominates((4, 2, 1), (5, 1, 1))

    def test_incomparable(self):
        assert not dominates((4, 1, 1), (3, 3)) and not dominates((3, 3), (4, 1, 1))

    def test_equal(self):
        assert dominates((3, 2), (3, 2)) and dominates((3, 2, 0), (3, 2))

    def test_rejects_unequal_sizes(self):
        with pytest.raises(ValueError):
            dominates((3,), (2,))
        with pytest.raises(ValueError):
            dominates((2,), (3,))

    def test_partial_order_on_n8(self):
        ps = list(partitions_of(8))
        for a in ps:
            assert dominates(a, a)
            for b in ps:
                ab, ba = dominates(a, b), dominates(b, a)
                if ab and ba:
                    assert a == b  # antisymmetry
                if ab:
                    for c in ps:
                        if dominates(b, c):
                            assert dominates(a, c)  # transitivity

    def test_dominance_max(self):
        assert dominance_max([(4, 2), (3, 3), (6,)]) == (6,)
        with pytest.raises(ValueError):
            dominance_max([(4, 1, 1), (3, 3)])

    @given(data=st.data(), n=st.integers(1, 8))
    def test_dominance_max_matches_pairwise_search(self, data, n):
        # one distinct type returns without a comparison; the result and the
        # "no dominance maximum" message stay those of the pairwise search,
        # on Partitions, tuples and lists alike
        def reference(types):
            distinct = {Partition(t) for t in types}
            for cand in distinct:
                if all(dominates(cand, other) for other in distinct):
                    return cand
            raise ValueError(f"no dominance maximum among {sorted(distinct, reverse=True)}")

        shapes = list(partitions_of(n))
        forms = st.sampled_from([Partition, tuple, list])
        types = data.draw(st.lists(st.tuples(st.sampled_from(shapes), forms).map(lambda tf: tf[1](tf[0])),
                                   min_size=1, max_size=6))
        try:
            expected = reference(types)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                dominance_max(types)
            assert str(got.value) == str(exc)
        else:
            got = dominance_max(types)
            assert got == expected and isinstance(got, Partition)
        if len({tuple(t) for t in types}) == 1 and isinstance(types[0], Partition):
            assert dominance_max(types) is types[0]


class TestMinArCover:
    def test_worked_example(self):
        assert min_ar_cover((5, 4, 3, 3, 3, 2, 2, 1), size_limit=23) == 3

    def test_almost_rectangular_is_one(self):
        assert min_ar_cover((3, 2, 2)) == 1
        assert min_ar_cover((4, 4)) == 1

    def test_second_example(self):
        assert min_ar_cover((7, 6, 5, 5, 5, 2, 2, 1), size_limit=33) == 3

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            min_ar_cover(Partition([21]))

    def test_empty(self):
        assert min_ar_cover(EMPTY) == 0


class TestJordanFromCoranks:
    def test_profile_511(self):
        assert jordan_from_coranks((0, 3, 4, 5, 6, 7, 7)) == (5, 1, 1)

    def test_profile_21(self):
        assert jordan_from_coranks((0, 2, 3, 3)) == (2, 1)

    def test_jordan_block_profile(self):
        u, v = 5, 2
        prof = [0] + [min(u, s) + min(v, s) for s in range(1, 7)]
        assert jordan_from_coranks(prof) == (5, 2)

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            jordan_from_coranks((0, 2, 1, 1))

    def test_rejects_nonconcave(self):
        with pytest.raises(ValueError):
            jordan_from_coranks((0, 1, 3, 3))

    def test_rejects_nonstationary(self):
        with pytest.raises(ValueError):
            jordan_from_coranks((0, 2, 4))

    def test_inverts_corank_profile_small(self):
        for n in range(0, 13):
            for p in partitions_of(n):
                prof = [0]
                s = 1
                while len(prof) < 2 or prof[-1] != prof[-2]:
                    prof.append(sum(min(x, s) for x in p))
                    s += 1
                assert jordan_from_coranks(prof) == p


class TestNotation:
    def test_blocks_display(self):
        assert ar_notation((4, 1, 1, 1)) == "(4,[3]^3)"
        assert ar_notation((5, 1, 1)) == "(5,[2]^2)"
        assert ar_notation((5, 2)) == "(5,2)"
        assert ar_notation(EMPTY) == "()"


def test_partitions_of_counts():
    # p(0..10) = 1 1 2 3 5 7 11 15 22 30 42
    counts = [sum(1 for _ in partitions_of(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
