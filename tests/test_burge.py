import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcommute import burge
from nilcommute.burge import (
    BurgeDecodeError,
    BurgeWord,
    box_codes,
    box_partitions,
    decode,
    dmap,
    encode,
    table,
    two_part_code,
)
from nilcommute.partitions import (
    EMPTY,
    Partition,
    classify,
    delta,
    is_stable,
    key,
    min_ar_cover,
    partitions_of,
)
from test_partitions import reference_ar_blocks

partitions = st.lists(st.integers(1, 9), max_size=8).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def reference_preimage(f, want_b):
    """The frequency vector with one removal step to f and given bottom class.

    The block tops J of a preimage must tile the support of f: a top j
    covers the indices {j-1, j}, consecutive tops sit at least two apart
    with no support strictly between the blocks, and a top j >= 2 must find
    f[j-1] >= 1 to take back the box it pushed down.  Scanning the support
    downward, the only freedom is whether the current support maximum m is
    covered by a top at m or at m+1; a bottom top at 1 (and nothing else)
    may sit below the support.  Injectivity of the code means at most one
    choice sequence survives the bottom-class requirement.
    """
    support = [j for j in range(len(f) - 1, 0, -1) if f[j] > 0]
    results = []

    def extend(tops, ptr):
        if len(results) > 1:
            return
        bound = (tops[-1] - 2) if tops else math.inf
        if ptr >= len(support):
            if tops and tops[-1] == 1:
                if want_b:
                    results.append(tops)
                return
            if not want_b:
                results.append(tops)
            elif bound >= 1:
                results.append(tops + [1])
            return
        m = support[ptr]
        if m > bound:
            return
        for j in (m + 1, m):
            if j > bound or (j >= 2 and f[j - 1] == 0):
                continue
            q = ptr
            while q < len(support) and support[q] >= j - 1:
                q += 1
            extend(tops + [j], q)

    extend([], 0)
    if not results:
        return None
    if len(results) > 1:
        raise RuntimeError(f"ambiguous removal-step preimage, this is a bug: {results}")
    tops = results[0]
    out = list(f) + [0] * (max(tops, default=0) + 1 - len(f))
    for j in tops:
        out[j] += 1
        if j >= 2:
            out[j - 1] -= 1
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def reference_decode(word):
    """Decode by searching each removal step's preimage over the choice of
    top at or above each support maximum; the decoder's test oracle."""
    w = word if isinstance(word, BurgeWord) else BurgeWord(str(word))
    f = [0]
    for i in range(len(w) - 2, -1, -1):
        g = reference_preimage(f, w[i] == "b")
        if g is None:
            raise BurgeDecodeError(f"{str(w)!r} is not a code (no preimage at letter {i + 1})")
        if len(g) == 1:
            raise BurgeDecodeError(f"{str(w)!r} is not a code (hits zero before its last letter)")
        f = g
    # the partition with f[j] parts equal to j
    return Partition(j for j in range(len(f) - 1, 0, -1) for _ in range(f[j]))


def reference_step(p):
    """One removal step on the parts: one box off each block's first part."""
    parts = [x for blk in reference_ar_blocks(p) for x in (blk[0] - 1, *blk[1:]) if x]
    return Partition(sorted(parts, reverse=True))


def reference_encode(p):
    """Code of p by iterating the removal step on its parts, not on its
    frequency vector: the letter is 'b' when the last block's top is 1, and
    the zero partition adds the final 'a'; the encoder's test oracle."""
    p, letters = Partition(p), []
    while p:
        letters.append("b" if reference_ar_blocks(p)[-1][0] == 1 else "a")
        p = reference_step(p)
    return "".join(letters) + "a"


def _b_run_ends(code):
    """The positions ending the 'b' runs of a code, largest first."""
    runs = [(letter, len(list(g))) for letter, g in itertools.groupby(code)]
    ends = itertools.accumulate(length for _, length in runs)
    return tuple(sorted((end for (letter, _), end in zip(runs, ends) if letter == "b"), reverse=True))


def _span_cases():
    """Partitions whose smallest part is above 1 or whose runs leave gaps:
    every partition of n <= 14 with each part raised by 1 and by 4, and the
    families (n,), (n, 1), (n, n-2) and (n, n-2, 1) for n <= 60."""
    for n in range(15):
        for p in partitions_of(n):
            yield from (Partition(x + lift for x in p) for lift in (1, 4))
    for n in range(1, 61):
        yield from (Partition(p) for p in [(n,), (n, 1), (n, n - 2), (n, n - 2, 1)] if min(p) >= 1)


def _decode_or_error(decoder, word):
    try:
        return decoder(word)
    except BurgeDecodeError:
        return BurgeDecodeError


class TestBurgeWord:
    def test_tokens_roundtrip(self):
        w = BurgeWord("baabbaaaaaaabbbbba")
        assert w.tokens() == "b a2 b2 a7 b5 a"
        assert BurgeWord.from_tokens(w.tokens()) == w
        assert BurgeWord.from_tokens("baab ba") == "baabba"
        assert BurgeWord.from_tokens("b02 a01") == "bba"

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            BurgeWord("abc")
        with pytest.raises(ValueError):
            BurgeWord("")

    @pytest.mark.parametrize("text", ["xa", "abxba", "a a", "aBa", "ab\na", "bäa"])
    def test_rejects_other_letters_anywhere(self, text):
        with pytest.raises(ValueError, match="nonempty word over"):
            BurgeWord(text)

    def test_rejects_non_terminal(self):
        with pytest.raises(ValueError):
            BurgeWord("ab")

    @pytest.mark.parametrize("text", ["b2 a0 b a", "b0 a", "a0", "b² a", "b١ a", "a-1", "b+2 a"])
    def test_run_count_is_ascii_decimal_and_positive(self, text):
        with pytest.raises(ValueError, match="bad code token"):
            BurgeWord.from_tokens(text)


class TestEncode:
    def test_worked_example(self):
        assert encode((5, 4, 3, 3, 3, 2, 2, 1)) == "baabbaaaaaaabbbbba"

    def test_empty(self):
        assert encode(EMPTY) == "a"

    def test_almost_rectangular_rule(self):
        # code of the m-into-k shape is a^(m-k) b^k a
        assert encode((2, 2)) == "aabba"
        assert encode((3, 2, 2)) == "aaaabbba"

    def test_matches_reference_encoder_exhaustive(self):
        for n in range(23):
            for p in partitions_of(n):
                code = reference_encode(p)
                assert encode(p) == code, p
                assert delta(p) == reference_step(p), p
                # the parts of D(p) are the positions ending the 'b' runs
                assert dmap(p) == _b_run_ends(code)

    def test_span_bound_matches_the_references(self):
        # these shapes start above 1 and leave gaps between runs, so a step
        # that mishandles a gap changes some code
        for p in _span_cases():
            code = reference_encode(p)
            assert encode(p) == code, p
            assert decode(code) == reference_decode(code) == p, p
            assert dmap(p) == _b_run_ends(code), p

    def test_each_step_takes_and_returns_runs(self, monkeypatch):
        # a step visits each run once, so it never meets a gap index or an
        # empty run as long as every step takes and returns well-formed runs:
        # values strictly monotone and at least 1 (no part left at 0 after a
        # removal), counts at least 1
        def check(runs, descending):
            values = [value for value, _ in runs]
            assert values == sorted(set(values), reverse=descending), runs
            assert all(value >= 1 and count >= 1 for value, count in runs), runs

        def checked_removal(runs):
            check(runs, True)
            out, top = remove_blocks(runs)
            check(out, True)
            steps.append("remove")
            return out, top

        def checked_preimage(runs, want_b):
            check(runs, False)
            out = add_blocks(runs, want_b)
            check(out, False)
            steps.append("add")
            return out

        remove_blocks, add_blocks, steps = burge._remove_blocks, burge._add_blocks, []
        monkeypatch.setattr(burge, "_remove_blocks", checked_removal)
        monkeypatch.setattr(burge, "_add_blocks", checked_preimage)
        for p in _span_cases():
            steps.clear()
            code = encode(p)
            assert decode(code) == p
            # one removal and one preimage per letter but the last
            assert steps.count("remove") == steps.count("add") == len(code) - 1, p

    @pytest.mark.parametrize("n", [1, 2, 500, 100_000])
    def test_closed_forms(self, n):
        # one part loses a box a step, in class 'a' until it is 1; n ones
        # are one block with top 1 until they are gone; a step visits each
        # run once, so n = 100,000 takes milliseconds
        for p, code in [((n,), "a" * (n - 1) + "ba"), ((1,) * n, "b" * n + "a")]:
            assert encode(p) == code
            assert decode(code) == p
            assert dmap(p) == (n,)

    @pytest.mark.parametrize("m", [2, 500, 100_000])
    def test_two_parts_far_apart(self, m):
        # (2m, m): each part loses a box a step, in class 'a' until the
        # smaller is 1; a step visits only the runs, not the gap between
        # them, so m = 100,000 takes milliseconds
        code = "a" * (m - 1) + "b" + "a" * (m - 1) + "ba"
        assert encode((2 * m, m)) == code
        assert decode(code) == (2 * m, m)
        assert dmap((2 * m, m)) == (2 * m, m)

    def test_step_chain(self):
        # the full 18-step iterate chain with classes
        chain = [
            ((5, 4, 3, 3, 3, 2, 2, 1), "b"),
            ((4, 4, 3, 3, 2, 2, 2), "a"),
            ((4, 3, 3, 3, 2, 2, 1), "a"),
            ((3, 3, 3, 3, 2, 1, 1), "b"),
            ((3, 3, 3, 2, 2, 1), "b"),
            ((3, 3, 2, 2, 2), "a"),
            ((3, 2, 2, 2, 2), "a"),
            ((2, 2, 2, 2, 2), "a"),
            ((2, 2, 2, 2, 1), "a"),
            ((2, 2, 2, 1, 1), "a"),
            ((2, 2, 1, 1, 1), "a"),
            ((2, 1, 1, 1, 1), "a"),
            ((1, 1, 1, 1, 1), "b"),
            ((1, 1, 1, 1), "b"),
            ((1, 1, 1), "b"),
            ((1, 1), "b"),
            ((1,), "b"),
            ((), "a"),
        ]
        cur = Partition((5, 4, 3, 3, 3, 2, 2, 1))
        for expected, letter in chain:
            assert cur == expected
            assert encode(cur)[0] == letter
            cur = delta(cur)


class TestDecode:
    def test_goldens(self):
        assert decode(BurgeWord("abaaba")) == (5, 2)  # a b a2 b a
        assert decode(BurgeWord.from_tokens("b2 a2 b a")) == (5, 1, 1)
        assert decode(BurgeWord("aabba")) == (2, 2)

    def test_invalid_words(self):
        # a code never revisits the zero partition, so the letter before the
        # final 'a' must be 'b'
        for bad in ["aa", "aaa", "abaa", "bbaa", "babaa"]:
            with pytest.raises(BurgeDecodeError):
                decode(BurgeWord(bad))

    def test_every_ba_terminated_word_decodes(self):
        import itertools

        for m in range(2, 11):
            for mid in itertools.product("ab", repeat=m - 2):
                w = BurgeWord("".join(mid) + "ba")
                assert encode(decode(w)) == w

    def test_matches_reference_decoder_exhaustive(self):
        # every word over {a, b} ending in 'a' with at most 14 letters
        for m in range(1, 15):
            for mid in itertools.product("ab", repeat=m - 1):
                w = BurgeWord("".join(mid) + "a")
                assert _decode_or_error(decode, w) == _decode_or_error(reference_decode, w), w

    def test_preimage_law_exhaustive(self):
        # one removal step undoes the preimage, which lands in the class
        # asked for and comes back as the ascending runs of its parts
        for n in range(21):
            for p in partitions_of(n):
                for want_b in (False, True):
                    runs = [[value, p.count(value)] for value in sorted(set(p))]
                    out = burge._add_blocks(runs, want_b)
                    g = Partition(sorted((v for v, c in out for _ in range(c)), reverse=True))
                    assert delta(g) == p
                    assert classify(g) == ("B" if want_b else "A")
                    assert out == [[value, g.count(value)] for value in sorted(set(g))]

    def test_trivial(self):
        assert decode(BurgeWord("a")) == EMPTY
        assert decode(BurgeWord("ba")) == (1,)

    def test_roundtrip_exhaustive_small(self):
        for n in range(0, 19):
            for p in partitions_of(n):
                assert decode(encode(p)) == p

    @given(partitions)
    def test_roundtrip_random(self, p):
        assert decode(encode(p)) == p


class TestDmap:
    def test_worked_example(self):
        assert dmap((5, 4, 3, 3, 3, 2, 2, 1)) == (17, 5, 1)

    def test_single_run(self):
        assert dmap((2, 2)) == (4,)
        assert dmap((1,)) == (1,)

    def test_empty(self):
        assert dmap(EMPTY) == EMPTY

    def test_laws_small(self):
        for n in range(0, 15):
            for p in partitions_of(n):
                d = dmap(p)
                assert is_stable(d)
                assert dmap(d) == d
                assert len(d) == min_ar_cover(p)


class TestBoxes:
    def test_two_part_codes(self):
        assert two_part_code(5, 3, 2, 2) == "bbabba"
        assert two_part_code(5, 3, 1, 1) == "abaaba"

    def test_box_codes_goldens(self):
        assert box_codes((8, 5, 2))[(1, 1, 1)] == "abaabaaba"
        assert box_codes((7,))[(3,)] == "aaaabbba"
        # the two-part special form agrees with the general one
        for (k, l), code in box_codes((5, 2)).items():
            assert code == two_part_code(5, 3, k, l)

    def test_box_codes_rejects_unstable(self):
        with pytest.raises(ValueError):
            box_codes((5, 4))

    def test_box_partitions_goldens(self):
        cells = box_partitions((5, 2))
        assert cells == {
            (1, 1): (5, 2),
            (1, 2): (5, 1, 1),
            (2, 1): (4, 2, 1),
            (2, 2): (4, 1, 1, 1),
        }
        assert box_partitions((8, 5, 2))[(1, 1, 1)] == (8, 5, 2)
        assert box_partitions((3, 1)) == {(1, 1): (3, 1)}

    @pytest.mark.parametrize("q", [(5, 2), (7, 3), (8, 5, 2), (9, 6, 3), (10, 7, 4, 1)])
    def test_box_theorem_checks(self, q):
        q = Partition(q)
        cells = box_partitions(q)
        sizes = key(q)
        count = 1
        for s in sizes:
            count *= s
        assert len(cells) == count
        assert len(set(cells.values())) == len(cells)
        for idx, p in cells.items():
            assert len(p) == sum(idx)
            assert dmap(p) == q
        assert cells[tuple(1 for _ in sizes)] == q  # the minimal corner

    def test_box_is_the_whole_preimage_exhaustive(self):
        # `survey` reads box membership as dmap(t) == q and the box size as
        # the product of the key, without decoding the box
        preimages = {}
        for n in range(1, 21):
            for p in partitions_of(n):
                preimages.setdefault(dmap(p), set()).add(p)
        stable = [q for n in range(1, 21) for q in partitions_of(n) if is_stable(q)]
        assert set(preimages) == set(stable)
        for q in stable:
            cells = box_partitions(q)
            assert set(cells.values()) == preimages[q], q
            assert len(preimages[q]) == len(cells) == math.prod(key(q)), q


class TestTable:
    def test_golden_52(self):
        assert table((5, 2)) == [[(5, 2), (5, 1, 1)], [(4, 2, 1), (4, 1, 1, 1)]]

    def test_single_row(self):
        assert table((4, 2)) == [[(4, 2), (4, 1, 1)]]

    def test_last_column_shape(self):
        # (u, r) = (7, 3): last column entry (1, 4) is the hook (7, 1, 1, 1, 1)
        assert table((7, 4))[0][3] == (7, 1, 1, 1, 1)

    def test_rejects_non_two_part(self):
        with pytest.raises(ValueError):
            table((8, 5, 2))
        with pytest.raises(ValueError):
            table((6, 5))

    @pytest.mark.parametrize("u,r", [(5, 3), (7, 4), (8, 3), (9, 5)])
    def test_delta_compatibility(self, u, r):
        # removing one block step maps the (u+1, u+1-r) table onto the (u, u-r) one
        big = table((u + 1, u + 1 - r))
        small = table((u, u - r))
        for k in range(1, r):
            for l in range(1, u + 1 - r + 1):
                target = small[k - 1][min(l, u - r) - 1]
                assert delta(big[k - 1][l - 1]) == target


class TestBoxCache:
    def test_callers_get_fresh_containers(self):
        cells = box_partitions((5, 2))
        cells[(1, 1)] = Partition((1,))
        cells.clear()
        assert box_partitions((5, 2))[(1, 1)] == (5, 2)
        grid = table((5, 2))
        grid[0][0] = Partition((1,))
        grid.append([])
        assert table((5, 2)) == [[(5, 2), (5, 1, 1)], [(4, 2, 1), (4, 1, 1, 1)]]

    def test_box_decoded_once_per_shape(self, monkeypatch):
        calls = []

        def counting_decode(word):
            calls.append(word)
            return decode(word)

        monkeypatch.setattr(burge, "decode", counting_decode)
        burge._box.cache_clear()
        first = table((13, 4))
        assert table((13, 4)) == first
        assert len(calls) == 8 * 4  # one decode per cell of the 8 x 4 box, for both calls
        burge._box.cache_clear()

    def test_unstable_shape_raises_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="not a stable partition"):
                box_partitions((5, 4))
            with pytest.raises(ValueError, match="not a stable partition"):
                table((6, 5))


def test_encode_decode_on_box_codes():
    for q in [(5, 2), (7, 3), (9, 5), (8, 5, 2), (10, 7, 4, 1)]:
        for code in box_codes(Partition(q)).values():
            assert encode(decode(code)) == code
