"""Binary-word coding of partitions and the box construction.

A partition is encoded by iterating the block-removal step and recording,
for each iterate, whether its lowest almost-rectangular block reaches part
size 1 ('b') or not ('a'); the terminal zero partition contributes the
final 'a'.  A step is one pass over the runs of equal parts that parses the
blocks and removes their boxes at once (`partitions._remove_blocks`).  The
codes are exactly 'a' and the words ending in 'ba', and decoding inverts
one removal step per letter, right to left, by the same pass over the runs
read upwards (`_add_blocks`).  Reading the word left to right, the ends of
the 'b' runs are exactly the parts of the stable partition attached to the
input, and for a stable shape the full preimage of that map is a box of
partitions indexed by its key.  Each box is decoded once per shape and
memoized; `box_partitions` and `table` copy it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .partitions import Partition, _parts_from_runs, _remove_blocks, _runs, key


class BurgeDecodeError(ValueError):
    """The word is not the code of any partition: it has two or more
    letters and does not end in 'ba'."""


class BurgeWord(str):
    """Word over {a, b}; 'a' marks class-A iterates and 'b' class-B ones."""

    __slots__ = ()

    def __new__(cls, letters: str):
        if not letters or letters.strip("ab"):  # strip leaves any other letter
            raise ValueError(f"a code is a nonempty word over 'a'/'b': {letters!r}")
        if not letters.endswith("a"):
            raise ValueError(f"a code always ends with 'a': {letters!r}")
        return str.__new__(cls, letters)

    @classmethod
    def from_tokens(cls, text: str) -> "BurgeWord":
        """Parse run-length tokens like 'b a2 b2 a7 b5 a' (plain runs allowed).

        A run count is ASCII decimal and at least 1.
        """
        letters = []
        for tok in text.split():
            count = tok[1:]
            if count.isascii() and count.isdigit() and tok[0] in "ab" and int(count) >= 1:
                letters.append(tok[0] * int(count))
            elif tok and not set(tok) - {"a", "b"}:
                letters.append(tok)
            else:
                raise ValueError(f"bad code token {tok!r}")
        return cls("".join(letters))

    def tokens(self) -> str:
        """Run-length display form, e.g. 'b a2 b2 a7 b5 a'."""
        out = []
        for letter, grp in itertools.groupby(self):
            n = len(list(grp))
            out.append(letter if n == 1 else f"{letter}{n}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"BurgeWord({str(self)!r})"


def encode(p) -> BurgeWord:
    """Code of p: one letter per block-removal iterate, ending at zero.

    Each iterate is one `_remove_blocks` pass over the runs of equal parts;
    its letter is 'b' when the lowest block top is 1.
    """
    runs = _runs(p)
    letters = []
    while runs:
        runs, top = _remove_blocks(runs)
        letters.append("b" if top == 1 else "a")
    letters.append("a")
    return BurgeWord("".join(letters))


def _add_blocks(runs: list[list[int]], want_b: bool) -> list[list[int]]:
    """Preimage in the given class of ascending runs under the removal step.

    `_remove_blocks` read upwards: each block keeps its bottom, so a run is
    a bottom unless it is one above the previous bottom (the block's top).
    One part of each bottom moves up a value, joining the top run or a run
    of its own.  In class 'b' a part at 0 is the first bottom.
    """
    out, bottom = [], -1
    if want_b:
        out.append([1, 1])
        bottom = 0
    for value, count in runs:
        if value == bottom + 1:
            out[-1][1] += count
            continue
        bottom = value
        if count > 1:
            out.append([value, count - 1])
        out.append([value + 1, 1])
    return out


def decode(word) -> Partition:
    """The unique partition whose code is the given word.

    The codes are exactly 'a' and the words ending in 'ba': the zero
    partition's class-'a' preimage is zero, and every other preimage adds
    boxes, so every letter but the last inverts one removal step
    (`_add_blocks`) on the runs of equal parts.
    """
    w = word if isinstance(word, BurgeWord) else BurgeWord(str(word))
    if w[-2:-1] == "a":
        raise BurgeDecodeError(f"{str(w)!r} is not a code: a code is 'a' or ends in 'ba'")
    runs = []
    for letter in reversed(w[:-1]):
        runs = _add_blocks(runs, letter == "b")
    return _parts_from_runs(reversed(runs))


def dmap(p) -> Partition:
    """Largest Jordan type commuting generically with p, read off the code.

    The parts are the positions ending each run of 'b' letters, that is,
    one past the start of each "ba" in the code.
    """
    w = encode(p)
    ends = []
    i = w.rfind("ba")
    while i >= 0:
        ends.append(i + 1)
        i = w.rfind("ba", 0, i)
    return Partition(ends)


def check_cell(u: int, r: int, k: int, l: int) -> None:
    """Validate a table cell (k, l) for the two-part shape (u, u-r)."""
    if not u > r >= 2:
        raise ValueError(f"need u > r >= 2, got u={u}, r={r}")
    if not (1 <= k <= r - 1 and 1 <= l <= u - r):
        raise ValueError(f"cell ({k},{l}) outside the {r - 1}x{u - r} table of ({u},{u - r})")


def two_part_code(u: int, r: int, k: int, l: int) -> BurgeWord:
    """Code of the (k, l) entry of the table attached to (u, u-r)."""
    check_cell(u, r, k, l)
    return BurgeWord("a" * (u - r - l) + "b" * l + "a" * (r - k) + "b" * k + "a")


def box_codes(q) -> dict[tuple[int, ...], BurgeWord]:
    """Codes of the box of a stable shape, indexed by 1-based box positions.

    Position I = (i_1, ..., i_l) against the key (s_1, ..., s_l) yields the
    word  a^(s_l - i_l) b^(i_l) a^(s_{l-1} - i_{l-1} + 1) b^(i_{l-1}) ... b^(i_1) a.
    """
    s = key(q)
    out: dict[tuple[int, ...], BurgeWord] = {}
    for idx in itertools.product(*(range(1, si + 1) for si in s)):
        chunks = []
        last = len(s) - 1
        for pos in range(last, -1, -1):
            alphas = s[pos] - idx[pos] + (0 if pos == last else 1)
            chunks.append("a" * alphas + "b" * idx[pos])
        out[idx] = BurgeWord("".join(chunks) + "a")
    return out


@lru_cache(maxsize=128)
def _box(q: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], Partition], ...]:
    """The decoded box of a stable shape as (index, partition) pairs, once
    per shape.  A shape that raises is not cached, so it raises every time."""
    out = []
    for idx, code in box_codes(q).items():
        p = decode(code)
        if len(p) != sum(idx):
            raise RuntimeError(f"box cell {idx} decoded to {p} with {len(p)} parts")
        out.append((idx, p))
    return tuple(out)


def box_partitions(q) -> dict[tuple[int, ...], Partition]:
    """Decoded box of a stable shape; cell I has sum(I) parts.

    The box is decoded once per shape; each call returns a new dict.
    """
    return dict(_box(tuple(q)))


def table(q) -> list[list[Partition]]:
    """The (r-1) x (u-r) grid of the box of a two-part stable shape.

    Row k, column l (1-based) is the box cell (i_1, i_2) = (k, l).
    """
    q = Partition(q)
    if len(q) != 2:
        raise ValueError(f"table needs a two-part stable partition, got {tuple(q)}")
    cells = box_partitions(q)
    s1, s2 = key(q)
    return [[cells[k, l] for l in range(1, s2 + 1)] for k in range(1, s1 + 1)]
