"""Integer partition arithmetic.

Partitions are weakly decreasing tuples of positive integers; the empty
tuple is the zero partition.  The workhorse operation acts on frequency
sequences, i.e. multiplicity vectors indexed by part size: one
right-to-left scan of the span [low, top] from the largest part down to
the smallest both parses the almost-rectangular blocks and removes one box
from each (`_remove_blocks`).  It still walks the empty indices between
parts, so iterating it on (2m, m) is quadratic in m.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, zip_longest
from typing import Iterable, Iterator, Sequence


class Partition(tuple):
    """Weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple([int(x) for x in parts])
        prev = None
        for x in parts:
            if x < 1:
                raise ValueError(f"partition parts must be positive: {parts}")
            if prev is not None and x > prev:
                raise ValueError(f"partition parts must be weakly decreasing: {parts}")
            prev = x
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"


EMPTY = Partition()


def frequency(p: Sequence[int]) -> tuple[int, ...]:
    """Multiplicity vector of p: entry i-1 counts the parts equal to i."""
    return tuple(_freq1(p)[1:])


def _freq1(p: Sequence[int]) -> list[int]:
    # 1-indexed scratch copy of the frequency vector; a part below 1, which a
    # Partition never holds, would index from the end, so it is refused
    if p and not isinstance(p, Partition) and min(p) < 1:
        raise ValueError(f"partition parts must be positive: {tuple(p)}")
    f = [0] * ((max(p) + 1) if p else 1)
    for x in p:
        f[x] += 1
    return f


def _parts_from_freq1(f: Sequence[int]) -> Partition:
    out = []
    for j in range(len(f) - 1, 0, -1):
        out.extend([j] * f[j])
    return Partition(out)


def _remove_blocks(f: list[int], top: int, low: int = 1) -> list[int]:
    # Right-to-left backward-pair parse of [low, top], outside which f has no
    # part: take the largest occupied index j as a block top, move one of its
    # parts down to j - 1, and go on at j - 2, walking any empty index.  The
    # parse never reads j - 1 again, the only index the move raises, so one
    # scan both parses and removes.  Index 0 collects the parts that reach 0.
    tops = []
    j = top
    while j >= low:
        if f[j]:
            tops.append(j)
            f[j] -= 1
            f[j - 1] += 1
            j -= 2
        else:
            j -= 1
    return tops


def r_set(p: Sequence[int]) -> frozenset[int]:
    """Tops of the maximal almost-rectangular subpartitions, read from the top."""
    f = _freq1(p)
    return frozenset(_remove_blocks(f, len(f) - 1))


def ar_blocks(p: Sequence[int]) -> list[tuple[int, ...]]:
    """Maximal almost-rectangular blocks of p, largest parts first."""
    f = _freq1(p)
    return [tuple(x for x in p if j - 1 <= x <= j) for j in _remove_blocks(f, len(f) - 1)]


def classify(p: Sequence[int]) -> str:
    """'B' if the lowest almost-rectangular block has top 1, else 'A'."""
    f = _freq1(p)
    tops = _remove_blocks(f, len(f) - 1)
    return "B" if tops and tops[-1] == 1 else "A"


def delta(p: Sequence[int]) -> Partition:
    """Remove one box from the lowest row of the largest part of each block."""
    f = _freq1(p)
    _remove_blocks(f, len(f) - 1)
    return _parts_from_freq1(f)


def almost_rectangular(m: int, k: int) -> Partition:
    """The partition of m into k parts differing pairwise by at most one."""
    if not 1 <= k <= m:
        raise ValueError(f"need m >= k >= 1, got m={m}, k={k}")
    q, rem = divmod(m, k)
    return Partition([q + 1] * rem + [q] * (k - rem))


def is_stable(p: Sequence[int]) -> bool:
    """True iff consecutive parts differ by at least two."""
    return all(p[i] - p[i + 1] >= 2 for i in range(len(p) - 1))


def key(q: Sequence[int]) -> tuple[int, ...]:
    """Box side lengths (q_i - q_{i+1} - 1, ..., last part) of a stable partition."""
    if not q:
        raise ValueError("the zero partition has no key")
    if not is_stable(q):
        raise ValueError(f"not a stable partition: {tuple(q)}")
    return tuple(q[i] - q[i + 1] - 1 for i in range(len(q) - 1)) + (q[-1],)


def dominates(p: Sequence[int], p2: Sequence[int]) -> bool:
    """True iff p >= p2 in dominance order (equality allowed): no prefix sum
    of p falls below that of p2.  The sizes must be equal."""
    if sum(p) != sum(p2):
        raise ValueError(f"dominance compares equal sizes, got {sum(p)} and {sum(p2)}")
    return all(s >= 0 for s in accumulate(a - b for a, b in zip_longest(p, p2, fillvalue=0)))


def dominance_max(types: Iterable[Sequence[int]]) -> Partition:
    """The unique dominance maximum of a nonempty collection.

    Raises ValueError when the collection has no element dominating all
    others; sampled types report that as "no generic type"
    (`commutator._generic_type`).
    """
    distinct = {Partition(t) for t in types}
    if not distinct:
        raise ValueError("empty collection has no dominance maximum")
    for cand in distinct:
        if all(dominates(cand, other) for other in distinct):
            return cand
    raise ValueError(f"no dominance maximum among {sorted(distinct, reverse=True)}")


def min_ar_cover(p: Sequence[int], *, size_limit: int = 20) -> int:
    """Minimum number of almost-rectangular groups covering the parts of p.

    Exhaustive search over set partitions of the multiset of parts,
    memoized on the frequency vector.  Deliberately independent of the
    greedy block decomposition so it can serve as an oracle for it.
    """
    if sum(p) > size_limit:
        raise ValueError(f"|p|={sum(p)} exceeds the brute-force limit {size_limit}")
    return _min_cover(frequency(p))


@lru_cache(maxsize=None)
def _min_cover(freq: tuple[int, ...]) -> int:
    while freq and freq[-1] == 0:
        freq = freq[:-1]
    if not freq:
        return 0
    v = len(freq)  # largest remaining part
    below = freq[v - 2] if v >= 2 else 0
    best = math.inf
    # the group holding a largest part uses x parts of size v and y of size v-1
    for x in range(1, freq[v - 1] + 1):
        for y in range(below + 1):
            nxt = list(freq)
            nxt[v - 1] -= x
            if v >= 2:
                nxt[v - 2] -= y
            best = min(best, 1 + _min_cover(tuple(nxt)))
    return int(best)


def jordan_from_coranks(coranks: Sequence[int]) -> Partition:
    """Partition whose kernel-dimension profile matches the given coranks.

    coranks[s] is the corank of the s-th power.  The profile must start at
    0, increase weakly with weakly decreasing increments, and end on a
    repeated (stationary) value; anything else signals a rank bug upstream.
    """
    c = list(coranks)
    if not c or c[0] != 0:
        raise ValueError(f"corank profile must start at 0: {c}")
    incs = [c[i] - c[i - 1] for i in range(1, len(c))]
    if any(d < 0 for d in incs):
        raise ValueError(f"corank profile must be weakly increasing: {c}")
    if any(incs[i] < incs[i + 1] for i in range(len(incs) - 1)):
        raise ValueError(f"corank increments must be weakly decreasing: {c}")
    if incs and incs[-1] != 0:
        raise ValueError(f"corank profile did not reach a stationary value: {c}")
    deltas = [d for d in incs if d > 0]
    parts = [sum(1 for d in deltas if d >= j) for j in range(1, (deltas[0] + 1) if deltas else 1)]
    return Partition(parts)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, in reverse lexicographic order."""
    def gen(m: int, cap: int):
        if m == 0:
            yield ()
            return
        for head in range(min(m, cap), 0, -1):
            for tail in gen(m - head, head):
                yield (head,) + tail

    if n < 0:
        return
    for t in gen(n, n if max_part is None else min(max_part, n)):
        yield Partition(t)


def ar_notation(p: Sequence[int]) -> str:
    """Display grouping parts into almost-rectangular blocks, e.g. (4,[3]^2)."""
    if not p:
        return "()"
    bits = []
    for blk in ar_blocks(p):
        bits.append(str(blk[0]) if len(blk) == 1 else f"[{sum(blk)}]^{len(blk)}")
    return "(" + ",".join(bits) + ")"
