"""Integer partition arithmetic.

Partitions are weakly decreasing tuples of positive integers; the empty
tuple is the zero partition.  The workhorse operation acts on the runs of
equal parts, held as [value, count] pairs from the largest value down: one
pass over the runs both parses the almost-rectangular blocks and removes
one box from each (`_remove_blocks`), so a step costs the number of runs,
whatever the gaps between the parts.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate, zip_longest
from typing import Iterable, Iterator, Sequence


class Partition(tuple):
    """Weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple([operator.index(x) for x in parts])  # refuses 2.5, unlike int()
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
    counts = dict(_runs(p))
    return tuple(counts.get(i, 0) for i in range(1, max(counts, default=0) + 1))


def _runs(p: Sequence[int]) -> list[list[int]]:
    # [value, count] runs of equal parts, largest first; other input is made
    # a Partition, which refuses a part below 1, after sorting its parts
    if not isinstance(p, Partition):
        p = Partition(sorted(p, reverse=True))
    runs, last = [], 0
    for x in p:
        if x == last:
            runs[-1][1] += 1
        else:
            runs.append([x, 1])
            last = x
    return runs


def _parts_from_runs(runs: Iterable[Sequence[int]]) -> Partition:
    out = []
    for value, count in runs:
        out += [value] * count
    return Partition(out)


def _remove_blocks(runs: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    # One pass over descending runs that parses the blocks and removes their
    # boxes: a run is a block top unless it is one below the previous top (the
    # block's bottom).  One part of each top moves down a value, joining the
    # bottom run or a run of its own, or leaving at 0.  Returns the new runs
    # and the lowest top (0 for no parts).
    out, top = [], 0
    for value, count in runs:
        if value == top - 1:
            out[-1][1] += count
            continue
        top = value
        if count > 1:
            out.append([value, count - 1])
        if value > 1:
            out.append([value - 1, 1])
    return out, top


def ar_blocks(p: Sequence[int]) -> list[tuple[int, ...]]:
    """Maximal almost-rectangular blocks of p, largest parts first."""
    blocks, top = [], 0
    for value, count in _runs(p):
        if value == top - 1:
            blocks[-1] += (value,) * count
        else:
            blocks.append((value,) * count)
            top = value
    return blocks


def r_set(p: Sequence[int]) -> frozenset[int]:
    """Tops of the maximal almost-rectangular subpartitions, read from the top."""
    return frozenset(blk[0] for blk in ar_blocks(p))


def classify(p: Sequence[int]) -> str:
    """'B' if the lowest almost-rectangular block has top 1, else 'A'."""
    return "B" if _remove_blocks(_runs(p))[1] == 1 else "A"


def delta(p: Sequence[int]) -> Partition:
    """Remove one box from the lowest row of the largest part of each block."""
    return _parts_from_runs(_remove_blocks(_runs(p))[0])


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
    distinct = {t if isinstance(t, Partition) else Partition(t) for t in types}
    if not distinct:
        raise ValueError("empty collection has no dominance maximum")
    if len(distinct) == 1:
        # it dominates itself; a sampled cell mostly holds one type
        return distinct.pop()
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
