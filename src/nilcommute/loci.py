"""Equation sets cutting out the Jordan-type strata of two-block commutants,
generic on-locus samplers, and the verification, containment, intersection
and survey harnesses.

A table cell (k, l) of the shape (u, u-r) is cut out by k + l - 2
equations: the vanishing coordinates a_1..a_{k-1} and b_1..b_{l-1} when
k + l <= r, otherwise a_1..a_{k-1}, b_1..b_{r-k-1} and the staircase of
bilinear forms sum_j a_{k+j} b_{r-k+d-j} - sum_j g_j h_{d-j} for
d = 0..k+l-r-1, which are the coefficients of t^{r+d} in ab - g h t^r.

`_solve_plan` alone builds that staircase, in block coefficient numbers,
each step as signed terms led by its pivot term a_k b.  The `EquationSet`
of a cell, built once by `equations`, holds its plan as `_plan`, the one
form that its row checks, Jacobian and a, b, g, h view and the samplers read.

Every harness draws the chunks of `commutator._chunks` as coefficient rows
(`_plan_rows` on a locus, `commutator._draw_free` on the commutant), the
same draws in the same order as one at a time, and reads and checks each chunk
on its rows: `_two_part_types` reads the types from the rows themselves
(`verify_cell` first reads each row only up to its cell entry's settle point,
`_two_part_coranks`), and only `survey` assembles a stack, for `jordan_types`.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from .burge import check_cell, dmap, table
from .commutator import (
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
    jordan_types,
)
from .modpoly import DEFAULT_PRIME, _check_modulus, rank
from .partitions import Partition, key
from .tropical import predicted_jordan_type


@dataclass(frozen=True)
class Quadric:
    """Bilinear form  sum a_i b_j - sum g_i h_j  with fixed index pairs."""

    ab_terms: tuple[tuple[int, int], ...]
    gh_terms: tuple[tuple[int, int], ...]

    def label(self) -> str:
        return "+".join(f"a{i}b{j}" for i, j in self.ab_terms) + "".join(f"-g{i}h{j}" for i, j in self.gh_terms)


@dataclass(frozen=True)
class EquationSet:
    """The k + l - 2 defining equations of the (k, l) table locus of the
    shape (u, u-r), built from the cell alone.  `_plan` is the one-cell
    plan: its zero coordinates are the linear equations and its step d is
    quadric d.  The public fields read it in a, b, g, h indices."""

    u: int
    r: int
    k: int
    l: int
    linear_a: tuple[int, ...] = field(init=False)
    linear_b: tuple[int, ...] = field(init=False)
    quadrics: tuple[Quadric, ...] = field(init=False)
    _plan: _SolvePlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        plan = _solve_plan(self.u, self.r, ((self.k, self.l),))
        g0, h0, b0 = _two_part_offsets(self.u, self.r)
        quads = tuple(
            Quadric(
                ab_terms=tuple((i, j - b0) for sign, i, j in terms if sign > 0),
                gh_terms=tuple((i - g0, j - h0) for sign, i, j in terms if sign < 0),
            )
            for terms in plan.steps
        )
        lin_a = tuple(i for i in plan.zero if i < b0)
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "linear_a", lin_a)
        object.__setattr__(self, "linear_b", tuple(i - b0 for i in plan.zero[len(lin_a) :]))
        object.__setattr__(self, "quadrics", quads)

    @property
    def codim(self) -> int:
        return len(self.linear_a) + len(self.linear_b) + len(self.quadrics)

    def labels(self) -> tuple[str, ...]:
        return (*(f"a{i}" for i in self.linear_a), *(f"b{i}" for i in self.linear_b),
                *(qd.label() for qd in self.quadrics))

    @cached_property
    def _jacobian_block(self) -> tuple:
        """The quadric block of the Jacobian on the free columns that no
        linear equation fixes: its shape and, per entry, its row, column,
        coefficient and sign (the term sign c_i c_j puts sign c_j in column
        i and sign c_i in column j)."""
        zero, steps = self._plan.zero, self._plan.steps
        free = [i for i in _layout((self.u, self.u - self.r)).free.tolist() if i not in zero]
        entries = [(row, free.index(x), y, sign) for row, terms in enumerate(steps)
                   for sign, i, j in terms for x, y in ((i, j), (j, i))]
        return ((len(steps), len(free)), *np.array(entries, dtype=np.intp).reshape(-1, 4).T)

    def _holds(self, c, p: int) -> bool:
        """Whether the block coefficients `c` (reduced mod p) satisfy every equation."""
        return not any(c[i] for i in self._plan.zero) and not any(
            sum(sign * c[i] * c[j] for sign, i, j in terms) % p for terms in self._plan.steps)

    def _jacobian_rank(self, c, p: int) -> int:
        """Jacobian rank at the block coefficients `c` (reduced mod p): the
        linear rows are unit vectors on free columns, so it is |linear| plus the
        rank of the quadric block on the other free columns, ranked even if empty."""
        shape, row, col, src, sign = self._jacobian_block
        block = np.zeros(shape, dtype=np.int64)
        block[row, col] = sign * np.asarray(c)[src] % p
        return len(self._plan.zero) + rank(block, p)

    def jacobian_rank_at(self, e: CommutatorElement) -> int:
        shape = (self.u, self.u - self.r)
        if e.q != shape:
            raise ValueError(f"element of shape {tuple(e.q)} against equations on {shape}")
        return self._jacobian_rank(e.coeffs, e.p)


@lru_cache(maxsize=1024)
def equations(u: int, r: int, k: int, l: int) -> EquationSet:
    """The equation set of the (k, l) table locus, built once per cell."""
    return EquationSet(u, r, k, l)


@dataclass(frozen=True)
class _SolvePlan:
    """The staircase of a set of cells in block coefficient numbers
    (`CommutatorElement.coeffs`), in the one form that every reader uses.

    The linear equations clear `zero`.  Each step is one degree's
    coefficient of ab - g h t^r as signed terms (sign, i, j), summing
    sign c_i c_j: the pivot term (1, `pivot`, b) for the b a sampler solves
    it for, the other ab terms (+1), then the gh terms (-1).  `split` holds
    (g_0, h_0) when g_0 h_0 = 0 splits the locus; a nonempty `reason` marks
    a system this cannot sample.  A one-cell plan has neither.
    """

    u: int
    r: int
    zero: tuple[int, ...]
    pivot: int
    steps: tuple[tuple[tuple[int, int, int], ...], ...]
    split: tuple[int, ...]
    reason: str = ""


def _solve_plan(u: int, r: int, cells: tuple[tuple[int, int], ...]) -> _SolvePlan:
    """The staircase of the union of the cells' equations; `cells` sorted, nonempty.

    Under the union of the linear equations, every remaining bilinear
    constraint collapses to one det coefficient per degree D: the terms
    a_i b_j with i >= max k, j >= the union b bound and i + j = D minus
    the g h convolution of degree D - r.  A degree with no a,b term and
    D = r leaves g_0 h_0 = 0 (once); any other degree without a pivot
    term makes the plan unsampleable.  For one cell (k, l) the degrees
    r..k+l-1 each have the pivot term a_k b_{r-k+d}: the cell's quadrics.
    """
    for k, l in cells:
        check_cell(u, r, k, l)
    g0, h0, b0 = _two_part_offsets(u, r)
    m = u - r
    big_k = max(k for k, _ in cells)
    big_m = max((l if k + l <= r else r - k) for k, l in cells)
    degrees = sorted({dd for k, l in cells if k + l > r for dd in range(r, k + l)})
    steps = []
    split: tuple[int, ...] = ()
    for deg in degrees:
        d = deg - r
        ab = tuple(
            (1, ai, b0 + deg - ai)
            for ai in range(big_k, min(deg - big_m, u - 1) + 1)
            if 1 <= deg - ai <= m - 1
        )
        if ab and ab[0][1] == big_k:
            steps.append(ab + tuple((-1, g0 + j, h0 + d - j) for j in range(d + 1)))
        elif not ab and d == 0 and not split:
            split = (g0, h0)
        else:
            reason = f"constraint at degree {deg} has no pivot term"
            return _SolvePlan(u, r, (), big_k, (), (), reason)
    zero = tuple(range(1, big_k)) + tuple(range(b0 + 1, b0 + big_m))
    return _SolvePlan(u, r, zero, big_k, tuple(steps), split)


def _plan_rows(plan: _SolvePlan, rng, prime: int, count: int, zero_gh: int | None = None) -> np.ndarray:
    """`count` points of the plan's locus as (count, coefficients) rows;
    zero_gh = 0 or 1 zeroes g_0 or h_0.  One draw takes each row's free
    coordinates, then its pivot, as `count` one-point draws would; each row
    solves each step for the b of its pivot term, in Python integers with
    one inverse of a_k."""
    prime, layout = _check_modulus(prime), _layout((plan.u, plan.u - plan.r))
    draw = rng.integers([prime] * layout.free.size + [prime - 1], size=(count, layout.free.size + 1))
    rows = np.zeros((count, layout.width), dtype=np.int64)
    rows[:, layout.free] = draw[:, :-1]
    rows[:, list(plan.zero)] = 0
    rows[:, plan.pivot] = 1 + draw[:, -1]
    if zero_gh is not None:
        rows[:, plan.split[zero_gh]] = 0
    out, steps = rows.tolist(), [(terms[0][2], terms[1:]) for terms in plan.steps]
    for c in out:
        inv_ak = pow(c[plan.pivot], -1, prime)
        for solved, rest in steps:
            c[solved] = -sum(sign * c[i] * c[j] for sign, i, j in rest) % prime * inv_ak % prime
    return np.array(out, dtype=np.int64).reshape(rows.shape)


def sample_on_locus(u: int, r: int, k: int, l: int, rng, *, prime: int = DEFAULT_PRIME) -> CommutatorElement:
    """Generic point of the (k, l) locus: the one-row case of `_plan_rows`.

    Zeroes the linear coordinates, draws a_k nonzero and everything else
    uniformly, then solves each bilinear equation for the next b
    coordinate (each is linear in it with coefficient a_k).
    """
    row = _plan_rows(equations(u, r, k, l)._plan, rng, prime, 1)[0]
    return CommutatorElement((u, u - r), row.tolist(), prime)


def _type_counts(counter: Counter) -> tuple[tuple[tuple[int, ...], int], ...]:
    return tuple(
        (tuple(t), c) for t, c in sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    )


class _Report:
    """Serializes a report dataclass: its fields, then the `derived` keys,
    each paired with the property that computes it.  The dict is shallow:
    `json.dumps` writes tuples and partitions as arrays, and the CLI's
    `default` hook writes nested reports (`IntersectReport.branches`, each
    `CellReport` of a verify payload) through their own `to_dict`."""

    derived: ClassVar[tuple[tuple[str, str], ...]] = ()

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for key, prop in self.derived:
            out[key] = getattr(self, prop)
        return out


@dataclass(frozen=True)
class CellReport(_Report):
    """Verification record for one table cell."""

    derived = (("pass", "passed"),)

    q: Partition
    cell: tuple[int, int]
    prime: int
    seed: int
    samples: int
    max_type: Partition
    expected: Partition
    match_rate: float
    converse_hits: int
    converse_ok: bool
    tropical_agree: bool
    jacobian_rank_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.max_type == self.expected
            and self.match_rate >= 0.95
            and self.jacobian_rank_ok
            and self.tropical_agree
            and self.converse_ok
        )


def verify_cell(
    u: int,
    r: int,
    k: int,
    l: int,
    samples: int,
    *,
    seed: int = 0,
    prime: int = DEFAULT_PRIME,
) -> CellReport:
    """Check one cell: generic sampled types against the table entry, the
    converse inclusion on independent commutant samples, jacobian ranks,
    and the tropical prediction.

    The expected type is read from the memoized table.  The `samples`
    on-locus draws and then the `samples` converse draws form one stream,
    drawn in that order from one generator as stacked coefficient rows, in
    the chunks of `_chunks`, so a chunk may hold the last on-locus and the first
    converse draws (the draws of the one-sample samplers), read together,
    with Jacobian ranks and equations checked on its rows.  A chunk is read
    only up to the entry's settle point s* (`_settled_prefix`), in
    ceil(log2 s*) doubling rounds: a row has the entry's type exactly when
    its coranks up to s* are the entry's (`_two_part_coranks`).  An on-locus
    row that misses is read in full (`_two_part_types`), so the type counts
    are those of a full read, and a converse hit is a converse row that
    matches.  Cells whose type is never hit by the independent samples
    count as a vacuous pass for the converse direction.
    """
    eqs = equations(u, r, k, l)
    expected = table((u, u - r))[k - 1][l - 1]
    prefix = list(_settled_prefix(expected))
    rng = np.random.default_rng([seed, u, r, k, l])
    counts: Counter = Counter()
    jac_hits = converse_hits = 0
    converse_ok = True
    for lo, hi in _chunks(2 * samples):
        on = max(0, min(hi, samples) - lo)  # on-locus rows in this chunk
        rows = np.concatenate([
            _plan_rows(eqs._plan, rng, prime, on), _draw_free((u, u - r), rng, prime, hi - lo - on)])
        hit = [row == prefix for row in _two_part_coranks(rows, u, r, prime, len(prefix)).tolist()]
        misses = [i for i in range(on) if not hit[i]]
        counts.update([expected] * (on - len(misses)))
        if misses:
            counts.update(_two_part_types(rows[misses], u, r, prime))
        jac_hits += sum(eqs._jacobian_rank(c, prime) == eqs.codim for c in rows[:on])
        for c, h in zip(rows[on:].tolist(), hit[on:]):
            if h:
                converse_hits += 1
                converse_ok = converse_ok and eqs._holds(c, prime)
    return CellReport(
        q=Partition((u, u - r)),
        cell=(k, l),
        prime=_check_modulus(prime),
        seed=seed,
        samples=samples,
        max_type=_generic_type(counts),  # EMPTY fails the cell
        expected=expected,
        match_rate=counts[expected] / samples,
        converse_hits=converse_hits,
        converse_ok=converse_ok,
        tropical_agree=predicted_jordan_type(u, r, k, l) == expected,
        jacobian_rank_ok=jac_hits / samples >= 0.99,
    )


@dataclass(frozen=True)
class ContainmentReport(_Report):
    """Closure containment of the inner cell's locus in the outer one."""

    derived = (("agree", "agree"),)

    q: Partition
    outer: tuple[int, int]
    inner: tuple[int, int]
    prime: int
    seed: int
    samples: int
    predicate: bool
    montecarlo: bool

    @property
    def agree(self) -> bool:
        return self.predicate == self.montecarlo


def closure_contains(
    u: int,
    r: int,
    outer: tuple[int, int],
    inner: tuple[int, int],
    samples: int,
    *,
    seed: int = 0,
    prime: int = DEFAULT_PRIME,
) -> ContainmentReport:
    """Does the closure of the outer cell's stratum contain the inner one?

    The closed form is (k = k' and l <= l') or (k <= k', l <= l' and
    k' + l <= r); the Monte-Carlo side checks the outer equations on
    generic inner samples, drawn a chunk of `_chunks` at a time
    (`_plan_rows`) up to the chunk that holds the first one off the outer locus.
    """
    k, l = outer
    k2, l2 = inner
    eqs = equations(u, r, k, l)
    plan = equations(u, r, k2, l2)._plan
    predicate = (k == k2 and l <= l2) or (k <= k2 and l <= l2 and k2 + l <= r)
    rng = np.random.default_rng([seed, u, r, k, l, k2, l2])
    chunks = (_plan_rows(plan, rng, prime, hi - lo) for lo, hi in _chunks(samples))
    montecarlo = all(eqs._holds(c, prime) for rows in chunks for c in rows.tolist())
    return ContainmentReport(q=Partition((u, u - r)), outer=(k, l), inner=(k2, l2),
                             prime=_check_modulus(prime), seed=seed, samples=samples,
                             predicate=predicate, montecarlo=montecarlo)


@dataclass(frozen=True)
class BranchReport(_Report):
    label: str
    max_type: Partition
    type_counts: tuple[tuple[tuple[int, ...], int], ...]


@dataclass(frozen=True)
class IntersectReport(_Report):
    q: Partition
    cells: tuple[tuple[int, int], ...]
    prime: int
    seed: int
    samples: int
    sampled: bool
    reason: str
    branches: tuple[BranchReport, ...]


def intersect_experiment(
    u: int,
    r: int,
    cells,
    samples: int,
    *,
    seed: int = 0,
    prime: int = DEFAULT_PRIME,
) -> IntersectReport:
    """Sample the common zero locus of several cells' equation sets.

    The bilinear constraints left under the union of the linear equations
    are solved for successive b coordinates as usual (see `_solve_plan`);
    g_0 h_0 = 0 splits the sample into two monomial branches.  Richer
    systems (a second split, or no pivot term) are reported unsampled
    rather than guessed.  A branch whose sampled types have no dominance
    maximum reports `max_type` EMPTY: it has no generic type.
    """
    cells = sorted({(operator.index(k), operator.index(l)) for k, l in cells})
    if not cells:
        raise ValueError("need at least one cell")
    chunks = list(_chunks(samples))  # read once per branch
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    prime = _check_modulus(prime)
    plan = _solve_plan(u, r, tuple(cells))
    base = dict(
        q=Partition((u, u - r)),
        cells=tuple(cells),
        prime=prime,
        seed=seed,
        samples=samples,
    )
    if plan.reason:
        return IntersectReport(**base, sampled=False, reason=plan.reason, branches=())

    branch_defs = [("g0=0", 0), ("h0=0", 1)] if plan.split else [("", None)]
    branches = []
    for bidx, (label, zero_gh) in enumerate(branch_defs):
        rng = np.random.default_rng([seed, u, r, bidx] + [x for c in cells for x in c])
        counts: Counter = Counter()
        for lo, hi in chunks:
            rows = _plan_rows(plan, rng, prime, hi - lo, zero_gh)
            counts.update(_two_part_types(rows, u, r, prime))
        branches.append(
            BranchReport(label=label, max_type=_generic_type(counts), type_counts=_type_counts(counts))
        )
    return IntersectReport(**base, sampled=True, reason="", branches=tuple(branches))


@dataclass(frozen=True)
class SurveyReport(_Report):
    """Observed Jordan types of commutant samples against the box inventory."""

    derived = (("all_in_box", "all_in_box"),)

    q: Partition
    prime: int
    seed: int
    samples: int
    box_size: int
    type_counts: tuple[tuple[tuple[int, ...], int], ...]
    outside: tuple[tuple[int, ...], ...]

    @property
    def all_in_box(self) -> bool:
        return not self.outside


def survey(q, samples: int, *, seed: int = 0, prime: int = DEFAULT_PRIME) -> SurveyReport:
    """Sample the nilpotent commutant of a stable shape, a chunk per draw, and
    bucket the types.  The box of q is the whole preimage of q under `dmap`,
    so no box is decoded: its size is the product of the key, and a type is
    outside it when its `dmap` is not q."""
    q = Partition(q)
    box_size = math.prod(key(q))
    rng = np.random.default_rng([seed] + list(q))
    counts: Counter = Counter()
    for lo, hi in _chunks(samples):
        rows = _draw_free(q, rng, prime, hi - lo)
        counts.update(jordan_types(assemble_blocks(q, rows), prime))
    outside = tuple(tuple(t) for t in sorted((t for t in counts if dmap(t) != q), reverse=True))
    return SurveyReport(q=q, prime=_check_modulus(prime), seed=seed, samples=samples, box_size=box_size,
                        type_counts=_type_counts(counts), outside=outside)
