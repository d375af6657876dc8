"""Layer tracing from outside the package.

``Tracer`` replaces each traced public function by a wrapper in every
``nilcommute`` module that holds it (the defining module, the modules that
import it and the package namespace), so calls between modules are seen
too.  Each call records a span ``[name, parent, start_ns, end_ns,
result]``; ``flush`` folds the spans of one job into per-name totals,
where a span's self time is its duration minus that of its children.
Leaving the ``with`` block puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

# module -> traced public functions ("Class.method" for methods)
TARGETS = {
    "partitions": ("jordan_from_coranks", "dominance_max"),
    "burge": ("encode", "decode", "table"),
    "modpoly": ("rank", "matmul"),
    "commutator": ("assemble_blocks", "jordan_type_of_matrix", "sample_commutator", "dmap_oracle"),
    "tropical": ("predicted_jordan_type",),
    "loci": ("equations", "sample_on_locus", "EquationSet.jacobian_rank_at", "verify_cell", "survey"),
    "cli": ("main",),
}
# spans whose return value is kept, for the hit rates
KEEP_RESULT = {"commutator.dmap_oracle", "commutator.jordan_type_of_matrix", "loci.verify_cell"}
COLLECT = {"loci.verify_cell"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # calls, ns, self ns
        self.edges: Counter = Counter()  # (parent, child) -> calls
        self.same_result: Counter = Counter()  # (parent, child) -> child returned parent's result
        self.counts: Counter = Counter()
        self.collected: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        keep = name in KEEP_RESULT
        entries = name == "modpoly.rank"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if entries:
                rows, cols = np.shape(args[0])
                counts["modpoly.rank.entries"] += rows * cols
            span = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if keep:
                span[4] = result
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        mods = {m: importlib.import_module(f"nilcommute.{m}") for m in TARGETS}
        holders = [mod for key, mod in sys.modules.items()
                   if key == "nilcommute" or key.startswith("nilcommute.")]
        try:
            for m, names in TARGETS.items():
                for attr in names:
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(mods[m], cls_name)
                        self._patch(cls, meth, self._span(f"{m}.{meth}", cls.__dict__[meth]))
                        continue
                    orig = getattr(mods[m], attr)
                    wrapper = self._span(f"{m}.{attr}", orig)
                    for holder in holders:
                        for key in [k for k, v in vars(holder).items() if v is orig]:
                            self._patch(holder, key, wrapper)
            self._count_truncpoly(mods["modpoly"].TruncPoly)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, key: str, new) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def _restore(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def _count_truncpoly(self, cls) -> None:
        # constructions are only counted: a span per coefficient tuple would
        # cost more than the construction it measures
        orig, counts = cls.__dict__["__post_init__"], self.counts

        def counted(obj):
            counts["modpoly.truncpoly.count"] += 1
            orig(obj)

        self._patch(cls, "__post_init__", counted)

    def flush(self) -> None:
        """Fold the spans recorded since the last flush into the totals."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, parent, t0, t1, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for i, (name, parent, t0, t1, result) in enumerate(spans):
            st = self.stats[name]
            st[0] += 1
            st[1] += t1 - t0
            st[2] += t1 - t0 - child_ns[i]
            if parent >= 0:
                pname, presult = spans[parent][0], spans[parent][4]
                self.edges[pname, name] += 1
                if result is not None and result == presult:
                    self.same_result[pname, name] += 1
            if name in COLLECT:
                self.collected[name].append(result)
        spans.clear()
