"""Span recorder for the traced run.

Each wrapped name is rebound where its caller looks it up, so the program
itself is unchanged.  A span is ``[layer, start, end, parent, op]`` with
``parent`` the index of the enclosing span (-1 at the root) and ``op`` the
index of the op in its pass.  Spans stay in memory; run.py writes them out
when the run ends.  Exact work counts are taken at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter


def _aug_key(bound) -> str:
    a = bound.arguments
    return repr((a["b"].strands, a["b"].letters, a["flavor"], a["prime"],
                 a["lam0"], a["mu0"], a["u0"], a["v0"], a["lam_override"],
                 a["split"]))


def _count_aug(rec, fn, out, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    rec.counts["verify.count_calls"] += 1
    rec.keys.add(_aug_key(bound))
    rec.counts["augment.evals"] += out.assignments_tested


def _count_packed(rec, fn, out, args, kwargs):
    rels = out[0]
    rec.counts["augment.packed_terms"] += sum(len(r) for r in rels)


def _count_ht0(rec, fn, out, args, kwargs):
    rels = out.relations if hasattr(out, "relations") else out
    rec.counts["ht0.terms"] += sum(len(r.terms) for r in rels)


def _count_resultant(rec, fn, out, args, kwargs):
    rec.counts["augment.resultants"] += 1


def _count_phi(rec, fn, out, args, kwargs):
    rec.counts["phi.terms"] += sum(len(e.terms) for m in out
                                   for _, _, e in m.entries())


def _count_dga(rec, fn, out, args, kwargs):
    rec.counts["dga.terms"] += sum(len(p.terms) for p in out.diff.values())


# (module, name looked up there, layer span, counter)
WRAPS = (
    ("xverse.cli", "main", "cli", None),
    ("xverse.cli", "reproduce_table", "verify", None),
    ("xverse.cli", "run_check", "verify", None),
    ("xverse.cli", "augmentation_polynomial_index2", "augment.poly", None),
    ("xverse.verify", "augmentation_number", "augment.solve", _count_aug),
    ("xverse.augment", "packed_relations", "augment.build", _count_packed),
    ("xverse.augment", "ht0_relations", "ht0", _count_ht0),
    ("xverse.augment", "reduced_relations", "ht0", _count_ht0),
    ("xverse.augment", "sylvester_resultant", "augment.resultant",
     _count_resultant),
    ("xverse.dga", "phi_matrices", "phi", _count_phi),
    ("xverse.dga", "verify_phi_factorization_sampled", "dga.phifact", None),
    ("xverse.dga", "build_dga", "dga.build", _count_dga),
    ("xverse.dga", "verify_d_squared_sampled", "dga.d2", None),
)

# per-layer time metric -> the span whose self time it sums
TIME_METRICS = {
    "cli.self_s": "cli",
    "verify.self_s": "verify",
    "augment.build_s": "augment.build",
    "augment.solve_s": "augment.solve",
    "augment.resultant_s": "augment.resultant",
    "augment.poly_self_s": "augment.poly",
    "ht0.busy_s": "ht0",
    "phi.busy_s": "phi",
    "dga.build_s": "dga.build",
    "dga.d2_s": "dga.d2",
    "dga.phifact_s": "dga.phifact",
}

COUNT_METRICS = ("verify.count_calls", "verify.distinct_counts",
                 "augment.packed_terms", "augment.evals",
                 "augment.resultants", "ht0.terms", "phi.terms",
                 "dga.terms")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.keys: set[str] = set()
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, fn, layer, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [layer, 0.0, 0.0,
                    self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, fn, out, args, kwargs)
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every name in WRAPS for the duration of the block and
        restore the originals afterwards."""
        saved = []
        try:
            for module, name, layer, count in WRAPS:
                mod = importlib.import_module(module)
                orig = getattr(mod, name)
                saved.append((mod, name, orig))
                setattr(mod, name, self._wrap(orig, layer, count))
            yield self
        finally:
            for mod, name, orig in reversed(saved):
                setattr(mod, name, orig)

    def exact_counts(self) -> dict[str, int]:
        out = {k: self.counts[k] for k in COUNT_METRICS}
        out["verify.distinct_counts"] = len(self.keys)
        return out


def self_times(spans, speed=None) -> dict[str, float]:
    """Per layer: the sum over its spans of duration minus the duration
    of their direct children (calls are nested, so children never
    overlap).  ``speed[op]`` scales the spans of each op, if given."""
    child = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (layer, start, end, _, op) in enumerate(spans):
        scale = 1.0 if speed is None else speed[op]
        out[layer] = out.get(layer, 0.0) + (end - start - child[i]) * scale
    return out
