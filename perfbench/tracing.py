"""Span tracing for the engine's layers, installed from outside the engine.

``install()`` replaces each traced function wherever a ``qbailey`` module
binds it (``poch_recip`` is bound in qfunctions, pairs, catalog, ...), and
each traced method on its class.  A wrapper records one span per call:
layer name, start, end, enclosing span and case id.  Spans stay in memory
in flat arrays and are written once, by ``Tracer.dump``.

A layer's self time is its spans' total duration minus the time covered by
their child spans.  Calls are single-threaded and properly nested, so the
covered time is the sum of the children's durations.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from time import perf_counter

# Layers whose self time and call count are exported, in report order.
TIMED = ["series.mul", "series.invert", "series.product_at",
         "qfunctions.factor_product", "qfunctions.poch", "qfunctions.poch_recip",
         "qfunctions.triple_product", "multisum.eval", "pairs.relation_rhs",
         "pairs.verify", "transforms.seq", "checks.soundness",
         "checks.compositions", "corollaries.corollary_sum", "corollaries.finite_n",
         "bressoud.lhs", "bressoud.rhs", "catalog.lhs", "catalog.rhs",
         "catalog.compare", "cli"]


def _mul_ops(a, b):
    """Multiply-adds of the sparse product a*b: operand pairs below its cutoff."""
    if isinstance(b, (int, Fraction)):
        return len(a.terms)
    if not a.terms or not b.terms:
        return 0
    cutoff = min(a.cutoff + b.val(), b.cutoff + a.val())
    x, y = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    ys = sorted(y)
    return sum(bisect_left(ys, cutoff - e) for e in x)


def _invert_ops(s, cutoff=None):
    """Multiply-adds of the long division: each non-lead term, once per output slot."""
    if not s.terms:
        return 0
    v = min(s.terms)
    own = s.cutoff - 2 * v
    target = own if cutoff is None else min(cutoff, own)
    if len(s.terms) == 1 or target == float("inf"):
        return 1
    return sum(max(0, target + v - e) for e in s.terms if e != v)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self.case_id = -1
        self.counts = Counter()

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span; count(*args) may add to the layer's counters."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.case.append(self.case_id)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(perf_counter())
            try:
                if count is not None:
                    count(*args, **kw)
                return fn(*args, **kw)
            finally:
                self.end[idx] = perf_counter()
                self._open.pop()

        return wrapper

    def layer_totals(self):
        """{layer: (calls, self seconds)} over every recorded span."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - covered[i]
        return {name: (calls[name], self_s[name]) for name in calls}

    def dump(self, path, case_keys):
        spans = [[self.name_id[i], self.start[i], self.end[i], self.parent[i],
                  self.case[i]] for i in range(len(self.start))]
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent", "case"],
                       "layers": self.names, "cases": case_keys, "spans": spans}, fh)
            fh.write("\n")


def _rebind(fn, wrapped, modules):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer):
    """Wrap every traced layer of the imported ``qbailey`` package."""
    from qbailey import (bressoud, catalog, checks, cli, corollaries, multisum,
                         pairs, qfunctions, series, transforms)
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "qbailey" or name.startswith("qbailey.")]
    counts = tracer.counts

    def everywhere(name, fn, count=None):
        _rebind(fn, tracer.wrap(name, fn, count), modules)

    def count_mul(a, b):
        counts["series.mul.coeff_ops"] += _mul_ops(a, b)

    def count_invert(s, cutoff=None):
        counts["series.invert.coeff_ops"] += _invert_ops(s, cutoff)

    mul = tracer.wrap("series.mul", series.Series.__mul__, count_mul)
    series.Series.__mul__ = series.Series.__rmul__ = mul
    series.Series.invert = tracer.wrap("series.invert", series.Series.invert,
                                       count_invert)
    everywhere("series.product_at", series.product_at)

    qfunctions.FactorProduct.series = tracer.wrap(
        "qfunctions.factor_product", qfunctions.FactorProduct.series)
    everywhere("qfunctions.poch", qfunctions.poch)
    everywhere("qfunctions.poch_recip", qfunctions.poch_recip)
    everywhere("qfunctions.triple_product", qfunctions.triple_product)
    everywhere("qfunctions.qbinom", qfunctions.qbinom)

    real_eval = multisum.multisum_eval

    def counted_eval(spec, cutoff):
        # count chains emitted, chains with a nonzero term below the cutoff,
        # and floor evaluations, on a copy of the spec
        def term(chain, cut):
            t = spec.term(chain, cut)
            counts["multisum.chains"] += 1
            if t.terms and min(t.terms) < cutoff:
                counts["multisum.useful"] += 1
            return t

        def level_floor(d, s):
            counts["multisum.floor_evals"] += 1
            return spec.level_floor(d, s)

        return real_eval(dataclasses.replace(spec, term=term, level_floor=level_floor),
                         cutoff)

    _rebind(real_eval, tracer.wrap("multisum.eval", counted_eval), modules)

    everywhere("pairs.relation_rhs", pairs.relation_rhs)
    everywhere("pairs.verify", pairs.verify_pair)
    everywhere("pairs.verify", pairs.pairs_agree)

    def count_seq(seq, n, cutoff):
        if seq.support_lo <= n <= seq.support_hi:
            hit = (n, cutoff) in seq._cache
            counts["pairs.seq_cache.hits" if hit else "pairs.seq_cache.misses"] += 1

    pairs.BilateralSequence.__call__ = tracer.wrap(
        "pairs.seq", pairs.BilateralSequence.__call__, count_seq)
    transforms._combine = tracer.wrap("transforms.seq", transforms._combine)
    everywhere("transforms.f_direct", transforms.f_direct)
    everywhere("checks.soundness", checks.transform_soundness)
    everywhere("checks.compositions", checks.composition_checks)
    everywhere("corollaries.corollary_sum", corollaries.corollary_sum)
    everywhere("corollaries.finite_n", corollaries.finite_n_check)
    everywhere("bressoud.lhs", bressoud.bressoud_lhs)
    everywhere("bressoud.rhs", bressoud.bressoud_rhs)

    for name, desc in list(catalog.CATALOG.items()):
        catalog.CATALOG[name] = dataclasses.replace(
            desc, lhs=tracer.wrap("catalog.lhs", desc.lhs),
            rhs=tracer.wrap("catalog.rhs", desc.rhs))
    catalog.first_diff = tracer.wrap("catalog.compare", catalog.first_diff)
    cli.main = tracer.wrap("cli", cli.main)


def layer_metrics(tracer: Tracer, traced_wall_s, cache_deltas, coeff_bits_max):
    """The per-layer metrics of one traced campaign, by name."""
    totals = tracer.layer_totals()
    c = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def ratio(hits, total):
        return hits / total if total else 0.0

    for layer in TIMED:
        calls, self_s = totals.get(layer, (0, 0.0))
        put(f"{layer}.calls", calls, "count")
        put(f"{layer}.self_pct", 100.0 * self_s / traced_wall_s, "%")
    put("series.mul.coeff_ops", c["series.mul.coeff_ops"], "count")
    put("series.invert.coeff_ops", c["series.invert.coeff_ops"], "count")
    put("series.coeff_bits_max", coeff_bits_max, "bits")
    put("qfunctions.qbinom.calls", totals.get("qfunctions.qbinom", (0, 0.0))[0], "count")
    for cache in ("factor_cache", "poch_cache"):
        hits, misses = cache_deltas[cache]
        put(f"qfunctions.{cache}.hit_ratio", ratio(hits, hits + misses), "ratio")
    put("multisum.chains", c["multisum.chains"], "count")
    put("multisum.floor_evals", c["multisum.floor_evals"], "count")
    put("multisum.useful_ratio", ratio(c["multisum.useful"], c["multisum.chains"]),
        "ratio")
    put("pairs.seq.calls", totals.get("pairs.seq", (0, 0.0))[0], "count")
    hits, misses = c["pairs.seq_cache.hits"], c["pairs.seq_cache.misses"]
    put("pairs.seq_cache.hit_ratio", ratio(hits, hits + misses), "ratio")
    put("transforms.f_direct.calls", totals.get("transforms.f_direct", (0, 0.0))[0],
        "count")
    return out
