"""The nested-sum evaluator, level by level, against a per-chain reference."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qbailey.errors import CertificateViolation, PoleError
from qbailey.multisum import MultisumSpec, multisum_eval
from qbailey.qparams import QParam
from qbailey.qfunctions import FactorProduct
from qbailey.oracle import sum_series
from qbailey.series import INF, Series

Q = QParam.finite(1, 2)


def _rr_level(acc, d, s):
    acc.times_qpow(2 * s * s).times_poch(Q, s, den=True)


def _q_link(acc, d, k):
    acc.times_poch(Q, k, den=True)


def test_single_sum_matches_partition_counts():
    spec = MultisumSpec(depth=1, lower_bound=0, level=_rr_level, link=_q_link)
    got = multisum_eval(spec, 20)
    assert [got.terms.get(2 * n, 0) for n in range(10)] == \
        [1, 1, 1, 1, 2, 2, 3, 3, 4, 5]


def test_empty_chain_range_gives_zero():
    spec = MultisumSpec(depth=2, lower_bound=3,
                        level=lambda acc, d, s: acc.times_qpow(2 * s * s), link=_q_link,
                        last_upper=1)  # lower bound above the cap: no chains
    got = multisum_eval(spec, 10)
    assert got.is_zero_below_cutoff()
    assert got.cutoff == 10


def test_double_sum_with_delta_weight_collapses_to_single():
    # the two-fold chain weighted by a delta at the inner index collapses to
    # the single sum (the inner variable is pinned to zero)
    def level(acc, d, s):
        acc.times_qpow(2 * s * s)
        if d == 2:
            if s != 0:
                acc.times_scalar(0)
                return
            acc.times_poch(Q, s, den=True)
            acc.times_qpow(2 * s)

    spec = MultisumSpec(depth=2, lower_bound=0, level=level, link=_q_link, last_upper=0)
    double = multisum_eval(spec, 40)
    single = MultisumSpec(depth=1, lower_bound=0, level=_rr_level, link=_q_link)
    assert multisum_eval(single, 40).terms == double.terms


# ---------------------------------------------------------------------------
# random level data against the per-chain FactorProduct sum
# ---------------------------------------------------------------------------

coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                          Fraction(-2, 3), Fraction(3)])
# (1 - c x^(h0 + k * index))^(+-1): k = 0 gives a fixed exponent, c = 1 with
# h0 + k * index = 0 a vanishing factor (1 - x^0)
factors = st.tuples(coeffs, st.integers(-4, 4), st.integers(0, 2), st.booleans())
# (c x^(h0 + k * index); x^base)_oo, c != 1 so that no tail vanishes
tails = st.tuples(st.sampled_from([Fraction(-1), Fraction(2), Fraction(1, 2)]),
                  st.integers(-4, 3), st.integers(0, 2), st.sampled_from([2, 4]),
                  st.booleans())


@st.composite
def levels(draw, d):
    return {
        # the q-power 6 s^2 + beta s keeps every level floor convex: the
        # factors' kinks bend it by less than its second difference 12
        "beta": draw(st.integers(-3, 3)),
        "link": draw(st.sampled_from([2, 4])) if d >= 2 else None,
        "on_s": draw(st.lists(factors, max_size=2)),
        "on_prev": draw(st.lists(factors, max_size=1)) if d >= 2 else [],
        "tails": draw(st.lists(tails, max_size=1)) if d >= 2 else [],
    }


@st.composite
def specs(draw):
    depth = draw(st.integers(1, 3))
    lb = draw(st.integers(-2, 1))
    last_upper = draw(st.one_of(st.none(), st.integers(lb, 2)))
    final = draw(st.sampled_from([None, 2]))  # 1/(q;q)_{s_depth}, zero for s_depth < 0
    seed = draw(st.one_of(st.none(), st.dictionaries(st.integers(-2, 4), coeffs,
                                                      min_size=1, max_size=3)))
    return (depth, lb, last_upper, final, seed,
            [draw(levels(d)) for d in range(1, depth + 1)], draw(st.integers(1, 48)))


def _factor(acc, c, h, den):
    acc.times_factor(QParam.finite(c, h), den=den)


class _Seed:
    """A sequence whose value at n is x^(2n) times a fixed polynomial,
    known exactly below the requested cutoff."""

    def __init__(self, terms):
        self.terms = terms

    def __call__(self, n, c):
        return Series({e + 2 * n: x for e, x in self.terms.items()}, c)

    def val_bound(self, n):
        return min(self.terms) + 2 * n


def _build(depth, lb, last_upper, final, seed_terms, data):
    def level(acc, d, s):
        lv = data[d - 1]
        acc.times_qpow(6 * s * s + lv["beta"] * s)
        for c, h0, k, den in lv["on_s"]:
            _factor(acc, c, h0 + k * s, den)
        if d < depth:  # the next level's factors in its predecessor s_d
            nxt = data[d]
            for c, h0, k, den in nxt["on_prev"]:
                _factor(acc, c, h0 + k * s, den)
            for c, h0, k, base, den in nxt["tails"]:
                acc.times_poch(QParam.finite(c, h0 + k * s), INF, base=base, den=den)
        if d == depth and final:
            acc.times_poch(QParam.finite(1, final), s, base=final, den=True)

    def link(acc, d, k):
        b = data[d - 1]["link"]
        acc.times_poch(QParam.finite(1, b), k, base=b, den=True)

    seed = _Seed(seed_terms) if seed_terms else None
    spec = MultisumSpec(depth=depth, lower_bound=lb, level=level, link=link,
                        last_upper=last_upper, seed=seed)
    return spec, seed


def _chains(depth, lb, last_upper, hi):
    """Every chain hi >= s_1 >= ... >= s_depth >= lb under the cap."""
    def rec(prefix):
        if len(prefix) == depth:
            yield tuple(prefix)
            return
        top = prefix[-1] if prefix else hi
        if len(prefix) == depth - 1 and last_upper is not None:
            top = min(top, last_upper)
        for s in range(lb, top + 1):
            yield from rec(prefix + [s])
    return rec([])


def _chain_product(spec, chain):
    """One chain's FactorProduct, built from scratch by the spec's level and
    link functions."""
    fp = FactorProduct()
    for d, s in enumerate(chain, 1):
        spec.level(fp, d, s)
        if d > 1:
            spec.link(fp, d, chain[d - 2] - s)
    return fp


def _reference(spec, seed, cutoff):
    """The sum over chains of one FactorProduct each, built from scratch:
    every chain whose own product valuation lies below the cutoff, in a box
    s_1 <= 6 wide enough that the valuations of all others pass the largest
    cutoff, 48.  At s_1 = 6 level 1's q-power is at least 6 * 36 - 3 * 6 =
    198; the other q-powers are >= 0, and the factors (>= -8 each, six on
    s and two on s_{d-1}), the tails (>= -20 each), the final denominator
    (>= -2) and the seed (>= -6) take off at most 112; all of it only grows
    with s_1.  No chain on the box's edge may lie below the cutoff."""
    out = []
    for chain in _chains(spec.depth, spec.lower_bound, spec.last_upper, 6):
        fp = _chain_product(spec, chain)
        s = chain[-1]
        vb = 0 if seed is None else seed.val_bound(s)
        if fp.val_bound() + vb >= cutoff:
            continue
        assert chain[0] < 6, "the box is too narrow"
        if seed is None:
            out.append(fp.series(cutoff))
        else:
            out.append(fp.series_times(lambda c: seed(s, c), cutoff, vb))
    return sum_series(out, cutoff)


@settings(max_examples=300, deadline=None)
@given(specs())
def test_seeded_walk_equals_the_per_chain_sum(drawn):
    depth, lb, last_upper, final, seed_terms, data, cutoff = drawn
    spec, seed = _build(depth, lb, last_upper, final, seed_terms, data)
    try:
        want = _reference(spec, seed, cutoff)
    except PoleError:
        with pytest.raises(PoleError):
            multisum_eval(spec, cutoff)
        return
    got = multisum_eval(spec, cutoff)
    assert got.cutoff == want.cutoff == cutoff
    assert got.terms == want.terms


def _split_unit_spec(outer, inner):
    """Depth 2 with q^(4 s^2) and s_2 = 0: level 1 carries
    (1 - x^(2 s_1 - 2))^(+-1) per ``outer``, level 2's link carries
    (1 - x^(2 k - 2))^(+-1) per ``inner``, where k = s_1 - s_2 = s_1; each
    is (1 - x^0) at s_1 = 1."""
    def level(acc, d, s):
        acc.times_qpow(4 * s * s)
        if d == 1 and outer is not None:
            _factor(acc, Fraction(1), 2 * s - 2, outer)

    def link(acc, d, k):
        acc.times_poch(Q, k, den=True)
        if inner is not None:
            _factor(acc, Fraction(1), 2 * k - 2, inner)

    return MultisumSpec(depth=2, lower_bound=0, level=level, link=link, last_upper=0)


def test_a_zero_and_a_pole_on_different_levels_cancel():
    # (1 - x^(2 s_1 - 2)) / (1 - x^(2 s_1 - 2)) = 1 on every chain, also at s_1 = 1
    plain = multisum_eval(_split_unit_spec(None, None), 40)
    got = multisum_eval(_split_unit_spec(False, True), 40)
    assert got.cutoff == plain.cutoff == 40
    assert got.terms == plain.terms and got.terms.get(4) == 1  # the s_1 = 1 chains


def test_an_uncancelled_zero_drops_its_chains():
    got = multisum_eval(_split_unit_spec(None, False), 40)
    # the s_1 = 1 chains vanish; s_1 = 0 gives 1 - x^(-2)
    assert got.cutoff == 40
    assert 4 not in got.terms and got.terms[-2] == -1 and got.terms[0] == 1


def test_an_uncancelled_pole_raises():
    with pytest.raises(PoleError):
        multisum_eval(_split_unit_spec(None, True), 40)


# ---------------------------------------------------------------------------
# the node hook, wrapped the way a tracer wraps it
# ---------------------------------------------------------------------------

def _ag_level(acc, d, s):
    """Depth 2: q^(s_1^2 + s_2^2) / ((q)_{s_1-s_2} (q)_{s_2}), with a rational
    factor (1 - 2/3 q^(s_2 + 1/2)) on the inner level; the link is
    1/(q)_{s_1-s_2}."""
    acc.times_qpow(2 * s * s)
    if d == 2:
        acc.times_poch(Q, s, den=True)
        acc.times_factor(QParam.finite(Fraction(2, 3), 2 * s + 1))


def _ag_spec(level_floor=None):
    return MultisumSpec(depth=2, lower_bound=0, level=_ag_level, link=_q_link,
                        level_floor=level_floor)


def _traced(spec, cutoff):
    """multisum_eval with ``spec.term`` wrapped as perfbench/tracing.py wraps
    it: ``dataclasses.replace``, call the original, read ``terms`` of what it
    returns.  Also returns (node, least exponent of its terms, its floor) per
    call."""
    calls = []

    def term(node, leaf):
        t = spec.term(node, leaf)
        calls.append((node, min(t.terms) if t.terms else None, t.floor))
        return t

    return multisum_eval(dataclasses.replace(spec, term=term), cutoff), calls


def test_a_wrapped_hook_sees_every_node_once_and_leaves_the_sum_alone():
    cutoff = 60
    spec = _ag_spec()
    got, calls = _traced(spec, cutoff)
    plain = multisum_eval(spec, cutoff)
    chains = [c for c in _chains(2, 0, None, 12)
              if sum(spec.level_floor(d, s) for d, s in enumerate(c, 1)) < cutoff]
    assert got.cutoff == plain.cutoff == cutoff and got.terms == plain.terms
    assert got.terms == sum_series(
        [_chain_product(spec, c).series(cutoff) for c in chains], cutoff).terms
    nodes = [node for node, _, _ in calls]
    assert len(nodes) == len(set(nodes))  # once per node: no (1 - x^0) count splits one
    assert set(nodes) >= {(d, s) for c in chains for d, s in enumerate(c, 1)}
    assert all(low is None or low >= floor for _, low, floor in calls)


def test_a_traced_zero_and_pole_on_different_levels_cancel():
    # the tracer reads ``terms`` of every node part, whatever its count
    plain = multisum_eval(_split_unit_spec(None, None), 40)
    got, calls = _traced(_split_unit_spec(False, True), 40)
    assert got.cutoff == plain.cutoff == 40 and got.terms == plain.terms
    assert (1, 1) in [node for node, _, _ in calls]


def test_a_wrapped_hook_still_checks_the_chain_floor():
    # chain (1, 0) has valuation 2; a floor of 3 there is no certificate
    spec = _ag_spec(lambda d, s: 2 * s * s + (d == 1 and s == 1))
    with pytest.raises(CertificateViolation, match=r"floor 3 exceeds term valuation 2"):
        _traced(spec, 40)
    with pytest.raises(CertificateViolation):
        multisum_eval(spec, 40)


# ---------------------------------------------------------------------------
# depth-4 catalog sums against the per-chain reference
# ---------------------------------------------------------------------------

def _catalog_spec(name, params, monkeypatch):
    """The MultisumSpec that the catalog's left side of ``name`` evaluates."""
    from qbailey import catalog
    got = []
    with monkeypatch.context() as m:
        m.setattr(catalog, "multisum_eval", lambda spec, cutoff: got.append(spec))
        catalog.CATALOG[name].lhs(params, 1)
    return got[0]


@pytest.mark.parametrize("name, params", [("ag", {"r": 5, "i": 4}),
                                          ("mag", {"m": 3, "r": 4, "i": 4})])
@pytest.mark.parametrize("cutoff", [1, 2, 7, 20, 36])
def test_depth_four_catalog_sums_equal_the_per_chain_sum(name, params, cutoff, monkeypatch):
    # mag's chains start at lower_bound -1 and its innermost index is capped
    # at 0; in the box s_1 <= 8, level 1's q-power alone is past the cutoff
    # at s_1 = 8 and the other levels' valuations are at least -2 each
    spec = _catalog_spec(name, params, monkeypatch)
    assert spec.depth == 4
    out = []
    for chain in _chains(4, spec.lower_bound, spec.last_upper, 8):
        fp = _chain_product(spec, chain)
        if fp.val_bound() < cutoff:
            assert chain[0] < 8, "the box is too narrow"
            out.append(fp.series(cutoff))
    want = sum_series(out, cutoff)
    got = multisum_eval(spec, cutoff)
    assert got.cutoff == want.cutoff == cutoff
    assert got.terms == want.terms
