"""The nested-sum evaluator: its seeded walk against a per-chain reference."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qbailey.errors import CertificateViolation, PoleError
from qbailey.multisum import MultisumSpec, multisum_eval
from qbailey.qparams import QParam
from qbailey.qfunctions import FactorProduct, poch_val
from qbailey.series import INF, Series, sum_series

Q = QParam.finite(1, 2)


def _rr_level(d, prev, s):
    return FactorProduct().times_qpow(2 * s * s).times_poch(Q, s, den=True)


def test_single_sum_matches_partition_counts():
    spec = MultisumSpec(depth=1, lower_bound=0, level=_rr_level,
                        level_floor=lambda d, s: 2 * s * s)
    got = multisum_eval(spec, 20)
    assert [got.terms.get(2 * n, 0) for n in range(10)] == \
        [1, 1, 1, 1, 2, 2, 3, 3, 4, 5]


def test_empty_chain_range_gives_zero():
    spec = MultisumSpec(depth=2, lower_bound=3,
                        level=lambda d, prev, s: FactorProduct(),
                        level_floor=lambda d, s: 2 * s * s,
                        last_upper=1)  # lower bound above the cap: no chains
    got = multisum_eval(spec, 10)
    assert got.is_zero_below_cutoff()
    assert got.cutoff == 10


def test_double_sum_with_delta_weight_collapses_to_single():
    # the two-fold chain weighted by a delta at the inner index collapses to
    # the single sum (the inner variable is pinned to zero)
    def level(d, prev, s):
        fp = FactorProduct().times_qpow(2 * s * s)
        if d == 2:
            if s != 0:
                return fp.times_scalar(0)
            fp.times_poch(Q, prev - s, den=True).times_poch(Q, s, den=True)
            fp.times_qpow(2 * s)
        return fp

    spec = MultisumSpec(depth=2, lower_bound=0, level=level,
                        level_floor=lambda d, s: 2 * s * s, last_upper=0)
    double = multisum_eval(spec, 40)
    single = MultisumSpec(depth=1, lower_bound=0, level=_rr_level,
                          level_floor=lambda d, s: 2 * s * s)
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


def _factor(fp, c, h, den):
    fp.times_factor(QParam.finite(c, h), den=den)


def _factor_floor(c, h, den):
    return -min(0, h) if den else min(0, h)


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
    def level(d, prev, s):
        lv = data[d - 1]
        fp = FactorProduct().times_qpow(6 * s * s + lv["beta"] * s)
        if lv["link"]:
            b = lv["link"]
            fp.times_poch(QParam.finite(1, b), prev - s, base=b, den=True)
        for c, h0, k, den in lv["on_s"]:
            _factor(fp, c, h0 + k * s, den)
        for c, h0, k, den in lv["on_prev"]:
            _factor(fp, c, h0 + k * prev, den)
        for c, h0, k, base, den in lv["tails"]:
            fp.times_poch(QParam.finite(c, h0 + k * prev), INF, base=base, den=den)
        if d == depth and final:
            fp.times_poch(QParam.finite(1, final), s, base=final, den=True)
        return fp

    def level_floor(d, s):
        lv = data[d - 1]
        e = 6 * s * s + lv["beta"] * s
        e += sum(_factor_floor(c, h0 + k * s, den) for c, h0, k, den in lv["on_s"])
        if d < depth:  # the next level's factors in s_{d+1}'s predecessor
            nxt = data[d]
            e += sum(_factor_floor(c, h0 + k * s, den) for c, h0, k, den in nxt["on_prev"])
            for c, h0, k, base, den in nxt["tails"]:
                v, _ = poch_val(QParam.finite(c, h0 + k * s), INF, base)
                e += -v if den else v
        if d == depth and final and s < 0:
            # 1/(x^f; x^f)_s = (x^(f + f s); x^f)_(-s): zero through its last
            # factor (1 - x^0), but a pole on the chain may cancel that one,
            # leaving the others' negative exponents
            e += sum(range(final * (s + 1), 0, final))
        if d == depth and seed_terms:
            e += min(seed_terms) + 2 * s
        return e

    seed = _Seed(seed_terms) if seed_terms else None
    spec = MultisumSpec(depth=depth, lower_bound=lb, level=level, level_floor=level_floor,
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


def _reference(spec, seed, cutoff):
    """The sum over chains of one FactorProduct each, built from scratch:
    every chain whose floor lies below the cutoff, in a box wide enough that
    the quadratic floors of all others pass it."""
    out = []
    for chain in _chains(spec.depth, spec.lower_bound, spec.last_upper, 12):
        if spec.val_floor(chain) >= cutoff:
            continue
        fp = FactorProduct()
        prev = None
        for d, s in enumerate(chain, 1):
            fp.times(spec.level(d, prev, s))
            prev = s
        if seed is None:
            out.append(fp.series(cutoff))
        else:
            s = chain[-1]
            out.append(fp.series_times(lambda c: seed(s, c), cutoff, seed.val_bound(s)))
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
    """Depth 2 with q^(4 s^2): level 1 carries (1 - x^(2 s_1 - 2))^(+-1) per
    ``outer``, level 2 carries (1 - x^(2 s_1 - 2))^(+-1) per ``inner`` (a
    factor in s_{d-1}); each is (1 - x^0) at s_1 = 1."""
    def level(d, prev, s):
        fp = FactorProduct().times_qpow(4 * s * s)
        if d == 1 and outer is not None:
            _factor(fp, Fraction(1), 2 * s - 2, outer)
        if d == 2:
            fp.times_poch(Q, prev - s, den=True)
            if inner is not None:
                _factor(fp, Fraction(1), 2 * prev - 2, inner)
        return fp

    def level_floor(d, s):
        e = 4 * s * s
        if d == 1:
            e += sum(_factor_floor(1, 2 * s - 2, den) for den in (outer, inner)
                     if den is not None)
        return e

    return MultisumSpec(depth=2, lower_bound=0, level=level, level_floor=level_floor)


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
# the emission hook, wrapped the way a tracer wraps it
# ---------------------------------------------------------------------------

def _ag_level(d, prev, s):
    """Depth 2: q^(s_1^2 + s_2^2) / ((q)_{s_1-s_2} (q)_{s_2}), with a rational
    factor (1 - 2/3 q^(s_2 + 1/2)) on the inner level."""
    fp = FactorProduct().times_qpow(2 * s * s)
    if d == 2:
        fp.times_poch(Q, prev - s, den=True).times_poch(Q, s, den=True)
        fp.times_factor(QParam.finite(Fraction(2, 3), 2 * s + 1))
    return fp


def _ag_spec(level_floor=lambda d, s: 2 * s * s):
    return MultisumSpec(depth=2, lower_bound=0, level=_ag_level, level_floor=level_floor)


def _traced(spec, cutoff):
    """multisum_eval with ``spec.term`` wrapped as perfbench/tracing.py wraps
    it: ``dataclasses.replace``, call the original, read ``terms`` of what it
    returns.  Also returns (chain, least exponent of its terms) per call."""
    calls = []

    def term(chain, leaf):
        t = spec.term(chain, leaf)
        calls.append((chain, min(t.terms) if t.terms else None))
        return t

    return multisum_eval(dataclasses.replace(spec, term=term), cutoff), calls


def test_a_wrapped_hook_sees_every_chain_once_and_leaves_the_sum_alone():
    cutoff = 60
    spec = _ag_spec()
    got, calls = _traced(spec, cutoff)
    plain = multisum_eval(spec, cutoff)
    chains = [c for c in _chains(2, 0, None, 12) if spec.val_floor(c) < cutoff]
    want = {}
    for chain in chains:
        t = _ag_level(1, None, chain[0]).times(_ag_level(2, chain[0], chain[1])).series(cutoff)
        want[chain] = min(t.terms) if t.terms else None
    assert got.cutoff == plain.cutoff == cutoff and got.terms == plain.terms
    assert got.terms == sum_series(
        [_ag_level(1, None, a).times(_ag_level(2, a, b)).series(cutoff) for a, b in chains],
        cutoff).terms
    assert sorted(c for c, _ in calls) == sorted(chains)  # once per emitted chain
    assert dict(calls) == want  # min(t.terms) is the chain's term valuation
    assert all(v == spec.val_floor(c) for c, v in calls)


def test_a_wrapped_hook_still_checks_the_chain_floor():
    # chain (1, 0) has valuation 2; a floor of 3 there is no certificate
    spec = _ag_spec(lambda d, s: 2 * s * s + (d == 1 and s == 1))
    with pytest.raises(CertificateViolation, match=r"floor 3 exceeds term valuation 2"):
        _traced(spec, 40)
    with pytest.raises(CertificateViolation):
        multisum_eval(spec, 40)
