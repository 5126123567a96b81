"""The dense factor kernel against sparse Series arithmetic and the oracle."""

from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import pytest

from qbailey import cli
from qbailey.errors import BadParam, InvertZero, PoleError
from qbailey.oracle import DenseSeries, dense_invert, dense_mul, sum_series
from qbailey.pairs import BilateralSequence
from qbailey.qfunctions import (DenseSum, FactorProduct, PartialProduct, Valuation, plans_floor,
                                poch, poch_recip, poch_val, sum_plans)
from qbailey.qparams import QParam
from qbailey.series import INF, Series, product_at

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
monos = st.tuples(coeffs, st.integers(-8, 12)).filter(lambda m: m != (1, 0))
multisets = st.lists(st.tuples(monos, st.integers(1, 3)), max_size=4)


def _flat(ms):
    return [m for m, k in ms for _ in range(k)]


def _terms(c, h):
    return {0: 1 - c} if h == 0 else {0: 1, h: -c}


def _fp(num, den):
    """The FactorProduct of the monomials (c, h): prod(1 - c x^h) over ``num``
    divided by that over ``den``; equal factors cancel."""
    fp = FactorProduct()
    for m in num:
        fp.times_factor(QParam.finite(*m))
    for m in den:
        fp.times_factor(QParam.finite(*m), den=True)
    return fp


def _sparse(num, den, cutoff):
    out = Series.one()
    for m in num:
        out = out * Series(_terms(*m))
    if den:
        d = Series.one()
        for m in den:
            d = d * Series(_terms(*m))
        out = out * d.invert(cutoff - out.val())
    return out if cutoff is None else out.truncate(cutoff)


def _dense(num, den, cutoff):
    out = DenseSeries(0, [1])
    for m in num:
        out = dense_mul(out, DenseSeries.from_terms(_terms(*m)))
    if den:
        d = DenseSeries(0, [1])
        for m in den:
            d = dense_mul(d, DenseSeries.from_terms(_terms(*m)))
        inv = dense_invert(d, cutoff - min(out.to_terms()))
        if not inv.coeffs:  # nothing of the quotient lies below the cutoff
            return {}
        out = dense_mul(out, inv)
    return {e: c for e, c in out.to_terms().items() if cutoff is None or e < cutoff}


def _check(num, den, cutoff):
    got = _fp(num, den).series(cutoff)
    assert got.cutoff == (INF if cutoff is None else cutoff)
    assert got.terms == _sparse(num, den, cutoff).terms
    assert got.terms == _dense(num, den, cutoff)
    for c in got.terms.values():
        assert Fraction(c).denominator != 1 or type(c) is int


@settings(max_examples=150, deadline=None)
@given(multisets)
def test_expand_exact_polynomial(num):
    _check(_flat(num), [], None)


@settings(max_examples=150, deadline=None)
@given(multisets, multisets, st.integers(-20, 40))
def test_expand_with_denominators(num, den, cutoff):
    _check(_flat(num), _flat(den), cutoff)


# infinite products (c q^(h/2); q^(base/2))_oo, in the numerator or not
inf_products = st.lists(st.tuples(coeffs, st.integers(-8, 12), st.sampled_from([2, 4, 10]),
                                  st.booleans()), max_size=4)


@settings(max_examples=150, deadline=None)
@given(inf_products, st.integers(-6, 6), st.integers(1, 40))
def test_infinite_factors_match_pochhammer_products(prods, halves, cutoff):
    parts = []
    for c, h, base, den in prods:
        p = QParam.finite(c, h)
        v, kind = poch_val(p, INF, base)
        if den and kind == "zero":
            continue  # a pole: see the pinned cases below
        parts.append((p, base, den, INF if kind == "zero" else (-v if den else v)))
    fp = FactorProduct().times_qpow(halves)
    for p, base, den, _ in parts:
        fp.times_poch(p, INF, base, den)
    got = fp.series(cutoff)
    # each part is built far enough that the Series.__mul__ product is exact
    # below the cutoff whatever the other parts' valuations
    at = cutoff - halves + sum(max(0, -v) for *_, v in parts if v != INF)
    want = Series.monomial(1, halves)
    for p, base, den, _ in parts:
        want = want * (poch_recip(p, INF, at, base) if den else poch(p, INF, at, base))
    want = want.truncate(cutoff)
    assert got.terms == want.terms
    if any(v == INF for *_, v in parts):
        assert fp.val_bound() == INF
    else:
        assert got.cutoff == cutoff
        assert fp.val_bound() == halves + sum(v for *_, v in parts)


def test_a_zero_infinite_numerator_is_the_zero_product():
    fp = FactorProduct().times_poch(QParam.finite(1, -4), INF)  # (q^-2;q)_oo = 0
    assert fp.val_bound() == INF
    assert not fp.series(20).terms


def test_a_cancelled_infinite_denominator_zero_is_finite():
    # (1 - q^0) / (q^-2;q)_oo = 1 / ((1 - q^-2)(1 - q^-1)(q;q)_oo)
    q = QParam.finite(1, 2)
    fp = FactorProduct().times_factor(QParam.finite(1, 0))
    fp.times_poch(QParam.finite(1, -4), INF, den=True)
    want = (poch_recip(QParam.finite(1, -4), 2, 40) * poch_recip(q, INF, 40)).truncate(30)
    got = fp.series(30)
    assert fp.val_bound() == 6
    assert got.cutoff == 30 and got.terms == want.terms


def test_an_uncancelled_infinite_denominator_zero_is_a_pole():
    fp = FactorProduct().times_poch(QParam.finite(1, -4), INF, den=True)
    with pytest.raises(PoleError):
        fp.series(20)


# seeds: Laurent series of either sign of valuation, int or Fraction
# coefficients, exact or known only below a finite cutoff
seed_coeffs = st.one_of(st.integers(-5, 5), coeffs).filter(bool)


@st.composite
def seeds(draw):
    terms = draw(st.dictionaries(st.integers(-10, 10), seed_coeffs, min_size=1, max_size=6))
    cutoff = draw(st.one_of(st.just(INF), st.integers(min(terms) + 1, 25)))
    return Series(terms, cutoff)


@settings(max_examples=200, deadline=None)
@given(multisets, multisets, st.one_of(st.none(), st.integers(-20, 40)), seeds())
def test_seeded_expand_is_the_product_with_its_seed(num, den, cutoff, seed):
    num, den = _flat(num), _flat(den)
    # an exact product admits no denominator factor left after cancellation
    if cutoff is None and any(h for _, h in Counter(den) - Counter(num)) and seed.cutoff == INF:
        with pytest.raises(InvertZero):
            _fp(num, den).series(cutoff, seed)
        return
    got = _fp(num, den).series(cutoff, seed)
    # the unseeded product, exact below the target cutoff less the seed's valuation
    shift = sum(min(0, h) for _, h in num) - sum(min(0, h) for _, h in den)
    target = min(INF if cutoff is None else cutoff, seed.cutoff + shift)
    plain = _fp(num, den).series(None if target == INF else target - seed.val())
    want = plain * seed
    assert got.cutoff == want.cutoff == target
    assert got.terms == want.terms
    if plain.terms:
        dense = dense_mul(DenseSeries.from_terms(plain.terms, plain.cutoff),
                          DenseSeries.from_terms(seed.terms, seed.cutoff))
        assert got.terms == {e: c for e, c in dense.to_terms().items() if e < target}
    else:
        assert not got.terms


@settings(max_examples=150, deadline=None)
@given(multisets, multisets, inf_products, st.integers(-6, 6), seeds(),
       st.integers(0, 4), st.integers(-10, 40))
def test_series_times_matches_a_product_at_reference(num, den, prods, halves, s, slack,
                                                     cutoff):
    fp = FactorProduct().times_qpow(halves)
    for m in _flat(num):
        fp.times_factor(QParam.finite(*m))
    for m in _flat(den):
        fp.times_factor(QParam.finite(*m), den=True)
    for c, h, base, inv in prods:
        if not (inv and poch_val(QParam.finite(c, h), INF, base)[1] == "zero"):
            fp.times_poch(QParam.finite(c, h), INF, base, inv)
    exact = Series(s.terms)  # the built series: exact, of either sign of valuation
    floor = exact.val() - slack
    built = []

    def build(c):
        built.append(c)
        return exact.truncate(c)

    v = fp.val_bound()
    got = fp.series_times(build, cutoff, floor)
    want = product_at(cutoff, [(fp.series, v), (exact.truncate, floor)])
    assert got.terms == want.terms
    assert got.cutoff == cutoff
    assert built == ([] if v + floor >= cutoff else [cutoff - v])
    assert fp.val_bound() == v


def test_series_times_leaves_the_product_unchanged():
    fp = FactorProduct().times_factor(QParam.finite(2, 2))
    fp.times_poch(QParam.finite(1, 2), INF, den=True)
    fp.times_series(Series({0: 1, 2: 3}))
    seq = Series({-4: 1, 0: -2}, 30)
    first = fp.series_times(lambda c: seq.truncate(c), 20, -4)
    second = fp.series_times(lambda c: seq.truncate(c), 20, -4)
    assert first.cutoff == second.cutoff == 20
    assert first.terms == second.terms
    assert len(fp.extras) == 1


def test_a_lambda1_collision_is_a_pole():
    # b1 = a q^2: (a/b1)_oo vanishes where the j = 2 term has a 1/(b1 - a q^2) pole
    argv = ["verify", "--identity", "lambda1", "--r", "2", "--i", "1", "--cutoff", "20",
            "--param", "a=2*q^(2/2)", "--param", "b1=2*q^(6/2)",
            "--param", "c1=inf", "--param", "c2=inf"]
    assert cli.main(argv) == 3


# rational factors: the kernel runs on ints over one common denominator

def _seeded_reference(num, den, cutoff, seed):
    """seed * prod num / prod den by Series.__mul__/invert and by the oracle."""
    shift = sum(min(0, h) for _, h in num) - sum(min(0, h) for _, h in den)
    target = min(cutoff, seed.cutoff + shift)
    plain = _sparse(num, den, target - seed.val())
    want = plain * seed
    assert want.cutoff == target
    dense = dense_mul(DenseSeries.from_terms(plain.terms, plain.cutoff),
                      DenseSeries.from_terms(seed.terms, seed.cutoff))
    assert want.terms == {e: c for e, c in dense.to_terms().items() if e < target}
    return want


@pytest.mark.parametrize("den", [[(Fraction(2, 3), 1)] * 3, [(Fraction(3, 4), 3)] * 2])
def test_rational_denominator_factors_to_a_high_order(den):
    # 401 halves: 1/(1 - (3/4)x^3) runs over 133 whole blocks of 3 and a partial one
    _check([], den, 401)


def test_factors_with_their_own_denominators_on_both_sides_of_a_rational_seed():
    num = [(Fraction(2, 3), 1), (Fraction(-5, 4), 2), (Fraction(1, 5), -3)]
    den = [(Fraction(3, 4), 1), (Fraction(-2, 5), 2), (Fraction(4, 3), 3), (Fraction(5, 3), -2)]
    for cutoff in (INF, 47):
        seed = Series({-3: Fraction(1, 6), 0: Fraction(-5, 7), 4: 2, 9: Fraction(3, 10)},
                      cutoff)
        got = _fp(num, den).series(120, seed)
        want = _seeded_reference(num, den, 120, seed)
        assert got.cutoff == want.cutoff
        assert got.terms == want.terms
        for c in got.terms.values():
            assert Fraction(c).denominator != 1 or type(c) is int


def _inf_part(c, h, base, inv):
    """(c q^(h/2); q^(base/2))_oo or its reciprocal, listed and multiplied out
    with Series arithmetic; a (build, valuation) part for ``product_at``."""
    v, _ = poch_val(QParam.finite(c, h), INF, base)
    w = -v if inv else v

    def build(at):
        # an omitted factor (1 - c x^e) changes the part by O(x^(w + e))
        prod = Series.one()
        j = 0
        while h + j * base < max(at - w, 1):
            prod = prod * Series(_terms(c, h + j * base))
            j += 1
        return prod.invert(at) if inv else prod.truncate(at)

    return build, w


# extras: exact bracket polynomials, and at most one series known only below a cutoff
exact_polys = st.dictionaries(st.integers(-6, 8), seed_coeffs, min_size=1, max_size=4).map(Series)
extra_lists = st.tuples(st.lists(exact_polys, max_size=2), st.one_of(st.none(), seeds())).map(
    lambda t: t[0] + ([] if t[1] is None else [t[1]]))


@settings(max_examples=150, deadline=None)
@given(coeffs, st.integers(-6, 6), multisets, multisets, inf_products, extra_lists, seeds(),
       st.integers(-10, 40))
def test_a_scaled_factor_product_matches_a_product_at_reference(scalar, halves, num, den,
                                                                prods, extras, seed, cutoff):
    fp = FactorProduct().times_scalar(scalar).times_qpow(halves)
    parts = [(lambda at: Series.monomial(scalar, halves), halves), (seed.truncate, seed.val())]
    for s in extras:
        fp.times_series(s)
        parts.append((s.truncate, s.val()))
    for m in _flat(num):
        fp.times_factor(QParam.finite(*m))
        parts.append((lambda at, m=m: Series(_terms(*m)), min(0, m[1])))
    for m in _flat(den):
        fp.times_factor(QParam.finite(*m), den=True)
        parts.append((lambda at, m=m: Series(_terms(*m)).invert(at), -min(0, m[1])))
    for c, h, base, inv in prods:
        v, kind = poch_val(QParam.finite(c, h), INF, base)
        if inv and kind == "zero":
            continue  # a pole
        fp.times_poch(QParam.finite(c, h), INF, base, inv)
        parts.append((None, INF) if kind == "zero" else _inf_part(c, h, base, inv))
    got = fp.series_times(seed.truncate, cutoff, seed.val())
    want = product_at(cutoff, parts)
    assert got.cutoff == want.cutoff
    assert got.terms == want.terms


# ---------------------------------------------------------------------------
# DenseSum against sum_series over the same kernel results built as Series
# ---------------------------------------------------------------------------

@st.composite
def partial_products(draw):
    """A kernel result (PartialProduct, c), exact below c: a random list with
    its own scalar, denominator and shift, or annihilated, or with a
    (1 - x^0) count of either sign."""
    kind = draw(st.sampled_from(["list"] * 6 + ["annihilated", "zero", "pole"]))
    if kind == "annihilated":
        return PartialProduct(None), draw(st.one_of(st.just(INF), st.integers(-10, 30)))
    a = draw(st.lists(st.integers(-40, 40), max_size=12))
    top = draw(st.integers(-1, len(a) - 1)) if a else -1
    a[top + 1:] = [0] * (len(a) - top - 1)  # a[e] == 0 for every e > top
    part = PartialProduct(a, draw(st.integers(1, 36)), top, draw(coeffs),
                          draw(st.integers(-15, 15)),
                          {"list": 0, "zero": 1, "pole": -1}[kind])
    # exact below shift + len(a), as in a multisum walk, below less, or past
    # the list where its remaining entries are zero
    cut = draw(st.one_of(st.just(part.shift + len(a)), st.just(INF),
                         st.integers(part.shift - 2, part.shift + len(a) + 3)))
    return part, cut


@st.composite
def kernel_results(draw):
    """What ``FactorProduct.part`` hands back for random factors and seeds."""
    num, den, seed = draw(multisets), draw(multisets), draw(seeds())
    return _fp(_flat(num), _flat(den)).part(draw(st.integers(-20, 40)), seed)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(partial_products(), kernel_results()), max_size=6),
       st.one_of(st.just(INF), st.integers(-10, 30)))
def test_dense_sum_equals_the_sum_of_the_built_series(parts, cutoff):
    total = DenseSum(cutoff)
    if any(p.a is not None and p.zeros < 0 for p, _ in parts):
        with pytest.raises(PoleError):
            for p, c in parts:
                total.add(p, c)
        with pytest.raises(PoleError):
            [p.series(c) for p, c in parts]
        return
    for p, c in parts:
        total.add(p, c)
    got = total.series()
    # a built Series keeps no term at or past its cutoff
    want = sum_series([Series(s.terms, s.cutoff) for s in (p.series(c) for p, c in parts)],
                      cutoff)
    assert got.cutoff == want.cutoff
    assert got.terms == want.terms
    for c in got.terms.values():
        assert type(c) is int or Fraction(c).denominator != 1


def test_dense_sum_of_nothing_keeps_its_cutoff():
    total = DenseSum(17)
    total.add(PartialProduct(None), 5)         # annihilated
    total.add(PartialProduct([1, 2], zeros=1), 5)  # a (1 - x^0) factor
    got = total.series()
    assert got.cutoff == 17 and not got.terms
    total.add(PartialProduct([]), 9)  # zero, known only below x^9
    assert total.series().cutoff == 9


# ---------------------------------------------------------------------------
# plans: their floor and their sum against each plan's own series
# ---------------------------------------------------------------------------

@st.composite
def plans(draw):
    """A plan (fp, seq, k): a bare product (seq None) or a product times a
    one-index sequence whose value at k is a drawn series, with a certificate
    at or below its valuation (INF off its support)."""
    fp = _fp(_flat(draw(multisets)), _flat(draw(multisets)))
    fp.times_qpow(draw(st.integers(-6, 6)))
    if draw(st.booleans()):
        return fp, None, None
    value = draw(seeds())
    slack = draw(st.integers(0, 3))
    k = draw(st.integers(-2, 2))
    seq = BilateralSequence(lambda n, c: value.truncate(c), lambda n: value.val() - slack,
                            support=(0, 0))
    return fp, seq, k


def _own_series(fp, seq, k, cutoff):
    """The plan's own series, exact below ``cutoff``: fp alone, or fp times
    seq(k) listed as far as the cutoff needs, and nothing built at or past
    the cutoff."""
    if seq is None:
        return fp.series(cutoff)
    v = fp.val_bound()
    if v + seq.val_bound(k) >= cutoff:
        return Series.zero(cutoff)
    return fp.series(cutoff, seq(k, cutoff - v))


@settings(max_examples=300, deadline=None)
@given(st.lists(plans(), max_size=5), st.integers(-10, 30))
@example([], 17)  # no plan: an INF floor, and the cutoff kept
def test_sum_plans_is_the_sum_of_each_plans_own_series(drawn, cutoff):
    floors = [plans_floor([p]) for p in drawn]
    assert plans_floor(drawn) == min(floors, default=INF)
    built = [Series(s.terms, s.cutoff) for s in (_own_series(*p, cutoff) for p in drawn)]
    for s, f in zip(built, floors):
        assert all(e >= f for e in s.terms)
    got = sum_plans(drawn, cutoff)
    want = sum_series(built, cutoff)
    assert got.cutoff == want.cutoff
    assert got.terms == want.terms


# ---------------------------------------------------------------------------
# the valuation accumulator and poch_val against the FactorProduct they read
# ---------------------------------------------------------------------------

# c = 1 at an exponent on the base's lattice gives (1 - x^0) factors
params = st.one_of(st.builds(QParam.finite, st.sampled_from([1, -1, 2, Fraction(1, 2)]),
                             st.integers(-8, 8)),
                   st.just(QParam.zero()))
indices = st.one_of(st.integers(-6, 6), st.just(INF))
times_calls = st.one_of(
    st.tuples(st.just("times_scalar"), st.sampled_from([1, -2, Fraction(1, 3), 0])),
    st.tuples(st.just("times_qpow"), st.integers(-6, 6)),
    st.tuples(st.just("times_param_pow"), params, st.integers(-3, 3)),
    st.tuples(st.just("times_factor"), params, st.integers(-6, 6), st.booleans()),
    st.tuples(st.just("times_poch"), params, indices, st.sampled_from([2, 4]), st.booleans()),
    st.tuples(st.just("times_series"),
              st.dictionaries(st.integers(-4, 6), coeffs, max_size=3).map(Series)))


def _rule(fp):
    """halves + sum of min(0, h) over the numerator factors, less over the
    denominator factors, + the extras' valuations; INF when annihilated."""
    if fp.annihilated:
        return INF
    return (fp.halves + sum(min(0, h) * n for (_, h), n in fp.num.items())
            - sum(min(0, h) * n for (_, h), n in fp.den.items())
            + sum(s.val() for s in fp.extras))


@settings(max_examples=100, deadline=None)
@given(st.lists(times_calls, max_size=6))
def test_the_valuation_accumulator_reads_the_factor_product(calls):
    fp, acc = FactorProduct(), Valuation()
    for name, *args in calls:
        try:
            getattr(fp, name)(*args)
        except BadParam:
            with pytest.raises(BadParam):
                getattr(acc, name)(*args)
            return
        getattr(acc, name)(*args)
    assert acc.v == _rule(fp)
    # a (1 - x^0) counts as a unit; it cancels, or is a pole, in the product
    if fp.num[1, 0] <= fp.den[1, 0]:
        assert acc.v == fp.val_bound()


@settings(max_examples=100, deadline=None)
@given(params, indices, st.sampled_from([2, 4]))
def test_poch_val_reads_the_factors_times_poch_installs(p, k, base):
    fp = FactorProduct().times_poch(p, k, base)
    zeros = fp.num[1, 0] - fp.den[1, 0]
    want = ((INF, "zero") if zeros > 0 else (None, "pole") if zeros < 0
            else (_rule(fp), "ok"))
    assert poch_val(p, k, base) == want
