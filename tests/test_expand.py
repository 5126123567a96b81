"""The dense factor kernel against sparse Series arithmetic and the oracle."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qbailey.oracle import DenseSeries, dense_invert, dense_mul
from qbailey.qfunctions import _expand
from qbailey.series import INF, Series

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
monos = st.tuples(coeffs, st.integers(-8, 12)).filter(lambda m: m != (1, 0))
multisets = st.lists(st.tuples(monos, st.integers(1, 3)), max_size=4)


def _flat(ms):
    return [m for m, k in ms for _ in range(k)]


def _terms(c, h):
    return {0: 1 - c} if h == 0 else {0: 1, h: -c}


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
    got = _expand(num, den, cutoff)
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
