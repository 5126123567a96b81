"""Pochhammer symbols, q-binomials, symmetric polynomials, triple products."""

import random
from fractions import Fraction

import pytest

from qbailey.errors import BadParam, InvertZero, NegativeN, PoleError
from qbailey.qparams import QParam, parse_qparam
from qbailey.qfunctions import (FactorProduct, esym, jacobi_triple, poch,
                                poch_recip, qbinom, triple_product)
from qbailey.series import INF, Series, first_diff, series_equal

Q = QParam.finite(1, 2)


def test_poch_basics():
    assert poch(QParam.finite(3, 2), 0).terms == {0: 1}
    assert poch(Q, 3).terms == {0: 1, 2: -1, 4: -1, 8: 1, 10: 1, 12: -1}
    with pytest.raises(PoleError):
        poch(Q, -1, 10)
    assert poch_recip(Q, -1, 10).is_zero_below_cutoff()
    assert poch_recip(Q, -2, 10).cutoff == INF  # exactly zero by convention
    assert poch_recip(QParam.finite(2, 4), 0, 10).terms == {0: 1}


def test_poch_recip_matches_dense_division():
    from qbailey.oracle import DenseSeries, dense_invert, dense_mul
    got = poch_recip(Q, 2, 20)
    dense = dense_invert(dense_mul(DenseSeries.from_terms({0: 1, 2: -1}),
                                   DenseSeries.from_terms({0: 1, 4: -1})), 20)
    assert got.terms == dense.to_terms()


def test_poch_recurrence_and_splitting():
    rng = random.Random(3)
    for _ in range(10):
        a = QParam.finite(Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                          rng.randint(1, 4))
        k = rng.randint(0, 5)
        lhs = poch(a, k + 1, 40)
        rhs = poch(a, k, 40) * Series({0: 1, a.halves + 2 * k: -a.coeff})
        assert series_equal(lhs, rhs, upto=40)
        # (a)_oo = (a)_k (a q^k)_oo
        full = poch(a, INF, 40)
        split = poch(a, k, 40) * poch(a.q_shift(2 * k), INF, 40)
        assert series_equal(full, split, upto=40)


def test_poch_negative_valuation_argument():
    # (q^{-2}; q^5)_oo carries finitely many negative-valuation factors
    s = poch(QParam.finite(1, -4), INF, 20, base=10)
    assert s.val() == -4
    assert s.coeff(-4) == -1


def test_qbinom_values_and_bounds():
    assert qbinom(2, 1).terms == {0: 1, 2: 1}
    assert qbinom(4, 2).terms == {0: 1, 2: 1, 4: 2, 6: 1, 8: 1}
    assert qbinom(3, -1).is_zero_below_cutoff()
    assert qbinom(3, 5).is_zero_below_cutoff()
    assert qbinom(5, 0).terms == {0: 1}
    with pytest.raises(NegativeN):
        qbinom(-1, 0)
    # oracle route: (q)_N / ((q)_j (q)_{N-j})
    got = qbinom(6, 2)
    via = poch(Q, 6, 40) * poch_recip(Q, 2, 40) * poch_recip(Q, 4, 40)
    assert series_equal(got, via, upto=40)
    # base q^2 scales exponents
    assert qbinom(2, 1, base=4).terms == {0: 1, 4: 1}


def test_qbinom_symmetry_and_pascal():
    for n in range(0, 12):
        for j in range(0, n + 1):
            assert qbinom(n, j).terms == qbinom(n, n - j).terms
    for n in range(0, 11):
        for j in range(0, n + 2):
            lhs = qbinom(n + 1, j)
            r1 = qbinom(n, j).times_monomial(1, 2 * j) + qbinom(n, j - 1)
            r2 = qbinom(n, j) + qbinom(n, j - 1).times_monomial(1, 2 * (n + 1 - j))
            assert lhs.terms == r1.terms
            assert lhs.terms == r2.terms


def test_qbinom_at_another_base_is_the_scaled_value_built_once():
    got = qbinom(7, 3, base=4)
    assert got.terms == {2 * e: c for e, c in qbinom(7, 3).terms.items()}
    assert got.cutoff == INF
    assert qbinom(7, 3, base=4) is got  # served from the memo, not scaled again


def test_esym():
    b = QParam.finite(2, 2)
    assert esym(0, [b, b]).terms == {0: 1}
    assert esym(3, [b, b]).is_zero_below_cutoff()
    assert esym(-1, [b]).is_zero_below_cutoff()
    assert esym(2, [b, b, b]).terms == {4: 12}  # 3 b^2 = 12 q^2
    mixed = esym(2, [QParam.finite(1, 2), QParam.finite(-1, 0), QParam.zero()])
    assert mixed.terms == {2: -1}


def test_jacobi_triple_admissible_grid():
    rng = random.Random(17)
    cases = [(Fraction(1), 2, 10), (Fraction(1), 6, 10), (Fraction(2), 1, 2),
             (Fraction(-1), 2, 4), (Fraction(1), -4, 10), (Fraction(1, 2), 3, 6),
             (Fraction(-1), 1, 4), (Fraction(3), 5, 8), (Fraction(1), 4, 8),
             (Fraction(-2), 3, 6)]
    assert len(cases) == 10
    for c, h, base in cases:
        s_side, p_side = jacobi_triple(QParam.finite(c, h), 30, base=base)
        order, diff = first_diff(s_side, p_side, 30)
        assert diff is None, (c, h, base, diff)


def test_jacobi_triple_degenerate_z():
    s_side, p_side = jacobi_triple(Q, 24)
    assert s_side.is_zero_below_cutoff()
    assert p_side.is_zero_below_cutoff()


def test_factor_product_cancellation():
    one = QParam.finite(1, 0)
    fp = FactorProduct().times_factor(one).times_factor(one, 0, den=True)
    assert fp.series(10).terms == {0: 1}
    fp = FactorProduct().times_factor(one).times_factor(one, 4, den=True)
    assert fp.series(10).is_zero_below_cutoff()
    with pytest.raises(PoleError):
        FactorProduct().times_factor(one, 0, den=True).series(10)


A = QParam.finite(3, 2)          # 3q
VANISHING = QParam.finite(1, -4)  # q^-2: (q^-2;q)_k has the factor (1 - q^0) for k >= 3
F = Fraction


EDGE_CASES = [
    # values
    ("poch-k3-c5", lambda: poch(A, 3, 5), {0: 1, 2: -3, 4: -3}, 5),
    ("poch-k3-exact", lambda: poch(A, 3), {0: 1, 2: -3, 4: -3, 6: 6, 8: 9, 10: 9, 12: -27}, INF),
    ("poch-kneg", lambda: poch(A, -2, 10),
     {2: F(1, 6), 4: F(1, 18), 6: F(1, 54), 8: F(1, 162)}, 10),
    ("poch-inf", lambda: poch(A, INF, 10), {0: 1, 2: -3, 4: -3, 6: 6, 8: 6}, 10),
    ("recip-k3", lambda: poch_recip(A, 3, 10), {0: 1, 2: 3, 4: 12, 6: 39, 8: 126}, 10),
    ("recip-kneg", lambda: poch_recip(A, -2, 10), {-2: 6, 0: -2}, 10),
    ("recip-inf", lambda: poch_recip(A, INF, 10), {0: 1, 2: 3, 4: 12, 6: 39, 8: 129}, 10),
    ("triple", lambda: triple_product(QParam.finite(2, 2), 10),
     {0: F(1, 2), 2: F(-7, 4), 6: F(31, 8)}, 10),
    # k = 0: poch is exactly 1, poch_recip is 1 below the cutoff
    ("poch-k0", lambda: poch(A, 0, 10), {0: 1}, INF),
    ("recip-k0", lambda: poch_recip(A, 0, 10), {0: 1}, 10),
    # a = 0: both are exactly 1; the triple product divides by z
    ("poch-a0", lambda: poch(QParam.zero(), 3, 10), {0: 1}, INF),
    ("poch-a0-inf", lambda: poch(QParam.zero(), INF), {0: 1}, INF),
    ("recip-a0", lambda: poch_recip(QParam.zero(), 3, 10), {0: 1}, INF),
    ("triple-z0", lambda: triple_product(QParam.zero(), 10), BadParam, None),
    # a vanishing (1 - q^0) factor: the exact zero series, or a pole of the reciprocal
    ("poch-vanishing", lambda: poch(VANISHING, 3, 10), {}, INF),
    ("poch-vanishing-inf", lambda: poch(VANISHING, INF, 10), {}, INF),
    ("recip-vanishing", lambda: poch_recip(VANISHING, 3, 10), PoleError, None),
    ("triple-vanishing", lambda: triple_product(QParam.finite(1, 0), 10), {}, INF),
    # a negative-index pole: poch raises, poch_recip is exactly zero
    ("poch-pole", lambda: poch(Q, -1, 10), PoleError, None),
    ("recip-pole", lambda: poch_recip(Q, -1, 10), {}, INF),
    # no cutoff: an infinite product cannot be listed, a negative index is refused,
    # a finite reciprocal has no exact form
    ("poch-inf-nocutoff", lambda: poch(A, INF), BadParam, None),
    ("poch-kneg-nocutoff", lambda: poch(A, -2), BadParam, None),
    ("recip-inf-nocutoff", lambda: poch_recip(A, INF, None), BadParam, None),
    ("recip-k3-nocutoff", lambda: poch_recip(A, 3, None), InvertZero, None),
    ("triple-nocutoff", lambda: triple_product(QParam.finite(2, 2), None), BadParam, None),
]


@pytest.mark.parametrize("call, terms, cutoff", [c[1:] for c in EDGE_CASES],
                         ids=[c[0] for c in EDGE_CASES])
def test_pochhammer_and_triple_product_edge_cases(call, terms, cutoff):
    if isinstance(terms, type):
        with pytest.raises(terms):
            call()
        return
    got = call()
    assert got.terms == terms
    assert got.cutoff == cutoff


def test_parse_round_trip():
    for text in ["inf", "0", "q", "-q", "2*q^(3/2)", "1/2", "3/2*q^2", "q^(-3/2)"]:
        p = parse_qparam(text)
        assert parse_qparam(str(p)) == p
