"""Chain corollaries and the finite-n theorems."""

import pytest

from qbailey.errors import BadParam
from qbailey.qparams import QParam
from qbailey.pairs import BaileyPair, BilateralSequence, make_pair
from qbailey.corollaries import _bilateral_alpha_sum, corollary_sum, finite_n_check
from qbailey.qfunctions import FactorProduct
from qbailey.series import INF, Series, first_diff, series_equal

fin = QParam.finite
inf = QParam.infinity


def test_plain_corollary_on_unit_pair():
    # r = 2, i = 2 at a = q: both sides equal the odd-moduli double-sum route
    pair = make_pair("unit", a=fin(1, 2))
    lhs, rhs = corollary_sum(pair, 2, 2, "plain", 60)
    assert series_equal(lhs, rhs, upto=60)
    # on the delta pair the chain collapses to the bottom single-sum form
    from qbailey.catalog import evaluate_identity
    rep = evaluate_identity("ag", {"r": 2, "i": 2}, 60)
    assert series_equal(lhs, rep.lhs, upto=60)
    assert series_equal(rhs, rep.rhs, upto=60)


def test_plain_corollary_grids():
    for m in range(4):
        pair = make_pair("shifted", m=m)
        for r in (1, 2, 3):
            for i in range(0, r + 1):
                lhs, rhs = corollary_sum(pair, r, i, "plain", 40)
                assert series_equal(lhs, rhs, upto=40), (m, r, i)


def test_bc_corollary_reduces_to_plain():
    pair = make_pair("shifted", m=2)
    l_plain, r_plain = corollary_sum(pair, 2, 1, "plain", 50)
    l_bc, r_bc = corollary_sum(pair, 2, 1, ("bc", None, None), 50)
    assert series_equal(l_plain, l_bc, upto=50)
    assert series_equal(r_plain, r_bc, upto=50)


def test_bc_corollary_finite_parameters():
    pair = make_pair("shifted", m=1)
    lhs, rhs = corollary_sum(pair, 2, 1, ("bc", fin(2, 2), fin(3, 4)), 50)
    assert series_equal(lhs, rhs, upto=50)
    # i = 0 also holds with finite b (the quotient prefactors collapse)
    lhs, rhs = corollary_sum(pair, 2, 0, ("bc", fin(2, 2), fin(3, 4)), 40)
    assert series_equal(lhs, rhs, upto=40)


def test_bc_corollary_edge_i_equal_r_needs_infinite_c():
    # with finite c the two-parameter form is valid only for i <= r-1;
    # the documented divergence at i = r is the content of this check
    pair = make_pair("shifted", m=1)
    lhs, rhs = corollary_sum(pair, 2, 2, ("bc", None, fin(-1, 2)), 40)
    _, diff = first_diff(lhs, rhs, 40)
    assert diff is not None
    # with c -> oo the i = r case holds
    lhs, rhs = corollary_sum(pair, 2, 2, ("bc", fin(-1, 1), None), 40)
    assert series_equal(lhs, rhs, upto=40)


def test_corollary_domain_validation():
    pair = make_pair("shifted", m=1)
    with pytest.raises(BadParam):
        corollary_sum(pair, 0, 0, "plain", 20)
    with pytest.raises(BadParam):
        corollary_sum(pair, 2, 3, "plain", 20)
    with pytest.raises(BadParam):
        corollary_sum(pair, 1, 1, ("bc", fin(2, 2), fin(3, 2)), 20)


def test_finite_n_degenerate_single_step():
    pair = make_pair("unit", a=fin(1, 2))
    rep = finite_n_check("Thm2_1", pair, 1, 0, 2, [inf()], [inf()], 50)
    assert rep.passed


def test_finite_n_bilateral_grid():
    pair = make_pair("shifted", m=1)
    for r in (1, 2):
        for i in range(0, r + 1):
            for n in (0, 1, 3):
                rep = finite_n_check("Thm2_1", pair, r, i, n,
                                     [fin(3, 2), inf()][:r],
                                     [inf(), fin(2, 4)][:r], 50)
                assert rep.passed, (r, i, n, rep.first_divergence)


def test_finite_n_twisted_grid():
    pair = make_pair("unit", a=fin(1, 2))
    for r in (1, 2):
        for i in range(0, r + 1):
            for n in (0, 1, 3):
                rep = finite_n_check("Thm4_2", pair, r, i, n,
                                     [fin(3, 2), inf()][:r],
                                     [inf(), fin(2, 4)][:r], 50)
                assert rep.passed, (r, i, n, rep.first_divergence)


def test_finite_n_detects_corrupted_parameter():
    # corrupting one rho on one side only: evaluate lhs with one parameter
    # set and rhs with another via two separate runs, then cross-compare
    from qbailey.corollaries import _finite_n_lhs, _finite_n_rhs
    pair = make_pair("shifted", m=1)
    lhs = _finite_n_lhs(pair, 2, 1, 3, [fin(3, 2), inf()], [inf(), fin(2, 4)],
                        40, False)
    rhs = _finite_n_rhs(pair, 2, 1, 3, [fin(5, 2), inf()], [inf(), fin(2, 4)],
                        40, False)
    _, diff = first_diff(lhs, rhs, 40)
    assert diff is not None


@pytest.mark.parametrize("support, expo", [((6, INF), lambda n: 2 * n),
                                           ((-INF, -6), lambda n: -2 * n)])
def test_bilateral_alpha_sum_starts_inside_alpha_support(support, expo):
    # alpha_n = q^(|n|) on a support that starts past the runs' default starts
    # j = 0 and j = -1: four out-of-support indices must not end the sum
    alpha = BilateralSequence(lambda n, c: Series.monomial(1, expo(n)).truncate(c), expo,
                              support=support)
    pair = BaileyPair(fin(1, 0), alpha, alpha)
    got = _bilateral_alpha_sum(pair, lambda j: FactorProduct(), 20, "test")
    assert got.cutoff == 20
    assert got.terms == {12: 1, 14: 1, 16: 1, 18: 1}
