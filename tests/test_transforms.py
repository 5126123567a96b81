"""Transform registry: lattice kernel identities and seeded soundness."""

import random
from fractions import Fraction
from math import comb

import pytest

from qbailey.errors import BadParam, UnsupportedLimit
from qbailey.qparams import QParam
from qbailey.qfunctions import qbinom
from qbailey.pairs import make_pair, pairs_agree
from qbailey.series import Series, series_equal
from qbailey.transforms import REGISTRY, apply_transform, f_direct
from qbailey.checks import composition_checks, transform_check, transform_soundness

fin = QParam.finite


def rand_params(rng, n):
    pool = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3), Fraction(-2)]
    return [fin(rng.choice(pool), rng.randint(1, 3)) for _ in range(n)]


def test_registry_is_complete():
    assert len(REGISTRY) == 18
    desc = REGISTRY["bailey_lemma"].to_json()
    assert desc["params"] == [{"name": "rho", "kind": "qparam"},
                              {"name": "sigma", "kind": "qparam"}]


def test_f_direct_zero_outside_range():
    a = fin(2, 2)
    bs = [fin(3, 2), fin(1, 4)]
    assert f_direct(2, -1, 3, a, bs).is_zero_below_cutoff()
    assert f_direct(2, 3, 3, a, bs).is_zero_below_cutoff()


def test_f_direct_all_b_zero_closed_form():
    a = fin(2, 2)
    for N in range(0, 5):
        for j in range(0, N + 1):
            for n in (-2, 0, 1, 4):
                got = f_direct(N, j, n, a, [QParam.zero()] * N)
                want = qbinom(N, j).times_monomial(a.coeff ** j,
                                                   j * (a.halves + 2 * (n - N)))
                assert series_equal(got, want), (N, j, n)


def test_f_direct_top_b_coefficient():
    # N-th finite difference over b = t extracts the b^N coefficient, which
    # must be (-1)^N q^{(N-j)(n-j)} [N over j]
    a = fin(3, 2)
    for N in range(1, 5):
        for j in range(0, N + 1):
            for n in (-1, 0, 2, 4):
                acc = Series.zero()
                for t in range(0, N + 1):
                    bs = [QParam.zero() if t == 0 else fin(t, 0)] * N
                    term = f_direct(N, j, n, a, bs)
                    acc = acc + term * (comb(N, t) * (1 if (N - t) % 2 == 0 else -1))
                import math
                lead = acc * Fraction(1, math.factorial(N))
                want = qbinom(N, j).times_monomial(
                    1 if N % 2 == 0 else -1, 2 * (N - j) * (n - j))
                assert series_equal(lead, want), (N, j, n)


def one_minus(p, offset_halves=0):
    # build (1 - p q^(offset/2)) safely even when the exponent collapses to 0
    return Series.one() - p.monomial().times_monomial(1, offset_halves)


def test_f_direct_recurrence():
    # (1-aq^{2n-1-N}) f_{N+1,j,n} = (1-b q^n)(1-aq^{2n-1-N-j}) f_{N,j,n}
    #                              + (aq^{n-1-N}-b)(1-aq^{2n-j}) f_{N,j-1,n-1}
    rng = random.Random(41)
    for spec in range(3):
        a = fin(rng.choice([2, 3, Fraction(1, 2)]), rng.randint(1, 3))
        all_bs = rand_params(rng, 6)
        for N in range(0, 5):
            bs = all_bs[:N]
            b_new = all_bs[N]
            for j in range(-1, N + 3):
                for n in range(-3, 6):
                    lhs = (f_direct(N + 1, j, n, a, bs + [b_new])
                           * one_minus(a, 2 * (2 * n - 1 - N)))
                    t1 = (one_minus(b_new, 2 * n)
                          * one_minus(a, 2 * (2 * n - 1 - N - j))
                          * f_direct(N, j, n, a, bs))
                    t2 = ((a.monomial().times_monomial(1, 2 * (n - 1 - N))
                           - b_new.monomial())
                          * one_minus(a, 2 * (2 * n - j))
                          * f_direct(N, j - 1, n - 1, a, bs))
                    assert series_equal(lhs, t1 + t2), (spec, N, j, n)


def _binom_identity_lhs_tech1(M, N, j, u):
    t = qbinom(M, j - u) * qbinom(N + 1 - M, u)
    t2 = (qbinom(M, j - u + 1) * qbinom(N + 1 - M, u - 1)).times_monomial(
        1, 2 * (2 * j - 2 * u - M + 1))
    return t - t2


def _binom_identity_rhs_tech1(M, N, j, u):
    r = (qbinom(M, j - u) * qbinom(N - M, u)).times_monomial(1, 2 * u)
    r = r + (qbinom(N - M, u - 1)
             * (qbinom(M, j - u) - qbinom(M, j - u + 1))).times_monomial(
                 1, 2 * (j - u - M))
    r = r - (qbinom(M, j - u + 1) * qbinom(N - M, u - 2)).times_monomial(
        1, 2 * (2 * j - 3 * u - 2 * M + 3 + N))
    return r


def test_pascal_extension_lemmas_exhaustive():
    for N in range(0, 7):
        for M in range(0, N + 1):
            for j in range(-2, N + 3):
                for u in range(-2, N + 3):
                    assert series_equal(_binom_identity_lhs_tech1(M, N, j, u),
                                        _binom_identity_rhs_tech1(M, N, j, u)), \
                        ("tech1", M, N, j, u)
                    lhs = (qbinom(M + 1, j - u) * qbinom(N - M, u)
                           - (qbinom(M + 1, j - u + 1)
                              * qbinom(N - M, u - 1)).times_monomial(
                                  1, 2 * (2 * j - 2 * u - M)))
                    rhs = (qbinom(M, j - u) * qbinom(N - M, u)).times_monomial(1, 2 * j)
                    rhs = rhs - (qbinom(M, j - u + 1)
                                 * qbinom(N - M, u - 1)).times_monomial(
                                     1, 2 * (2 * j - 2 * u - M))
                    rhs = rhs + qbinom(M, j - u - 1) * qbinom(N - M, u)
                    rhs = rhs - (qbinom(M, j - u)
                                 * qbinom(N - M, u - 1)).times_monomial(
                                     1, 2 * (N + j + 1 - 2 * u - M))
                    assert series_equal(lhs, rhs), ("tech2", M, N, j, u)


def test_nlattice_zero_is_identity():
    pair = make_pair("general_m", a=fin(2, 4), m=1)
    assert pairs_agree(apply_transform("nlattice", pair, bs=[]), pair,
                       -3, 4, 36).passed
    assert pairs_agree(apply_transform("nlattice1", pair, N=0), pair,
                       -3, 4, 36).passed


def test_composition_identities_all_pass():
    for check in composition_checks(seed=3, cutoff=36):
        assert check["passed"], check


def test_soundness_smoke():
    for name in ("key1", "bailey_lemma", "nlattice2", "change_base_d1",
                 "lovejoy_lift"):
        results = transform_soundness(name, trials=2, seed=5, cutoff=40)
        assert all(r["passed"] for r in results), (name, results)


def test_transform_check_needs_a_trial():
    with pytest.raises(BadParam, match="trials >= 1"):
        transform_check("key2", trials=0, cutoff=10)


def test_unsupported_limits_and_preconditions():
    pair = make_pair("shifted", m=1)
    with pytest.raises(UnsupportedLimit):
        apply_transform("lovejoy_inv", make_pair("unit", a=fin(2, 2)),
                        b=QParam.infinity())
    with pytest.raises(UnsupportedLimit):
        apply_transform("nlattice", pair, bs=[QParam.infinity()])
    with pytest.raises(BadParam):
        apply_transform("lovejoy_inv", pair, b=QParam.zero())  # bilateral input
    with pytest.raises(BadParam):
        apply_transform("general", pair, b=fin(1, 0))  # b = 1 pole
    with pytest.raises(BadParam):
        apply_transform("nope", pair)


def test_change_base_requires_square_coefficient():
    pair = make_pair("general_m", a=fin(2, 4), m=1)
    with pytest.raises(BadParam):
        apply_transform("change_base_d4", pair)
    ok = make_pair("general_m", a=fin(4, 4), m=1)
    out = apply_transform("change_base_d4", ok)
    assert out.a == fin(2, 4)


def test_a_transformed_sequence_builds_each_plan_list_once():
    from qbailey.pairs import BilateralSequence
    from qbailey.qfunctions import FactorProduct
    from qbailey.series import INF
    from qbailey.transforms import _seq_from_plans

    source = BilateralSequence(lambda n, c: Series.monomial(n + 1).truncate(c),
                               support=(0, INF))
    built = []

    def plans(n):
        built.append(n)
        return [(FactorProduct().times_qpow(2 * n), source, n)]

    seq = _seq_from_plans(plans, (0, INF), "counted")
    for cutoff in (10, 20, 10):
        assert seq(3, cutoff).terms == {6: 4}
    assert seq.val_bound(3) == seq.val_bound(3) == 6
    assert seq.val_bound(4) == 8
    assert built == [3, 4]
