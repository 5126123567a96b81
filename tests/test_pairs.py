"""The defining relation, inversion, and the built-in pairs."""

import os
import subprocess
import sys

import pytest

import qbailey
from qbailey.errors import BadParam, CertificateViolation, PoleError
from qbailey.qparams import QParam
from qbailey.pairs import (BaileyPair, BilateralSequence, invert_pair,
                           make_pair, pairs_agree, relation_rhs, verify_pair)
from qbailey.series import Series
from qbailey.transforms import bailey_lemma, lovejoy_inv

fin = QParam.finite


def test_unit_pair_defining_relation():
    # beta_0 = 1 and beta_n = 0 for 1 <= n <= 6
    pair = make_pair("unit", a=fin(1, 4))
    report = verify_pair(pair, 0, 6, 60)
    assert report.passed
    assert report.compared >= 60


def test_unit_pair_at_a_equal_one():
    assert verify_pair(make_pair("unit", a=fin(1, 0)), 0, 5, 40).passed


def test_shifted_pairs_verify():
    for m in range(4):
        assert verify_pair(make_pair("shifted", m=m), -3, 5, 40).passed
    assert verify_pair(make_pair("shifted", m=2), -1, 5, 60).passed


def test_shifted_beta_support():
    pair = make_pair("shifted", m=3)
    for n in (-4, -2, 1, 2):
        assert pair.beta(n, 20).is_zero_below_cutoff()
    assert not pair.beta(-1, 20).is_zero_below_cutoff()
    assert not pair.beta(0, 20).is_zero_below_cutoff()


def test_shifted_zero_matches_unit_beta():
    # m = 0: beta collapses to the unit delta and the relation still holds
    pair = make_pair("shifted", m=0)
    assert pair.beta(0, 20).terms == {0: 1}
    assert verify_pair(pair, -4, 4, 40).passed


def test_base_change_pairs_verify():
    for kind in ("shifted_D4", "shifted_D1"):
        for m in range(4):
            assert verify_pair(make_pair(kind, m=m), -2, 4, 40).passed


def test_shifted_d1_beta_double_sum():
    # independent evaluation of the closed double sum
    from qbailey.qfunctions import poch, poch_recip, qbinom
    m = 2
    pair = make_pair("shifted_D1", m=m)
    q2 = fin(1, 4)
    for n in (-1, 0, 1, 3):
        want = Series.zero()
        for j in range(-(m // 2), min(n, 0) + 1):
            b = qbinom(m + j, m + 2 * j, base=4)
            if b.is_zero_below_cutoff():
                continue
            t = poch(fin(-1, 2 * m + 2), 2 * j, 60) * poch_recip(q2, n - j, 60, base=4)
            t = t * b * poch(q2, m, 60, base=4)
            want = want + t.times_monomial(1 if j % 2 == 0 else -1,
                                           2 * j * j + 2 * n - 4 * j)
        got = pair.beta(n, 40)
        _, diff = __import__("qbailey.series", fromlist=["first_diff"]).first_diff(
            got, want, 40)
        assert diff is None, (n, diff)


def test_corrupted_pair_fails_at_n1():
    base = make_pair("unit", a=fin(1, 4))
    bad_beta = BilateralSequence(
        lambda n, c: Series.one() if n in (0, 1) else Series.zero(),
        lambda n: 0, support=(0, 1), name="bad.beta")
    bad = BaileyPair(base.a, base.alpha, bad_beta)
    report = verify_pair(bad, 0, 4, 30)
    assert not report.passed
    assert report.first_divergence["n"] == 1
    assert report.first_divergence["lhs_coeff"] == 1
    assert report.first_divergence["rhs_coeff"] == 0


def test_inversion_recovers_unit_alpha():
    pair = make_pair("unit", a=fin(3, 2))
    assert invert_pair(pair, 0, 6, 40).passed


def test_inversion_recovers_general_m_alpha():
    # beta = delta_{n,-m} with generic a recovers the closed-form alpha
    pair = make_pair("general_m", a=fin(3, 2), m=2)
    assert verify_pair(pair, -2, 4, 40).passed
    assert invert_pair(pair, -2, 4, 40).passed


def test_zero_indices_do_not_stop_the_inversion_sum():
    # a = q^-2: (a)_{n+j} = 0 for n + j > 2, so at n = 3 the sum passes four
    # such indices (j = 3..0) before its first nonzero term at j = -1
    pair = bailey_lemma(make_pair("general_m", a=fin(1, -4), m=2), fin(2, 1), fin(3, 0))
    report = invert_pair(pair, -2, 4, 40)
    assert report.passed, report.first_divergence


def test_zero_indices_do_not_hide_a_degenerate_relation():
    # a = q^-2: at n = 6, (aq)_{6+j} = 0 and alpha_j = 0 for j = 6..3, then
    # (aq)_8 = 0 meets alpha_2 != 0, where the relation degenerates
    with pytest.raises(PoleError, match="degenerates"):
        verify_pair(make_pair("unit", a=fin(1, -4)), 6, 6, 20)


def test_relation_sum_is_exact_to_its_cutoff():
    # every term of the sum at n = 6 has a valuation bound past x^40; the
    # sum used to come back exact only below x^6 (and verify_pair passed)
    pair = lovejoy_inv(make_pair("unit", a=fin(1, 2)), QParam.zero())
    assert relation_rhs(pair, 6, 40).cutoff == 40
    report = verify_pair(pair, 0, 6, 40)
    assert report.passed and report.compared == 40


def test_short_compare_is_not_a_pass():
    # a beta known only below x^10 agrees as far as it goes, but that is
    # not a check to x^40
    unit = make_pair("unit", a=fin(1, 4))
    short_beta = BilateralSequence(
        lambda n, c: Series.one().truncate(10) if n == 0 else Series.zero(10),
        lambda n: 0, support=(0, 0), name="short.beta")
    short = BaileyPair(unit.a, unit.alpha, short_beta)
    for report in (verify_pair(short, 0, 3, 40), pairs_agree(short, unit, 0, 3, 40)):
        assert report.first_divergence is None
        assert report.compared == 10 and not report.passed


def test_an_empty_window_is_refused():
    # no n is compared when n_min > n_max, so no report may say PASS
    pair = make_pair("unit", a=fin(1, 4))
    for check in (lambda: verify_pair(pair, 3, -3, 10),
                  lambda: invert_pair(pair, 1, 0, 10),
                  lambda: pairs_agree(pair, pair, 3, -3, 10)):
        with pytest.raises(BadParam, match="empty window"):
            check()


def test_round_trip_on_unilateral_pairs():
    for a in (fin(2, 2), fin(1, 4), fin(5, 2)):
        pair = make_pair("unit", a=a)
        assert verify_pair(pair, 0, 5, 36).passed
        assert invert_pair(pair, 0, 5, 36).passed


def test_make_pair_rejects_bad_params():
    with pytest.raises(BadParam):
        make_pair("shifted", m=-1)
    with pytest.raises(BadParam):
        make_pair("nope")
    with pytest.raises(BadParam):
        make_pair("unit", a=QParam.infinity())


_LYING_SEQUENCE = """
from qbailey.errors import CertificateViolation
from qbailey.pairs import BilateralSequence
from qbailey.series import Series
from qbailey.transforms import bailey_lemma
seq = BilateralSequence(lambda n, c: Series.monomial(1, 0), lambda n: 2, name="liar")
try:
    seq(0, 10)
except CertificateViolation:
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_certificate_violation_is_an_error_also_under_O():
    # val_bound claims valuation >= 2 for a series that starts at x^0
    seq = BilateralSequence(lambda n, c: Series.monomial(1, 0), lambda n: 2, name="liar")
    with pytest.raises(CertificateViolation):
        seq(0, 10)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qbailey.__file__)))
    for flags in ([], ["-O"]):
        r = subprocess.run([sys.executable, *flags, "-c", _LYING_SEQUENCE],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, (flags, r.stderr)
