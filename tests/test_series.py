"""Ring arithmetic, cutoff propagation, and serialization of the series core."""

import random
from fractions import Fraction

import pytest

from qbailey.series import INF, Series, first_diff, series_equal
from qbailey.errors import InvertZero, TruncationUnreachable
from qbailey.oracle import sum_series
from qbailey.qfunctions import FactorProduct, PartialProduct, truncated_sum


def geometric(n, cutoff):
    return Series({2 * k: 1 for k in range(n)}, cutoff)


def random_series(rng, n_terms=6, span=16, cutoff=None):
    terms = {}
    for _ in range(n_terms):
        e = rng.randint(-span // 2, span)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if c:
            terms[e] = c
    return Series(terms, INF if cutoff is None else cutoff)


def test_mul_telescopes_geometric_series():
    one_minus_q = Series({0: 1, 2: -1})
    geo = geometric(10, 20)
    prod = one_minus_q * geo
    assert prod.cutoff == 20
    assert prod.terms == {0: 1}


def test_mul_by_one_is_identity():
    rng = random.Random(5)
    s = random_series(rng, cutoff=24)
    assert series_equal(s * Series.one(), s)


def test_product_of_three_binomials():
    # oracle: direct dense expansion
    from qbailey.oracle import DenseSeries, dense_mul
    factors = [Series({0: 1, 2 * k: -1}) for k in (1, 2, 3)]
    got = factors[0] * factors[1] * factors[2]
    dense = DenseSeries.from_terms({0: 1, 2: -1})
    for k in (2, 3):
        dense = dense_mul(dense, DenseSeries.from_terms({0: 1, 2 * k: -1}))
    assert got.terms == dense.to_terms()
    assert got.terms == {0: 1, 2: -1, 4: -1, 8: 1, 10: 1, 12: -1}


def test_cutoff_propagation_through_product():
    # unknown tail of one factor pollutes the product at cutoff + other's val
    s1 = Series({4: 1, 6: 2}, 20)  # val 4
    s2 = Series({-2: 1}, 10)       # val -2
    assert (s1 * s2).cutoff == min(20 + (-2), 10 + 4)


def test_invert_examples():
    geo = Series({0: 1, 2: -1}).invert(12)
    assert geo.terms == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1, 10: 1}
    shifted = Series({2: 1, 4: -1}).invert(6)
    assert shifted.terms == {-2: 1, 0: 1, 2: 1, 4: 1}
    cubed = Series({0: 1, 4: -3}).invert(18)
    assert cubed.terms == {0: 1, 4: 3, 8: 9, 12: 27, 16: 81}


def test_invert_is_two_sided_inverse():
    rng = random.Random(11)
    for _ in range(25):
        s = random_series(rng)
        if s.is_zero_below_cutoff():
            continue
        inv = s.invert(30)
        assert series_equal(s * inv, Series.one(), upto=30 - max(0, -2 * s.val()))
        assert series_equal(inv * s, Series.one(), upto=30 - max(0, -2 * s.val()))


def test_invert_zero_raises():
    with pytest.raises(InvertZero):
        Series.zero(10).invert(10)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(40):
        a = random_series(rng, cutoff=rng.choice([INF, 30]))
        b = random_series(rng)
        c = random_series(rng)
        assert series_equal(a * b, b * a)
        assert series_equal((a * b) * c, a * (b * c))
        assert series_equal(a * (b + c), a * b + a * c)
        assert series_equal(a + b, b + a)
        assert series_equal((a + b) + c, a + (b + c))


def test_scale_exponents():
    s = Series({-2: 1, 3: Fraction(1, 2)}, 9)
    t = s.scale_exponents(2)
    assert t.terms == {-4: 1, 6: Fraction(1, 2)}
    assert t.cutoff == 18


def test_json_round_trip():
    s = Series({-3: Fraction(2, 5), 0: 1, 7: -4}, 11)
    again = Series.from_json(s.to_json())
    assert again.terms == s.terms and again.cutoff == s.cutoff
    exact = Series({0: 1})
    assert Series.from_json(exact.to_json()).cutoff == INF


def test_first_diff_reports_smallest_divergence():
    a = Series({0: 1, 4: 2}, 10)
    b = Series({0: 1, 4: 3, 6: 9}, 12)
    order, diff = first_diff(a, b)
    assert order == 10
    assert diff == (4, 2, 3)


def _x(j):
    """x^j as an exact kernel part."""
    return PartialProduct([1], shift=j), INF


def _floor(f):
    """A FactorProduct of valuation f: x^f, or annihilated for INF."""
    fp = FactorProduct()
    return fp.times_scalar(0) if f == INF else fp.times_qpow(f)


class Terms:
    """A stand-in sequence for plans: its certificate is 0, so a plan
    (_floor(f), seq, j) has floor f; ``part`` hands out term j as term(j),
    whatever the plan's FactorProduct, and records j."""

    def __init__(self, term=_x):
        self.term = term
        self.built = []

    def val_bound(self, k):
        return 0

    def part(self, fp, k, cutoff):
        self.built.append(k)
        return self.term(k)


def summed(floors, start=0, step=1, last=INF, cutoff=10):
    """truncated_sum over terms x^j with the given floors (None: no term);
    returns (sum, built js)."""
    seq = Terms()

    def plans(j):
        f = floors(j)
        return None if f is None else [(_floor(f), seq, j)]

    return truncated_sum([(start, step, last)], plans, cutoff, "test sum"), seq.built


def test_truncated_sum_never_builds_a_skipped_term():
    class Unbuilt(Terms):
        def part(self, fp, k, cutoff):
            pytest.fail(f"term {k} was built")

    seq, unbuilt = Terms(), Unbuilt()

    def plans(j):
        return [(_floor(10), unbuilt, j)] if j == 2 else [(_floor(0), seq, j)]

    out = truncated_sum([(0, 1, 4)], plans, 10, "test sum")
    assert out.terms == {0: 1, 1: 1, 3: 1, 4: 1}
    assert seq.built == [0, 1, 3, 4]


def test_truncated_sum_reports_the_least_cutoff_of_its_parts():
    # x^j + x^(j+1), exact below cuts[j]; both directions go into one sum
    cuts = {-1: 6, 0: 9, 1: INF}
    seq = Terms(lambda j: (PartialProduct([1, 1], top=1, shift=j), cuts[j]))

    out = truncated_sum([(0, 1, 1), (-1, -1, -1)], lambda j: [(_floor(0), seq, j)], 10,
                        "test sum")
    want = sum_series([Series({j: 1, j + 1: 1}, c) for j, c in cuts.items()])
    assert out.cutoff == want.cutoff == 6
    assert out.terms == want.terms == {-1: 1, 0: 2, 1: 2, 2: 1}


def test_truncated_sum_stops_at_last():
    out, built = summed(lambda j: 0, last=5)
    assert built == [0, 1, 2, 3, 4, 5]
    out, built = summed(lambda j: 0, start=-1, step=-1, last=-3)
    assert built == [-1, -2, -3]
    assert out.terms == {-1: 1, -2: 1, -3: 1}


def test_truncated_sum_stops_after_four_skips_in_a_row():
    calls = []

    def floors(j):
        calls.append(j)
        return 0 if j in (0, 1, 3) else INF

    out, built = summed(floors)
    assert built == [0, 1, 3]
    assert calls == [0, 1, 2, 3, 4, 5, 6, 7]


def test_truncated_sum_raises_past_the_step_cap():
    with pytest.raises(TruncationUnreachable, match="test sum"):
        summed(lambda j: -1, cutoff=0)
    # the cap is 10 * max(cutoff, 1) + 200 terms
    out, built = summed(lambda j: -1, last=209, cutoff=0)
    assert len(built) == 210


def test_truncated_sum_does_not_count_identically_zero_indices():
    # five indices with no term in a row, then a live term: they are no skips
    out, built = summed(lambda j: None if j < 5 else (0 if j == 5 else INF))
    assert built == [5]
    assert out.terms == {5: 1}


def test_truncated_sum_counts_an_empty_plan_list_as_a_skip():
    seq = Terms()
    calls = []

    def plans(j):
        calls.append(j)
        return [(_floor(0), seq, j)] if j < 2 else []

    out = truncated_sum([(0, 1, INF)], plans, 10, "test sum")
    assert calls == [0, 1, 2, 3, 4, 5]
    assert seq.built == [0, 1]
    assert out.terms == {0: 1, 1: 1}


@pytest.mark.xfail(strict=True, reason="the stop rule is a heuristic: four skipped "
                   "terms end the sum even when a later floor dips below the cutoff")
def test_truncated_sum_keeps_a_term_after_four_high_floors():
    out, built = summed(lambda j: 20 if j < 4 else (0 if j == 4 else INF))
    assert built == [4]
