"""Seeded transform-soundness and composition checks.

Parameters are drawn as c*q^(e/2) with e >= 1 and c from a pool of
rationals; a preflight validator rejects colliding specializations (any
derived Pochhammer argument with coefficient exactly 1 can reach a
vanishing factor at some index, so those draws are rerolled).

Pair policy per transform: the a -> a/q family needs an odd relative
q-power (at a = q^m with m even the two-term alpha combination has a
genuine pole at j = -m/2), and the N-step lattices need a generic relative
coefficient (coefficient 1 meets uncancellable zero factors for N >= 2), so
those run on shifted pairs with odd m and on bilateral delta pairs with
generic a respectively.  The a -> aq lifts require unilateral input.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import BadParam, QBaileyError
from .qparams import QParam
from .pairs import BaileyPair, make_pair, pairs_agree, verify_pair
from .qfunctions import FactorProduct
from . import transforms as T

_COEFF_POOL = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2),
               Fraction(2, 3), Fraction(5), Fraction(-2), Fraction(-1, 2),
               Fraction(5, 2), Fraction(-3)]


def draw_param(rng, allow_inf=True, allow_zero=False):
    roll = rng.random()
    if allow_inf and roll < 0.25:
        return QParam.infinity()
    if allow_zero and roll > 0.85:
        return QParam.zero()
    return QParam.finite(rng.choice(_COEFF_POOL), rng.randint(1, 4))


def preflight_ok(derived) -> bool:
    """Reject specializations whose derived arguments can hit a zero factor."""
    for p in derived:
        if p.is_finite and p.coeff == 1:
            return False
    return True


def _draw_case(name, rng):
    """(pair, params, derived-args-to-validate) for one soundness trial."""
    if name in ("key1", "key2", "general", "lattice", "new_lattice"):
        m = rng.choice([1, 3])
        pair = make_pair("shifted", m=m)
        a = pair.a
        if name in ("key1", "key2"):
            return pair, {}, []
        if name == "general":
            b = draw_param(rng, allow_inf=True, allow_zero=True)
            return pair, {"b": b}, []
        rho = draw_param(rng)
        sigma = draw_param(rng)
        return pair, {"rho": rho, "sigma": sigma}, [a / rho, a / sigma,
                                                    (a / rho) / sigma]
    if name == "bailey_lemma":
        m = rng.randint(0, 3)
        pair = make_pair("shifted", m=m)
        aq = pair.a.q_shift(2)
        rho = draw_param(rng)
        sigma = draw_param(rng)
        return pair, {"rho": rho, "sigma": sigma}, [aq / rho, aq / sigma,
                                                    (aq / rho) / sigma]
    if name in ("change_base_b", "change_base_d4", "change_base_d1"):
        m = rng.randint(0, 3)
        pair = make_pair("shifted", m=m)
        if name != "change_base_b":
            return pair, {}, []
        b = draw_param(rng, allow_inf=False)
        aq = pair.a.q_shift(2)
        return pair, {"b": b}, [-(aq / b), b * b]
    if name in ("lovejoy_inv", "lovejoy_lift"):
        m = rng.randint(0, 3)
        pair = make_pair("unit", a=QParam.finite(1, 2 * m) if m else QParam.finite(1, 2))
        a = pair.a
        if name == "lovejoy_inv":
            b = draw_param(rng, allow_inf=False, allow_zero=True)
            derived = [] if b.is_zero else [a.q_shift(2) / b, b]
            return pair, {"b": b}, derived
        N = rng.randint(1, 2)
        bs = [draw_param(rng, allow_inf=False) for _ in range(N)]
        derived = [a.q_shift(2 * k) / b for k, b in enumerate(bs, start=1)] + bs
        return pair, {"bs": bs}, derived
    # the N-step lattices: bilateral pair with generic relative parameter
    m = rng.randint(0, 2)
    a = QParam.finite(rng.choice([c for c in _COEFF_POOL if c > 0]),
                      rng.randint(1, 3))
    pair = make_pair("general_m", a=a, m=m)
    if name == "nlattice":
        N = rng.randint(1, 3)
        bs = [draw_param(rng, allow_inf=False, allow_zero=True) for _ in range(N)]
        return pair, {"bs": bs}, []
    if name in ("nlattice1", "nlattice2"):
        return pair, {"N": rng.randint(0, 3)}, []
    if name in ("w1", "w2", "analog_w1", "analog_w2"):
        N = rng.randint(0, 2)
        rho = draw_param(rng)
        sigma = draw_param(rng)
        base = a.q_shift(2 * (1 - N)) if name in ("w1", "analog_w1") else a.q_shift(2)
        return pair, {"N": N, "rho": rho, "sigma": sigma}, [base / rho, base / sigma,
                                                            (base / rho) / sigma]
    raise QBaileyError(f"no soundness case for transform {name!r}")


def transform_soundness(name, trials=5, seed=0, cutoff=60, n_min=-6, n_max=6):
    """Apply the named transform at seeded random specializations and verify."""
    rng = random.Random((seed, name).__repr__())
    results = []
    for trial in range(trials):
        for attempt in range(50):
            pair, params, derived = _draw_case(name, rng)
            if preflight_ok(derived):
                break
        else:
            raise QBaileyError("preflight rejected every drawn specialization")
        lo = n_min if pair.alpha.support_lo == -float("inf") else 0
        out = T.apply_transform(name, pair, **params)
        rep = verify_pair(out, lo, n_max, cutoff)
        results.append({
            "trial": trial,
            "pair": pair.label,
            "params": {k: (str(v) if isinstance(v, QParam) else
                           [str(x) for x in v] if isinstance(v, list) else v)
                       for k, v in params.items()},
            "passed": rep.passed,
            "first_divergence": rep.first_divergence,
        })
    return results


def transform_check(name, trials=5, seed=0, cutoff=60, n_min=-6, n_max=6):
    """The transform-check report: seeded soundness trials and the composition
    checks that involve ``name``.

    The soundness trials compare below ``cutoff``; the composition checks
    compare below min(cutoff, 40).  ``passed`` needs every trial and every
    composition check to pass, so it needs at least one trial.
    """
    if trials < 1:
        raise BadParam(f"transform-check needs trials >= 1, got {trials}")
    results = transform_soundness(name, trials=trials, seed=seed, cutoff=cutoff,
                                  n_min=n_min, n_max=n_max)
    comp = composition_checks(name, seed=seed, cutoff=min(cutoff, 40))
    return {
        "transform": name,
        "seed": seed,
        "cutoff_halves": cutoff,
        "soundness": results,
        "compositions": comp,
        "passed": all(r["passed"] for r in results) and all(c["passed"] for c in comp),
    }


def _scaled_pair_combo(p1, c1, p2, c2):
    """Componentwise c1*pair1 + c2*pair2 as evaluated sequences; c1 and c2
    are FactorProducts."""
    def combine(s1, s2, which):
        return T._seq_from_plans(lambda n: [(c1, s1, n), (c2, s2, n)],
                                 (min(s1.support_lo, s2.support_lo),
                                  max(s1.support_hi, s2.support_hi)), f"combo.{which}")

    return BaileyPair(p1.a, combine(p1.alpha, p2.alpha, "alpha"),
                      combine(p1.beta, p2.beta, "beta"), label="combo")


def composition_checks(name=None, seed=0, cutoff=36):
    """The structural equalities between transforms, each checked on a window."""
    rng = random.Random(("comps", seed).__repr__())
    fin = lambda: draw_param(rng, allow_inf=False)
    rho, sigma = fin(), fin()
    b = fin()
    checks = []

    shifted1 = make_pair("shifted", m=1)
    shifted3 = make_pair("shifted", m=3)
    generic = make_pair("general_m", a=QParam.finite(Fraction(5, 2), 2), m=1)
    unit = make_pair("unit", a=QParam.finite(1, 4))

    def add(label, names, build):
        if name is not None and name not in names:
            return
        try:
            got = build()
            checks.append({"label": label, "passed": got.passed,
                           "first_divergence": got.first_divergence})
        except QBaileyError as e:
            checks.append({"label": label, "passed": False, "error": str(e)})

    add("lattice = bailey_lemma(a/q) after key1", ("lattice", "bailey_lemma", "key1"),
        lambda: pairs_agree(T.lattice(shifted1, rho, sigma),
                            T.bailey_lemma(T.key1(shifted1), rho, sigma),
                            -4, 4, cutoff))
    add("new_lattice = bailey_lemma(a/q) after key2",
        ("new_lattice", "bailey_lemma", "key2"),
        lambda: pairs_agree(T.new_lattice(shifted3, rho, sigma),
                            T.bailey_lemma(T.key2(shifted3), rho, sigma),
                            -4, 4, cutoff))

    def general_combo():
        c1 = FactorProduct().times_factor(b, den=True)  # 1/(1 - b)
        c2 = FactorProduct().times_factor(b, den=True).times_scalar(-1).times_param_pow(b, 1)
        combo = _scaled_pair_combo(T.key1(shifted1), c1, T.key2(shifted1), c2)
        return pairs_agree(T.general(shifted1, b), combo, -4, 4, cutoff)

    add("general(b) = key1/(1-b) - b*key2/(1-b)", ("general", "key1", "key2"),
        general_combo)
    add("key1 then lovejoy_inv(0) = identity", ("key1", "lovejoy_inv"),
        lambda: pairs_agree(T.lovejoy_inv(T.key1(unit), QParam.zero()), unit,
                            0, 5, cutoff))

    def nlattice_chain():
        bs = [fin() for _ in range(3)]
        lhs = T.nlattice(generic, bs)
        rhs = generic
        for bb in bs:
            rhs = T.general(rhs, bb)
        return pairs_agree(lhs, rhs, -3, 4, cutoff)

    add("nlattice(b1..bN) = chained general(b_i)", ("nlattice", "general"),
        nlattice_chain)
    add("nlattice1(N) = nlattice(all b = 0)", ("nlattice1", "nlattice"),
        lambda: pairs_agree(T.nlattice1(generic, 2),
                            T.nlattice(generic, [QParam.zero()] * 2), -3, 4, cutoff))
    add("nlattice([]) = identity", ("nlattice",),
        lambda: pairs_agree(T.nlattice(generic, []), generic, -3, 4, cutoff))
    add("w1 = bailey_lemma(aq^-N) after nlattice1", ("w1", "nlattice1", "bailey_lemma"),
        lambda: pairs_agree(T.w1(generic, 2, rho, sigma),
                            T.bailey_lemma(T.nlattice1(generic, 2), rho, sigma),
                            -3, 4, cutoff))
    add("w2 = nlattice1 after bailey_lemma", ("w2", "nlattice1", "bailey_lemma"),
        lambda: pairs_agree(T.w2(generic, 2, rho, sigma),
                            T.nlattice1(T.bailey_lemma(generic, rho, sigma), 2),
                            -3, 4, cutoff))
    add("analog_w1 = bailey_lemma(aq^-N) after nlattice2",
        ("analog_w1", "nlattice2", "bailey_lemma"),
        lambda: pairs_agree(T.analog_w1(generic, 2, rho, sigma),
                            T.bailey_lemma(T.nlattice2(generic, 2), rho, sigma),
                            -3, 4, cutoff))
    add("analog_w2 = nlattice2 after bailey_lemma",
        ("analog_w2", "nlattice2", "bailey_lemma"),
        lambda: pairs_agree(T.analog_w2(generic, 2, rho, sigma),
                            T.nlattice2(T.bailey_lemma(generic, rho, sigma), 2),
                            -3, 4, cutoff))
    add("lovejoy_lift([b]) = lovejoy_inv(b)", ("lovejoy_lift", "lovejoy_inv"),
        lambda: pairs_agree(T.lovejoy_lift(unit, [b]), T.lovejoy_inv(unit, b),
                            0, 5, cutoff))
    add("change_base_b(b -> oo) = change_base_d4", ("change_base_b", "change_base_d4"),
        lambda: pairs_agree(T.change_base_b(shifted1, QParam.infinity()),
                            T.change_base_d4(shifted1), -3, 4, cutoff))
    return checks
