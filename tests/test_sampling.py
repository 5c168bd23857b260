"""Bell difference sampling and the tolerant tester."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import graph_state
from stabkit.errors import ValidationError
from stabkit.sampling import (
    BellSampler,
    estimate_gamma,
    plan_test,
    run_tolerant_test,
)
from stabkit.state import BLOCK, PureState, generate_state

# chi^2 critical value at significance 0.01 for 3 degrees of freedom.
CHI2_CRIT_DF3 = 11.345

H_STATE = generate_state("t_tensor", 1)


def test_bell_round_on_computational_basis_state():
    psi = PureState(np.array([1, 0, 0, 0], dtype=complex), 2)
    rng = np.random.default_rng(0)
    sampler = BellSampler(psi)
    labels, accepts = sampler.rounds(500, rng)
    assert accepts.min() == 1  # all group expectations are +-1
    assert np.all(labels & 0b11 == 0)  # stabilizer group of |00> is the Z block


def test_accept_rate_matches_gamma():
    m = 100_000
    rng = np.random.default_rng(2)
    _, accepts = BellSampler(H_STATE).rounds(m, rng)
    rate = accepts.mean()
    expected = 0.5 + 0.625 / 2
    sigma = math.sqrt(expected * (1 - expected) / m)
    assert abs(rate - expected) <= 3 * sigma
    assert abs(rate - expected) <= 4 / math.sqrt(m)


def test_difference_samples_match_weyl_distribution_chi2():
    m = 100_000
    rng = np.random.default_rng(3)
    labels, _ = BellSampler(H_STATE).rounds(m, rng)
    observed = np.bincount(labels, minlength=4)
    expected = np.array([3 / 8, 1 / 4, 1 / 8, 1 / 4]) * m
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert statistic < CHI2_CRIT_DF3


def test_estimate_gamma():
    stab = generate_state("stabilizer", 3, seed=4)
    assert estimate_gamma(stab, 200, np.random.default_rng(5)) == 1.0
    est = estimate_gamma(H_STATE, 100_000, np.random.default_rng(6))
    assert abs(est - 0.625) <= 0.015
    with pytest.raises(ValidationError):
        estimate_gamma(H_STATE, 0, np.random.default_rng(7))


def test_plan_examples():
    plan = plan_test(1.0, 2.0**-112, 1.0, 1 / 3)
    assert plan.D1 == 1.0
    assert abs(plan.D2 - 0.5) <= 1e-12
    assert abs(plan.D - 0.75) <= 1e-12
    assert plan.half_gap

    assert plan_test(0.9, 1e-60, 1.0, 1 / 3).D1 == pytest.approx(0.531441)

    # ceil(72 ln 6) = 130 since 72 ln 6 = 129.0067 (the bound m >= 72 ln(2/delta)/eps1^12).
    plan = plan_test(1.0, 1e-60, 1.0, 1 / 3)
    assert plan.m == 130
    assert plan.m >= 72 * math.log(2 / plan.delta) / plan.eps1**12


def test_plan_monotonicity():
    base = plan_test(0.8, 1e-80, 1.0, 1 / 3)
    assert plan_test(0.9, 1e-80, 1.0, 1 / 3).D1 > base.D1
    assert plan_test(0.8, 1e-90, 1.0, 1 / 3).D2 < base.D2


def test_plan_validation():
    with pytest.raises(ValidationError):
        plan_test(0.5, 0.9, 1.0, 1 / 3)  # D2 >= D1
    with pytest.raises(ValidationError):
        plan_test(0.0, 0.1, 1.0, 1 / 3)
    with pytest.raises(ValidationError):
        plan_test(0.9, 1.0, 1.0, 1 / 3)
    with pytest.raises(ValidationError):
        plan_test(0.9, 0.1, -1.0, 1 / 3)
    with pytest.raises(ValidationError):
        plan_test(0.9, 1e-60, 1.0, 0.0)


@pytest.mark.parametrize("C", [math.nan, math.inf])
def test_plan_rejects_non_finite_C(C):
    # A NaN C gave D2 = D = NaN, so every state was judged Far; an infinite C gave D2 = 0.
    with pytest.raises(ValidationError):
        plan_test(0.9, 1e-40, C, 1 / 3)


def test_tolerant_test_on_stabilizer_state():
    plan = plan_test(0.9, 1e-60, 1.0, 1 / 3)
    stab = generate_state("stabilizer", 3, seed=8)
    outcome = run_tolerant_test(stab, plan, np.random.default_rng(9))
    assert outcome.decision == "Close"
    assert outcome.gamma_bar == 1.0
    assert outcome.m_used == plan.m


def test_decision_is_deterministic_given_seed():
    plan = plan_test(0.9, 1e-60, 1.0, 1 / 3)
    psi = generate_state("haar", 3, seed=10)
    first = run_tolerant_test(psi, plan, np.random.default_rng(11))
    second = run_tolerant_test(psi, plan, np.random.default_rng(11))
    assert first == second


def test_accept_rate_tracks_exact_gamma_across_corpus():
    from stabkit.state import gamma_exact

    m = 100_000
    rng = np.random.default_rng(13)
    states = [generate_state("t_tensor", 2)]
    for n in (1, 2, 3):
        states.append(generate_state("haar", n, rng=rng))
        states.append(generate_state("stabilizer", n, rng=rng))
        states.append(generate_state("noisy_stabilizer", n, noise=0.3, rng=rng))
    for psi in states:
        _, accepts = BellSampler(psi).rounds(m, rng)
        target = 0.5 + gamma_exact(psi) / 2
        assert abs(float(accepts.mean()) - target) <= 4 / math.sqrt(m)


def test_gamma_bar_stays_in_range():
    rng = np.random.default_rng(12)
    for _ in range(10):
        psi = generate_state("haar", 2, rng=rng)
        est = estimate_gamma(psi, 50, rng)
        assert -1.0 <= est <= 1.0


class _GivenUniforms:
    """Stands in for a Generator whose random(count) calls return u, in order."""

    def __init__(self, u):
        self.u, self.used = u, 0

    def random(self, count):
        self.used += count
        assert self.used <= self.u.size
        return self.u[self.used - count : self.used]


def _assert_labels_are_searchsorted(sampler, u):
    given = _GivenUniforms(u)
    got = sampler.sample_labels(u.size, given)
    assert given.used == u.size
    assert np.array_equal(got, np.searchsorted(sampler._cdf, u, side="right"))


@pytest.mark.parametrize("kind", ["haar", "stabilizer", "graph"])
def test_sample_labels_equal_searchsorted(kind):
    # Stabilizer and graph states put mass on 2^n of the 4^n labels, so their
    # CDFs have runs of equal entries; u is also put on every entry below 1
    # and just under it, at 0, and at the largest double below 1.
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        psi = graph_state(n, rng) if kind == "graph" else generate_state(kind, n, rng=rng)
        sampler = BellSampler(psi)
        cdf = sampler._cdf
        below = cdf[cdf < 1.0]
        u = np.concatenate(
            [below, np.nextafter(below, 0.0), [0.0, np.nextafter(1.0, 0.0)], rng.random(1000)]
        )
        _assert_labels_are_searchsorted(sampler, u)
    assert u.size > 2 * BLOCK  # the n = 8 draws span several lifting blocks


def test_sample_labels_equal_searchsorted_when_the_sum_passes_one_early():
    # Roundoff can take the running sum above 1 before the last entry, which
    # the sampler then sets to 1: the CDF is not monotone at its end.
    rng = np.random.default_rng(11)
    sampler = BellSampler(H_STATE)
    checked = 0
    while checked < 20:
        p = rng.random(512) * (rng.random(512) < 0.3)
        cdf = np.cumsum(p / p.sum())
        if not (cdf[:-1] > 1.0).any():
            continue
        cdf[-1] = 1.0
        sampler._cdf = cdf
        below = cdf[cdf < 1.0]
        u = np.concatenate([below, np.nextafter(below, 0.0), [np.nextafter(1.0, 0.0)]])
        _assert_labels_are_searchsorted(sampler, np.concatenate([u, rng.random(1000)]))
        checked += 1
