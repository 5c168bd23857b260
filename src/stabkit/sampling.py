"""Bell difference sampling simulator and the tolerant tester.

A round draws two labels from the characteristic distribution, XORs them
(the difference sample, marginally the Weyl distribution), and accepts with
probability (1 + <W_a>^2)/2.  The marginal accept probability is therefore
1/2 + gamma/2, which the tester estimates and thresholds.

Sampling draws from the exact p table rather than simulating the physical
Bell-basis circuit; the two are distributionally identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ValidationError
from .state import PureState, char_distribution

__all__ = [
    "ROUND_CAP",
    "BellSampler",
    "TestPlan",
    "TestOutcome",
    "estimate_gamma",
    "plan_test",
    "run_tolerant_test",
]


# Engine cap on Bell rounds per estimate: about a minute at ~3e6 rounds/s.
ROUND_CAP = 200_000_000
# Rounds drawn per pass of estimate_gamma; every m up to it is drawn in one pass.
_ROUND_CHUNK = 1 << 17


class BellSampler:
    """Holds the state's p table and its CDF so repeated rounds are cheap."""

    def __init__(self, state: PureState):
        self.p = char_distribution(state)
        self._cdf = np.cumsum(self.p.values)
        self._cdf[-1] = 1.0
        # <W_a>^2 = 2^n p(a), the per-label accept bias.
        self._expect_sq = (1 << state.n) * self.p.values

    def sample_labels(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF draws from p, as packed label bits."""
        return np.searchsorted(self._cdf, rng.random(count), side="right")

    def rounds(self, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized rounds: (difference labels, accept bits)."""
        a = self.sample_labels(count, rng)
        a ^= self.sample_labels(count, rng)
        bias = self._expect_sq[a]
        bias += 1.0
        bias *= 0.5  # in place: at most three count-sized arrays are alive at once
        accepts = rng.random(count) < bias
        return a, accepts.astype(np.int64)


def estimate_gamma(state: PureState, m: int, rng: np.random.Generator) -> float:
    """Unbiased estimator (1/m) sum (2 accept_i - 1) of gamma, in [-1, 1].

    Rounds are drawn in passes of at most _ROUND_CHUNK, so memory stays
    bounded for any m up to ROUND_CAP; the sum of +-1 terms is exact, so a
    single pass gives the same float as the mean over one array.
    """
    if m < 1:
        raise ValidationError(f"sample count must be >= 1, got {m}")
    if m > ROUND_CAP:
        raise CapExceededError(f"{m} Bell rounds planned, above the cap of {ROUND_CAP}")
    sampler = BellSampler(state)
    accepted = 0
    for start in range(0, m, _ROUND_CHUNK):
        accepted += int(sampler.rounds(min(_ROUND_CHUNK, m - start), rng)[1].sum())
    return (2.0 * accepted - m) / m


@dataclass(frozen=True)
class TestPlan:
    """Thresholds and sample count for one tolerant-test run.

    ``half_gap`` records whether the stronger condition D2 <= D1/2 holds
    (the regime the error analysis assumes); the plan is refused outright
    only when D2 >= D1, where no threshold can separate the promises.
    """

    eps1: float
    eps2: float
    C: float
    delta: float
    D1: float
    D2: float
    D: float
    m: int
    half_gap: bool


def plan_test(eps1: float, eps2: float, C: float, delta: float) -> TestPlan:
    """Thresholds D1 = eps1^6, D2 = (eps2/C)^(1/112), and the Hoeffding sample count."""
    if not 0.0 < eps1 <= 1.0:
        raise ValidationError(f"eps1 must be in (0,1], got {eps1}")
    if not 0.0 <= eps2 < 1.0:
        raise ValidationError(f"eps2 must be in [0,1), got {eps2}")
    if C <= 0.0:
        raise ValidationError(f"C must be positive, got {C}")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must be in (0,1), got {delta}")
    D1 = eps1**6
    D2 = (eps2 / C) ** (1.0 / 112.0)
    if D2 >= D1:
        raise ValidationError(
            f"gap violation: D2 = {D2!r} >= D1 = {D1!r}; "
            f"need eps2 < C * eps1^672"
        )
    m = math.ceil(72.0 * math.log(2.0 / delta) / eps1**12)
    return TestPlan(
        eps1=eps1,
        eps2=eps2,
        C=C,
        delta=delta,
        D1=D1,
        D2=D2,
        D=0.5 * (D1 + D2),
        m=m,
        half_gap=D2 <= D1 / 2.0,
    )


@dataclass(frozen=True)
class TestOutcome:
    decision: str  # "Close" or "Far"
    gamma_bar: float
    m_used: int


def run_tolerant_test(
    state: PureState, plan: TestPlan, rng: np.random.Generator
) -> TestOutcome:
    """Estimate gamma over plan.m rounds and threshold at D."""
    gamma_bar = estimate_gamma(state, plan.m, rng)
    decision = "Close" if gamma_bar >= plan.D else "Far"
    return TestOutcome(decision=decision, gamma_bar=gamma_bar, m_used=plan.m)
