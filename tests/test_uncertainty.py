"""Uncertainty-relation chain: Hamiltonian norms, the ascent bound, certificates."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from conftest import fixed_point_round, random_isotropic_basis, random_subspace
from stabkit import uncertainty
from stabkit.errors import CapExceededError, CertificateError, ValidationError
from stabkit.gf2 import (
    GF2Subspace,
    WeylLabel,
    enumerate_lagrangians,
    parse_labels,
    symplectic_form,
)
from stabkit.state import PureState, generate_state
from stabkit.uncertainty import (
    HamiltonianSpec,
    hamiltonian_norm_sq,
    psi0_lower_bound,
    uncertainty_certificate,
)

I1 = WeylLabel(0, 1)
X1 = WeylLabel.from_halves(1, 0, 1)
Z1 = WeylLabel.from_halves(0, 1, 1)
Y1 = WeylLabel.from_halves(1, 1, 1)
ZERO = PureState(np.array([1, 0], dtype=complex), 1)


def anticommuting_family(n: int, rng: np.random.Generator) -> list[WeylLabel]:
    """Greedy pairwise-anticommuting label set from a shuffled scan."""
    picks: list[WeylLabel] = []
    for bits in rng.permutation(np.arange(1, 1 << (2 * n))):
        cand = WeylLabel(int(bits), n)
        if all(symplectic_form(cand, kept) == 1 for kept in picks):
            picks.append(cand)
    return picks


def test_hamiltonian_norm_examples():
    assert hamiltonian_norm_sq(HamiltonianSpec((X1,), np.array([1.0]))) == pytest.approx(1.0)
    half = np.array([1.0, 1.0]) / np.sqrt(2)
    assert hamiltonian_norm_sq(HamiltonianSpec((X1, Z1), half)) == pytest.approx(1.0)
    assert hamiltonian_norm_sq(HamiltonianSpec((I1, X1), half)) == pytest.approx(2.0)


def test_hamiltonian_spec_validation():
    with pytest.raises(ValidationError):
        HamiltonianSpec((X1,), np.array([0.5]))  # norm != 1
    with pytest.raises(ValidationError):
        HamiltonianSpec((X1, X1), np.array([1.0, 0.0]))  # duplicates
    with pytest.raises(CapExceededError):
        HamiltonianSpec((WeylLabel(1, 7),), np.array([1.0]))


@pytest.mark.parametrize("coefficients", [[np.nan, 0.0, 0.0], [1.0, np.nan, 0.0], [np.inf, 0.0, 0.0]])
def test_hamiltonian_spec_rejects_non_finite_coefficients(coefficients):
    # A NaN norm fails no "> tol" test, so it once built a spec whose norm was NaN.
    with pytest.raises(ValidationError):
        HamiltonianSpec((X1, Y1, Z1), np.array(coefficients))


def test_psi0_examples():
    rng = np.random.default_rng(0)
    res = psi0_lower_bound([X1, Y1, Z1], 8, rng)
    assert res["value"] == pytest.approx(1.0, abs=1e-8)
    res = psi0_lower_bound([I1, X1], 8, rng)
    assert res["value"] == pytest.approx(2.0, abs=1e-8)
    res = psi0_lower_bound([I1, X1, Y1, Z1], 16, rng)
    assert res["value"] == pytest.approx(2.0, abs=1e-6)


def test_psi0_against_random_search_oracle():
    # Dense random search over the coefficient sphere never beats the ascent.
    labels = [I1, X1, Y1, Z1]
    rng = np.random.default_rng(1)
    draws = rng.normal(size=(20_000, 4))
    draws /= np.linalg.norm(draws, axis=1, keepdims=True)
    mats = np.stack(
        [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
    ).astype(complex)
    hams = np.tensordot(draws, mats, axes=1)
    eigs = np.linalg.eigvalsh(hams)
    search_best = float((np.abs(eigs).max(axis=1) ** 2).max())
    ascent = psi0_lower_bound(labels, 16, np.random.default_rng(2))["value"]
    assert ascent >= search_best - 1e-9
    assert ascent == pytest.approx(2.0, abs=1e-6)


def test_psi0_anticommuting_sets_give_one():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        labels = anticommuting_family(n, rng)
        assert len(labels) >= 3
        res = psi0_lower_bound(labels, 4, rng)
        assert res["value"] == pytest.approx(1.0, abs=1e-8)


def jordan_wigner_family(n: int) -> list[WeylLabel]:
    """The 2n + 1 Majorana strings Z..Z X_k, Z..Z Y_k and Z^(x)n."""
    bits = []
    for k in range(n):
        zs = ((1 << k) - 1) << n
        bits += [zs | 1 << k, zs | 1 << k | 1 << (n + k)]
    return [WeylLabel(b, n) for b in bits + [((1 << n) - 1) << n]]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_psi0_full_label_set_gives_two_to_the_n(n):
    # a = <W>_psi / 2^(n/2) for a pure state psi gives H = 2^(n/2) |psi><psi|, so mu^2 = 2^n.
    labels = [WeylLabel(b, n) for b in range(1 << (2 * n))]
    res = psi0_lower_bound(labels, 8, np.random.default_rng(10 + n))
    assert res["value"] == pytest.approx(2.0**n, abs=1e-8)


def test_psi0_jordan_wigner_set_gives_one_at_n4():
    labels = jordan_wigner_family(4)
    assert len(labels) == 9
    assert all(symplectic_form(x, y) == 1 for i, x in enumerate(labels) for y in labels[:i])
    res = psi0_lower_bound(labels, 8, np.random.default_rng(14))
    assert res["value"] == pytest.approx(1.0, abs=1e-8)
    assert res["steps"] == 1  # H(a)^2 = I for every unit a: the first round is stationary


def test_psi0_permutation_invariance():
    rng = np.random.default_rng(4)
    labels = [WeylLabel(int(b), 2) for b in rng.choice(16, size=6, replace=False)]
    v1 = psi0_lower_bound(labels, 12, np.random.default_rng(5))["value"]
    order = rng.permutation(6)
    v2 = psi0_lower_bound([labels[i] for i in order], 12, np.random.default_rng(6))["value"]
    assert v1 == pytest.approx(v2, abs=1e-9)


def test_psi0_sign_flip_invariance_on_independent_sets():
    # Holds for linearly independent label sets (a Weyl conjugation realizes
    # the flip); dependent sets can genuinely change value under one flip.
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        V = random_subspace(rng, n, int(rng.integers(2, 2 * n + 1)))
        labels = [WeylLabel(b, n) for b in V.basis]
        res = psi0_lower_bound(labels, 6, rng)
        base = hamiltonian_norm_sq(HamiltonianSpec(tuple(labels), res["argmax"]))
        for j in range(len(labels)):
            flipped = res["argmax"].copy()
            flipped[j] = -flipped[j]
            value = hamiltonian_norm_sq(HamiltonianSpec(tuple(labels), flipped))
            assert value == pytest.approx(base, abs=1e-9)


def test_certificate_examples():
    cert = uncertainty_certificate(ZERO, [X1, Y1, Z1], theta_tol=1e-6)
    assert cert.lhs == pytest.approx(1.0)
    assert cert.theta_ub == pytest.approx(1.0, abs=1e-5)

    cert = uncertainty_certificate(ZERO, [I1, Z1], theta_tol=1e-6)
    assert cert.lhs == pytest.approx(2.0)
    assert cert.theta_ub == pytest.approx(2.0, abs=1e-5)


def test_certificate_chain_on_random_trials():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        psi = generate_state("haar", n, rng=rng)
        count = int(rng.integers(2, min(20, 1 << (2 * n)) + 1))
        picks = rng.choice(1 << (2 * n), size=count, replace=False)
        labels = [WeylLabel(int(b), n) for b in picks]
        cert = uncertainty_certificate(psi, labels, theta_tol=1e-5, restarts=2, rng=rng)
        assert cert.lhs <= cert.psi0_lb + 1e-8
        assert cert.psi0_lb <= cert.theta_ub + 1e-4
        assert cert.witness.shape == (count,)


def test_certificate_fact14_specialization():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        labels = anticommuting_family(n, rng)
        psi = generate_state("haar", n, rng=rng)
        cert = uncertainty_certificate(psi, labels, theta_tol=1e-6, restarts=2, rng=rng)
        assert cert.lhs <= 1.0 + 1e-9


def test_certificate_validation():
    with pytest.raises(ValidationError):
        uncertainty_certificate(ZERO, [])
    with pytest.raises(ValidationError):
        uncertainty_certificate(ZERO, [WeylLabel(1, 2)])
    for restarts in (0, uncertainty.RESTART_CAP + 1):
        with pytest.raises(ValidationError if restarts < 1 else CapExceededError):
            uncertainty_certificate(ZERO, [X1], restarts=restarts)
        with pytest.raises(ValidationError if restarts < 1 else CapExceededError):
            psi0_lower_bound([X1], restarts)


@pytest.mark.parametrize("start", [[0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [np.inf, 1.0, 0.0],
                                   [1.0, 0.0], [1 + 5j, 0.0, 0.0]],
                         ids=["zero", "nan", "inf", "short", "complex"])
def test_psi0_rejects_malformed_seed_starts(start):
    # Normalizing a zero start gave NaN, NaN and inf passed silently, a short
    # start ended in numpy's inhomogeneous-shape error, and a complex start ran
    # from its real part with only a ComplexWarning.
    with pytest.raises(ValidationError):
        psi0_lower_bound([X1, Y1, Z1], 2, np.random.default_rng(0), seed_starts=[np.array(start)])


def commuting_sets() -> list[list[WeylLabel]]:
    """{II, XX, YY, ZZ}, random subsets of random Lagrangians at n = 1..4, full groups at 5, 6.

    Each n <= 4 gives one subset with the identity and one without; a subset of a
    Lagrangian may be linearly dependent, like the first set.  A full Lagrangian
    group at n = 5 and 6 has 32 and 64 members, past one uint32 of sign columns.
    """
    sets = [[WeylLabel.from_halves(x1, x2, 2) for x1, x2 in [(0, 0), (3, 0), (3, 3), (0, 3)]]]
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4):
        lagrangians = list(enumerate_lagrangians(n))
        for identity in (True, False):
            nonzero = lagrangians[rng.integers(len(lagrangians))].element_bits[1:]
            picks = rng.choice(nonzero, size=rng.integers(1, len(nonzero) + 1), replace=False)
            sets.append([WeylLabel(int(b), n) for b in [0] * identity + sorted(picks)])
    for n in (5, 6):
        group = GF2Subspace(random_isotropic_basis(rng, n, n), n).element_bits
        sets.append([WeylLabel(b, n) for b in sorted(group)])
    return sets


@pytest.mark.parametrize("labels", commuting_sets(),
                         ids=["bell"] + [f"n{n}-{i}" for n in (1, 2, 3, 4) for i in ("id", "no-id")]
                         + ["n5-full", "n6-full"])
def test_commuting_start_attains_the_set_size_in_one_round(labels):
    # On {II, XX, YY, ZZ} the unsigned start 1/2 (1, 1, 1, 1) gives mu^2 = 1, not 4.
    m, n = len(labels), labels[0].n
    start = uncertainty._commuting_start(labels, tuple(range(m)))
    assert hamiltonian_norm_sq(HamiltonianSpec(tuple(labels), start)) == pytest.approx(
        m, abs=1e-12 * m)
    cert = uncertainty_certificate(generate_state("haar", n, seed=m), labels, restarts=8,
                                   rng=np.random.default_rng(m))
    assert cert.theta.independent == tuple(range(m))  # the graph has no edge
    assert cert.psi0_lb == pytest.approx(m, abs=1e-12 * m)
    assert cert.ascent_steps == 1


@pytest.mark.parametrize(
    "labels, value",
    [([WeylLabel(b, n) for b in range(1 << (2 * n))], 2.0**n) for n in (1, 2, 3)]
    + [(jordan_wigner_family(n), 1.0) for n in (1, 2, 3, 4)],
    ids=[f"full{n}" for n in (1, 2, 3)] + [f"jordan-wigner{n}" for n in (1, 2, 3, 4)],
)
def test_certificate_keeps_closed_forms_in_one_round(labels, value):
    n = labels[0].n
    cert = uncertainty_certificate(generate_state("haar", n, seed=n), labels, restarts=8,
                                   rng=np.random.default_rng(n))
    assert cert.psi0_lb == pytest.approx(value, abs=1e-8)
    assert cert.theta_ub == pytest.approx(value, abs=1e-5)
    assert cert.ascent_steps == 1


def test_certificate_calls_each_traced_layer_once_through_the_module(monkeypatch):
    # stabbench's tracer times these layers by patching their names in this module.
    # The witness's mu^2 comes from the ascent's first round, so one certificate
    # stacks the label matrices once and builds no HamiltonianSpec.
    counts = Counter()
    for name in ("psi0_lower_bound", "hamiltonian_norm_sq", "HamiltonianSpec", "lovasz_theta",
                 "weyl_matrices"):
        def counted(*args, _name=name, _real=getattr(uncertainty, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(uncertainty, name, counted)
    labels = [WeylLabel(b, 2) for b in (0, 3, 5, 9, 12)]
    uncertainty_certificate(generate_state("haar", 2, seed=4), labels, restarts=4,
                            rng=np.random.default_rng(4))
    assert counts == {"psi0_lower_bound": 1, "lovasz_theta": 1, "weyl_matrices": 1}


def test_witness_bound_reads_the_witness_start_own_first_round(monkeypatch):
    # Round 1 reports mu^2 = 0 for every start and keeps each one live; later rounds are
    # true.  The witness start's best mu^2 then clears lhs, but its own round-1 mu^2,
    # which is the value the witness bound is stated for, does not.
    real_round, rounds = uncertainty._fixed_point_round, []

    def zero_first_round(flat, flat_conj, dim, a):
        value, gap, nxt = real_round(flat, flat_conj, dim, a)
        if not rounds:
            value, gap = np.zeros_like(value), np.ones_like(gap)
        rounds.append(len(a))
        return value, gap, nxt

    monkeypatch.setattr(uncertainty, "_fixed_point_round", zero_first_round)
    labels = [WeylLabel(b, 2) for b in (0, 3, 5, 9, 12)]
    with pytest.raises(CertificateError, match="witness bound failed"):
        uncertainty_certificate(generate_state("haar", 2, seed=4), labels, restarts=4,
                                rng=np.random.default_rng(4))
    assert len(rounds) > 1  # the ascent went past round 1, so every best is a true mu^2


# Trial 35 of the criterion-5 stream (seed 505, drawn at 8 restarts): n = 4, 14 labels,
# 39 anticommuting pairs, psi0 = theta = 5.  Douglas-Rachford stopped at its iteration
# cap at 4.999989, below psi0, so the certificate failed on a correct chain.
FAULT_T35 = """
01010001 00111011 10100101 00111001 01111110 00000101 11011010
01101101 01010101 10000000 01011101 10100000 11000001 01000000
"""


def test_certificate_on_the_degenerate_t35_label_set():
    labels = parse_labels(FAULT_T35.replace(" ", "\n"))
    assert len(labels) == 14
    psi = generate_state("haar", 4, seed=35)
    cert = uncertainty_certificate(psi, labels, theta_tol=1e-6, restarts=8,
                                   rng=np.random.default_rng(505))
    assert cert.theta.converged and cert.theta.solver == "ipm"
    assert cert.psi0_lb <= 5.0 + 1e-9 <= cert.theta_ub + 1e-9
    assert cert.theta.value <= 5.0 <= cert.theta_ub
    # The interior point's upper bound sits above psi0 = 5, so only the ceiling's
    # -theta_tol lets the commuting start end the ascent in its first round.
    assert cert.theta_ub > 5.0 and len(cert.theta.independent) == 5
    unceilinged = psi0_lower_bound(labels, 8, np.random.default_rng(505))
    assert unceilinged["steps"] > 1 and cert.ascent_steps == 1
    assert cert.psi0_lb >= unceilinged["value"] - 1e-6


# A criterion-5-like set (n = 4, 20 labels) with a flat maximum psi0 = 6, where the
# plain fixed-point step stalls at the round cap.
FLAT_MAX_N4 = """
11010100 01100010 11101001 11101011 00111111 01010000 00110101 01001000 00110000 10100110
11101101 00110110 01010100 01001101 10110010 10110100 00000100 10110011 00000000 01010110
"""


@pytest.mark.parametrize(
    "text, seed, value, rounds",
    # Lockstep rounds this ascent took; the plain fixed point took 37 and 500 (its
    # cap), the old step-halving search 113 and 501.
    [(FAULT_T35, 505, 5.0, 28), (FLAT_MAX_N4, 29, 6.0, 57)],
    ids=["t35", "flat-max-n4"],
)
def test_psi0_ascent_rounds_stay_near_the_recorded_count(text, seed, value, rounds):
    # Guards the ascent's speed without timing it.
    res = psi0_lower_bound(parse_labels(text.replace(" ", "\n")), 8, np.random.default_rng(seed))
    assert res["value"] == pytest.approx(value, abs=1e-8)
    assert 1 <= res["steps"] <= 2 * rounds


def test_psi0_argmax_is_a_fixed_point_of_the_ascent():
    # Every start converges here, so the best one stops where a round maps it to itself.
    labels = parse_labels(FAULT_T35.replace(" ", "\n"))
    res = psi0_lower_bound(labels, 8, np.random.default_rng(505))
    value, gap, nxt = fixed_point_round(labels, res["argmax"])
    assert value[0] == pytest.approx(res["value"], abs=1e-12)
    assert gap[0] <= 1e-12 * max(value[0], 1.0)
    assert np.allclose(nxt[0], res["argmax"], atol=1e-5)


def test_ascent_reports_each_start_best_point_not_its_last(monkeypatch):
    # A scripted round: e0 -> e1 (best), then a mix that lowers mu^2 (dropped), then
    # the fallback plain step e2, which ties the best and stops.
    script = iter([(1.0, 1.0), (3.0, 1.0), (2.0, 1.0), (3.0, 0.0)])  # (mu^2, gap) per round

    def scripted_round(flat, flat_conj, dim, a):
        value, gap = next(script)
        return np.full(len(a), value), np.full(len(a), gap), np.roll(a, 1, axis=1)

    monkeypatch.setattr(uncertainty, "_fixed_point_round", scripted_round)
    mats = np.stack([np.eye(2, dtype=complex)] * 3)
    values, args, first, steps = uncertainty._ascend(mats, np.eye(3)[:1])
    assert steps == 4
    assert values.tolist() == [3.0] and args.tolist() == [[0.0, 1.0, 0.0]]
    assert first.tolist() == [1.0]
