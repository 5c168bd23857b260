"""Uncertainty-relation chain: Hamiltonian norms, the ascent bound, certificates."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_subspace
from stabkit.errors import CapExceededError, ValidationError
from stabkit.gf2 import WeylLabel, parse_labels, symplectic_form
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
