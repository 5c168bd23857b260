"""Generalized uncertainty relation machinery.

For a label set A and any pure state, sum_i <A_i>^2 is at most the maximum
operator norm of a squared unit-coefficient combination of the A_i, which
in turn is at most the Lovasz theta of the anti-commutation graph.  The
middle quantity is nonconvex; this module computes a certified lower bound
by multi-start projected-gradient ascent (the chain only ever needs that
bound sandwiched against theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, CertificateError, ValidationError
from .gf2 import WeylLabel
from .graphs import anticommutation_graph, lovasz_theta
from .state import PureState, weyl_matrix

__all__ = [
    "HAMILTONIAN_QUBIT_CAP",
    "HamiltonianSpec",
    "UncertaintyCertificate",
    "hamiltonian_norm_sq",
    "psi0_lower_bound",
    "uncertainty_certificate",
]

HAMILTONIAN_QUBIT_CAP = 6
_COEFF_NORM_TOL = 1e-10
# Projected-gradient ascent: first trial step, stopping gradient norm, step cap.
_ASCENT_STEP0 = 0.1
_ASCENT_GRAD_TOL = 1e-9
_ASCENT_MAX_STEPS = 500


def _check_labels(labels: list[WeylLabel]) -> int:
    if not labels:
        raise ValidationError("need at least one label")
    n = labels[0].n
    if any(lab.n != n for lab in labels):
        raise ValidationError("labels mix qubit counts")
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate labels")
    if n > HAMILTONIAN_QUBIT_CAP:
        raise CapExceededError(
            f"dense Hamiltonians capped at n={HAMILTONIAN_QUBIT_CAP}, got {n}"
        )
    return n


@dataclass(frozen=True)
class HamiltonianSpec:
    """A label set with unit-norm real coefficients."""

    labels: tuple[WeylLabel, ...]
    coefficients: np.ndarray

    def __post_init__(self):
        _check_labels(list(self.labels))
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.shape != (len(self.labels),):
            raise ValidationError("coefficient count does not match label count")
        norm = float(np.linalg.norm(coeffs))
        if abs(norm - 1.0) > _COEFF_NORM_TOL:
            raise ValidationError(f"coefficient norm {norm!r} is not 1 within {_COEFF_NORM_TOL}")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)


def _stacked_matrices(labels: list[WeylLabel]) -> np.ndarray:
    return np.stack([weyl_matrix(lab) for lab in labels])


def hamiltonian_norm_sq(spec: HamiltonianSpec) -> float:
    """lambda_max(H^2) for H = sum_i a_i W_i, via dense eigendecomposition."""
    mats = _stacked_matrices(list(spec.labels))
    mu, _ = _extreme_eigpair(np.tensordot(spec.coefficients, mats, axes=1))
    return mu * mu


def _extreme_eigpair(ham: np.ndarray) -> tuple[float, np.ndarray]:
    """The eigenvalue of largest modulus and its phase-fixed eigenvector."""
    vals, vecs = np.linalg.eigh(ham)
    idx = 0 if abs(vals[0]) > abs(vals[-1]) else len(vals) - 1
    vec = vecs[:, idx]
    # Deterministic sign/phase: first significant component made real-positive.
    for comp in vec:
        if abs(comp) > 1e-12:
            vec = vec * (abs(comp) / comp)
            break
    return float(vals[idx]), vec


def _ascend(mats: np.ndarray, start: np.ndarray) -> tuple[float, np.ndarray]:
    a = start / np.linalg.norm(start)
    mu, vec = _extreme_eigpair(np.tensordot(a, mats, axes=1))
    best = mu * mu
    for _ in range(_ASCENT_MAX_STEPS):
        grad = 2.0 * mu * np.real(np.einsum("i,kij,j->k", np.conj(vec), mats, vec))
        grad -= np.dot(grad, a) * a
        if np.linalg.norm(grad) < _ASCENT_GRAD_TOL:
            break
        step = _ASCENT_STEP0
        improved = False
        while step > 1e-12:
            cand = a + step * grad
            cand /= np.linalg.norm(cand)
            mu_c, vec_c = _extreme_eigpair(np.tensordot(cand, mats, axes=1))
            if mu_c * mu_c > best:
                a, mu, vec, best = cand, mu_c, vec_c, mu_c * mu_c
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return best, a


def psi0_lower_bound(
    labels: list[WeylLabel],
    restarts: int = 64,
    rng: np.random.Generator | None = None,
    seed_starts: list[np.ndarray] | None = None,
) -> dict:
    """Certified lower bound on the max squared operator norm over unit coefficients.

    Projected-gradient ascent on the coefficient sphere from ``restarts``
    random starts (plus any supplied seed starts); every evaluation is a
    true norm, so the best value found is a valid lower bound.
    """
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    if rng is None:
        rng = np.random.default_rng(0)
    _check_labels(labels)
    mats = _stacked_matrices(labels)
    count = len(labels)
    starts = list(seed_starts or [])
    for _ in range(restarts):
        starts.append(rng.normal(size=count))
    best_value, best_arg = -np.inf, None
    for start in starts:
        value, arg = _ascend(mats, np.asarray(start, dtype=np.float64))
        if value > best_value:
            best_value, best_arg = value, arg
    return {"value": float(best_value), "argmax": best_arg}


@dataclass(frozen=True)
class UncertaintyCertificate:
    lhs: float
    witness: np.ndarray
    psi0_lb: float
    theta_ub: float


def uncertainty_certificate(
    state: PureState,
    labels: list[WeylLabel],
    theta_tol: float = 1e-6,
    restarts: int = 8,
    rng: np.random.Generator | None = None,
) -> UncertaintyCertificate:
    """Evaluate and verify the chain sum <A_i>^2 <= psi0 <= theta(Gamma_A).

    The expectation vector w seeds the ascent: the norm of H(w/|w|) already
    certifies the first link, so a violation of any link signals a solver
    or engine bug rather than a property of the input.
    """
    n = _check_labels(labels)
    if state.n != n:
        raise ValidationError(f"qubit-count mismatch: state n={state.n}, labels n={n}")
    if rng is None:
        rng = np.random.default_rng(0)
    witness = state.expectations[[lab.bits for lab in labels]]
    lhs = float(np.dot(witness, witness))
    norm = float(np.linalg.norm(witness))

    seed_starts = []
    if norm > 1e-12:
        seed = witness / norm
        seed_norm_sq = hamiltonian_norm_sq(HamiltonianSpec(tuple(labels), seed))
        if lhs > norm * np.sqrt(seed_norm_sq) + 1e-9:
            raise CertificateError(
                f"witness bound failed: lhs {lhs!r} vs {norm * np.sqrt(seed_norm_sq)!r}"
            )
        seed_starts.append(seed)
    else:
        seed_norm_sq = 0.0

    ascent = psi0_lower_bound(labels, restarts, rng, seed_starts=seed_starts)
    psi0_lb = max(float(ascent["value"]), seed_norm_sq)
    theta_ub = lovasz_theta(anticommutation_graph(labels), theta_tol).value

    if lhs > psi0_lb + 1e-8:
        raise CertificateError(f"chain failed: lhs {lhs!r} > psi0 bound {psi0_lb!r}")
    if psi0_lb > theta_ub + 10.0 * theta_tol:
        raise CertificateError(
            f"chain failed: psi0 bound {psi0_lb!r} > theta {theta_ub!r} + 10*tol"
        )
    if lhs > theta_ub + theta_tol:
        raise CertificateError(f"chain failed: lhs {lhs!r} > theta {theta_ub!r} + tol")
    return UncertaintyCertificate(
        lhs=lhs, witness=witness, psi0_lb=psi0_lb, theta_ub=theta_ub
    )
