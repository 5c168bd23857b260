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
from .graphs import ThetaResult, anticommutation_graph, lovasz_theta
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
# Slack of the chain's theta links: eigensolver roundoff, not solver tolerance.
_ROUNDOFF = 1e-9
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
    mu, _ = _extreme_eigpairs(np.tensordot(spec.coefficients, mats, axes=1)[None])
    return float(mu[0] * mu[0])


def _extreme_eigpairs(hams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of a stack: the eigenvalue of largest modulus and its eigenvector.

    One stacked eigh; its output is bit-identical to one call per matrix.
    """
    vals, vecs = np.linalg.eigh(hams)
    rows = np.arange(len(hams))
    idx = np.where(np.abs(vals[:, 0]) > np.abs(vals[:, -1]), 0, vals.shape[1] - 1)
    return vals[rows, idx], vecs[rows, :, idx]


def _ascend(mats: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected-gradient ascent on the coefficient sphere from every start, in lockstep.

    Each backtracking round evaluates one candidate per unfinished ascent,
    a + step * grad renormalized, with one stacked eigh: a step of
    _ASCENT_STEP0 after an accepted move, half the last step after a
    rejected one.  An ascent stops when its gradient is below
    _ASCENT_GRAD_TOL, its step reaches 1e-12 without improving, or it has
    taken _ASCENT_MAX_STEPS steps.  Returns each start's best mu^2 and argument.
    """
    count, dim = mats.shape[0], mats.shape[1]
    # Real views of the complex entries (re, im interleaved): the coefficients are
    # real, so both contractions are real matmuls.
    flat = mats.reshape(count, dim * dim).view(np.float64)
    flat_conj = np.conj(mats).reshape(count, dim * dim).view(np.float64)

    def evaluate(coeffs):
        return _extreme_eigpairs((coeffs @ flat).view(np.complex128).reshape(-1, dim, dim))

    def gradient(coeffs, mu, vecs):
        # d mu^2 / d a_k = 2 mu Re <v|W_k|v>, projected onto the sphere's tangent space.
        outer = np.conj(vecs)[:, :, None] * vecs[:, None, :]
        grad = 2.0 * mu[:, None] * (outer.reshape(len(vecs), -1).view(np.float64) @ flat_conj.T)
        return grad - np.sum(grad * coeffs, axis=1, keepdims=True) * coeffs

    def norms(rows):
        return np.sqrt(np.einsum("ij,ij->i", rows, rows))

    a = starts / norms(starts)[:, None]
    mu, vecs = evaluate(a)
    value = mu * mu
    grad = gradient(a, mu, vecs)
    best_value, best_arg = value.copy(), a.copy()
    # The unfinished ascents, compacted: their start index and state.
    live = norms(grad) >= _ASCENT_GRAD_TOL
    idx, a, value, grad = np.flatnonzero(live), a[live], value[live], grad[live]
    step = np.full(len(idx), _ASCENT_STEP0)
    taken = np.zeros(len(idx), dtype=np.int64)
    while idx.size:
        cand = a + step[:, None] * grad
        cand /= norms(cand)[:, None]
        mu_c, vecs_c = evaluate(cand)
        value_c = mu_c * mu_c
        up = value_c > value
        if up.any():
            a[up], value[up] = cand[up], value_c[up]
            grad[up] = gradient(cand[up], mu_c[up], vecs_c[up])
            step[up] = _ASCENT_STEP0
            taken[up] += 1
        step[~up] *= 0.5
        live = np.where(up, (taken < _ASCENT_MAX_STEPS) & (norms(grad) >= _ASCENT_GRAD_TOL),
                        step > 1e-12)
        if not live.all():
            done = ~live
            best_value[idx[done]], best_arg[idx[done]] = value[done], a[done]
            idx, a, value, grad, step, taken = (
                arr[live] for arr in (idx, a, value, grad, step, taken))
    return best_value, best_arg


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
    count = len(labels)
    starts = [np.asarray(s, dtype=np.float64) for s in seed_starts or []]
    starts += [rng.normal(size=count) for _ in range(restarts)]
    values, args = _ascend(_stacked_matrices(labels), np.array(starts))
    best = int(np.argmax(values))  # the first start reaching the maximum
    return {"value": float(values[best]), "argmax": args[best]}


@dataclass(frozen=True)
class UncertaintyCertificate:
    lhs: float
    witness: np.ndarray
    psi0_lb: float
    theta: ThetaResult  # the certified bracket on theta(Gamma_A)

    @property
    def theta_ub(self) -> float:
        return self.theta.upper


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
    theta = lovasz_theta(anticommutation_graph(labels), theta_tol)
    if not theta.converged:
        raise CertificateError(
            f"theta solver did not converge: bracket [{theta.value!r}, {theta.upper!r}] "
            f"after {theta.iterations} {theta.solver} iterations"
        )

    if lhs > psi0_lb + 1e-8:
        raise CertificateError(f"chain failed: lhs {lhs!r} > psi0 bound {psi0_lb!r}")
    # theta.upper is a certified upper bound, so only roundoff may separate the links.
    if psi0_lb > theta.upper + _ROUNDOFF:
        raise CertificateError(f"chain failed: psi0 bound {psi0_lb!r} > theta {theta.upper!r}")
    if lhs > theta.upper + _ROUNDOFF:
        raise CertificateError(f"chain failed: lhs {lhs!r} > theta {theta.upper!r}")
    return UncertaintyCertificate(lhs=lhs, witness=witness, psi0_lb=psi0_lb, theta=theta)
