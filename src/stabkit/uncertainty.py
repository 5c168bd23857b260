"""Generalized uncertainty relation machinery.

For a label set A and any pure state, sum_i <A_i>^2 is at most psi0, the
maximum squared operator norm of a unit-coefficient combination of the A_i,
which in turn is at most the Lovasz theta of the anti-commutation graph.  The
middle quantity is nonconvex; this module bounds it from below by a
multi-start fixed-point ascent, a <- mu g/|mu g| with g_k = <v|W_k|v> at the
extreme eigenpair (mu, v) of H(a), which never lowers mu^2 because
mu(a')^2 >= <v|H(a')|v>^2 = |g|^2 >= (a.g)^2 = mu(a)^2.

``uncertainty_certificate`` brackets theta first; theta draws no random
numbers.  Both ends of its sandwich then serve the ascent.  A commuting set I
(theta's greedy independent set) attains |I| <= psi0 through one start, signed
by ``oracle._elements_and_signs``, and the ascent stops every start once its
best mu^2 reaches theta's certified upper bound less theta_tol, where psi0 is
already fixed to within theta_tol.  The witness bound reads round 1's mu^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, CertificateError, ValidationError
from .gf2 import WeylLabel, _reduce_rows, label_batch_qubits
from .graphs import ThetaResult, anticommutation_graph, check_theta_order, lovasz_theta
from .oracle import _elements_and_signs
from .state import PureState, weyl_matrices

__all__ = [
    "HAMILTONIAN_QUBIT_CAP",
    "HamiltonianSpec",
    "RESTART_CAP",
    "UncertaintyCertificate",
    "check_hamiltonian_qubits",
    "check_restarts",
    "hamiltonian_norm_sq",
    "psi0_lower_bound",
    "uncertainty_certificate",
]

HAMILTONIAN_QUBIT_CAP = 6
_COEFF_NORM_TOL = 1e-10
# Slack of the chain's theta links: eigensolver roundoff, not solver tolerance.
_ROUNDOFF = 1e-9
# Fixed-point ascent: relative tol of the stopping gap |g|^2 - mu^2 and of a mix's loss; cap.
_ASCENT_TOL = 1e-12
_ASCENT_MAX_STEPS = 500
# Random starts per ascent; each stacks a few 4^n-entry complex matrices per round.
RESTART_CAP = 1024


def check_hamiltonian_qubits(n: int) -> None:
    """Refuse n above HAMILTONIAN_QUBIT_CAP, whose dense 2^n x 2^n matrices are not built."""
    if n > HAMILTONIAN_QUBIT_CAP:
        raise CapExceededError(
            f"dense Hamiltonians capped at n={HAMILTONIAN_QUBIT_CAP}, got {n}"
        )


def check_restarts(restarts: int) -> None:
    """Refuse fewer than one random start, or more than RESTART_CAP."""
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    if restarts > RESTART_CAP:
        raise CapExceededError(f"ascent restarts capped at {RESTART_CAP}, got {restarts}")


def _check_labels(labels: list[WeylLabel]) -> int:
    n = label_batch_qubits(labels)
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate labels")
    check_hamiltonian_qubits(n)
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
        if not abs(norm - 1.0) <= _COEFF_NORM_TOL:
            raise ValidationError(f"coefficient norm {norm!r} is not 1 within {_COEFF_NORM_TOL}")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)


def hamiltonian_norm_sq(spec: HamiltonianSpec) -> float:
    """lambda_max(H^2) for H = sum_i a_i W_i, via dense eigendecomposition."""
    mats = weyl_matrices(list(spec.labels))
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


def _fixed_point_round(flat: np.ndarray, flat_conj: np.ndarray, dim: int,
                       a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of a, by one stacked eigh: mu(a)^2, the gap |g|^2 - mu^2 and mu g / |mu g|.

    flat, flat_conj: real views (re, im interleaved) of the flattened label matrices
    and their conjugates, so that both contractions are real matmuls.
    """
    mu, vecs = _extreme_eigpairs((a @ flat).view(np.complex128).reshape(-1, dim, dim))
    outer = np.conj(vecs)[:, :, None] * vecs[:, None, :]
    g = outer.reshape(len(vecs), -1).view(np.float64) @ flat_conj.T
    g_sq = np.einsum("ij,ij->i", g, g)
    value = mu * mu
    return value, g_sq - value, (np.sign(mu) / np.sqrt(g_sq))[:, None] * g


def _ascend(mats: np.ndarray, starts: np.ndarray,
            ceiling: float = np.inf) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Fixed-point ascent of mu(a)^2 on the coefficient sphere from every start, in lockstep.

    The plain step a' = mu g / |mu g| never lowers mu^2, since
    mu(a')^2 >= <v|H(a')|v>^2 = |g|^2 >= (a.g)^2 = mu(a)^2, but crawls near flat
    maxima.  Each round therefore evaluates the Anderson(1) mix of a start's last
    two plain steps; a mix that lowers mu^2 by more than _ASCENT_TOL is dropped for
    the plain step from the last accepted point.  A start stops at an accepted point
    with |g|^2 - mu^2 <= _ASCENT_TOL * max(mu^2, 1), or after _ASCENT_MAX_STEPS
    rounds; every start stops once the best mu^2 of any reaches ``ceiling``.
    Returns each start's best mu^2, its argument, its round-1 mu^2, and the rounds taken.
    """
    count, dim = mats.shape[0], mats.shape[1]
    flat = mats.reshape(count, dim * dim).view(np.float64)
    flat_conj = np.conj(mats).reshape(count, dim * dim).view(np.float64)
    a = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    best_value, best_arg = np.zeros(len(a)), a.copy()
    last_a, last_next = a.copy(), a.copy()  # the last accepted point and its plain step
    idx = np.arange(len(a))  # the unfinished starts
    steps = 0
    while idx.size and steps < _ASCENT_MAX_STEPS:
        steps += 1
        value, gap, nxt = _fixed_point_round(flat, flat_conj, dim, a)
        if steps == 1:
            first_value = value
        up = value > best_value[idx]
        best_value[idx[up]], best_arg[idx[up]] = value[up], a[up]
        if best_value.max() >= ceiling:
            break
        ok = value >= best_value[idx] - _ASCENT_TOL * np.maximum(best_value[idx], 1.0)
        # Anderson(1): residuals r = a' - a of this and the last accepted step.
        res, res_diff = nxt - a, nxt - a - last_next[idx] + last_a[idx]
        mix = (steps > 1) * np.einsum("ij,ij->i", res, res_diff) / np.maximum(
            np.einsum("ij,ij->i", res_diff, res_diff), 1e-300)
        mixed = nxt - mix[:, None] * (nxt - last_next[idx])
        mixed /= np.linalg.norm(mixed, axis=1, keepdims=True)
        last_a[idx[ok]], last_next[idx[ok]] = a[ok], nxt[ok]
        live = ~ok | (gap > _ASCENT_TOL * np.maximum(value, 1.0))
        idx, a = idx[live], np.where(ok[:, None], mixed, last_next[idx])[live]
    return best_value, best_arg, first_value, steps


def psi0_lower_bound(
    labels: list[WeylLabel],
    restarts: int = 64,
    rng: np.random.Generator | None = None,
    seed_starts: list[np.ndarray] | None = None,
    ceiling: float = np.inf,
) -> dict:
    """Certified lower bound on the max squared operator norm over unit coefficients.

    The ascent runs from ``restarts`` random starts plus any seed starts; every value
    it keeps is a true norm.  It stops once its best value reaches ``ceiling``: a
    caller that knows psi0 <= c passes c - tol and gets a value within tol of psi0.
    ``steps`` counts its lockstep rounds; ``first`` holds each start's round-1 mu^2,
    seed starts first, and ``value`` is at least each of them.
    """
    _check_labels(labels)
    check_restarts(restarts)
    if rng is None:
        rng = np.random.default_rng(0)
    starts = [np.asarray(s) for s in seed_starts or []]
    for start in starts:  # checked before the float cast, which drops an imaginary part
        if (np.iscomplexobj(start) or start.shape != (len(labels),)
                or not 0.0 < np.linalg.norm(start) < np.inf):  # NaN fails this like 0 and inf
            raise ValidationError(
                f"seed starts must be real, finite, nonzero and of length {len(labels)}")
    starts = [start.astype(np.float64) for start in starts]
    starts += [rng.normal(size=len(labels)) for _ in range(restarts)]
    values, args, first, steps = _ascend(weyl_matrices(labels), np.array(starts), ceiling)
    best = int(np.argmax(values))  # the first start reaching the maximum
    return {"value": float(values[best]), "argmax": args[best], "first": first, "steps": steps}


def _commuting_start(labels: list[WeylLabel], members: tuple[int, ...]) -> np.ndarray:
    """a = s / sqrt|I| on a pairwise-commuting subset I of the labels, 0 elsewhere.

    v is the joint +1 eigenvector of the reduced basis b_j of I's labels.  Member x is
    the product of the b_j whose pivot bit x has set, group column c, so s_x = sign[c]
    from ``_elements_and_signs`` gives H(a) v = sqrt|I| v and mu(a)^2 = |I|.  Dependent
    sets need the signs: on {II, XX, YY, ZZ} all-plus gives mu^2 = 1.
    """
    bits = np.array([labels[i].bits for i in members], dtype=np.int64)
    basis = _reduce_rows(bits.tolist())
    pivots = np.array([b.bit_length() - 1 for b in basis], dtype=np.int64)
    columns = (((bits[:, None] >> pivots) & 1) << np.arange(len(basis))).sum(axis=1)
    _, negative = _elements_and_signs(np.array([basis], dtype=np.int64), labels[0].n)
    start = np.zeros(len(labels))
    start[list(members)] = np.where(negative[0, columns], -1.0, 1.0)
    return start / np.sqrt(len(members))


@dataclass(frozen=True)
class UncertaintyCertificate:
    lhs: float
    witness: np.ndarray
    psi0_lb: float
    theta: ThetaResult  # the certified bracket on theta(Gamma_A)
    ascent_steps: int  # lockstep rounds of the psi0 ascent, to convergence or to theta's ceiling

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

    theta is bracketed first.  The expectation vector w seeds the ascent: the norm of
    H(w/|w|), from its first round, already certifies the first link, so a violation
    of any link signals a solver or engine bug rather than a property of the input.
    theta's independent set seeds it too, at mu^2 = |I|, and the ascent stops at
    theta.upper - theta_tol, so psi0_lb is within theta_tol of psi0 there.
    """
    n = _check_labels(labels)
    check_theta_order(len(labels))  # before any matrix is stacked or ascended
    check_restarts(restarts)
    if state.n != n:
        raise ValidationError(f"qubit-count mismatch: state n={state.n}, labels n={n}")
    if rng is None:
        rng = np.random.default_rng(0)
    witness = state.expectations[[lab.bits for lab in labels]]
    lhs = float(np.dot(witness, witness))
    norm = float(np.linalg.norm(witness))

    theta = lovasz_theta(anticommutation_graph(labels), theta_tol)
    if not theta.converged:
        raise CertificateError(
            f"theta solver did not converge: bracket [{theta.value!r}, {theta.upper!r}] "
            f"after {theta.iterations} {theta.solver} iterations"
        )

    seed_starts = [witness / norm] if norm > 1e-12 else []
    seed_starts.append(_commuting_start(labels, theta.independent))
    ascent = psi0_lower_bound(labels, restarts, rng, seed_starts,
                              ceiling=theta.upper - theta_tol)
    # The bound holds at w/|w| itself: its round-1 mu^2, not the best of its ascent.
    if norm > 1e-12 and lhs > norm * np.sqrt(ascent["first"][0]) + 1e-9:
        raise CertificateError(
            f"witness bound failed: lhs {lhs!r} vs {norm * np.sqrt(ascent['first'][0])!r}"
        )
    psi0_lb = ascent["value"]

    if lhs > psi0_lb + 1e-8:
        raise CertificateError(f"chain failed: lhs {lhs!r} > psi0 bound {psi0_lb!r}")
    # theta.upper is a certified upper bound, so only roundoff may separate the links.
    if psi0_lb > theta.upper + _ROUNDOFF:
        raise CertificateError(f"chain failed: psi0 bound {psi0_lb!r} > theta {theta.upper!r}")
    if lhs > theta.upper + _ROUNDOFF:
        raise CertificateError(f"chain failed: lhs {lhs!r} > theta {theta.upper!r}")
    return UncertaintyCertificate(lhs=lhs, witness=witness, psi0_lb=psi0_lb, theta=theta,
                                  ascent_steps=ascent["steps"])
