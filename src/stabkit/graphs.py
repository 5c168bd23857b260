"""Graph algebra, anti-commutation graphs, and a dense Lovasz-theta solver.

theta(G) = max Tr(rho J) over unit-trace PSD matrices vanishing on edges.
The solver is a first-order splitting scheme (Douglas-Rachford with
over-relaxation) alternating the PSD-cone projection (eigendecomposition +
clipping) against the proximal step of the affine set {symmetric, unit
trace, zero on edges}, into which the linear objective is folded.  The
reported matrix is taken from the affine side, so trace and edge residuals
are exactly zero and only the PSD residual is limited by the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ValidationError
from .gf2 import WeylLabel, symplectic_form

__all__ = [
    "THETA_ORDER_CAP",
    "SimpleGraph",
    "ThetaResult",
    "anticommutation_graph",
    "compose_graphs",
    "pauli_group_graph",
    "symplectic_graph",
    "complete_graph",
    "empty_graph",
    "cycle_graph",
    "lovasz_theta",
    "parse_graph",
    "format_graph",
]

THETA_ORDER_CAP = 64


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph; vertices optionally tagged with Weyl labels."""

    adjacency: np.ndarray
    tags: tuple[WeylLabel, ...] | None = None

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] == 0:
            raise ValidationError(f"adjacency must be square and nonempty, got {adj.shape}")
        if adj.diagonal().any():
            raise ValidationError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise ValidationError("adjacency must be symmetric")
        if self.tags is not None and len(self.tags) != adj.shape[0]:
            raise ValidationError("tag count does not match vertex count")
        adj = adj.copy()
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def order(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


def anticommutation_graph(labels: list[WeylLabel]) -> SimpleGraph:
    """Vertices are the labels; edges join anticommuting pairs."""
    if not labels:
        raise ValidationError("need at least one label")
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate labels")
    count = len(labels)
    adj = np.zeros((count, count), dtype=bool)
    for i in range(count):
        for j in range(i + 1, count):
            if symplectic_form(labels[i], labels[j]):
                adj[i, j] = adj[j, i] = True
    return SimpleGraph(adj, tuple(labels))


def compose_graphs(
    op: str, g1: SimpleGraph, g2: SimpleGraph | None = None
) -> SimpleGraph:
    """complement | disjoint_union | strong_product."""
    if op == "complement":
        adj = ~g1.adjacency
        np.fill_diagonal(adj, False)
        return SimpleGraph(adj, g1.tags)
    if g2 is None:
        raise ValidationError(f"{op} needs a second operand")
    n1, n2 = g1.order, g2.order
    if op == "disjoint_union":
        adj = np.zeros((n1 + n2, n1 + n2), dtype=bool)
        adj[:n1, :n1] = g1.adjacency
        adj[n1:, n1:] = g2.adjacency
        tags = None
        if g1.tags is not None and g2.tags is not None:
            tags = g1.tags + g2.tags
        return SimpleGraph(adj, tags)
    if op == "strong_product":
        # Vertex (u, v) -> index u*n2 + v (row-major).
        a1, a2 = g1.adjacency, g2.adjacency
        eye1 = np.eye(n1, dtype=bool)
        eye2 = np.eye(n2, dtype=bool)
        adj = (
            np.kron(eye1, a2) | np.kron(a1, eye2) | np.kron(a1, a2)
        )
        return SimpleGraph(adj)
    raise ValidationError(f"unknown graph operation {op!r}")


def pauli_group_graph(k: int) -> SimpleGraph:
    """Anti-commutation graph of all 4^k Weyl labels on k qubits (1 <= k <= 3)."""
    if not 1 <= k <= 3:
        raise CapExceededError(f"pauli_group_graph supports 1 <= k <= 3, got {k}")
    return anticommutation_graph([WeylLabel(bits, k) for bits in range(1 << (2 * k))])


def symplectic_graph(k: int) -> SimpleGraph:
    """Sp(2k,2): nonzero vectors of F2^(2k), edges where the form vanishes."""
    if not 1 <= k <= 3:
        raise CapExceededError(f"symplectic_graph supports 1 <= k <= 3, got {k}")
    labels = [WeylLabel(bits, k) for bits in range(1, 1 << (2 * k))]
    anti = anticommutation_graph(labels)
    return compose_graphs("complement", anti)


def _check_order(order: int) -> None:
    if order < 1:
        raise ValidationError(f"graph order must be >= 1, got {order}")


def complete_graph(order: int) -> SimpleGraph:
    _check_order(order)
    adj = np.ones((order, order), dtype=bool)
    np.fill_diagonal(adj, False)
    return SimpleGraph(adj)


def empty_graph(order: int) -> SimpleGraph:
    _check_order(order)
    return SimpleGraph(np.zeros((order, order), dtype=bool))


def cycle_graph(order: int) -> SimpleGraph:
    if order < 3:
        raise ValidationError(f"cycle needs >= 3 vertices, got {order}")
    adj = np.zeros((order, order), dtype=bool)
    idx = np.arange(order)
    adj[idx, (idx + 1) % order] = True
    adj[(idx + 1) % order, idx] = True
    return SimpleGraph(adj)


@dataclass(frozen=True)
class ThetaResult:
    value: float
    primal_matrix: np.ndarray
    residuals: dict
    iterations: int
    converged: bool


def _project_affine(mat: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Nearest matrix with zero edges and unit trace (symmetrized)."""
    out = 0.5 * (mat + mat.T)
    out[edges] = 0.0
    out[np.diag_indices_from(out)] -= (np.trace(out) - 1.0) / out.shape[0]
    return out


def _project_psd(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest PSD matrix and the most negative eigenvalue clipped away."""
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    violation = float(max(-vals[0], 0.0))
    clipped = np.maximum(vals, 0.0)
    return (vecs * clipped) @ vecs.T, violation


def _certified_feasible(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Repair the affine iterate into an exactly feasible matrix.

    Shifting by the clipped negative eigenvalue and renormalizing the trace
    keeps edges at zero, so the resulting value is a true lower bound on
    theta (up to eigendecomposition roundoff).
    """
    _, violation = _project_psd(x)
    order = x.shape[0]
    shift = violation * order
    repaired = (x + violation * np.eye(order)) / (1.0 + shift)
    return repaired, float(repaired.sum())


def lovasz_theta(
    g: SimpleGraph,
    tol: float = 1e-6,
    max_iterations: int = 50_000,
    step: float | None = None,
    relaxation: float = 1.8,
) -> ThetaResult:
    """Solve the theta SDP for a dense graph of order <= 64.

    Convergence is certified by a duality gap: the affine prox residual
    yields an edge-supported dual candidate M with lambda_max(J - M) an
    upper bound on theta, while the repaired iterate is feasible and hence
    a lower bound.  The loop stops when the two are within tol; hitting the
    iteration cap returns converged=False with residuals for diagnosis.
    """
    order = g.order
    if order > THETA_ORDER_CAP:
        raise CapExceededError(f"theta solver capped at order {THETA_ORDER_CAP}, got {order}")
    if not 1e-8 <= tol <= 1e-3:
        raise ValidationError(f"tol must lie in [1e-8, 1e-3], got {tol}")
    if step is None:
        step = 1.0 / order
    edges = g.adjacency
    all_ones = np.ones((order, order))
    drift = step * all_ones

    z = np.eye(order) / order
    x = _project_affine(z + drift, edges)
    iterations = 0
    converged = False
    check_every = 50
    while iterations < max_iterations:
        x = _project_affine(z + drift, edges)
        affine_residual = z + drift - x  # supported on edges + the trace direction
        y, _ = _project_psd(2.0 * x - z)
        z += relaxation * (y - x)
        iterations += 1
        if iterations % check_every == 0:
            dual_edge = np.where(edges, affine_residual, 0.0) / step
            upper = float(np.linalg.eigvalsh(all_ones - 0.5 * (dual_edge + dual_edge.T))[-1])
            _, lower = _certified_feasible(x)
            if upper - lower <= tol:
                converged = True
                break

    repaired, value = _certified_feasible(x)
    _, psd_violation = _project_psd(repaired)
    residuals = {
        "psd_violation": psd_violation,
        "trace_gap": abs(float(np.trace(repaired)) - 1.0),
        "edge_violation": float(np.max(np.abs(repaired[edges]))) if edges.any() else 0.0,
    }
    return ThetaResult(
        value=value,
        primal_matrix=repaired,
        residuals=residuals,
        iterations=iterations,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Text format: first line N, then one "i j" edge per line, 0-based.
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> SimpleGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty graph file")
    try:
        order = int(lines[0])
    except ValueError as exc:
        raise ValidationError(f"bad vertex count line: {lines[0]!r}") from exc
    adj = np.zeros((order, order), dtype=bool)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValidationError(f"bad edge line: {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValidationError(f"non-integer edge token: {ln!r}") from exc
        if not (0 <= i < order and 0 <= j < order) or i == j:
            raise ValidationError(f"edge out of range: {ln!r}")
        adj[i, j] = adj[j, i] = True
    return SimpleGraph(adj)


def format_graph(g: SimpleGraph) -> str:
    lines = [str(g.order)]
    for i in range(g.order):
        for j in range(i + 1, g.order):
            if g.adjacency[i, j]:
                lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"
