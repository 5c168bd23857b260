"""Graph algebra, anti-commutation graphs, and a dense Lovasz-theta solver.

theta(G) = max <J, X> over unit-trace PSD matrices X vanishing on edges;
its dual is min t subject to tI + sum_e y_e E_e - J PSD.  ``lovasz_theta``
picks one of two solvers by the size of the Schur complement, |E| + 1 rows:

* up to IPM_MAX_ROWS (256) rows, a primal-dual interior-point method with
  the HKM direction (Helmberg-Rendl-Vanderbei-Wolkowicz 1996) and Mehrotra's
  predictor-corrector, about ten iterations of one Cholesky each;
* above it, Douglas-Rachford splitting with over-relaxation, whose
  iterations cost one n x n eigendecomposition regardless of |E|.

Both return a certified bracket value <= theta <= upper.  The lower bound
is an exactly feasible matrix repaired from the iterate, the upper bound
lambda_max(J - sum_e y_e E_e), which bounds theta for any edge weights y;
``uncertainty_certificate`` compares against the upper one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ValidationError
from .gf2 import WeylLabel, symplectic_form

__all__ = [
    "IPM_MAX_ROWS",
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
    """A certified bracket value <= theta <= upper, and how it was found.

    ``value`` is the objective of ``primal_matrix``, an exactly feasible
    point; ``upper`` is lambda_max(J - M) for an edge-supported dual M.
    ``converged`` says the bracket is no wider than the requested tol.
    """

    value: float
    upper: float
    primal_matrix: np.ndarray
    residuals: dict
    iterations: int
    converged: bool
    solver: str  # "ipm" or "dr"


def _edge_matrix(order: int, u: np.ndarray, v: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The symmetric matrix sum_e weights_e E_e, with E_e = e_u e_v^T + e_v e_u^T."""
    out = np.zeros((order, order))
    out[u, v] = weights
    out[v, u] = weights
    return out


def _certified_feasible(x: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, float]:
    """Repair an iterate into an exactly feasible matrix; its value is a lower bound.

    Edges are zeroed and the trace is scaled to one; scaling, unlike a
    diagonal trace shift, cannot push the tiny eigenvalues of a nearly
    rank-deficient iterate below zero.  What negativity is left, -v, is
    absorbed by mixing in the feasible I/n, so the value is a true lower
    bound on theta (up to eigvalsh roundoff).
    """
    out = 0.5 * (x + x.T)
    out[edges] = 0.0
    out /= np.trace(out)
    violation = max(-float(np.linalg.eigvalsh(out)[0]), 0.0)
    order = out.shape[0]
    repaired = (out + violation * np.eye(order)) / (1.0 + violation * order)
    return repaired, float(repaired.sum())


class _Bracket:
    """The best certified pair seen so far, with the matrix behind the lower bound."""

    def __init__(self, edges: np.ndarray):
        self.edges = edges
        self.lower, self.upper, self.matrix = -np.inf, np.inf, None

    def update(self, x: np.ndarray, dual_edge: np.ndarray) -> float:
        """Fold in the bounds of a primal iterate and an edge-supported dual; the gap."""
        ones = np.ones(x.shape)
        self.upper = min(self.upper, float(np.linalg.eigvalsh(ones - dual_edge)[-1]))
        repaired, value = _certified_feasible(x, self.edges)
        if value > self.lower:
            self.lower, self.matrix = value, repaired
        return self.upper - self.lower


# --- Interior-point path: |E| + 1 Schur rows, for sparse graphs ----------------

IPM_MAX_ROWS = 256  # Schur rows |E| + 1 up to which the interior-point path runs (512 KiB)
_IPM_MAX_ITERATIONS = 50
_IPM_STEP_FRACTION = 0.95  # of the distance to the PSD boundary
_SOLVE_BLOCK = 64  # rows per block of the Schur build, its Cholesky factor and the substitutions


def _hkm_schur(x: np.ndarray, w: np.ndarray, u: np.ndarray, v: np.ndarray,
               out: np.ndarray) -> None:
    """M_kl = tr(A_k X A_l W) for A_0 = I and A_e = E_e, written into ``out``.

    An edge-edge entry is four gathered products,
    X[v_k,u_l] W[u_k,v_l] + X[u_k,v_l] W[v_k,u_l] + X[v_k,v_l] W[u_k,u_l]
    + X[u_k,u_l] W[v_k,v_l].  They are formed _SOLVE_BLOCK edge rows at a
    time, so no temporary is larger than a block of rows.
    """
    xu, xv, wu, wv = x[u], x[v], w[u], w[v]
    for lo in range(0, len(u), _SOLVE_BLOCK):
        k = slice(lo, lo + _SOLVE_BLOCK)
        out[1 + lo:1 + lo + _SOLVE_BLOCK, 1:] = (
            xv[k][:, u] * wu[k][:, v] + xu[k][:, v] * wv[k][:, u]
            + xv[k][:, v] * wu[k][:, u] + xu[k][:, u] * wv[k][:, v]
        )
    wx = w @ x
    out[0, 0] = np.trace(wx)
    out[0, 1:] = wx[u, v] + wx[v, u]
    out[1:, 0] = out[0, 1:]


def _cholesky_in_place(a: np.ndarray) -> None:
    """Overwrite the lower triangle of ``a`` with its Cholesky factor.

    Left-looking by blocks of _SOLVE_BLOCK columns, so no temporary is
    larger than a block column; raises LinAlgError when ``a`` is not
    numerically positive definite.
    """
    size = len(a)
    for lo in range(0, size, _SOLVE_BLOCK):
        hi = min(lo + _SOLVE_BLOCK, size)
        a[lo:, lo:hi] -= a[lo:, :lo] @ a[lo:hi, :lo].T
        a[lo:hi, lo:hi] = np.linalg.cholesky(a[lo:hi, lo:hi])
        a[hi:, lo:hi] = np.linalg.solve(a[lo:hi, lo:hi], a[hi:, lo:hi].T).T


def _cholesky_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs by forward and back substitution over the factor's blocks."""
    x = rhs.copy()
    size = len(x)
    for lo in range(0, size, _SOLVE_BLOCK):
        hi = min(lo + _SOLVE_BLOCK, size)
        x[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi], x[lo:hi] - chol[lo:hi, :lo] @ x[:lo])
    for lo in reversed(range(0, size, _SOLVE_BLOCK)):  # the factor's own diagonal blocks
        hi = min(lo + _SOLVE_BLOCK, size)
        x[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi].T, x[lo:hi] - chol[hi:, lo:hi].T @ x[hi:])
    return x


def _schur_solver(x, w, u, v, schur: np.ndarray):
    """Build the Schur matrix into ``schur``; a solver for it.

    One Cholesky factor, computed in place, serves both solves of an
    iteration.  Near a degenerate optimum roundoff can make the matrix
    numerically indefinite; it is then rebuilt and solved by LU, which
    raises LinAlgError only for a singular matrix.
    """
    _hkm_schur(x, w, u, v, schur)
    try:
        _cholesky_in_place(schur)
    except np.linalg.LinAlgError:
        _hkm_schur(x, w, u, v, schur)
        return lambda rhs: np.linalg.solve(schur, rhs)
    return lambda rhs: _cholesky_solve(schur, rhs)


def _max_step(inv_chol: np.ndarray, direction: np.ndarray) -> float:
    """The largest alpha with P + alpha D still PSD, given L^-1 for P = L L^T (inf if any)."""
    scaled = inv_chol @ direction @ inv_chol.T
    lowest = float(np.linalg.eigvalsh(0.5 * (scaled + scaled.T))[0])
    return -1.0 / lowest if lowest < 0.0 else np.inf


def _theta_ipm(edges: np.ndarray, tol: float) -> tuple[_Bracket, int, bool]:
    """Primal-dual path following with the HKM direction and Mehrotra's corrector.

    Primal: max <J, X> with tr X = 1, X_uv = 0 on edges, X PSD.  Dual: min t
    with Z = tI + sum_e y_e E_e - J PSD.  Both starts, X = I/n and t = 2n,
    y = 0, are strictly feasible; Z is always formed from (t, y), so dual
    feasibility is exact and only the primal residual is carried.
    """
    order = edges.shape[0]
    u, v = np.nonzero(np.triu(edges, 1))
    rows = len(u) + 1
    eye, ones = np.eye(order), np.ones((order, order))
    x, t, y = eye / order, 2.0 * order, np.zeros(len(u))
    schur = np.empty((rows, rows))
    bracket = _Bracket(edges)

    def constraint_map(mat):  # (tr M, <E_e, M>) of a symmetric matrix
        return np.concatenate(([np.trace(mat)], 2.0 * mat[u, v]))

    for iterations in range(_IPM_MAX_ITERATIONS + 1):
        dual_edge = _edge_matrix(order, u, v, y)
        if bracket.update(x, dual_edge) <= tol:
            return bracket, iterations, True
        if iterations == _IPM_MAX_ITERATIONS:
            break
        z = t * eye + dual_edge - ones
        try:
            inv_chol_x = np.linalg.solve(np.linalg.cholesky(x), eye)
            inv_chol_z = np.linalg.solve(np.linalg.cholesky(z), eye)
            w = inv_chol_z.T @ inv_chol_z
            solve = _schur_solver(x, w, u, v, schur)
            primal_residual = -constraint_map(x)
            primal_residual[0] += 1.0
            mu = float(np.sum(x * z)) / order

            def newton(target):
                # dX = target - sym(X dZ W) with A(dX) = r_p, dZ = A^T(dy).
                dy = solve(constraint_map(target) - primal_residual)
                dz = _edge_matrix(order, u, v, dy[1:]) + dy[0] * eye
                k = x @ dz @ w
                return target - 0.5 * (k + k.T), dz, dy

            dx, dz, _ = newton(-x)  # predictor: sigma = 0
            alpha_p = min(1.0, _max_step(inv_chol_x, dx))
            alpha_d = min(1.0, _max_step(inv_chol_z, dz))
            mu_aff = float(np.sum((x + alpha_p * dx) * (z + alpha_d * dz))) / order
            k = dx @ dz @ w
            dx, dz, dy = newton((mu_aff / mu) ** 3 * mu * w - x - 0.5 * (k + k.T))
            alpha_p = min(1.0, _IPM_STEP_FRACTION * _max_step(inv_chol_x, dx))
            alpha_d = min(1.0, _IPM_STEP_FRACTION * _max_step(inv_chol_z, dz))
        except np.linalg.LinAlgError:
            break  # X or Z left the cone numerically, or the Schur matrix is singular
        x = x + alpha_p * dx
        t += alpha_d * dy[0]
        y = y + alpha_d * dy[1:]
    return bracket, iterations, False


# --- Douglas-Rachford path: O(n^3) per iteration, for dense graphs -------------

_DR_MAX_ITERATIONS = 50_000
_DR_RELAXATION = 1.8
_DR_CHECK_EVERY = 50


def _project_affine(mat: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Nearest matrix with zero edges and unit trace (symmetrized)."""
    out = 0.5 * (mat + mat.T)
    out[edges] = 0.0
    out[np.diag_indices_from(out)] -= (np.trace(out) - 1.0) / out.shape[0]
    return out


def _project_psd(mat: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix."""
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


def _theta_dr(edges: np.ndarray, tol: float) -> tuple[_Bracket, int, bool]:
    """Over-relaxed Douglas-Rachford splitting, step 1/n.

    It alternates the PSD-cone projection against the proximal step of the
    affine set {symmetric, unit trace, zero on edges}, into which the linear
    objective is folded.  Every _DR_CHECK_EVERY iterations the affine prox
    residual gives an edge-supported dual candidate.
    """
    order = edges.shape[0]
    step = 1.0 / order
    drift = np.full((order, order), step)
    z = np.eye(order) / order
    bracket = _Bracket(edges)
    for iterations in range(1, _DR_MAX_ITERATIONS + 1):
        x = _project_affine(z + drift, edges)
        affine_residual = z + drift - x  # supported on edges + the trace direction
        z += _DR_RELAXATION * (_project_psd(2.0 * x - z) - x)
        if iterations % _DR_CHECK_EVERY == 0:
            dual_edge = np.where(edges, affine_residual, 0.0) / step
            if bracket.update(x, 0.5 * (dual_edge + dual_edge.T)) <= tol:
                return bracket, iterations, True
    return bracket, _DR_MAX_ITERATIONS, False


def lovasz_theta(g: SimpleGraph, tol: float = 1e-6) -> ThetaResult:
    """Certified bracket on theta of a dense graph of order <= 64.

    Graphs with |E| + 1 <= IPM_MAX_ROWS take the interior-point path, whose
    Schur matrix has that many rows; denser ones take Douglas-Rachford.
    Each path stops once the best certified pair is within tol; otherwise
    it returns converged=False with the best pair it found.
    """
    order = g.order
    if order > THETA_ORDER_CAP:
        raise CapExceededError(f"theta solver capped at order {THETA_ORDER_CAP}, got {order}")
    if not 1e-8 <= tol <= 1e-3:
        raise ValidationError(f"tol must lie in [1e-8, 1e-3], got {tol}")
    edges = g.adjacency
    solver = "ipm" if g.edge_count + 1 <= IPM_MAX_ROWS else "dr"
    bracket, iterations, converged = (_theta_ipm if solver == "ipm" else _theta_dr)(edges, tol)
    repaired = bracket.matrix
    residuals = {
        "psd_violation": max(-float(np.linalg.eigvalsh(repaired)[0]), 0.0),
        "trace_gap": abs(float(np.trace(repaired)) - 1.0),
        "edge_violation": float(np.max(np.abs(repaired[edges]))) if edges.any() else 0.0,
    }
    return ThetaResult(
        value=bracket.lower,
        upper=bracket.upper,
        primal_matrix=repaired,
        residuals=residuals,
        iterations=iterations,
        converged=converged,
        solver=solver,
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
