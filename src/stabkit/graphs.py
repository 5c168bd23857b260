"""Graph algebra, anti-commutation graphs, and a dense Lovasz-theta solver.

theta(G) = max <J, X> over unit-trace PSD matrices X vanishing on edges;
its dual is min t subject to tI + sum_e y_e E_e - J PSD.  ``lovasz_theta``
keeps one certified bracket value <= theta <= upper.  A bounds stage opens it:

* the sandwich alpha <= theta <= chi-bar (Lovasz 1979): a greedy
  independent set I gives the primal 1_I 1_I^T / |I| of value |I|, and a
  clique cover of k cliques the dual k(B - I), B the same-clique indicator;
* where those differ by more than tol, Lovasz's eigenvalue pair: the primal
  (I - Abar/lambda_min(Abar))/n, Abar the complement's adjacency matrix,
  and the dual xA at the best multiple x of the adjacency matrix A.  The
  dual meets theta on edge-transitive graphs (Lovasz 1979, Theorem 9); with
  the primal the pair closes C5 and the Pauli and symplectic graphs.

One solver closes a bracket still open: a primal-dual interior-point method
with the HKM direction (Helmberg-Rendl-Vanderbei-Wolkowicz 1996) and
Mehrotra's predictor-corrector, about ten iterations of one Schur solve each.

The lower bound is an exactly feasible matrix repaired from a candidate, the
upper bound lambda_max(J - sum_e y_e E_e), which bounds theta for any edge
weights y; ``uncertainty_certificate`` compares against the upper one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ValidationError
from .gf2 import RANDOM_QUBIT_CAP, WeylLabel, _form_bits, label_batch_qubits

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
    "check_theta_order",
    "lovasz_theta",
    "parse_graph",
    "format_graph",
]

THETA_ORDER_CAP = 64


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph."""

    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] == 0:
            raise ValidationError(f"adjacency must be square and nonempty, got {adj.shape}")
        if adj.diagonal().any():
            raise ValidationError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise ValidationError("adjacency must be symmetric")
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
    """Vertices are the labels; edges join anticommuting pairs.

    The form is taken over all pairs at once, on the labels as an int64
    array, so the labels may have at most RANDOM_QUBIT_CAP qubits.
    """
    n = label_batch_qubits(labels)
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate labels")
    if n > RANDOM_QUBIT_CAP:
        raise CapExceededError(f"anticommutation graphs capped at n={RANDOM_QUBIT_CAP}, got {n}")
    bits = np.array([lab.bits for lab in labels], dtype=np.int64)
    return SimpleGraph(_form_bits(bits[:, None], bits, n).astype(bool))


def compose_graphs(
    op: str, g1: SimpleGraph, g2: SimpleGraph | None = None
) -> SimpleGraph:
    """complement | disjoint_union | strong_product."""
    if op == "complement":
        adj = ~g1.adjacency
        np.fill_diagonal(adj, False)
        return SimpleGraph(adj)
    if g2 is None:
        raise ValidationError(f"{op} needs a second operand")
    n1, n2 = g1.order, g2.order
    if op == "disjoint_union":
        adj = np.zeros((n1 + n2, n1 + n2), dtype=bool)
        adj[:n1, :n1] = g1.adjacency
        adj[n1:, n1:] = g2.adjacency
        return SimpleGraph(adj)
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


def _check_graph_qubits(name: str, k: int) -> None:
    """A qubit count below 1 is invalid; above 3 the order passes the theta cap of 64."""
    if k < 1:
        raise ValidationError(f"{name} needs k >= 1 qubits, got {k}")
    if k > 3:
        raise CapExceededError(f"{name} supports 1 <= k <= 3, got {k}")


def pauli_group_graph(k: int) -> SimpleGraph:
    """Anti-commutation graph of all 4^k Weyl labels on k qubits (1 <= k <= 3)."""
    _check_graph_qubits("pauli_group_graph", k)
    return anticommutation_graph([WeylLabel(bits, k) for bits in range(1 << (2 * k))])


def symplectic_graph(k: int) -> SimpleGraph:
    """Sp(2k,2): nonzero vectors of F2^(2k), edges where the form vanishes."""
    _check_graph_qubits("symplectic_graph", k)
    labels = [WeylLabel(bits, k) for bits in range(1, 1 << (2 * k))]
    anti = anticommutation_graph(labels)
    return compose_graphs("complement", anti)


def check_theta_order(order: int) -> None:
    """Reject a vertex count theta cannot take; each constructor here checks before allocating."""
    if order < 1:
        raise ValidationError(f"graph order must be >= 1, got {order}")
    if order > THETA_ORDER_CAP:
        raise CapExceededError(f"theta solver capped at order {THETA_ORDER_CAP}, got {order}")


def complete_graph(order: int) -> SimpleGraph:
    check_theta_order(order)
    adj = np.ones((order, order), dtype=bool)
    np.fill_diagonal(adj, False)
    return SimpleGraph(adj)


def empty_graph(order: int) -> SimpleGraph:
    check_theta_order(order)
    return SimpleGraph(np.zeros((order, order), dtype=bool))


def cycle_graph(order: int) -> SimpleGraph:
    check_theta_order(order)
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
    point; ``upper`` is lambda_max(J - M) for an edge-supported dual M,
    raised to ``value`` where eigvalsh roundoff leaves it below.
    ``converged`` says the bracket is no wider than the requested tol.
    ``solver`` is "bounds", with 0 iterations, when the bounds stage closed
    the bracket, and "ipm" when the interior-point method ran after it;
    ``iterations`` counts that method's iterations.  ``independent`` is the
    greedy independent set I of the bounds stage, |I| <= alpha <= theta.
    """

    value: float
    upper: float
    primal_matrix: np.ndarray
    residuals: dict
    iterations: int
    converged: bool
    solver: str  # "bounds" or "ipm"
    independent: tuple[int, ...]

    @property
    def gap(self) -> float:
        return self.upper - self.value


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

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    def update(self, x: np.ndarray | None = None, dual_edge: np.ndarray | None = None) -> float:
        """Fold in a primal candidate and an edge-supported dual, either optional; the gap."""
        if dual_edge is not None:
            ones = np.ones(dual_edge.shape)
            self.upper = min(self.upper, float(np.linalg.eigvalsh(ones - dual_edge)[-1]))
        if x is not None:
            repaired, value = _certified_feasible(x, self.edges)
            if value > self.lower:
                self.lower, self.matrix = value, repaired
        self.upper = max(self.upper, self.lower)  # eigvalsh roundoff can invert a closed bracket
        return self.gap


# --- Bounds stage: the sandwich alpha <= theta <= chi-bar, then the eigenvalue pair


def _independent_set_and_cliques(edges: np.ndarray) -> tuple[list[int], np.ndarray]:
    """A greedy independent set I and a clique cover seeded with it.

    I takes the vertex of lowest degree among those left (on ties, of lowest
    degree in the graph, then of lowest index), then drops it and its
    neighbours, until none is left.  The cover opens one clique per member
    of I; every other vertex, highest degree first, joins the first clique
    it is adjacent to throughout, or opens a new one.  Both run on neighbour
    bitsets.  Returns I and each vertex's clique index, 0..k-1.
    """
    order = edges.shape[0]
    nbr = (edges.astype(np.uint64) << np.arange(order, dtype=np.uint64)).sum(axis=1).tolist()
    degree = [members.bit_count() for members in nbr]
    independent, alive, left = [], list(range(order)), (1 << order) - 1
    while alive:
        v = min(alive, key=lambda u: ((nbr[u] & left).bit_count(), degree[u]))
        independent.append(v)
        left &= ~(nbr[v] | 1 << v)
        alive = [u for u in alive if left >> u & 1]
    cliques = [1 << v for v in independent]
    clique_of = np.empty(order, dtype=np.int64)
    clique_of[independent] = np.arange(len(independent))
    for v in [u for u in sorted(range(order), key=lambda u: -degree[u]) if u not in independent]:
        c = next((c for c, members in enumerate(cliques) if not members & ~nbr[v]), len(cliques))
        if c == len(cliques):
            cliques.append(0)
        cliques[c] |= 1 << v
        clique_of[v] = c
    return independent, clique_of


def _sandwich_bounds(edges: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The greedy independent set I, the feasible primal 1_I 1_I^T / |I| and the
    edge-supported dual k(B - I).

    Its value is |I| <= alpha.  By Cauchy-Schwarz over the k cliques,
    (sum x)^2 <= k x^T B x, so J - k(B - I) <= kI and lambda_max(J - M) <= k.
    """
    independent, clique_of = _independent_set_and_cliques(edges)
    primal = np.zeros(edges.shape)
    primal[np.ix_(independent, independent)] = 1.0 / len(independent)
    same_clique = clique_of[:, None] == clique_of
    np.fill_diagonal(same_clique, False)
    return independent, primal, float(clique_of.max() + 1) * same_clique


def _eigenvalue_pair(edges: np.ndarray, tol: float, bracket: _Bracket) -> None:
    """Fold Lovasz's eigenvalue primal, then his eigenvalue dual, into ``bracket``.

    The primal X = (I - Abar/lambda_min(Abar))/n, Abar the complement's
    adjacency matrix, is zero on edges, has trace 1 and is PSD; where Abar
    has no edge it is I/n.  The dual M = xA bounds theta by f(x) =
    lambda_max(J - xA), convex in x with subgradient -v^T A v at a top
    eigenvector v.  Its minimum lies in [0, n]: f(0) = n, and f(x) >=
    x |lambda_min(A)| >= x once A has an edge.  Bisection on the
    subgradient's sign keeps the supporting lines at both ends of the
    interval, which meet below min f.  It stops once that floor exceeds the
    lower end plus tol, once its best f is within tol of the lower end, or
    once the interval stops shrinking.  The primal goes first, so that the
    search tests against its lower end.
    """
    order = edges.shape[0]
    adjacency = edges.astype(float)
    complement = 1.0 - np.eye(order) - adjacency
    lowest = float(np.linalg.eigvalsh(complement)[0])  # 0 only when the complement has no edge
    primal = np.eye(order) - (complement / lowest if lowest < 0.0 else 0.0)
    if bracket.update(primal / order) <= tol:
        return
    ones = np.ones((order, order))

    def probe(x: float) -> tuple[float, float, float]:  # x, f(x) and a subgradient there
        vals, vecs = np.linalg.eigh(ones - x * adjacency)
        return x, float(vals[-1]), -float(vecs[:, -1] @ adjacency @ vecs[:, -1])

    # At x = 0 the top eigenvector of J is the uniform one.
    ends = [(0.0, float(order), -float(adjacency.sum()) / order), probe(float(order))]
    best = min(ends, key=lambda e: e[1])
    while True:
        (lo, f_lo, g_lo), (hi, f_hi, g_hi) = ends
        slope = g_hi - g_lo
        floor = f_lo + g_lo * (f_lo - f_hi + g_hi * (hi - lo)) / slope if slope > 0.0 else best[1]
        mid = 0.5 * (lo + hi)
        if (min(best[1], bracket.upper) - bracket.lower <= tol or floor > bracket.lower + tol
                or not lo < mid < hi):
            break
        end = probe(mid)
        best = min(best, end, key=lambda e: e[1])
        ends[end[2] >= 0.0] = end
    bracket.update(dual_edge=best[0] * adjacency)


# --- Interior-point path: |E| + 1 Schur rows per iteration ---------------------

_IPM_MAX_ITERATIONS = 50
_IPM_STEP_FRACTION = 0.95  # of the distance to the PSD boundary
_SOLVE_BLOCK = 64  # edge rows per block of the Schur build


def _hkm_schur(x: np.ndarray, w: np.ndarray, u: np.ndarray, v: np.ndarray,
               out: np.ndarray) -> None:
    """M_kl = tr(A_k X A_l W) for A_0 = I and A_e = E_e, written into ``out``.

    An edge-edge entry is four gathered products,
    X[v_k,u_l] W[u_k,v_l] + X[u_k,v_l] W[v_k,u_l] + X[v_k,v_l] W[u_k,u_l]
    + X[u_k,u_l] W[v_k,v_l].  They are formed _SOLVE_BLOCK edge rows at a
    time, so no temporary is larger than a block of rows.  Near a degenerate
    optimum roundoff can make the matrix indefinite, so both solves of an
    iteration take LU (np.linalg.solve), which fails only if it is singular.
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


def _max_step(inv_chol: np.ndarray, direction: np.ndarray) -> float:
    """The largest alpha with P + alpha D still PSD, given L^-1 for P = L L^T (inf if any)."""
    scaled = inv_chol @ direction @ inv_chol.T
    lowest = float(np.linalg.eigvalsh(0.5 * (scaled + scaled.T))[0])
    return -1.0 / lowest if lowest < 0.0 else np.inf


def _theta_ipm(edges: np.ndarray, tol: float, bracket: _Bracket) -> int:
    """Primal-dual path following with the HKM direction and Mehrotra's corrector.

    Primal: max <J, X> with tr X = 1, X_uv = 0 on edges, X PSD.  Dual: min t
    with Z = tI + sum_e y_e E_e - J PSD.  Both starts, X = I/n and t = 2n,
    y = 0, are strictly feasible; Z is always formed from (t, y), so dual
    feasibility is exact and only the primal residual is carried.  Returns
    the iterations taken; it stops once ``bracket``, fed every iterate, is within tol.
    """
    order = edges.shape[0]
    u, v = np.nonzero(np.triu(edges, 1))
    rows = len(u) + 1
    eye, ones = np.eye(order), np.ones((order, order))
    x, t, y = eye / order, 2.0 * order, np.zeros(len(u))
    schur = np.empty((rows, rows))

    def constraint_map(mat):  # (tr M, <E_e, M>) of a symmetric matrix
        return np.concatenate(([np.trace(mat)], 2.0 * mat[u, v]))

    for iterations in range(_IPM_MAX_ITERATIONS + 1):
        dual_edge = _edge_matrix(order, u, v, y)
        if bracket.update(x, dual_edge) <= tol or iterations == _IPM_MAX_ITERATIONS:
            break
        z = t * eye + dual_edge - ones
        try:
            inv_chol_x = np.linalg.solve(np.linalg.cholesky(x), eye)
            inv_chol_z = np.linalg.solve(np.linalg.cholesky(z), eye)
            w = inv_chol_z.T @ inv_chol_z
            _hkm_schur(x, w, u, v, schur)
            primal_residual = -constraint_map(x)
            primal_residual[0] += 1.0
            mu = float(np.sum(x * z)) / order

            def newton(target):
                # dX = target - sym(X dZ W) with A(dX) = r_p, dZ = A^T(dy).
                dy = np.linalg.solve(schur, constraint_map(target) - primal_residual)
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
    return iterations


def lovasz_theta(g: SimpleGraph, tol: float = 1e-6) -> ThetaResult:
    """Certified bracket on theta of a dense graph of order <= 64.

    The sandwich bounds open the bracket.  If they differ by more than tol,
    the eigenvalue pair follows, and if the bracket is still wider than tol,
    the interior-point path runs and folds its iterates into the same
    bracket.  A bracket that ends wider than tol is returned with
    converged=False.
    """
    check_theta_order(g.order)
    if not 1e-8 <= tol <= 1e-3:
        raise ValidationError(f"tol must lie in [1e-8, 1e-3], got {tol}")
    edges = g.adjacency
    bracket, iterations, solver = _Bracket(edges), 0, "bounds"
    independent, *pair = _sandwich_bounds(edges)
    if bracket.update(*pair) > tol:
        _eigenvalue_pair(edges, tol, bracket)
    if bracket.gap > tol:
        iterations, solver = _theta_ipm(edges, tol, bracket), "ipm"
    repaired = bracket.matrix
    residuals = {  # 0.0 first in max: an exact zero eigenvalue reads 0.0, not -0.0
        "psd_violation": max(0.0, -float(np.linalg.eigvalsh(repaired)[0])),
        "trace_gap": abs(float(np.trace(repaired)) - 1.0),
        "edge_violation": float(np.max(np.abs(repaired[edges]))) if edges.any() else 0.0,
    }
    return ThetaResult(
        value=bracket.lower,
        upper=bracket.upper,
        primal_matrix=repaired,
        residuals=residuals,
        iterations=iterations,
        converged=bracket.gap <= tol,
        solver=solver,
        independent=tuple(independent),
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
    check_theta_order(order)
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
