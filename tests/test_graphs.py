"""Graph algebra and the Lovasz-theta solver."""

from __future__ import annotations

import numpy as np
import pytest

from stabkit import graphs
from stabkit.errors import CapExceededError, ValidationError
from stabkit.gf2 import WeylLabel, symplectic_form
from stabkit.graphs import (
    SimpleGraph,
    anticommutation_graph,
    complete_graph,
    compose_graphs,
    cycle_graph,
    empty_graph,
    format_graph,
    lovasz_theta,
    parse_graph,
    pauli_group_graph,
    symplectic_graph,
)

I1 = WeylLabel(0, 1)
X1 = WeylLabel.from_halves(1, 0, 1)
Z1 = WeylLabel.from_halves(0, 1, 1)
Y1 = WeylLabel.from_halves(1, 1, 1)


def rand_graph(rng: np.random.Generator, order: int, density: float = 0.4) -> SimpleGraph:
    adj = np.triu(rng.random((order, order)) < density, 1)
    return SimpleGraph(adj | adj.T)


def test_anticommutation_graph_examples():
    assert anticommutation_graph([I1]).edge_count == 0
    assert anticommutation_graph([X1, Z1]).edge_count == 1
    triangle = anticommutation_graph([X1, Y1, Z1])
    assert triangle.edge_count == 3
    with pytest.raises(ValidationError):
        anticommutation_graph([X1, X1])


def test_compose_examples():
    assert compose_graphs("complement", complete_graph(3)).edge_count == 0
    union = compose_graphs("disjoint_union", complete_graph(1), complete_graph(3))
    np.testing.assert_array_equal(
        union.adjacency, pauli_group_graph(1).adjacency
    )
    k4 = compose_graphs("strong_product", complete_graph(2), complete_graph(2))
    assert k4.order == 4 and k4.edge_count == 6
    with pytest.raises(ValidationError):
        compose_graphs("disjoint_union", complete_graph(2))


def test_pauli_group_graph_degrees():
    g = pauli_group_graph(2)
    assert g.order == 16
    degrees = g.degrees()
    assert degrees[0] == 0  # identity commutes with everything
    assert set(degrees[1:].tolist()) == {8}
    assert g.edge_count == 60
    # Brute-force degree oracle: count anticommuting partners directly.
    for bits in (1, 7, 13):
        partner_count = sum(
            symplectic_form(WeylLabel(bits, 2), WeylLabel(other, 2))
            for other in range(16)
        )
        assert partner_count == 8


def test_symplectic_graph_structure():
    g1 = symplectic_graph(1)
    assert g1.order == 3 and g1.edge_count == 0
    g2 = symplectic_graph(2)
    assert g2.order == 15
    assert set(g2.degrees().tolist()) == {6}
    # complement(Sp) + isolated vertex = pauli group graph, under the label order.
    pauli = pauli_group_graph(2)
    rebuilt = compose_graphs(
        "disjoint_union", complete_graph(1), compose_graphs("complement", g2)
    )
    np.testing.assert_array_equal(rebuilt.adjacency, pauli.adjacency)


def test_simple_graph_validation():
    with pytest.raises(ValidationError):
        SimpleGraph(np.array([[True]]))  # self-loop
    with pytest.raises(ValidationError):
        SimpleGraph(np.array([[False, True], [False, False]]))  # asymmetric


def test_theta_golden_values():
    assert lovasz_theta(complete_graph(8)).value == pytest.approx(1.0, abs=1e-4)
    assert lovasz_theta(empty_graph(8)).value == pytest.approx(8.0, abs=1e-4)
    assert lovasz_theta(pauli_group_graph(1)).value == pytest.approx(2.0, abs=1e-4)
    assert lovasz_theta(pauli_group_graph(2)).value == pytest.approx(4.0, abs=1e-4)
    assert lovasz_theta(cycle_graph(5)).value == pytest.approx(np.sqrt(5), abs=1e-5)


def test_theta_c5_two_solver_configurations(monkeypatch):
    a = lovasz_theta(cycle_graph(5), tol=1e-7)
    monkeypatch.setattr(graphs, "IPM_MAX_ROWS", 0)  # every graph takes Douglas-Rachford
    b = lovasz_theta(cycle_graph(5), tol=1e-7)
    assert (a.solver, b.solver) == ("ipm", "dr")
    assert a.value == pytest.approx(b.value, abs=1e-6)
    assert a.value == pytest.approx(np.sqrt(5), abs=1e-6)


def test_theta_solver_chosen_by_schur_rows():
    # |E| + 1 Schur rows: K23 has 254 and takes the interior-point path, K24 has 277.
    assert lovasz_theta(complete_graph(23)).solver == "ipm"
    assert lovasz_theta(complete_graph(24)).solver == "dr"
    dense = lovasz_theta(pauli_group_graph(3))  # 1,009 rows
    assert dense.solver == "dr" and dense.converged
    assert dense.value <= 8.0 <= dense.upper


@pytest.mark.parametrize("size", [1, 5, 64, 65, 150, 256])
def test_blocked_cholesky_matches_numpy(size):
    rng = np.random.default_rng(size)
    root = rng.normal(size=(size, size))
    spd = root @ root.T + size * np.eye(size)
    factor = spd.copy()
    graphs._cholesky_in_place(factor)
    np.testing.assert_allclose(np.tril(factor), np.linalg.cholesky(spd), atol=1e-12)
    rhs = rng.normal(size=size)
    np.testing.assert_allclose(graphs._cholesky_solve(factor, rhs), np.linalg.solve(spd, rhs),
                               atol=1e-12)
    with pytest.raises(np.linalg.LinAlgError):
        graphs._cholesky_in_place(-spd)


@pytest.mark.parametrize("tol", [1e-8, 1e-7, 1e-6, 1e-5, 1e-3])
def test_theta_bracket_meets_tol_or_says_not_converged(tol):
    rng = np.random.default_rng(12)
    cases = [cycle_graph(5), pauli_group_graph(2)] + [
        compose_graphs("disjoint_union", rand_graph(rng, 9), rand_graph(rng, 8)) for _ in range(3)
    ]
    for g in cases:
        result = lovasz_theta(g, tol)
        assert result.value <= result.upper
        assert result.converged == (result.upper - result.value <= tol)


def test_theta_result_feasibility():
    result = lovasz_theta(cycle_graph(7), tol=1e-6)
    assert result.converged
    assert result.residuals["psd_violation"] <= 1e-6
    assert result.residuals["trace_gap"] <= 1e-6
    assert result.residuals["edge_violation"] <= 1e-6
    assert 1.0 <= result.value <= 7.0
    mat = result.primal_matrix
    assert np.trace(mat) == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(mat[cycle_graph(7).adjacency])) <= 1e-12


def test_theta_product_and_sum_smoke():
    rng = np.random.default_rng(0)
    for _ in range(4):
        g1 = rand_graph(rng, int(rng.integers(2, 6)))
        g2 = rand_graph(rng, int(rng.integers(2, 6)))
        v1 = lovasz_theta(g1).value
        v2 = lovasz_theta(g2).value
        prod = lovasz_theta(compose_graphs("strong_product", g1, g2)).value
        union = lovasz_theta(compose_graphs("disjoint_union", g1, g2)).value
        assert prod == pytest.approx(v1 * v2, abs=2e-5)
        assert union == pytest.approx(v1 + v2, abs=2e-5)


def test_theta_monotone_under_edge_addition():
    rng = np.random.default_rng(1)
    for _ in range(4):
        g = rand_graph(rng, 10, 0.3)
        sparse_value = lovasz_theta(g).value
        adj = g.adjacency.copy()
        bare = [(i, j) for i in range(10) for j in range(i + 1, 10) if not adj[i, j]]
        i, j = bare[int(rng.integers(len(bare)))]
        adj[i, j] = adj[j, i] = True
        denser_value = lovasz_theta(SimpleGraph(adj)).value
        assert sparse_value >= denser_value - 2e-5


def test_theta_subspace_upper_bound():
    # theta of the anti-commutation graph of a subspace is at most 2^(k+m).
    from conftest import random_subspace

    rng = np.random.default_rng(2)
    for _ in range(6):
        n = int(rng.integers(1, 4))
        V = random_subspace(rng, n, int(rng.integers(1, min(2 * n, 6) + 1)))
        labels = [WeylLabel(b, n) for b in V.element_bits]
        value = lovasz_theta(anticommutation_graph(labels)).value
        assert value <= (1 << (V.k + V.m)) + 1e-5


def test_theta_validation_and_caps():
    with pytest.raises(CapExceededError):
        lovasz_theta(empty_graph(65))
    with pytest.raises(ValidationError):
        lovasz_theta(empty_graph(4), tol=1e-2)


def test_graph_text_roundtrip():
    g = cycle_graph(5)
    again = parse_graph(format_graph(g))
    np.testing.assert_array_equal(g.adjacency, again.adjacency)
    with pytest.raises(ValidationError):
        parse_graph("3\n0 3\n")
