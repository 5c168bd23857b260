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
from stabkit.state import generate_state

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
    with pytest.raises(ValidationError):
        anticommutation_graph([X1, WeylLabel(1, 2)])
    with pytest.raises(CapExceededError):  # 64-bit labels do not fit the int64 form
        anticommutation_graph([WeylLabel(1, 32), WeylLabel(1 << 32, 32)])


@pytest.mark.parametrize("n", range(1, 7))
def test_anticommutation_graph_matches_pairwise_form(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        count = int(rng.integers(1, min(30, 1 << (2 * n)) + 1))
        bits = rng.choice(1 << (2 * n), size=count, replace=False)
        labels = [WeylLabel(int(b), n) for b in bits]
        expected = [[symplectic_form(a, b) == 1 for b in labels] for a in labels]
        assert anticommutation_graph(labels).adjacency.tolist() == expected


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


def test_theta_c5_two_solver_configurations():
    a = lovasz_theta(cycle_graph(5), tol=1e-7)
    b = graphs._Bracket(cycle_graph(5).adjacency)
    graphs._theta_ipm(b.edges, 1e-7, b)  # the interior-point method alone
    assert (a.solver, a.iterations) == ("bounds", 0) and b.gap <= 1e-7
    assert a.value == pytest.approx(b.lower, abs=1e-6)
    assert a.value == pytest.approx(np.sqrt(5), abs=1e-6)


def test_theta_solver_chosen_by_the_bounds_stage():
    # alpha(K_m) = chi-bar(K_m) = 1, so the sandwich closes K_m at any order.
    for m in (23, 24, 40, 64):
        result = lovasz_theta(complete_graph(m))
        assert (result.solver, result.iterations, result.converged) == ("bounds", 0, True)
        assert result.value <= 1.0 <= result.upper
    # theta(C5 x C7) = sqrt(5) theta(C7), and the eigenvalue primal falls short of it
    # on C7, so the bounds stage leaves the product open for the interior-point path.
    product = compose_graphs("strong_product", cycle_graph(5), cycle_graph(7))
    result = lovasz_theta(product)
    assert result.solver == "ipm" and result.converged
    assert 1 <= result.iterations <= graphs._IPM_MAX_ITERATIONS
    theta_c7 = 7 * np.cos(np.pi / 7) / (1 + np.cos(np.pi / 7))
    assert result.value <= np.sqrt(5) * theta_c7 <= result.upper


def test_sandwich_bounds_close_complete_and_empty_graphs_only():
    for m in range(1, 65):
        for g, theta in ((complete_graph(m), 1.0), (empty_graph(m), float(m))):
            result = lovasz_theta(g)
            assert (result.solver, result.iterations, result.converged) == ("bounds", 0, True)
            assert result.value == pytest.approx(theta, abs=1e-9)
            assert result.upper == pytest.approx(theta, abs=1e-9)
    # alpha < theta < chi-bar = alpha + 1 on odd cycles: the sandwich leaves them open.
    for cycle, alpha in ((cycle_graph(5), 2.0), (cycle_graph(7), 3.0)):
        bracket = graphs._Bracket(cycle.adjacency)
        _, *pair = graphs._sandwich_bounds(cycle.adjacency)
        assert bracket.update(*pair) == pytest.approx(1.0)
        assert bracket.lower == pytest.approx(alpha)


# theta of the Pauli graph on all 4^k labels is 2^k; of the symplectic graph, 2^k + 1.
EDGE_TRANSITIVE = [(complete_graph(m), 1.0) for m in (2, 7, 64)] + [
    (cycle_graph(5), np.sqrt(5))] + [
    (pauli_group_graph(k), float(1 << k)) for k in (1, 2, 3)] + [
    (symplectic_graph(k), float((1 << k) + 1)) for k in (1, 2, 3)]


@pytest.mark.parametrize("g, theta", EDGE_TRANSITIVE, ids=[
    "K2", "K7", "K64", "C5", "pauli1", "pauli2", "pauli3", "symplectic1", "symplectic2",
    "symplectic3"])
def test_bounds_stage_closes_edge_transitive_graphs(g, theta):
    result = lovasz_theta(g, 1e-6)
    assert (result.solver, result.iterations, result.converged) == ("bounds", 0, True)
    assert result.value <= theta + 1e-9 and theta <= result.upper + 1e-9
    assert result.gap <= 1e-6


def test_eigenvalue_primal_needs_the_complement_to_have_an_edge():
    # The complement of K_m has no edge, so lambda_min of its adjacency matrix is 0
    # and the primal is I/n, of value 1 = theta(K_m).
    for m in (1, 2, 5):
        bracket = graphs._Bracket(complete_graph(m).adjacency)
        graphs._eigenvalue_pair(bracket.edges, 1e-6, bracket)
        assert bracket.lower == pytest.approx(1.0, abs=1e-12)
        assert bracket.upper == pytest.approx(1.0, abs=1e-6)


def _handoff_graphs() -> list[SimpleGraph]:
    """Dense graphs that the bounds stage leaves open for the interior-point path.

    Twelve random graphs of orders 40-64 and densities 0.3-0.8, and the
    anti-commutation graph of `uncertainty --kind haar --n 6 --random-labels 40
    --seed 1` (379 edges), on which a Douglas-Rachford solver once ran 50,000
    iterations without closing the bracket to 1e-6.
    """
    rng = np.random.default_rng(11)
    sweep = [rand_graph(rng, int(rng.integers(40, 65)), float(rng.uniform(0.3, 0.8)))
             for _ in range(12)]
    rng = np.random.default_rng(1)
    generate_state("haar", 6, rng=rng)  # the command draws its labels after its state
    labels = [WeylLabel(int(b), 6) for b in rng.choice(1 << 12, size=40, replace=False)]
    return sweep + [anticommutation_graph(labels)]


def test_theta_hands_an_open_bracket_to_the_interior_point_method():
    for g in _handoff_graphs():
        result = lovasz_theta(g, 1e-6)
        assert result.converged and result.gap <= 1e-6
        assert result.solver == "ipm"
        assert 1 <= result.iterations <= graphs._IPM_MAX_ITERATIONS


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


@pytest.mark.parametrize("count, error", [("-1", ValidationError), ("65", CapExceededError),
                                          ("100000", CapExceededError)])
def test_graph_text_order_checked_before_allocation(count, error):
    # 100000 vertices would be a 9.3 GiB adjacency matrix.
    with pytest.raises(error):
        parse_graph(count + "\n")
