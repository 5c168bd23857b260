"""Property tests of the core invariants (hypothesis, derandomized and bounded)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import graphs
from stabkit.gf2 import WeylLabel, _reduce_rows, symplectic_form
from stabkit.graphs import SimpleGraph, lovasz_theta
from stabkit.state import fwht, generate_state, weyl_expectation

# Fixed examples on every run, no example database written to the tree.
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def label_triples(draw):
    n = draw(st.integers(1, 4))
    bits = st.integers(0, (1 << (2 * n)) - 1)
    return [WeylLabel(draw(bits), n) for _ in range(3)]


@PROPERTY
@given(st.integers(0, 6).flatmap(
    lambda k: st.lists(st.floats(-1e3, 1e3), min_size=1 << k, max_size=1 << k)))
def test_fwht_is_an_involution_up_to_scale(values):
    vec = np.array(values)
    assert np.allclose(fwht(fwht(vec)), vec.size * vec, atol=1e-6)


@PROPERTY
@given(label_triples())
def test_symplectic_form_is_bilinear_and_alternating(triple):
    x, y, z = triple
    assert symplectic_form(x, x) == 0
    assert symplectic_form(x, y) == symplectic_form(y, x)
    assert symplectic_form(x ^ y, z) == symplectic_form(x, z) ^ symplectic_form(y, z)


@PROPERTY
@given(st.integers(1, 12).flatmap(
    lambda bits: st.lists(st.integers(0, (1 << bits) - 1), max_size=8)), st.randoms())
def test_reduce_rows_is_idempotent_and_order_free(rows, rnd):
    basis = _reduce_rows(rows)
    assert _reduce_rows(basis) == basis
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert _reduce_rows(shuffled) == basis


@PROPERTY
@given(
    st.sampled_from(["haar", "stabilizer", "t_tensor", "noisy_stabilizer"]),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_expectation_table_matches_per_label_expectation(kind, n, seed, data):
    # The uncertainty certificate reads its witness from this table.
    psi = generate_state(kind, n, seed, noise=0.1)
    for bits in data.draw(st.lists(st.integers(0, (1 << (2 * n)) - 1), min_size=1, max_size=6)):
        assert abs(psi.expectations[bits] - weyl_expectation(psi, WeylLabel(bits, n))) <= 1e-12


@st.composite
def small_graphs(draw):
    order = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(order), 2))
    adj = np.zeros((order, order), dtype=bool)
    for (i, j), on in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                max_size=len(pairs)))):
        adj[i, j] = adj[j, i] = on
    return SimpleGraph(adj)


def _independence_number(adj: np.ndarray) -> int:
    order = len(adj)
    for size in range(order, 0, -1):
        for subset in itertools.combinations(range(order), size):
            if not adj[np.ix_(subset, subset)].any():
                return size
    return 0


def _greedy_clique_cover(adj: np.ndarray) -> int:
    cliques: list[list[int]] = []
    for vertex in range(len(adj)):
        for clique in cliques:
            if adj[vertex, clique].all():
                clique.append(vertex)
                break
        else:
            cliques.append([vertex])
    return len(cliques)


@PROPERTY
@given(small_graphs())
def test_theta_solvers_give_overlapping_certified_brackets(g):
    ipm = lovasz_theta(g, 1e-6)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "IPM_MAX_ROWS", 0)  # every graph takes Douglas-Rachford
        dr = lovasz_theta(g, 1e-3)
    assert (ipm.solver, dr.solver) == ("ipm", "dr")
    for result in (ipm, dr):
        assert result.value <= result.upper
        assert _independence_number(g.adjacency) <= result.upper + 1e-9
        assert result.value <= _greedy_clique_cover(g.adjacency) + 1e-9
    assert ipm.value <= dr.upper + 1e-9 and dr.value <= ipm.upper + 1e-9
