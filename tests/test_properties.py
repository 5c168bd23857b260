"""Property tests of the core invariants (hypothesis, derandomized and bounded)."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixed_point_round
from stabkit import graphs, uncertainty
from stabkit.gf2 import (GF2Subspace, WeylLabel, _reduce, _reduce_rows, isotropic_cover,
                         random_subspace, symplectic_form)
from stabkit.graphs import SimpleGraph, lovasz_theta
from stabkit.sampling import BellSampler
from stabkit.state import fwht, generate_state, weyl_distribution, weyl_expectation
from stabkit.uncertainty import (HamiltonianSpec, hamiltonian_norm_sq, psi0_lower_bound,
                                 uncertainty_certificate)

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
@example([1, 3, 0, 2, 3], random.Random(0))  # dependent, zero and unsorted rows
def test_reduce_rows_is_idempotent_and_order_free(rows, rnd):
    basis = _reduce_rows(rows)
    assert _reduce_rows(basis) == basis
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert _reduce_rows(shuffled) == basis
    # Any spanning rows give the canonical subspace: the span, each member once.
    n = max(1, -(-max(rows, default=0).bit_length() // 2))
    V = GF2Subspace(rows, n)
    assert V.basis == basis and V == GF2Subspace(shuffled, n)
    span = {0}
    for row in rows:
        span |= {e ^ row for e in span}
    assert len(set(V.element_bits)) == len(V.element_bits) == 1 << V.dim == len(span)
    assert set(V.element_bits) == span
    # One pivot reduction serves ints and int64 arrays: 0 exactly on the span.
    vecs = np.arange(1 << (2 * n), dtype=np.int64)
    keys = _reduce(vecs, V.basis)
    assert keys.tolist() == [_reduce(int(v), V.basis) for v in vecs]
    assert {int(v) for v in vecs[keys == 0]} == span


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


STATES = st.tuples(st.sampled_from(["haar", "stabilizer", "t_tensor", "noisy_stabilizer"]),
                   st.integers(1, 3), st.integers(0, 2**32 - 1))


@PROPERTY
@given(STATES)
def test_difference_of_two_p_draws_has_law_q(case):
    # q(x) = sum_y p(y) p(x + y) is the law of a + b for independent a, b ~ p.
    kind, n, seed = case
    psi = generate_state(kind, n, seed, noise=0.1)
    p = psi.char_dist.values
    labels = np.arange(p.size)
    exact = np.array([np.dot(p, p[labels ^ x]) for x in labels])
    q = weyl_distribution(psi.char_dist).values
    np.testing.assert_allclose(q, exact, rtol=0.0, atol=1e-15)

    # Hoeffding with a union bound over the 4^n labels: each empirical
    # frequency of m rounds is within the radius except with probability delta.
    m, delta = 20_000, 1e-9
    diffs, _ = BellSampler(psi).rounds(m, np.random.default_rng(seed))
    radius = math.sqrt(math.log(2 * p.size / delta) / (2 * m))
    assert np.max(np.abs(np.bincount(diffs, minlength=p.size) / m - q)) <= radius


@PROPERTY
@example((6, 12, 0))  # all of F2^12
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 2 * n), st.integers(0, 2**32 - 1))))
def test_isotropic_cover_is_exact_on_random_subspaces(case):
    n, dim, seed = case
    V = random_subspace(n, dim, np.random.default_rng(seed))
    parts = isotropic_cover(V)
    assert len(parts) <= (1 << V.k) + 1
    members = set(V.element_bits)
    covered = set()
    for part in parts:
        assert part.n == n and part.is_isotropic
        assert set(part.element_bits) <= members
        covered |= set(part.element_bits)
    assert covered == members


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
    theta = lovasz_theta(g, 1e-6)
    ipm, eigen = graphs._Bracket(g.adjacency), graphs._Bracket(g.adjacency)
    graphs._theta_ipm(g.adjacency, 1e-6, ipm)  # the interior-point method alone
    _, *pair = graphs._sandwich_bounds(g.adjacency)
    if eigen.update(*pair) > 1e-6:  # the bounds stage alone, as lovasz_theta runs it
        graphs._eigenvalue_pair(g.adjacency, 1e-6, eigen)
    assert ipm.gap <= 1e-6
    brackets = [(theta.value, theta.upper), (ipm.lower, ipm.upper), (eigen.lower, eigen.upper)]
    for lower, upper in brackets:
        assert lower <= upper
        assert _independence_number(g.adjacency) <= upper + 1e-9
        assert lower <= _greedy_clique_cover(g.adjacency) + 1e-9
    for (lower, upper), (other_lower, other_upper) in itertools.combinations(brackets, 2):
        assert lower <= other_upper + 1e-9 and other_lower <= upper + 1e-9


@PROPERTY
@given(small_graphs())
def test_eigenvalue_pair_meets_its_closed_forms_within_the_interior_point_bracket(g):
    adj = g.adjacency
    ipm = graphs._Bracket(adj)
    graphs._theta_ipm(adj, 1e-6, ipm)
    # The primal (I - Abar/lambda_min)/n has value 1 - 2|Ebar| / (n lambda_min(Abar)).
    complement = ~adj & ~np.eye(g.order, dtype=bool)
    lowest = np.linalg.eigvalsh(complement.astype(float))[0]
    primal_value = 1.0 - complement.sum() / (g.order * lowest) if complement.any() else 1.0
    alone = graphs._Bracket(adj)  # its lower end can come from the primal only
    graphs._eigenvalue_pair(adj, 1e-6, alone)
    assert alone.lower == pytest.approx(primal_value, abs=1e-9)
    assert alone.lower <= ipm.upper + 1e-9
    # After the sandwich, as in lovasz_theta: the better primal, and a dual between
    # the interior-point lower end and the clique cover.
    independent, *pair = graphs._sandwich_bounds(adj)
    staged = graphs._Bracket(adj)
    staged.update(*pair)
    cover = staged.upper
    graphs._eigenvalue_pair(adj, 1e-6, staged)
    assert staged.lower == pytest.approx(max(len(independent), primal_value), abs=1e-9)
    assert ipm.lower - 1e-9 <= staged.upper <= cover
    if staged.gap <= 1e-6:  # closed by the bounds stage: the solver's theta within tol
        assert abs(staged.lower - ipm.lower) <= 2e-6


@PROPERTY
@given(small_graphs())
def test_sandwich_pair_is_an_independent_set_and_a_clique_cover(g):
    adj = g.adjacency
    independent, clique_of = graphs._independent_set_and_cliques(adj)
    assert independent and not adj[np.ix_(independent, independent)].any()
    k = int(clique_of.max()) + 1
    assert set(clique_of.tolist()) == set(range(k))  # k nonempty parts, one per vertex
    same_clique = clique_of[:, None] == clique_of
    assert (adj | np.eye(g.order, dtype=bool))[same_clique].all()
    theta = lovasz_theta(g, 1e-6)
    assert len(independent) <= _independence_number(adj) <= theta.upper + 1e-9
    assert theta.value <= k + 1e-9
    if theta.solver == "bounds":
        assert theta.iterations == 0 and theta.converged
        assert abs(theta.value - len(independent)) <= 1e-9 and abs(theta.upper - k) <= 1e-9
        ipm = graphs._Bracket(adj)
        graphs._theta_ipm(adj, 1e-6, ipm)
        assert abs(ipm.lower - k) <= 1e-6 and abs(ipm.upper - k) <= 1e-6


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, (1 << (2 * n)) - 1), min_size=1, max_size=12, unique=True),
    st.integers(0, 2**32 - 1))))
def test_psi0_fixed_point_step_never_lowers_the_norm(case):
    # mu(a')^2 >= <v|H(a')|v>^2 = |g|^2 = mu(a)^2 + gap, checked by an independent eigh.
    n, bits, seed = case
    labels = tuple(WeylLabel(b, n) for b in bits)
    a = np.random.default_rng(seed).normal(size=len(labels))
    a /= np.linalg.norm(a)
    value, gap, nxt = fixed_point_round(list(labels), a)
    assert value[0] == pytest.approx(hamiltonian_norm_sq(HamiltonianSpec(labels, a)), abs=1e-12)
    assert gap[0] >= -1e-12
    stepped = hamiltonian_norm_sq(HamiltonianSpec(labels, nxt[0]))
    assert stepped >= value[0] - 1e-12
    assert stepped >= value[0] + gap[0] - 1e-12


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, (1 << (2 * n)) - 1), min_size=1, max_size=12, unique=True),
    st.integers(0, 2**32 - 1))))
def test_certificate_ascent_stops_within_tol_of_the_unceilinged_one(case):
    # psi0 <= theta <= theta.upper, so stopping at theta.upper - tol loses at most tol.
    n, bits, seed = case
    labels = [WeylLabel(b, n) for b in bits]
    tol = 1e-6
    cert = uncertainty_certificate(generate_state("haar", n, seed=seed), labels, tol, 4,
                                   np.random.default_rng(seed))
    unceilinged = psi0_lower_bound(labels, 4, np.random.default_rng(seed))
    assert cert.psi0_lb >= unceilinged["value"] - tol
    assert cert.psi0_lb <= cert.theta.upper + uncertainty._ROUNDOFF
    # |I| = theta to within tol: the commuting start meets the ceiling.
    if abs(cert.theta.value - len(cert.theta.independent)) <= tol:
        assert cert.ascent_steps == 1 and cert.psi0_lb >= cert.theta.value - tol
