"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines).
Criteria involving randomness use frozen seeds; the statistical margins are
wide enough that the checks are not seed-sensitive in practice.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import naive_dyadic_convolution, random_subspace
from stabkit import cli
from stabkit.additive import GF2Set, bsg_extract, representation_counts
from stabkit.gf2 import (
    GF2Subspace,
    WeylLabel,
    enumerate_lagrangians,
    enumerate_subspaces,
    isotropic_cover,
    symplectic_form,
)
from stabkit.graphs import (
    SimpleGraph,
    complete_graph,
    compose_graphs,
    cycle_graph,
    empty_graph,
    lovasz_theta,
    pauli_group_graph,
)
from stabkit.oracle import lagrangian_mass, stabilizer_fidelity_exact, twirl_purity
from stabkit.sampling import BellSampler, plan_test, run_tolerant_test
from stabkit.state import (
    char_distribution,
    fwht,
    gamma_exact,
    generate_state,
    weyl_distribution,
    weyl_expectation,
)
from stabkit.uncertainty import uncertainty_certificate


def corpus_states(n_values, per_class_per_n, rng):
    """The standard three-class corpus used by criteria 1 and 6."""
    states = []
    for n in n_values:
        noises = np.linspace(0.05, 0.5, per_class_per_n)
        for idx in range(per_class_per_n):
            states.append((f"haar-{n}-{idx}", generate_state("haar", n, rng=rng)))
            states.append(
                (
                    f"noisy-{n}-{idx}",
                    generate_state("noisy_stabilizer", n, noise=float(noises[idx]), rng=rng),
                )
            )
            states.append((f"stab-{n}-{idx}", generate_state("stabilizer", n, rng=rng)))
    return states


def test_criterion_01_fidelity_sandwich_upper_bound():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    states = corpus_states((1, 2, 3, 4), 25, rng)
    assert len(states) == 300
    worst = -np.inf
    for _, psi in states:
        f_s = stabilizer_fidelity_exact(psi).f_s
        bound = gamma_exact(psi) ** (1.0 / 6.0)
        worst = max(worst, f_s - bound)
        assert f_s <= bound + 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 1 PASS: F_S <= gamma^(1/6)+1e-9 on 300 states "
        f"(worst slack {worst:.3e}, {elapsed:.1f}s)"
    )


def test_criterion_02_acceptance_probability():
    m = 100_000
    for n in (1, 2, 3):
        psi = generate_state("t_tensor", n)
        _, accepts = BellSampler(psi).rounds(m, np.random.default_rng(300 + n))
        rate = float(accepts.mean())
        target = 0.5 + (5 / 8) ** n / 2
        assert abs(rate - target) <= 4 / math.sqrt(m)
    print("ACCEPTANCE 2 PASS: accept rate within 4*sqrt(1/m) of 1/2+(5/8)^n/2 for n=1..3")


def test_criterion_03_tester_end_to_end():
    eps1, C = 0.9, 1.0
    d1 = eps1**6
    eps2 = C * (d1 / 2) ** 112  # places D2 at D1/2
    plan = plan_test(eps1, eps2, C, 1 / 3)
    assert plan.D2 == pytest.approx(plan.D1 / 2, rel=1e-12)

    close_hits = 0
    for trial in range(100):
        rng = np.random.default_rng(1_000 + trial)
        n = (2, 3, 4)[trial % 3]
        noise = float(rng.uniform(0.0, 0.05))
        psi = generate_state("noisy_stabilizer", n, noise=noise, rng=rng)
        assert gamma_exact(psi) > plan.D  # separation pre-verified exactly
        if run_tolerant_test(psi, plan, rng).decision == "Close":
            close_hits += 1
    assert close_hits >= 99

    far_hits = 0
    for trial in range(100):
        rng = np.random.default_rng(5_000 + trial)
        psi = generate_state("haar", 6, rng=rng)
        assert gamma_exact(psi) < plan.D
        if run_tolerant_test(psi, plan, rng).decision == "Far":
            far_hits += 1
    assert far_hits >= 99
    print(
        f"ACCEPTANCE 3 PASS: Close {close_hits}/100 (noisy<=0.05), "
        f"Far {far_hits}/100 (Haar n=6), m={plan.m}"
    )


def _random_graph(rng, order, density=0.4):
    adj = np.triu(rng.random((order, order)) < density, 1)
    return SimpleGraph(adj | adj.T)


def test_criterion_04_theta_golden_values_and_facts():
    tol = 1e-6
    for order in range(1, 17):
        assert lovasz_theta(complete_graph(order), tol).value == pytest.approx(1.0, abs=1e-4)
    for m in range(5):
        assert lovasz_theta(empty_graph(1 << m), tol).value == pytest.approx(
            float(1 << m), abs=1e-4
        )
    assert lovasz_theta(pauli_group_graph(1), tol).value == pytest.approx(2.0, abs=1e-4)
    assert lovasz_theta(pauli_group_graph(2), tol).value == pytest.approx(4.0, abs=1e-4)
    assert lovasz_theta(cycle_graph(5), tol).value == pytest.approx(math.sqrt(5), abs=1e-5)

    rng = np.random.default_rng(404)
    slack = 20 * tol
    for _ in range(17):  # strong product multiplicativity
        g1 = _random_graph(rng, int(rng.integers(2, 7)))
        g2 = _random_graph(rng, int(rng.integers(2, 7)))
        product = lovasz_theta(compose_graphs("strong_product", g1, g2), tol).value
        assert product == pytest.approx(
            lovasz_theta(g1, tol).value * lovasz_theta(g2, tol).value, abs=slack
        )
    for _ in range(17):  # disjoint union additivity
        g1 = _random_graph(rng, int(rng.integers(2, 13)))
        g2 = _random_graph(rng, int(rng.integers(2, 13)))
        union = lovasz_theta(compose_graphs("disjoint_union", g1, g2), tol).value
        assert union == pytest.approx(
            lovasz_theta(g1, tol).value + lovasz_theta(g2, tol).value, abs=slack
        )
    for _ in range(16):  # monotonicity under edge addition
        g = _random_graph(rng, int(rng.integers(4, 25)), 0.3)
        base = lovasz_theta(g, tol).value
        adj = g.adjacency.copy()
        bare = np.argwhere(np.triu(~adj, 1))
        for i, j in bare[rng.choice(len(bare), size=min(3, len(bare)), replace=False)]:
            adj[i, j] = adj[j, i] = True
        assert base >= lovasz_theta(SimpleGraph(adj), tol).value - slack
    print("ACCEPTANCE 4 PASS: theta goldens within tolerance; Facts 4-6 on 50 pairs")


def test_criterion_05_uncertainty_chain():
    rng = np.random.default_rng(505)
    for trial in range(500):
        n = int(rng.integers(1, 5))
        count = int(rng.integers(2, min(30, 1 << (2 * n)) + 1))
        psi = generate_state("haar", n, rng=rng)
        picks = rng.choice(1 << (2 * n), size=count, replace=False)
        labels = [WeylLabel(int(b), n) for b in picks]
        cert = uncertainty_certificate(psi, labels, theta_tol=1e-5, restarts=2, rng=rng)
        assert cert.lhs <= cert.psi0_lb + 1e-8
        assert cert.psi0_lb <= cert.theta_ub + 1e-4

    # Fact 14 specialization on mutually anticommuting sets.
    for trial in range(100):
        n = int(rng.integers(1, 5))
        picks: list[WeylLabel] = []
        for bits in rng.permutation(np.arange(1, 1 << (2 * n))):
            cand = WeylLabel(int(bits), n)
            if all(symplectic_form(cand, kept) == 1 for kept in picks):
                picks.append(cand)
        psi = generate_state("haar", n, rng=rng)
        lhs = sum(weyl_expectation(psi, lab) ** 2 for lab in picks)
        assert lhs <= 1.0 + 1e-9
    print("ACCEPTANCE 5 PASS: 500 chain trials and 100 anticommuting trials, zero violations")


def test_criterion_06_lagrangian_mass_and_twirl_identity():
    rng = np.random.default_rng(606)
    states = corpus_states((1, 2, 3), 25, rng)
    assert len(states) == 225
    for n in (1, 2, 3):
        lagrangians = list(enumerate_lagrangians(n))
        for name, psi in states:
            if psi.n != n:
                continue
            report = stabilizer_fidelity_exact(psi)
            for V in lagrangians:
                mass = lagrangian_mass(psi, V)
                assert report.f_s >= mass - 1e-10
                assert twirl_purity(psi, V) == pytest.approx(mass, abs=1e-9)
    print("ACCEPTANCE 6 PASS: F_S >= mass(V) and twirl purity identity, all Lagrangians n<=3")


def test_criterion_07_isotropic_covering_exhaustive():
    for two_n in (4, 6):
        n = two_n // 2
        for basis in enumerate_subspaces(two_n):
            V = GF2Subspace(basis, n)
            parts = isotropic_cover(V)
            assert len(parts) <= (1 << V.k) + 1
            members = set(V.element_bits)
            covered = set()
            for part in parts:
                assert part.is_isotropic
                assert set(part.element_bits) <= members
                covered |= set(part.element_bits)
            assert covered == members
    print("ACCEPTANCE 7 PASS: exact isotropic covers for all subspaces of F2^4 and F2^6")


def test_criterion_08_bsg_structured_sets():
    rng = np.random.default_rng(808)
    accepted = 0
    for trial in range(50):
        n = int(rng.integers(2, 6))  # 2n in {4,...,10}
        dim = int(rng.integers(1, 2 * n + 1))
        V = random_subspace(rng, n, dim)
        members = set(V.element_bits)
        junk_target = int(rng.uniform(0.0, 0.2) * V.size)
        while len(members) < min(V.size + junk_target, 1 << (2 * n)):
            members.add(int(rng.integers(1 << (2 * n))))
        S = GF2Set.from_indices(members, n)
        eps = representation_counts(S)["closure_prob"]
        result = bsg_extract(S, eps, rng)
        if not result.succeeded:
            continue
        accepted += 1
        # Verbatim bound verification against independent recomputation.
        kept = result.s_prime.indices()
        assert kept.size >= eps / (2 * math.sqrt(2)) * S.size
        sums = np.unique(kept[:, None] ^ kept[None, :])
        assert sums.size <= 8 * eps**-6 * kept.size

    pure_hits = 0
    for trial in range(10):
        n = int(rng.integers(2, 6))
        V = random_subspace(rng, n, int(rng.integers(1, 2 * n + 1)))
        result = bsg_extract(GF2Set.from_subspace(V), 1.0, rng)
        pure_hits += result.succeeded
    assert pure_hits == 10  # 100% acceptance on pure subspaces at eps = 1
    print(f"ACCEPTANCE 8 PASS: {accepted}/50 structured sets accepted with verbatim bounds; pure subspaces 10/10")


def test_criterion_09_transform_equivalence_and_speed():
    rng = np.random.default_rng(909)
    for n in (1, 2, 3, 4):  # 2n in {2,...,8}
        psi = generate_state("haar", n, rng=rng)
        p = char_distribution(psi)
        naive_q = naive_dyadic_convolution(p.values)
        assert np.max(np.abs(weyl_distribution(p).values - naive_q)) <= 1e-12

        size = int(rng.integers(2, (1 << (2 * n)) + 1))
        S = GF2Set.from_indices(rng.choice(1 << (2 * n), size=size, replace=False), n)
        naive_r = naive_dyadic_convolution(S.members.astype(float))
        assert np.max(np.abs(representation_counts(S)["r"].values - naive_r)) <= 1e-12

    # Informational timing at 2n = 16.
    values = rng.random(1 << 16)
    values /= values.sum()
    started = time.perf_counter()
    via_transform = fwht(fwht(values) ** 2) / values.size
    fast_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    via_naive = naive_dyadic_convolution(values)
    naive_elapsed = time.perf_counter() - started
    assert np.max(np.abs(via_transform - via_naive)) <= 1e-12
    speedup = naive_elapsed / fast_elapsed
    assert speedup >= 10.0
    print(
        f"ACCEPTANCE 9 PASS: transforms match naive oracles exactly; "
        f"2n=16 speedup {speedup:.0f}x ({naive_elapsed:.2f}s naive vs {fast_elapsed*1e3:.1f}ms)"
    )


def test_criterion_10_cli_determinism(tmp_path):
    commands = {
        "gamma": ["gamma", "--kind", "haar", "--n", "3", "--m", "20000", "--seed", "41"],
        "test": ["test", "--kind", "noisy_stabilizer", "--n", "3", "--noise", "0.02",
                 "--eps1", "0.9", "--eps2", "1e-40", "--seed", "42"],
        "fidelity": ["fidelity", "--kind", "haar", "--n", "3", "--seed", "43"],
        "sweep": ["sandwich-sweep", "--per-class", "3", "--seed", "44"],
        "sweep-csv": ["sandwich-sweep", "--per-class", "3", "--seed", "44",
                      "--format", "csv"],
        "theta": ["theta", "--cycle", "7", "--tol", "1e-6"],
        "uncertainty": ["uncertainty", "--kind", "haar", "--n", "2",
                        "--random-labels", "8", "--seed", "45", "--theta-tol", "1e-5"],
        "extract": ["extract", "--kind", "t_tensor", "--n", "4", "--seed", "46"],
        "bsg": ["bsg", "--n", "3", "--subspace-dim", "4", "--junk", "2", "--seed", "47"],
        "cover": ["cover", "--n", "3", "--dim", "4", "--seed", "48"],
    }
    for name, argv in commands.items():
        first = tmp_path / f"{name}-1.out"
        second = tmp_path / f"{name}-2.out"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
    print("ACCEPTANCE 10 PASS: byte-identical reports for all commands under a fixed seed")
