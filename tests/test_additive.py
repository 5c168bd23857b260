"""Additive combinatorics: counts, extraction, sumsets, BSG, heavy translates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_bit_identical,
    naive_dyadic_convolution,
    random_subspace,
    reference_dyadic_self_convolution,
)
from stabkit import additive
from stabkit.additive import (
    GF2Set,
    bsg_extract,
    extract_nearly_linear_set,
    find_heavy_translate,
    format_set,
    parse_set,
    representation_counts,
    sumset_doubling,
)
from stabkit.errors import ValidationError
from stabkit.gf2 import GF2Subspace, WeylLabel, span_and_classify
from stabkit.state import gamma_exact, generate_state


def brute_force_sumset(indices: set[int]) -> set[int]:
    return {a ^ b for a in indices for b in indices}


def test_representation_counts_on_subspace():
    V = span_and_classify([WeylLabel.from_string("1000"), WeylLabel.from_string("0100")])
    S = GF2Set.from_subspace(V)
    counts = representation_counts(S)
    assert counts["closure_prob"] == pytest.approx(1.0)
    r = counts["r"].values
    members = set(V.element_bits)
    for x in range(16):
        assert r[x] == (len(members) if x in members else 0)
    assert counts["additive_energy"] == len(members) ** 3


def test_representation_counts_examples():
    dim1 = GF2Set.from_indices([0, 1], 1)  # {0, e1} is a subspace
    assert representation_counts(dim1)["closure_prob"] == pytest.approx(1.0)
    two_points = GF2Set.from_indices([1, 2], 1)
    assert representation_counts(two_points)["closure_prob"] == pytest.approx(0.0)


def test_representation_counts_invariants_and_naive_oracle():
    rng = np.random.default_rng(0)
    for n in (1, 2):
        size = int(rng.integers(1, (1 << (2 * n)) + 1))
        picks = rng.choice(1 << (2 * n), size=size, replace=False)
        S = GF2Set.from_indices(picks, n)
        counts = representation_counts(S)
        r = counts["r"].values
        assert r[0] == S.size  # a + a = 0
        assert r.sum() == S.size**2
        naive = naive_dyadic_convolution(S.members.astype(float))
        assert np.max(np.abs(r - naive)) <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_representation_counts_are_bit_identical_to_the_reference(n):
    # The bitset is convolved as it is, with no float copy made first.
    rng = np.random.default_rng(40 + n)
    for density in (0.02, 0.3, 0.9):
        members = rng.random(1 << (2 * n)) < density
        members[rng.integers(members.size)] = True
        want = np.rint(reference_dyadic_self_convolution(members))
        assert_bit_identical(representation_counts(GF2Set(members, n))["r"].values, want)


def _by_each_route(S: GF2Set) -> list[tuple]:
    """r's int64 view, closure, energy and doubling, with every count taken by one route."""
    results = []
    for route in (additive._pair_counts, additive._transform_counts):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(additive, "_pair_counts", route)
            mp.setattr(additive, "_transform_counts", route)
            counts = representation_counts(S)
            results.append((counts["r"].values.view(np.int64).tolist(), counts["closure_prob"],
                            counts["additive_energy"], sumset_doubling(S)["doubling"]))
    return results


@pytest.mark.parametrize("n", range(1, 9))
def test_both_count_routes_give_the_same_bits(n):
    rng = np.random.default_rng(70 + n)
    length = 1 << (2 * n)
    switch = 1 << (n + 1)  # |S|^2 = 4^(n+1): the largest set counted by pairs
    for size in [1, 2, switch, switch + 1] + ([length] if n <= 3 else []):
        if size > length:
            continue
        S = GF2Set.from_indices(rng.choice(length, size=size, replace=False), n)
        by_pairs, by_transform = _by_each_route(S)
        assert by_pairs == by_transform
        # The route the switch picks: the other one is never called.
        other = "_transform_counts" if size <= switch else "_pair_counts"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(additive, other, None)
            assert representation_counts(S)["r"].values.view(np.int64).tolist() == by_pairs[0]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, min(1 << (2 * n), 3 << (n + 1))), st.integers(0, 2**32 - 1))))
def test_count_routes_agree_on_random_sets(case):
    n, size, seed = case  # sizes up to 3 x the switch, so both sides are drawn
    picks = np.random.default_rng(seed).choice(1 << (2 * n), size=size, replace=False)
    by_pairs, by_transform = _by_each_route(GF2Set.from_indices(picks, n))
    assert by_pairs == by_transform


def test_extract_full_group_from_stabilizer_state():
    psi = generate_state("stabilizer", 3, seed=1)
    report = extract_nearly_linear_set(psi, 1.0, np.random.default_rng(2))
    assert report.succeeded
    assert report.size == 8
    assert report.closure_prob == pytest.approx(1.0)
    assert report.min_mass == pytest.approx(1.0)
    assert report.retries_used == 1


def test_extract_t_tensor_state():
    # gamma(|H>^4) = (5/8)^4; goals met quickly (empirically on the first
    # retry for these seeds).
    psi = generate_state("t_tensor", 4)
    gamma = gamma_exact(psi)
    assert gamma == pytest.approx((5 / 8) ** 4, abs=1e-12)
    for seed in (0, 1, 2):
        report = extract_nearly_linear_set(psi, gamma, np.random.default_rng(seed), retry_cap=50)
        assert report.succeeded
        assert report.min_mass >= gamma / 4
        assert report.size >= gamma / 2 * 16
        assert report.closure_prob >= gamma / 6


def test_extract_min_mass_holds_on_every_nonempty_return():
    # The pointwise mass floor holds whether or not the size/closure goals
    # were met, because candidates never leave the heavy set.
    rng = np.random.default_rng(12)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        psi = generate_state("haar", n, rng=rng)
        gamma = float(rng.uniform(0.2, 1.0)) * gamma_exact(psi)
        report = extract_nearly_linear_set(psi, gamma, rng, retry_cap=3)
        if report.size:
            assert report.min_mass >= gamma / 4


def test_extract_degenerate_gamma_warns_and_fails():
    psi = generate_state("stabilizer", 2, seed=3)
    with pytest.warns(UserWarning):
        report = extract_nearly_linear_set(psi, 5.0, np.random.default_rng(4), retry_cap=5)
    assert not report.succeeded
    assert report.size == 0  # the threshold gamma/4 > 1 empties the candidate set


@pytest.mark.parametrize("gamma", [0.0, -0.5, float("nan"), float("inf")])
def test_extract_needs_a_finite_positive_gamma(gamma):
    psi = generate_state("haar", 3, seed=1)
    with pytest.raises(ValidationError, match="gamma must be a finite number > 0"):
        extract_nearly_linear_set(psi, gamma, np.random.default_rng(1))


def test_sumset_doubling_examples():
    V = random_subspace(np.random.default_rng(5), 2, 2)
    S = GF2Set.from_subspace(V)
    assert sumset_doubling(S)["doubling"] == pytest.approx(1.0)

    outside = next(b for b in range(16) if b not in set(V.element_bits))
    S_plus = GF2Set.from_indices(list(V.element_bits) + [outside], 2)
    result = sumset_doubling(S_plus)
    assert result["doubling"] == pytest.approx(2 * V.size / (V.size + 1))
    assert set(result["sumset"].indices().tolist()) == brute_force_sumset(
        set(S_plus.indices().tolist())
    )

    rng = np.random.default_rng(6)
    random_ten = GF2Set.from_indices(rng.choice(256, size=10, replace=False), 4)
    assert sumset_doubling(random_ten)["doubling"] <= 5.5


def test_bsg_on_pure_subspace():
    V = random_subspace(np.random.default_rng(7), 2, 3)
    S = GF2Set.from_subspace(V)
    result = bsg_extract(S, 1.0, np.random.default_rng(8))
    assert result.succeeded
    assert result.s_prime.size == S.size  # B = S and every degree is |B|
    assert result.stats["doubling"] == pytest.approx(1.0)


def test_bsg_subspace_with_junk():
    rng = np.random.default_rng(9)
    V = random_subspace(rng, 3, 4)
    members = set(V.element_bits.__iter__())
    while len(members) < V.size + 3:
        members.add(int(rng.integers(1 << 6)))
    S = GF2Set.from_indices(members, 3)
    eps = representation_counts(S)["closure_prob"]
    result = bsg_extract(S, eps, rng)
    assert result.succeeded
    # Verify both conclusions against independent recomputation.
    s_prime = set(result.s_prime.indices().tolist())
    assert len(s_prime) >= eps / (2 * np.sqrt(2)) * S.size
    assert len(brute_force_sumset(s_prime)) <= 8 * eps**-6 * len(s_prime)


def test_bsg_default_eps_is_the_closure_probability():
    rng = np.random.default_rng(14)
    for n, dim, junk in [(2, 2, 1), (3, 4, 3), (4, 5, 6)]:
        V = random_subspace(rng, n, dim)
        members = set(V.element_bits)
        while len(members) < V.size + junk:
            members.add(int(rng.integers(1 << (2 * n))))
        S = GF2Set.from_indices(members, n)
        closure = representation_counts(S)["closure_prob"]
        seed = int(rng.integers(1 << 30))
        default = bsg_extract(S, None, np.random.default_rng(seed), trials=20)
        given = bsg_extract(S, closure, np.random.default_rng(seed), trials=20)
        assert default.eps == given.eps == closure
        assert default.z_used == given.z_used and default.succeeded == given.succeeded
        assert default.stats == given.stats
        np.testing.assert_array_equal(default.s_prime.members, given.s_prime.members)


def test_bsg_validation():
    S = GF2Set.from_indices([1, 2], 1)  # closure probability 0
    with pytest.raises(ValidationError):
        bsg_extract(S, 0.5, np.random.default_rng(10))


def test_bsg_threshold_overrides_change_selection():
    # On a subspace every pair of B = S is an edge (full degree), so the
    # proof's degree threshold keeps the whole set.
    V = random_subspace(np.random.default_rng(20), 2, 2)
    S = GF2Set.from_subspace(V)
    strict = bsg_extract(S, 1.0, np.random.default_rng(21))
    assert strict.succeeded and strict.s_prime.size == S.size


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bsg_degrees_match_the_pair_table(seed):
    # Degrees are summed in row blocks; |B| of about 350 here takes 16 blocks.
    rng = np.random.default_rng(seed)
    S = GF2Set.from_indices(rng.choice(1024, size=600, replace=False), 5)
    res = bsg_extract(S, 0.3, rng, trials=1)
    members = S.indices()
    b_idx = members[S.members[members ^ res.z_used.bits]]
    r = representation_counts(S)["r"].values
    edges = (r >= 0.3 * 0.3 * S.size / 16.0)[b_idx[:, None] ^ b_idx[None, :]]
    assert res.stats["b_size"] == b_idx.size > 300
    assert res.stats["edge_density"] == float(edges.mean())
    assert res.stats["degree_histogram"] == np.bincount(edges.sum(axis=1)).tolist()


def test_brute_force_subspace_cover():
    from stabkit.additive import brute_force_subspace_cover
    from stabkit.errors import CapExceededError

    rng = np.random.default_rng(22)
    V = random_subspace(rng, 3, 3)
    pure = brute_force_subspace_cover(GF2Set.from_subspace(V))
    assert pure["subspace"] == V and pure["translate_count"] == 1

    outside = next(b for b in range(64) if b not in set(V.element_bits))
    S = GF2Set.from_indices(list(V.element_bits) + [outside], 3)
    res = brute_force_subspace_cover(S)
    assert res["translate_count"] == 2  # V plus one stray coset
    assert res["translate_count"] <= res["translate_bound"]

    with pytest.raises(CapExceededError):
        brute_force_subspace_cover(GF2Set.from_indices([0, 1], 5))


def test_find_heavy_translate_examples():
    V = span_and_classify([WeylLabel.from_string("1000"), WeylLabel.from_string("0100")])
    inside = GF2Set.from_indices([0, 1, 3], 2)
    res = find_heavy_translate(inside, V)
    assert res["coset_rep"].bits == 0
    assert res["overlap"] == 3

    shift = 9
    coset = GF2Set.from_indices([e ^ shift for e in V.element_bits], 2)
    res = find_heavy_translate(coset, V)
    assert res["overlap"] == V.size
    assert res["coset_rep"].bits == min(e ^ shift for e in V.element_bits)


def test_find_heavy_translate_against_coset_scan():
    rng = np.random.default_rng(11)
    for _ in range(20):
        V = random_subspace(rng, 3, 3)
        picks = rng.choice(64, size=20, replace=False)
        S = GF2Set.from_indices(picks, 3)
        res = find_heavy_translate(S, V)
        member_set = set(picks.tolist())
        best = max(
            len(member_set & {rep ^ v for v in V.element_bits})
            for rep in range(64)
        )
        assert res["overlap"] == best
        cosets = 64 // V.size
        assert res["overlap"] >= -(-S.size // cosets)  # pigeonhole ceiling


def test_find_heavy_translate_with_a_non_canonical_basis():
    # Rows given as (1, 3) once left the coset keys unreduced: overlap 2, not 4.
    res = find_heavy_translate(GF2Set.from_indices(range(4), 2), GF2Subspace((1, 3), 2))
    assert (res["coset_rep"].bits, res["overlap"]) == (0, 4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        rows = [int(r) for r in rng.integers(0, 64, size=int(rng.integers(1, 5)))]
        V = GF2Subspace(rows, 3)
        S = GF2Set.from_indices(rng.choice(64, size=int(rng.integers(1, 30)), replace=False), 3)
        members = set(S.indices().tolist())
        overlaps = [len(members & {rep ^ v for v in V.element_bits}) for rep in range(64)]
        res = find_heavy_translate(S, V)
        assert res["overlap"] == max(overlaps)
        assert res["coset_rep"].bits == overlaps.index(max(overlaps))  # smallest representative


@pytest.mark.parametrize("indices", [[-1], [16], [1.5], [0, 3, 2.0]],
                         ids=["negative", "above-4^n", "float", "mixed"])
def test_from_indices_rejects_what_is_not_a_member(indices):
    # -1 once set entry 15, and 16 ended in an IndexError traceback.
    with pytest.raises(ValidationError, match="integers in \\[0, 16\\)"):
        GF2Set.from_indices(indices, 2)


@pytest.mark.parametrize(
    "indices",
    [{0, 5, 9}, (9, 5, 0), {9: 1, 0: 2, 5: 3}.keys(), np.array([9, 0, 5]),
     np.array([0, 5, 9], dtype=np.uint8), np.array([5, 9, 0, 5, 9])],
    ids=["set", "tuple", "dict-keys", "int64-array", "uint8-array", "repeats"],
)
def test_from_indices_takes_arrays_and_iterables(indices):
    assert GF2Set.from_indices(indices, 2).indices().tolist() == [0, 5, 9]


@pytest.mark.parametrize(
    "indices",
    [np.array([-1]), np.array([0, 16]), np.array([1.5]), np.array([True])],
    ids=["negative", "above-4^n", "float", "bool"],
)
def test_from_indices_rejects_arrays_that_are_not_members(indices):
    with pytest.raises(ValidationError, match="integers in \\[0, 16\\)"):
        GF2Set.from_indices(indices, 2)
    assert GF2Set.from_indices(np.array([], dtype=np.int64), 2).size == 0


def test_set_text_roundtrip():
    S = GF2Set.from_indices([0, 5, 9], 2)
    assert set(parse_set(format_set(S)).indices().tolist()) == {0, 5, 9}
    with pytest.raises(ValidationError):
        parse_set("")
