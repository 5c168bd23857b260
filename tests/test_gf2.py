"""Symplectic F2 linear algebra: forms, decompositions, coverings, enumeration."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import bfs_lagrangians, gf2_rank, random_subspace
from stabkit.additive import parse_set
from stabkit.errors import CapExceededError, ValidationError
from stabkit.gf2 import (
    GF2Subspace,
    WeylLabel,
    _lagrangian_bases,
    covers_exactly,
    enumerate_lagrangians,
    enumerate_subspaces,
    extend_to_lagrangian,
    format_label_bits,
    format_subspace,
    isotropic_cover,
    label_batch_qubits,
    parse_label_bits,
    parse_labels,
    parse_subspace,
    span_and_classify,
    symplectic_form,
    symplectic_gram_schmidt,
)
from stabkit.graphs import anticommutation_graph
from stabkit.oracle import lagrangian_mass
from stabkit.state import generate_state, weyl_matrices
from stabkit.uncertainty import HamiltonianSpec, psi0_lower_bound, uncertainty_certificate

I1 = WeylLabel(0, 1)
X1 = WeylLabel.from_halves(1, 0, 1)
Z1 = WeylLabel.from_halves(0, 1, 1)
Y1 = WeylLabel.from_halves(1, 1, 1)


def test_symplectic_form_examples():
    assert symplectic_form(X1, X1) == 0
    assert symplectic_form(X1, Z1) == 1
    x = WeylLabel.from_string("1001")
    y = WeylLabel.from_string("0110")
    assert symplectic_form(x, y) == 0


def test_symplectic_form_dimension_mismatch():
    with pytest.raises(ValidationError):
        symplectic_form(X1, WeylLabel(0, 2))


def test_form_bilinear_and_alternating():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a, b, c = (WeylLabel(int(v), n) for v in rng.integers(0, 1 << (2 * n), size=3))
        assert symplectic_form(a, a) == 0
        assert symplectic_form(a ^ b, c) == symplectic_form(a, c) ^ symplectic_form(b, c)


def test_label_string_roundtrip_and_packing():
    lab = WeylLabel.from_string("1001")
    assert (lab.x1, lab.x2) == (0b01, 0b10)
    assert lab.to_string() == "1001"
    with pytest.raises(ValidationError):
        WeylLabel.from_string("10x1")
    with pytest.raises(ValidationError):
        WeylLabel(16, 1)


def test_span_and_classify_examples():
    v = span_and_classify([Z1])
    assert (v.dim, v.is_isotropic, v.is_lagrangian) == (1, True, True)

    v = span_and_classify([X1, Z1])
    assert (v.dim, v.is_isotropic) == (2, False)

    x_1 = WeylLabel.from_string("1000")
    x_2 = WeylLabel.from_string("0100")
    v = span_and_classify([x_1, x_2])
    assert (v.dim, v.is_isotropic, v.is_lagrangian) == (2, True, True)


def test_span_degenerate_and_errors():
    trivial = span_and_classify([WeylLabel(0, 2)])
    assert trivial.dim == 0 and trivial.is_isotropic and not trivial.is_lagrangian
    with pytest.raises(ValidationError):
        span_and_classify([])
    with pytest.raises(ValidationError):
        span_and_classify([X1, WeylLabel(0, 2)])


def test_subspace_is_canonical_by_construction():
    # Rows were once stored as given: (1, 1) read as a 2-dim Lagrangian of mass 0.697.
    V = GF2Subspace((1, 1), 2)
    assert (V.basis, V.dim, V.is_lagrangian) == ((1,), 1, False)
    assert V.element_bits == (0, 1)
    with pytest.raises(ValidationError, match="not Lagrangian"):
        lagrangian_mass(generate_state("haar", 2, 3), V)
    # (1, 3) was unequal to its canonical twin (2, 1) and did not contain 0b10.
    W = GF2Subspace((1, 3), 2)
    assert W == GF2Subspace((2, 1), 2) and W.basis == (2, 1)
    assert W.contains(WeylLabel(0b10, 2))
    assert symplectic_gram_schmidt(GF2Subspace((3, 1, 2), 1)).k == 1
    assert GF2Subspace((np.int64(5),), 2).basis == (5,)


@pytest.mark.parametrize(
    "rows, n",
    [((16,), 2), ((-1,), 2), ((1.0,), 2), ((np.float64(3),), 2), ((1,), 0), ((1,), 1.5)],
    ids=["above-4^n", "negative", "float", "numpy-float", "n-zero", "n-float"],
)
def test_subspace_rows_are_checked_at_construction(rows, n):
    with pytest.raises(ValidationError):
        GF2Subspace(rows, n)


def test_gram_schmidt_examples():
    full = span_and_classify([X1, Z1])
    dec = symplectic_gram_schmidt(full)
    assert (dec.k, dec.m) == (1, 0)

    z_both = span_and_classify([WeylLabel.from_string("0010"), WeylLabel.from_string("0001")])
    dec = symplectic_gram_schmidt(z_both)
    assert (dec.k, dec.m) == (0, 2)

    mixed = span_and_classify(
        [WeylLabel.from_string("1000"), WeylLabel.from_string("0010"), WeylLabel.from_string("0100")]
    )
    dec = symplectic_gram_schmidt(mixed)
    assert (dec.k, dec.m) == (1, 1)


def test_gram_schmidt_k_matches_gram_matrix_rank():
    # Independent oracle: 2k equals the F2 rank of the symplectic Gram matrix.
    rng = np.random.default_rng(3)
    subspaces = [GF2Subspace(b, 2) for b in enumerate_subspaces(4)]
    subspaces += [random_subspace(rng, 3, int(rng.integers(1, 7))) for _ in range(40)]
    for V in subspaces:
        dec = symplectic_gram_schmidt(V)
        gram_rows = [
            sum(
                symplectic_form(WeylLabel(a, V.n), WeylLabel(b, V.n)) << j
                for j, b in enumerate(V.basis)
            )
            for a in V.basis
        ]
        assert 2 * dec.k == gf2_rank(gram_rows)
        assert 2 * dec.k + dec.m == V.dim
        assert dec.k + dec.m <= V.n


def test_gram_schmidt_structure_and_reconstruction():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        V = random_subspace(rng, n, int(rng.integers(1, 2 * n + 1)))
        dec = symplectic_gram_schmidt(V)
        gens = [p for pair in dec.hyperbolic_pairs for p in pair] + list(dec.isotropic_part)
        assert span_and_classify(gens) == V
        for (i, a), (j, b) in itertools.combinations(enumerate(gens), 2):
            paired = i // 2 == j // 2 and i < 2 * dec.k and j < 2 * dec.k
            assert symplectic_form(a, b) == (1 if paired else 0)


def test_extend_to_lagrangian_examples():
    trivial = span_and_classify([WeylLabel(0, 1)])
    out = extend_to_lagrangian(trivial)
    assert out.is_lagrangian and out.dim == 1

    y_line = span_and_classify([Y1])
    assert extend_to_lagrangian(y_line) == y_line

    v0 = span_and_classify([WeylLabel.from_string("0010")])
    out = extend_to_lagrangian(v0)
    assert out.is_lagrangian and out.dim == 2
    assert all(out.contains(WeylLabel(b, 2)) for b in v0.basis)


def test_extend_to_lagrangian_properties_and_errors():
    for basis in enumerate_subspaces(6):
        V = GF2Subspace(basis, 3)
        if not V.is_isotropic:
            continue
        out = extend_to_lagrangian(V)
        assert out.is_lagrangian
        assert all(out.contains(WeylLabel(b, 3)) for b in V.basis)
    with pytest.raises(ValidationError):
        extend_to_lagrangian(span_and_classify([X1, Z1]))


def test_isotropic_cover_single_qubit_triangle():
    full = span_and_classify([X1, Z1])
    parts = isotropic_cover(full)
    assert sorted(p.basis for p in parts) == [(1,), (2,), (3,)]  # <X>, <Z>, <Y>


def test_isotropic_cover_isotropic_input_is_identity():
    V = span_and_classify([WeylLabel.from_string("0010"), WeylLabel.from_string("0001")])
    assert isotropic_cover(V) == [V]


def test_isotropic_cover_mixed_case():
    V = span_and_classify(
        [WeylLabel.from_string("1000"), WeylLabel.from_string("0010"), WeylLabel.from_string("0100")]
    )
    parts = isotropic_cover(V)
    assert len(parts) <= 3
    members = set(V.element_bits)
    covered = set()
    for part in parts:
        assert part.is_isotropic
        assert set(part.element_bits) <= members
        covered |= set(part.element_bits)
    assert covered == members


def test_isotropic_cover_random_large_ambient():
    # Exhaustive membership check for random subspaces up to 2n = 12.
    rng = np.random.default_rng(99)
    for n in (4, 5, 6):
        for _ in range(8):
            V = random_subspace(rng, n, int(rng.integers(1, 2 * n + 1)))
            parts = isotropic_cover(V)
            assert len(parts) <= (1 << V.k) + 1
            members = set(V.element_bits)
            covered = set()
            for part in parts:
                assert part.is_isotropic
                assert set(part.element_bits) <= members
                covered |= set(part.element_bits)
            assert covered == members
            assert covers_exactly(V, parts)


def test_covers_exactly_rejects_what_is_not_a_cover():
    V = span_and_classify(
        [WeylLabel.from_string(t) for t in ("100000", "000100", "010000", "000010", "001000")]
    )
    parts = isotropic_cover(V)  # k = 2, m = 1: five parts
    assert covers_exactly(V, parts)
    assert not covers_exactly(V, parts[1:])  # a spread member's own elements go uncovered
    # Complements of the isotropic part I = <001000> in each part have the
    # same images in V/I as the parts, but miss I itself.
    i = V.decomposition.isotropic_part[0]
    assert i == WeylLabel.from_string("001000")
    complements = [span_and_classify([WeylLabel(min(b, b ^ i.bits), V.n) for b in part.basis])
                   for part in parts]
    assert not any(part.contains(i) for part in complements)
    assert not covers_exactly(V, complements)
    outside = span_and_classify(parts[0].labels() + (WeylLabel.from_string("000001"),))
    assert not covers_exactly(V, [outside] + parts[1:])  # a part must lie in V


def test_symplectic_spread_table_full_range():
    # Every supported block size: pairwise-trivial Lagrangians covering F2^(2k).
    from stabkit.gf2 import _form_bits, _symplectic_spread

    for k in range(1, 9):
        spread = _symplectic_spread(k)
        assert len(spread) == (1 << k) + 1
        element_sets = []
        for member in spread:
            elems = [0]
            for row in member:
                elems += [e ^ row for e in elems]
            assert len(set(elems)) == 1 << k
            for u, v in itertools.combinations(member, 2):
                assert _form_bits(u, v, k) == 0
            element_sets.append(set(elems))
        assert set().union(*element_sets) == set(range(1 << (2 * k)))
        for s1, s2 in itertools.combinations(element_sets, 2):
            assert s1 & s2 == {0}


def test_lagrangian_counts():
    assert len(list(enumerate_lagrangians(1))) == 3
    assert len(list(enumerate_lagrangians(2))) == 15
    assert len(list(enumerate_lagrangians(3))) == 135
    expected = 1
    for n in range(1, 6):
        expected *= (1 << n) + 1  # prod_{i<=n} (2^i + 1): 75,735 at n = 5
        rows = _lagrangian_bases(n).tolist()
        assert len(rows) == expected
        assert all(a < b for a, b in zip(rows, rows[1:]))  # sorted by basis, each one once


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lagrangians_match_breadth_first_builder(n):
    # Same set and same (sorted canonical basis) order as the BFS oracle.
    assert tuple(enumerate_lagrangians(n)) == bfs_lagrangians(n)


def test_lagrangian_count_n2_against_brute_force():
    # Independent oracle: classify every dim-2 subspace of F2^4 directly.
    brute = sum(
        1
        for basis in enumerate_subspaces(4, dim=2)
        if GF2Subspace(basis, 2).is_isotropic
    )
    assert brute == 15


def test_lagrangians_distinct_and_lagrangian():
    # Every row of the table is its own canonical basis and spans a distinct Lagrangian.
    for n in range(1, 6):
        bases = _lagrangian_bases(n)
        assert bases.dtype == np.int64 and bases.shape[1] == n and not bases.flags.writeable
        seen = set()
        for row, V in zip(bases.tolist(), enumerate_lagrangians(n), strict=True):
            assert V.basis == tuple(row)  # V is GF2Subspace(row, n), which reduces its rows
            assert V.is_lagrangian
            assert V.basis not in seen
            seen.add(V.basis)
    assert len(seen) == (2 + 1) * (4 + 1) * (8 + 1) * (16 + 1) * (32 + 1)


def test_lagrangian_cap():
    with pytest.raises(CapExceededError):
        list(enumerate_lagrangians(6))
    with pytest.raises(ValidationError):
        list(enumerate_lagrangians(0))


def test_random_subspace_cap():
    # Labels are drawn as int64, so 2n = 62 is the widest that can be drawn.
    rng = np.random.default_rng(0)
    assert random_subspace(rng, 31, 2).dim == 2
    with pytest.raises(CapExceededError):
        random_subspace(rng, 32, 1)


def test_subspace_text_roundtrip():
    V = span_and_classify([WeylLabel.from_string("1010"), WeylLabel.from_string("0101")])
    assert parse_subspace(format_subspace(V)) == V
    with pytest.raises(ValidationError):
        parse_subspace("")


@pytest.mark.parametrize("n", [1, 2, 5, 8, 31])
def test_label_text_matches_the_per_label_format(n):
    # The per-label string, x1 half first with qubit 0 leftmost, is the reference.
    bits = np.random.default_rng(n).integers(0, 1 << (2 * n), size=50)
    want = [format(int(b), f"0{2 * n}b")[::-1] for b in bits]
    text = format_label_bits(bits, n)
    assert text == "".join(line + "\n" for line in want)
    assert [WeylLabel(int(b), n).to_string() for b in bits] == want
    got, got_n = parse_label_bits("\n  \n".join(want))  # stripped, blank lines skipped
    assert got_n == n and got.dtype == np.int64 and np.array_equal(got, bits)
    assert parse_labels(text) == [WeylLabel.from_string(line) for line in want]
    assert [lab.bits for lab in parse_labels(text)] == bits.tolist()


@pytest.mark.parametrize(
    "text, message",
    [
        ("1000\n101\n", "line 2: not a 2n-character 0/1 string: '101'"),
        ("10\n\n10x1\n", "line 3: not a 2n-character 0/1 string: '10x1'"),
        ("10\n1\u00e9\n", "line 2: not a 2n-character 0/1 string: '1\u00e9'"),
        ("10\n01\n1000\n", "got counts \\[1, 2\\]; line 3 \\('1000'\\) differs"),
        ("", "got counts \\[\\]; the text has no label line"),
        (" \n\n", "got counts \\[\\]; the text has no label line"),
    ],
    ids=["odd-width", "bad-character", "non-ascii", "mixed-width", "empty", "blank"],
)
def test_malformed_label_text_names_the_line(text, message):
    for parse in (parse_label_bits, parse_labels, parse_set):
        with pytest.raises(ValidationError, match=message):
            parse(text)


def test_label_text_is_capped_where_labels_leave_an_int64():
    assert parse_label_bits("0" * 62)[1] == 31
    with pytest.raises(CapExceededError, match="label text capped at n=31"):
        parse_label_bits("0" * 64)
    with pytest.raises(CapExceededError, match="label text capped at n=31"):
        format_label_bits([0], 32)
    with pytest.raises(ValidationError, match="need one label, got 2"):
        WeylLabel.from_string("10\n01")


@pytest.mark.parametrize(
    "entry",
    [
        lambda labels: parse_labels("".join(lab.to_string() + "\n" for lab in labels)),
        lambda labels: parse_set("".join(lab.to_string() + "\n" for lab in labels)),
        span_and_classify,
        weyl_matrices,
        anticommutation_graph,
        psi0_lower_bound,
        lambda labels: HamiltonianSpec(tuple(labels), np.ones(len(labels)) / np.sqrt(len(labels))),
        lambda labels: uncertainty_certificate(generate_state("t_tensor", 1), labels),
    ],
    ids=["parse_labels", "parse_set", "span_and_classify", "weyl_matrices",
         "anticommutation_graph", "psi0_lower_bound", "HamiltonianSpec",
         "uncertainty_certificate"],
)
def test_label_batch_entry_points_reject_empty_and_mixed_batches(entry):
    with pytest.raises(ValidationError, match="one qubit count, got counts \\[\\]"):
        entry([])
    with pytest.raises(ValidationError, match="one qubit count, got counts \\[1, 2\\]"):
        entry([X1, WeylLabel.from_string("1000")])
    assert label_batch_qubits([X1, Z1]) == 1
