"""Exact stabilizer-fidelity oracle and the twirl identity."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    graph_state,
    product_state,
    random_isotropic_basis,
    reference_fidelity_exact,
    sign_table,
)
from stabkit import oracle
from stabkit.errors import CapExceededError, ValidationError
from stabkit.gf2 import WeylLabel, enumerate_lagrangians, span_and_classify
from stabkit.oracle import (
    _INCUMBENT_ROWS,
    _elements_and_signs,
    _lagrangian_table,
    _slack,
    lagrangian_mass,
    stabilizer_fidelity_exact,
    twirl_purity,
    weyl_product_phase,
)
from stabkit.state import (
    PureState,
    char_distribution,
    fwht,
    generate_state,
    weyl_expectation_table,
    weyl_matrix,
)

ZERO = PureState(np.array([1, 0], dtype=complex), 1)
ONE = PureState(np.array([0, 1], dtype=complex), 1)
H_STATE = generate_state("t_tensor", 1)
BELL = PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2), 2)

V_Z = span_and_classify([WeylLabel.from_halves(0, 1, 1)])
V_X = span_and_classify([WeylLabel.from_halves(1, 0, 1)])


def test_weyl_product_phase():
    xx = WeylLabel.from_halves(0b11, 0, 2)
    zz = WeylLabel.from_halves(0, 0b11, 2)
    prod, t = weyl_product_phase(xx, zz)
    assert prod == WeylLabel.from_halves(0b11, 0b11, 2)
    assert t == 2  # (XX)(ZZ) = -YY


def test_lagrangian_mass_examples():
    assert lagrangian_mass(ZERO, V_Z) == pytest.approx(1.0)
    assert lagrangian_mass(ZERO, V_X) == pytest.approx(0.5)
    assert lagrangian_mass(H_STATE, V_X) == pytest.approx(0.75)
    with pytest.raises(ValidationError):
        lagrangian_mass(ZERO, span_and_classify([WeylLabel(0, 1)]))  # not Lagrangian


def test_argmax_character_examples():
    # |0> and |1> share the group +-Z and differ in the character (the sign).
    zero = stabilizer_fidelity_exact(ZERO)
    assert zero.f_s == pytest.approx(1.0)
    assert zero.argmax_lagrangian == V_Z and zero.argmax_character == 0
    one = stabilizer_fidelity_exact(ONE)
    assert one.f_s == pytest.approx(1.0)
    assert one.argmax_lagrangian == V_Z and one.argmax_character == 1
    # <X> = <Y> on the T state; the tie goes to the lexicographically first group.
    h = stabilizer_fidelity_exact(H_STATE)
    assert h.f_s == pytest.approx((1 + 1 / np.sqrt(2)) / 2)
    assert h.argmax_lagrangian == V_X and h.argmax_character == 0


def test_argmax_character_matches_a_fresh_transform_of_the_best_row():
    # The character is kept from the batched pass; one row transformed alone must agree.
    subspaces_by_n = {
        n: (list(enumerate_lagrangians(n)), _lagrangian_table(n)[1], sign_table(_lagrangian_table(n)[2], n))
        for n in (1, 2, 3, 4)
    }
    rng = np.random.default_rng(31)
    for idx in range(60):
        n = 1 + idx % 4
        kind = ("haar", "noisy_stabilizer", "stabilizer")[idx % 3]
        psi = generate_state(kind, n, noise=0.2, rng=rng)
        report = stabilizer_fidelity_exact(psi)
        subspaces, elements, signs = subspaces_by_n[n]
        best = subspaces.index(report.argmax_lagrangian)
        fresh = fwht(signs[best] * psi.expectations[elements[best]]) / (1 << n)
        assert report.argmax_character == int(np.argmax(fresh))
        assert report.f_s == fresh.max()


def test_fidelity_examples():
    assert stabilizer_fidelity_exact(H_STATE).f_s == pytest.approx((2 + np.sqrt(2)) / 4)
    assert stabilizer_fidelity_exact(BELL).f_s == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5):
        stab = generate_state("stabilizer", n, rng=rng)
        assert stabilizer_fidelity_exact(stab).f_s == pytest.approx(1.0, abs=1e-10)
    for n in range(1, 6):  # F_S(T^(tensor n)) = cos^2(pi/8)^n
        t_fidelity = stabilizer_fidelity_exact(generate_state("t_tensor", n)).f_s
        assert t_fidelity == pytest.approx(np.cos(np.pi / 8) ** (2 * n), abs=1e-12)


def test_bell_state_argmax_group():
    # The winning Lagrangian must be the span of XX and ZZ.
    report = stabilizer_fidelity_exact(BELL)
    expected = span_and_classify(
        [WeylLabel.from_halves(0b11, 0, 2), WeylLabel.from_halves(0, 0b11, 2)]
    )
    assert report.argmax_lagrangian == expected


def test_fidelity_report_dominates_masses_and_characters():
    rng = np.random.default_rng(1)
    for n in (1, 2):
        psi = generate_state("haar", n, rng=rng)
        report = stabilizer_fidelity_exact(psi)
        assert report.f_s >= (1 << n) ** -1 - 1e-12
        table = weyl_expectation_table(psi)
        p = char_distribution(psi).values
        _, elements, sign_bits = _lagrangian_table(n)
        signs = sign_table(sign_bits, n)
        for row, V in enumerate(enumerate_lagrangians(n)):
            fids = fwht(signs[row] * table[elements[row]]) / (1 << n)
            mass = lagrangian_mass(psi, V)
            assert report.f_s >= mass - 1e-10
            assert report.f_s >= fids.max() - 1e-10
            # The table row and V's own element list name the same members.
            assert p[elements[row]].sum() == pytest.approx(mass, abs=1e-12)


def test_character_fidelities_are_probabilities_and_parseval():
    rng = np.random.default_rng(2)
    psi = generate_state("haar", 2, rng=rng)
    table = weyl_expectation_table(psi)
    _, elements, sign_bits = _lagrangian_table(2)
    signs = sign_table(sign_bits, 2)
    for row, V in enumerate(enumerate_lagrangians(2)):
        fids = fwht(signs[row] * table[elements[row]]) / 4
        assert fids.min() >= -1e-10 and fids.max() <= 1.0 + 1e-10
        assert float((fids**2).sum()) == pytest.approx(twirl_purity(psi, V), abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_table_matches_per_lagrangian_loop(n):
    # Reference: multiply the generators one at a time with weyl_product_phase.
    # The signs are packed, one uint32 per row: bit c set where sign[c] = -1.
    bases, elements, sign_bits = _lagrangian_table(n)
    subspaces = list(enumerate_lagrangians(n))
    assert bases.tolist() == [list(V.basis) for V in subspaces]
    assert elements.shape == (len(subspaces), 1 << n)
    assert sign_bits.shape == (len(subspaces),) and sign_bits.dtype == np.uint32
    assert not np.any(sign_bits >> np.uint32(1 << n))  # no bit past column 2^n - 1
    for row, V in enumerate(subspaces):
        for c in range(1 << n):
            prod, t = WeylLabel(0, n), 0
            for i, gen in enumerate(V.basis):
                if c >> i & 1:
                    prod, step = weyl_product_phase(WeylLabel(gen, n), prod)
                    t = (t + step) % 4
            assert t in (0, 2)
            assert elements[row, c] == prod.bits
            assert (int(sign_bits[row]) >> c & 1) == (t == 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_elements_and_signs_on_isotropic_bases_of_every_dimension(n):
    # Any k <= n commuting generators, not only Lagrangian ones: column c of a row is
    # the dense product of the generators on c's set bits, sign[c] W_(elements[c]).
    rng = np.random.default_rng(40 + n)
    for k in range(n + 1):
        bases = np.array([random_isotropic_basis(rng, n, k) for _ in range(3)],
                         dtype=np.int64).reshape(3, k)
        elements, negative = _elements_and_signs(bases, n)
        assert elements.shape == negative.shape == (3, 1 << k) and negative.dtype == bool
        for row, members, signs in zip(bases, elements, negative):
            gens = [weyl_matrix(WeylLabel(int(b), n)) for b in row]
            for c in range(1 << k):
                product = np.eye(1 << n, dtype=complex)
                for i in range(k):
                    if c >> i & 1:
                        product = product @ gens[i]
                expected = weyl_matrix(WeylLabel(int(members[c]), n)) * (-1 if signs[c] else 1)
                assert np.array_equal(product, expected)


def test_twirl_purity_examples():
    assert twirl_purity(ZERO, V_Z) == pytest.approx(1.0)
    assert twirl_purity(H_STATE, V_X) == pytest.approx(0.75)
    assert twirl_purity(H_STATE, V_Z) == pytest.approx(0.5)


def test_twirl_matches_mass_on_random_states():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        psi = generate_state("haar", n, rng=rng)
        for V in enumerate_lagrangians(n):
            assert twirl_purity(psi, V) == pytest.approx(
                lagrangian_mass(psi, V), abs=1e-9
            )


def test_oracle_cap():
    with pytest.raises(CapExceededError):
        stabilizer_fidelity_exact(generate_state("haar", 6, seed=4))


def _magic_qubit(rng) -> np.ndarray:
    """(|0> + e^(i pi (2k+1)/4) |1>)/sqrt 2 for a random k: a T state up to a Clifford."""
    return np.array([1.0, np.exp(1j * np.pi * (2 * int(rng.integers(4)) + 1) / 4)]) / np.sqrt(2.0)


def _haar_qubit(rng) -> np.ndarray:
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    return amps / np.linalg.norm(amps)


def _oracle_states(n: int, count: int, rng):
    """``count`` states cycling through six kinds, noisy stabilizers at five noise levels."""
    noise_levels = (0.01, 0.05, 0.2, 0.5, 0.9)
    yield generate_state("t_tensor", n)
    for idx in range(1, count):
        kind = idx % 6
        if kind == 0:
            yield generate_state("haar", n, rng=rng)
        elif kind == 1:
            yield generate_state("stabilizer", n, rng=rng)
        elif kind == 2:
            noise = noise_levels[idx // 6 % len(noise_levels)]
            yield generate_state("noisy_stabilizer", n, noise=noise, rng=rng)
        elif kind == 3:
            yield product_state([_magic_qubit(rng) for _ in range(n)])
        elif kind == 4:
            yield product_state([_haar_qubit(rng) for _ in range(n)])
        else:
            yield graph_state(n, rng)


def _assert_same_report(got, want):
    assert got.f_s.hex() == want.f_s.hex()
    assert got.argmax_lagrangian == want.argmax_lagrangian
    assert got.argmax_character == want.argmax_character


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pruned_oracle_matches_the_full_pass_bit_for_bit(n):
    # 102 states per n: Haar, stabilizer, noisy stabilizer, T-type products
    # (T^n first), Haar products and graph states.
    rng = np.random.default_rng(4100 + n)
    for psi in _oracle_states(n, 102, rng):
        _assert_same_report(stabilizer_fidelity_exact(psi), reference_fidelity_exact(psi))


def _ghz(n: int) -> PureState:
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return PureState(amps, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pruned_oracle_keeps_every_tied_row(n):
    # |0...0> and GHZ put sqrt(mass) and F at the same float on their winning
    # row (1 and 1 + 2^-52), so a slack of the wrong sign drops that row.  T^n
    # ties its X/Y rows bit for bit (4 rows at n = 2, 15 at n = 4); the first
    # must win.
    zero = np.zeros(1 << n, dtype=complex)
    zero[0] = 1.0
    states = {"zero": PureState(zero, n), "t": generate_state("t_tensor", n), "ghz": _ghz(n)}
    if n == 2:
        states["bell"] = BELL
    bases, elements, sign_bits = _lagrangian_table(n)
    for name, psi in states.items():
        report = stabilizer_fidelity_exact(psi)
        _assert_same_report(report, reference_fidelity_exact(psi))
        per_row = oracle._character_fidelities(psi.expectations, elements, sign_bits, n)[0]
        ties = np.flatnonzero(per_row == per_row.max())
        assert list(report.argmax_lagrangian.basis) == bases[ties[0]].tolist()
        if name == "t" and n in (2, 4):
            assert len(ties) == {2: 4, 4: 15}[n]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pruned_oracle_transforms_exactly_the_rows_the_bound_keeps(n, monkeypatch):
    # After the incumbent pass over the heaviest rows, the oracle transforms
    # the rows with sqrt(mass) >= incumbent - slack and no others.
    calls = []
    fidelities = oracle._character_fidelities

    def counting(expect, elements, sign_bits, n):
        calls.append(len(elements))
        return fidelities(expect, elements, sign_bits, n)

    monkeypatch.setattr(oracle, "_character_fidelities", counting)
    _, elements, sign_bits = _lagrangian_table(n)
    rng = np.random.default_rng(4200 + n)
    for _ in range(8):
        psi = generate_state("haar", n, rng=rng)
        masses = char_distribution(psi).values[elements].sum(axis=1)
        per_row = fidelities(psi.expectations, elements, sign_bits, n)[0]
        heavy = np.argsort(masses, kind="stable")[-_INCUMBENT_ROWS:]
        kept = int(np.sum(np.sqrt(masses) >= per_row[heavy].max() - _slack(n)))
        calls.clear()
        stabilizer_fidelity_exact(psi)
        assert calls[0] == min(_INCUMBENT_ROWS, len(elements))
        assert sum(calls[1:]) == kept
        assert kept < len(elements) // 10


def test_lagrangian_table_byte_budget():
    # Signs are packed, one uint32 per row; float signs would add 18.5 MiB at n = 5.
    assert sum(part.nbytes for part in _lagrangian_table(5)) <= 22 * 2**20
