"""Statevector engine: Weyl action, distributions, gamma, state generation."""

from __future__ import annotations

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import (
    assert_bit_identical,
    graph_state,
    naive_dyadic_convolution,
    reference_dyadic_self_convolution,
    reference_clifford_state,
    reference_expectation_table,
    reference_fwht,
)
from stabkit import state as state_module
from stabkit.additive import GF2Set, representation_counts
from stabkit.errors import CapExceededError, ValidationError
from stabkit.gf2 import WeylLabel
from stabkit.oracle import stabilizer_fidelity_exact
from stabkit.state import (
    BLOCK,
    TABLE_QUBIT_CAP,
    DyadicTable,
    PureState,
    apply_weyl,
    char_distribution,
    dyadic_self_convolution,
    fwht,
    gamma_exact,
    generate_state,
    pad_with_zeros,
    state_from_json_dict,
    state_to_json_dict,
    uniform_blocks,
    weyl_distribution,
    weyl_expectation,
    weyl_expectation_table,
    weyl_matrices,
    weyl_matrix,
)

ZERO = PureState(np.array([1, 0], dtype=complex), 1)
X1 = WeylLabel.from_halves(1, 0, 1)
Z1 = WeylLabel.from_halves(0, 1, 1)
Y1 = WeylLabel.from_halves(1, 1, 1)
H_STATE = generate_state("t_tensor", 1)


def test_apply_weyl_examples():
    flipped = apply_weyl(ZERO, X1)
    np.testing.assert_allclose(flipped.amplitudes, [0, 1])
    y_applied = apply_weyl(ZERO, Y1)
    np.testing.assert_allclose(y_applied.amplitudes, [0, 1j])  # i XZ = Y
    same = apply_weyl(H_STATE, WeylLabel(0, 1))
    np.testing.assert_array_equal(same.amplitudes, H_STATE.amplitudes)


def test_apply_weyl_involution_exact():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        psi = generate_state("haar", n, rng=rng)
        lab = WeylLabel(int(rng.integers(1 << (2 * n))), n)
        twice = apply_weyl(apply_weyl(psi, lab), lab)
        assert np.max(np.abs(twice.amplitudes - psi.amplitudes)) <= 1e-12


def test_weyl_expectation_examples():
    assert weyl_expectation(ZERO, Z1) == 1.0
    assert weyl_expectation(ZERO, X1) == 0.0
    # Independent 2x2 matrix evaluation for <X> on the T-type magic state.
    x_dense = np.array([[0, 1], [1, 0]], dtype=complex)
    direct = np.vdot(H_STATE.amplitudes, x_dense @ H_STATE.amplitudes).real
    assert np.isclose(weyl_expectation(H_STATE, X1), direct)
    assert np.isclose(direct, 1 / np.sqrt(2))


def test_weyl_matrix_matches_apply():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        psi = generate_state("haar", n, rng=rng)
        lab = WeylLabel(int(rng.integers(1 << (2 * n))), n)
        via_matrix = weyl_matrix(lab) @ psi.amplitudes
        np.testing.assert_allclose(
            via_matrix, apply_weyl(psi, lab).amplitudes, atol=1e-14
        )
    # A stack holds each label's matrix in the order given, and labels share one n.
    psi = generate_state("haar", 2, rng=rng)
    labels = [WeylLabel(int(b), 2) for b in rng.permutation(16)]
    for lab, mat in zip(labels, weyl_matrices(labels)):
        np.testing.assert_allclose(mat @ psi.amplitudes, apply_weyl(psi, lab).amplitudes,
                                   atol=1e-14)
    with pytest.raises(ValidationError):
        weyl_matrices([X1, WeylLabel(1, 2)])


def test_expectation_table_matches_pointwise():
    rng = np.random.default_rng(2)
    psi = generate_state("haar", 3, rng=rng)
    table = weyl_expectation_table(psi)
    for bits in range(64):
        assert np.isclose(table[bits], weyl_expectation(psi, WeylLabel(bits, 3)), atol=1e-12)


def test_char_distribution_examples():
    # Index packing: 0=I, 1=X, 2=Z, 3=Y at n=1.
    np.testing.assert_allclose(char_distribution(ZERO).values, [0.5, 0, 0.5, 0], atol=1e-15)
    np.testing.assert_allclose(
        char_distribution(H_STATE).values, [0.5, 0.25, 0.0, 0.25], atol=1e-15
    )


def test_char_distribution_of_stabilizer_is_uniform_on_group():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        psi = generate_state("stabilizer", n, rng=rng)
        p = char_distribution(psi).values
        support = np.flatnonzero(p > 1e-9)
        np.testing.assert_allclose(p[support], 2.0**-n, atol=1e-12)
        assert support.size == 1 << n
        group = set(support.tolist())
        assert all((a ^ b) in group for a in group for b in group)


def test_weyl_distribution_examples_and_oracle():
    p0 = char_distribution(PureState(np.array([1, 0, 0, 0], dtype=complex), 2))
    np.testing.assert_allclose(weyl_distribution(p0).values, p0.values, atol=1e-14)

    q = weyl_distribution(char_distribution(H_STATE)).values
    np.testing.assert_allclose(q, [3 / 8, 1 / 4, 1 / 8, 1 / 4], atol=1e-15)

    rng = np.random.default_rng(4)
    for n in (1, 2):
        psi = generate_state("haar", n, rng=rng)
        p = char_distribution(psi)
        naive = naive_dyadic_convolution(p.values)
        assert np.max(np.abs(weyl_distribution(p).values - naive)) <= 1e-12
        assert np.isclose(weyl_distribution(p).values.sum(), 1.0, atol=1e-12)


def test_weyl_distribution_requires_char_kind():
    table = DyadicTable(np.full(4, 0.25), 1, "generic")
    with pytest.raises(ValidationError):
        weyl_distribution(table)


def test_gamma_examples():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        stab = generate_state("stabilizer", n, rng=rng)
        assert abs(gamma_exact(stab) - 1.0) <= 1e-9
    # Independent recomputation of gamma(|H>) from the exact tables.
    p = [0.5, 0.25, 0.0, 0.25]
    q = [sum(p[y] * p[x ^ y] for y in range(4)) for x in range(4)]
    expected = sum(q[x] * 2 * p[x] for x in range(4))
    assert np.isclose(expected, 5 / 8)
    assert np.isclose(gamma_exact(H_STATE), expected, atol=1e-12)
    assert np.isclose(gamma_exact(generate_state("t_tensor", 2)), (5 / 8) ** 2, atol=1e-12)


def test_gamma_multiplicative_over_tensor_products():
    rng = np.random.default_rng(6)
    for _ in range(5):
        a = generate_state("haar", 1, rng=rng)
        b = generate_state("haar", 1, rng=rng)
        joint = PureState(np.kron(a.amplitudes, b.amplitudes), 2)
        assert np.isclose(gamma_exact(joint), gamma_exact(a) * gamma_exact(b), atol=1e-12)


def test_prop13_chain():
    # E_p[2^n p] >= E_q[2^n p] >= (E_p[2^n p])^2 for 200 random states.
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(1, 6))
        psi = generate_state("haar", n, rng=rng)
        p = char_distribution(psi)
        q = weyl_distribution(p)
        mass = (1 << n) * p.values
        first = float(np.dot(p.values, mass))
        second = float(np.dot(q.values, mass))
        assert first >= second - 1e-10
        assert second >= first**2 - 1e-10
        assert p.values.max() <= 2.0**-n + 1e-12


def test_pad_with_zeros():
    padded = pad_with_zeros(ZERO, 1)
    np.testing.assert_array_equal(padded.amplitudes, [1, 0, 0, 0])
    assert np.isclose(gamma_exact(pad_with_zeros(H_STATE, 2)), 0.625, atol=1e-12)
    # Stabilizer fidelity is invariant under padding.
    before = stabilizer_fidelity_exact(H_STATE).f_s
    after = stabilizer_fidelity_exact(pad_with_zeros(H_STATE, 1)).f_s
    assert np.isclose(before, after, atol=1e-10)
    with pytest.raises(ValidationError):
        pad_with_zeros(ZERO, -1)
    with pytest.raises(CapExceededError):
        pad_with_zeros(ZERO, 12)


def test_generate_state_kinds():
    stab = generate_state("stabilizer", 2, seed=11)
    assert abs(gamma_exact(stab) - 1.0) <= 1e-9

    base = generate_state("noisy_stabilizer", 2, seed=12, noise=0.0)
    again = generate_state("stabilizer", 2, seed=12)
    np.testing.assert_array_equal(base.amplitudes, again.amplitudes)

    noisy = generate_state("noisy_stabilizer", 2, seed=13, noise=0.2)
    clean = generate_state("stabilizer", 2, seed=13)
    overlap = abs(np.vdot(clean.amplitudes, noisy.amplitudes)) ** 2
    assert np.isclose(overlap, 0.8, atol=1e-12)
    assert stabilizer_fidelity_exact(noisy).f_s >= 0.8 - 1e-10

    t2 = generate_state("t_tensor", 2)
    np.testing.assert_allclose(
        t2.amplitudes, np.kron(H_STATE.amplitudes, H_STATE.amplitudes), atol=1e-15
    )

    with pytest.raises(ValidationError):
        generate_state("bogus", 2, seed=1)
    with pytest.raises(ValidationError):
        generate_state("noisy_stabilizer", 2, seed=1, noise=1.5)


@pytest.mark.parametrize("n", range(1, 9))
def test_stabilizer_states_are_bit_identical_to_the_gate_by_gate_reference(n):
    # The stabilizer corpus, and so every golden that draws one, depends on
    # these bytes and on where the generator is left.
    for seed in range(6):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = state_module._random_clifford_state(n, rng).amplitudes
        assert got.tobytes() == reference_clifford_state(n, ref_rng).tobytes()
        assert rng.random() == ref_rng.random()


def test_purestate_validation():
    with pytest.raises(ValidationError):
        PureState(np.array([1, 1], dtype=complex), 1)  # unnormalized, not renormalized
    with pytest.raises(ValidationError):
        PureState(np.array([1, 0, 0], dtype=complex), 1)
    with pytest.raises(CapExceededError):
        PureState(np.zeros(1 << 13, dtype=complex), 13)
    with pytest.raises(CapExceededError):
        weyl_expectation_table(generate_state("haar", 9, seed=0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_purestate_rejects_non_finite(bad):
    # NaN compares False against the norm tolerance, so it needs its own check.
    with pytest.raises(ValidationError):
        PureState(np.array([bad, 0], dtype=complex), 1)


def test_dyadic_table_validation():
    with pytest.raises(ValidationError):
        DyadicTable(np.array([0.5, 0.5, 0.5, -0.5]), 1, "char_dist")
    with pytest.raises(ValidationError):
        DyadicTable(np.array([0.5, 0.5, 0.5, 0.5]), 1, "weyl_dist")
    with pytest.raises(ValidationError):
        DyadicTable(np.array([0.9, 0.1, 0.0, 0.0]), 1, "char_dist")  # entry > 2^-n
    DyadicTable(np.array([-5.0, 3.0, 0.0, 1.0]), 1, "generic")  # unconstrained


@pytest.mark.parametrize("kind", ["char_dist", "weyl_dist"])
def test_dyadic_table_rejects_nan(kind):
    # NaN fails neither "min < 0" nor "|sum - 1| > tol", so such a table was accepted.
    with pytest.raises(ValidationError):
        DyadicTable(np.array([0.5, np.nan, 0.25, 0.25]), 1, kind)


def test_fwht_self_inverse_and_parseval():
    rng = np.random.default_rng(8)
    vec = rng.normal(size=64)
    spectrum = fwht(vec)
    np.testing.assert_allclose(fwht(spectrum) / 64, vec, atol=1e-12)
    assert np.isclose(np.dot(spectrum, spectrum), 64 * np.dot(vec, vec))
    with pytest.raises(ValidationError):
        fwht(np.zeros(5))


def _with_signed_zeros(values, rng):
    """Random entries with +-0 and repeated values, so zero signs are exercised."""
    values = values.copy()
    flat = values.reshape(-1)
    picks = rng.integers(flat.size, size=flat.size // 4 + 1)
    flat[picks[0::3]] = 0.0
    flat[picks[1::3]] = -0.0
    flat[picks[2::3]] = flat[0]
    return values


def test_fwht_is_bit_identical_to_the_reference_butterfly():
    # Report bytes depend on fwht's exact rounding and zero signs.
    rng = np.random.default_rng(14)
    inputs = [_with_signed_zeros(rng.normal(size=1 << k), rng) for k in range(17)]
    for k in range(9):
        for rows in (1, 3, 16, 512, 2295):
            inputs.append(_with_signed_zeros(rng.normal(size=(rows, 1 << k)), rng))
        shape = (1 << k, 1 << k)
        inputs.append(_with_signed_zeros(rng.normal(size=shape) + 1j * rng.normal(size=shape), rng))
        inputs.append(_with_signed_zeros(rng.normal(size=(1 << k, 5)), rng).T)  # not C-contiguous
    psi = generate_state("haar", 4, seed=3)
    inputs += [psi.char_dist.values, psi.expectations, np.arange(64)]  # read-only and integer
    for values in inputs:
        before = values.copy()
        assert_bit_identical(fwht(values), reference_fwht(values))
        assert_bit_identical(values, before)


def _table_states(n):
    rng = np.random.default_rng(100 + n)
    yield generate_state("haar", n, rng=rng)
    yield generate_state("stabilizer", n, rng=rng)
    yield generate_state("t_tensor", n)
    yield graph_state(n, rng)


@pytest.mark.parametrize("n", range(1, 9))
def test_expectation_table_is_bit_identical_to_the_reference(n):
    # Report bytes depend on the table's rounding and zero signs; the
    # stabilizer and graph states give exact zeros and +-1 entries.
    for psi in _table_states(n):
        assert_bit_identical(weyl_expectation_table(psi), reference_expectation_table(psi))


def test_dyadic_self_convolution_is_bit_identical_to_the_reference():
    # Odd and even level counts, lengths past the cached scratch (2 * 4^8
    # entries), and a bool set, which is convolved without a float copy.
    rng = np.random.default_rng(15)
    inputs = [_with_signed_zeros(rng.normal(size=1 << k), rng) for k in range(19)]
    inputs += [rng.random(1 << k) < 0.3 for k in (1, 4, 7, 16)]
    for values in inputs:
        before = values.copy()
        assert_bit_identical(dyadic_self_convolution(values),
                             reference_dyadic_self_convolution(values))
        assert_bit_identical(values, before)


@pytest.mark.parametrize("n", range(1, 9))
def test_distributions_and_gamma_are_bit_identical_to_the_reference(n):
    # p is squared and divided in place, q clipped in place, and gamma's q and
    # 2^n p live in the scratch; each must match the formula on fresh arrays.
    for psi in _table_states(n):
        p = reference_expectation_table(psi) ** 2 / psi.dim
        q = np.maximum(reference_dyadic_self_convolution(p), 0.0)
        assert_bit_identical(char_distribution(psi).values, p)
        assert_bit_identical(weyl_distribution(char_distribution(psi)).values, q)
        assert repr(gamma_exact(psi)) == repr(float(np.dot(q, psi.dim * p)))


@pytest.mark.parametrize("n", [3, 8])
def test_results_share_no_memory_with_the_scratch_or_each_other(n):
    # The transforms and tables work in a cached per-thread scratch.  No result
    # may be that buffer, or an earlier call's result, and a later call at the
    # same n must leave an earlier result as it was.
    scratch = state_module._real_scratch(2 << (2 * TABLE_QUBIT_CAP))  # the whole buffer
    rng = np.random.default_rng(30 + n)
    results, copies = [], []
    for seed in (1, 2):
        psi = generate_state("haar", n, seed=seed)
        members = rng.random(1 << (2 * n)) < 0.3
        members[0] = True
        vector = rng.normal(size=1 << (2 * n))
        read_only = [psi.expectations, char_distribution(psi).values,
                     weyl_distribution(char_distribution(psi)).values,
                     representation_counts(GF2Set(members, n))["r"].values]
        assert not any(values.flags.writeable for values in read_only)
        gamma_exact(psi)
        batch = [fwht(vector), dyadic_self_convolution(vector), weyl_expectation_table(psi),
                 *read_only]
        results += batch
        copies += [values.copy() for values in batch]
    for i, values in enumerate(results):
        assert not np.shares_memory(values, scratch)
        assert not any(np.shares_memory(values, other) for other in results[i + 1 :])
        assert_bit_identical(values, copies[i])


def test_threads_each_get_their_own_scratch():
    # Four workers on two cores convolve at once; a scratch shared between
    # threads would mix their transforms.
    rng = np.random.default_rng(16)
    vectors = [rng.normal(size=1 << 14) for _ in range(8)]
    want = [reference_dyadic_self_convolution(v) for v in vectors]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(dyadic_self_convolution, vectors * 10, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for i, values in enumerate(got):
        assert_bit_identical(values, want[i % len(vectors)])


@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_uniform_blocks_join_to_one_draw(count):
    blocks = list(uniform_blocks(np.random.default_rng(3), count))
    assert all(0 < u.size <= BLOCK and u.size == b.stop - b.start for b, u in blocks)
    bounds = [0] + [b.stop for b, _ in blocks]
    assert [b.start for b, _ in blocks] == bounds[:-1] and bounds[-1] == count
    joined = np.concatenate([np.empty(0)] + [u for _, u in blocks])
    assert_bit_identical(joined, np.random.default_rng(3).random(count))


def test_expectation_table_peak_memory_at_n8():
    # One n = 8 call peaked at 4,198,304 bytes when it built int64 gather and
    # complex phase tables per call, and at 3,278,528 with the per-n uint8
    # tables cached (the transform's input, copy and scratch, 1 MiB each).
    # Built in row blocks in the cached scratch, it peaks at 661,368: the
    # 512 KiB output plus one block's index cast and |imag| (64 KiB each).
    # The bound is that peak plus 10%.
    psi = generate_state("haar", 8, seed=8)
    weyl_expectation_table(psi)  # fills the per-n cache
    tracemalloc.start()
    try:
        weyl_expectation_table(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.10 * 661_368


def test_state_json_roundtrip():
    psi = generate_state("haar", 2, seed=21)
    again = state_from_json_dict(state_to_json_dict(psi))
    np.testing.assert_array_equal(psi.amplitudes, again.amplitudes)
    with pytest.raises(ValidationError):
        state_from_json_dict({"n": 1, "re": [1, 0]})


@pytest.mark.parametrize("n", [1.5, 1.0, True, "1", None])
def test_state_json_needs_an_integer_n(n):
    # int(1.5) would silently run the state as n = 1.
    with pytest.raises(ValidationError, match="integer"):
        state_from_json_dict({"n": n, "re": [1, 0], "im": [0, 0]})
