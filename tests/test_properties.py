"""Property tests of the core invariants (hypothesis, derandomized and bounded)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.gf2 import WeylLabel, _reduce_rows, symplectic_form
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
