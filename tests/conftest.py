"""Shared test helpers: naive quadratic oracles and random structures.

The naive routines here are deliberately independent of the package's
fast-transform implementations; they exist to cross-check them.
"""

from __future__ import annotations

import os

# Every matrix the suite builds is at most 256 x 256, where a second OpenBLAS
# thread only adds spin-wait; it must be set before numpy is first imported.
# An explicit setting still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import stabkit.gf2 as gf2  # noqa: E402
from stabkit.gf2 import GF2Subspace, WeylLabel  # noqa: E402
from stabkit.oracle import FidelityReport, _lagrangian_table  # noqa: E402
from stabkit.state import BLOCK, PureState, fwht, weyl_matrices  # noqa: E402
from stabkit.uncertainty import _fixed_point_round  # noqa: E402


def pytest_configure(config):
    # A silent complex-to-real cast fails the suite. The filter is added here,
    # not in pyproject.toml: pytest resolves an ini filter's category before it
    # loads this file, which would import numpy ahead of the thread setting above.
    config.addinivalue_line("filterwarnings", "error::numpy.exceptions.ComplexWarning")


def reference_fwht(values: np.ndarray) -> np.ndarray:
    """Reference Walsh-Hadamard butterfly, allocating fresh arrays per level.

    Each level builds new top (a + b) and bottom (a - b) halves and stacks
    them, with levels in the order h = 1, 2, 4, ...; ``state.fwht`` must
    match it bit for bit.
    """
    a = np.array(values, copy=True)
    size = a.shape[-1]
    h = 1
    while h < size:
        a = a.reshape(a.shape[:-1] + (size // (2 * h), 2, h))
        top = a[..., 0, :] + a[..., 1, :]
        bot = a[..., 0, :] - a[..., 1, :]
        a = np.stack((top, bot), axis=-2).reshape(a.shape[:-3] + (size,))
        h *= 2
    return a


def assert_bit_identical(got: np.ndarray, want: np.ndarray) -> None:
    """Equal dtype, shape and values, with the signs of zeros equal too."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def reference_expectation_table(state: PureState) -> np.ndarray:
    """All 4^n expectations <psi|W_x|psi>, with every index table built per call.

    The gather index x1 ^ z (int64), the product, the transform and the
    complex multiply by i^(x1.x2) run in the order ``state.weyl_expectation_table``
    uses, which must match this bit for bit, zero signs included.
    """
    z = np.arange(state.dim)
    xored = z[:, None] ^ z[None, :]  # [x1, z]
    g = np.conj(state.amplitudes)[xored] * state.amplitudes[None, :]
    table = reference_fwht(g)  # [x1, x2]
    phases = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])[
        np.bitwise_count(z[:, None] & z[None, :]) & 3
    ]
    np.multiply(phases, table, out=table)
    return np.ascontiguousarray(table.real.T.reshape(-1))  # index = x1 | x2<<n


def reference_dyadic_self_convolution(values: np.ndarray) -> np.ndarray:
    """(f * f) through ``reference_fwht``: transform, square, transform back, divide.

    The steps and their order are ``state.dyadic_self_convolution``'s, which
    must match this bit for bit, zero signs included; ``values`` is cast to
    float64 first, as a bool set is.
    """
    values = np.asarray(values, dtype=np.float64)
    spectrum = reference_fwht(values)
    spectrum = spectrum * spectrum
    out = reference_fwht(spectrum)
    return out / values.size


def reference_clifford_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """The amplitudes of ``state._random_clifford_state``, gate by gate on fresh arrays.

    Same draws in the same order: a gate kind, then its qubit, or two
    distinct qubits for a CNOT.  H copies both halves before it writes, and
    CNOT builds its gather index at every gate; the package must match this
    bit for bit and leave the generator at the same point.
    """
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    for _ in range(20 * n * n):
        kind = rng.integers(3 if n > 1 else 2)
        if kind == 0:
            view = amps.reshape(-1, 2, 1 << int(rng.integers(n)))
            a, b = view[:, 0, :].copy(), view[:, 1, :].copy()
            view[:, 0, :] = (a + b) * (1.0 / np.sqrt(2.0))
            view[:, 1, :] = (a - b) * (1.0 / np.sqrt(2.0))
        elif kind == 1:
            amps.reshape(-1, 2, 1 << int(rng.integers(n)))[:, 1, :] *= 1j
        else:
            control, target = rng.choice(n, size=2, replace=False)
            idx = np.arange(amps.size)
            amps = amps[idx ^ (((idx >> int(control)) & 1) << int(target))]
    return amps


def graph_state(n: int, rng: np.random.Generator) -> PureState:
    """The graph state of a random graph: amplitude (-1)^(sum over edges x_i x_j) / 2^(n/2)."""
    adjacency = np.triu(rng.integers(2, size=(n, n)), 1)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    signs = 1 - 2 * (np.einsum("zi,ij,zj->z", bits, adjacency, bits) & 1)
    return PureState(signs / np.sqrt(1 << n), n)


def naive_dyadic_convolution(values: np.ndarray) -> np.ndarray:
    """(f * f)(x) = sum_y f(y) f(x^y) by direct summation, O(N^2).

    Split x = (h, l) and y = (r, b) into high and low bits over the
    reshape V[r, b] = f(y); then (f * f)(h, l) = sum_b M_h[b ^ l, b] with
    M_h = V[r ^ h]^T V, one matrix product per high part h.
    """
    values = np.asarray(values, dtype=np.float64)
    size = values.size
    low = 1 << ((size.bit_length() - 1) // 2)
    V = values.reshape(size // low, low)
    rows, b = np.arange(size // low), np.arange(low)
    pick = b[None, :] ^ b[:, None]  # pick[l, b] = b ^ l
    out = np.empty_like(V)
    for h in rows:
        out[h] = (V[rows ^ h].T @ V)[pick, b].sum(axis=1)
    return out.reshape(-1)


def gf2_rank(rows: list[int]) -> int:
    """Rank of bit-packed rows over F2."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def random_subspace(rng: np.random.Generator, n: int, dim: int) -> GF2Subspace:
    return gf2.random_subspace(n, dim, rng)


def random_isotropic_basis(rng: np.random.Generator, n: int, k: int) -> list[int]:
    """k independent, pairwise-commuting packed labels (k <= n), unreduced, drawn one at a time."""
    basis: list[int] = []
    while len(basis) < k:
        cand = int(rng.integers(1, 1 << (2 * n)))
        if gf2_rank(basis + [cand]) > len(basis) and not any(
            gf2._form_bits(cand, b, n) for b in basis
        ):
            basis.append(cand)
    return basis


def bfs_lagrangians(n: int) -> tuple[GF2Subspace, ...]:
    """Every Lagrangian of F2^(2n), grown breadth-first from {0} and deduplicated.

    Independent of the direct (A, S) enumeration in the package: at each
    level every isotropic basis is extended by every commuting vector
    outside its span, and the canonical bases are collected in a set.
    """
    level: set[tuple[int, ...]] = {()}
    for _ in range(n):
        nxt: set[tuple[int, ...]] = set()
        for basis in level:
            for cand in range(1, 1 << (2 * n)):
                if gf2._reduce(cand, basis) == 0:
                    continue
                if any(gf2._form_bits(cand, b, n) for b in basis):
                    continue
                nxt.add(gf2._reduce_rows(basis + (cand,)))
        level = nxt
    return tuple(GF2Subspace(b, n) for b in sorted(level))


def sign_table(sign_bits: np.ndarray, n: int) -> np.ndarray:
    """The base signs +-1.0 of each row, from its packed bits (bit c set where sign[c] = -1)."""
    return np.where((sign_bits[:, None] >> np.arange(1 << n)) & 1, -1.0, 1.0)


def reference_fidelity_exact(state: PureState) -> FidelityReport:
    """The exact oracle as a full pass: every Lagrangian transformed, the first maximum kept.

    Each row's 2^n character fidelities are one transform of its float signs
    times its members' expectations, over 2^n, in blocks of BLOCK entries.
    ``oracle.stabilizer_fidelity_exact`` transforms only the rows its mass
    bound keeps and must match this bit for bit.
    """
    n, expect = state.n, state.expectations
    bases, elements, sign_bits = _lagrangian_table(n)
    per_row = np.empty(len(bases))
    characters = np.empty(len(bases), dtype=np.intp)
    step = BLOCK >> n
    for lo in range(0, len(bases), step):
        rows = slice(lo, lo + step)
        fidelities = fwht(sign_table(sign_bits[rows], n) * expect[elements[rows]]) / (1 << n)
        characters[rows] = fidelities.argmax(axis=1)
        per_row[rows] = fidelities[np.arange(len(fidelities)), characters[rows]]
    best = int(np.argmax(per_row))
    return FidelityReport(
        f_s=float(per_row[best]),
        argmax_lagrangian=GF2Subspace(bases[best].tolist(), n),
        argmax_character=int(characters[best]),
    )


def product_state(qubits: list[np.ndarray]) -> PureState:
    """The tensor product of single-qubit amplitude pairs, in np.kron order."""
    amps = np.array([1.0], dtype=np.complex128)
    for q in qubits:
        amps = np.kron(amps, q)
    return PureState(amps, len(qubits))


def fixed_point_round(labels: list[WeylLabel], a: np.ndarray):
    """One psi0 ascent round at the rows of a: (mu^2, gap |g|^2 - mu^2, next point)."""
    mats = weyl_matrices(labels)
    flat = mats.reshape(len(mats), -1).view(np.float64)
    flat_conj = np.conj(mats).reshape(len(mats), -1).view(np.float64)
    return _fixed_point_round(flat, flat_conj, mats.shape[1], np.atleast_2d(a))
