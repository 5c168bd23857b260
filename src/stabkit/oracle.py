"""Ground-truth stabilizer fidelity by exhaustive Lagrangian maximization.

Every stabilizer state is the joint +1 eigenstate of a signed Lagrangian
group: pick a Lagrangian V and one of 2^n valid sign patterns.  The sign
patterns are the characters of V relative to a base pattern coming from
ordered products of the reduced-basis generators (the all-plus pattern is
not always a group: e.g. the span of XX and ZZ contains -YY).  The best
fidelity over one V is then a single Walsh-Hadamard transform of signed
expectations, and the oracle maximizes over all Lagrangians (n <= ORACLE_QUBIT_CAP).
It reads them as rows of ``gf2._lagrangian_bases`` and builds a ``GF2Subspace``
only for the winning row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, CertificateError, ValidationError
from .gf2 import LAGRANGIAN_QUBIT_CAP, GF2Subspace, WeylLabel, _lagrangian_bases
from .state import BLOCK, PureState, char_distribution, fwht, weyl_matrices

__all__ = [
    "ORACLE_QUBIT_CAP",
    "FidelityReport",
    "weyl_product_phase",
    "lagrangian_mass",
    "stabilizer_fidelity_exact",
    "twirl_purity",
]

ORACLE_QUBIT_CAP = LAGRANGIAN_QUBIT_CAP


def weyl_product_phase(x: WeylLabel, y: WeylLabel) -> tuple[WeylLabel, int]:
    """W_x W_y = i^t W_(x+y); returns (x+y, t mod 4)."""
    if x.n != y.n:
        raise ValidationError(f"qubit-count mismatch: {x.n} vs {y.n}")
    return x ^ y, int(_product_phase_bits(x.bits, y.bits, x.n))


def _product_phase_bits(x, y, n: int):
    """Phase exponent t of W_x W_y = i^t W_(x+y) on packed labels (ints or arrays)."""
    mask = (1 << n) - 1
    x1, x2, y1, y2 = x & mask, x >> n, y & mask, y >> n

    def count(v):
        return np.bitwise_count(v).astype(np.int64)

    return (
        count(x1 & x2) + count(y1 & y2) + 2 * count(x2 & y1) - count((x1 ^ y1) & (x2 ^ y2))
    ) % 4


def _require_lagrangian(V: GF2Subspace) -> None:
    if not V.is_lagrangian:
        raise ValidationError("subspace is not Lagrangian")


def _elements_and_signs(bases: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed members and base sign patterns of many commuting groups at once.

    ``bases`` holds one generator list per row.  Entry c of a row is the
    product of W_(b_i) over the set bits i of c, which equals
    sign[c] * W_(elements[c]); the generators commute, so the products are
    Hermitian and every sign is +-1.  Columns double one generator at a
    time: appending b_j maps (e, t) to (e ^ b_j, t + phase(b_j, e)).
    """
    elements = np.zeros((bases.shape[0], 1), dtype=np.int64)
    phase_exp = np.zeros_like(elements)
    for j in range(bases.shape[1]):
        gen = bases[:, j : j + 1]
        step = _product_phase_bits(gen, elements, n)
        elements = np.concatenate((elements, elements ^ gen), axis=1)
        phase_exp = np.concatenate((phase_exp, (phase_exp + step) % 4), axis=1)
    if np.any(phase_exp % 2):
        raise CertificateError("non-Hermitian product in a commuting group (engine bug)")
    signs = np.where(phase_exp == 0, 1.0, -1.0)
    return elements, signs


@lru_cache(maxsize=8)
def _lagrangian_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every Lagrangian's canonical basis, stacked elements and base signs, one row each.

    Rows are ``gf2._lagrangian_bases(n)``, sorted by basis, so argmax
    tie-breaks are lexicographic; all rows' elements and signs come from one
    vectorized doubling pass.
    """
    bases = _lagrangian_bases(n)
    elements, signs = _elements_and_signs(bases, n)
    return bases, elements, signs


@dataclass(frozen=True)
class FidelityReport:
    f_s: float
    argmax_lagrangian: GF2Subspace
    argmax_character: int  # n-bit character index relative to the base signs


def lagrangian_mass(state: PureState, V: GF2Subspace) -> float:
    """sum_{x in V} p(x), a lower bound on the stabilizer fidelity."""
    _require_lagrangian(V)
    if state.n != V.n:
        raise ValidationError(f"qubit-count mismatch: state n={state.n}, V n={V.n}")
    p = char_distribution(state)
    return float(p.values[np.fromiter(V.element_bits, dtype=np.int64)].sum())


def stabilizer_fidelity_exact(state: PureState) -> FidelityReport:
    """Exhaustive max |<psi|S>|^2 over all stabilizer states (n <= ORACLE_QUBIT_CAP)."""
    if state.n > ORACLE_QUBIT_CAP:
        raise CapExceededError(
            f"exhaustive oracle capped at n={ORACLE_QUBIT_CAP}, got {state.n}"
        )
    bases, elements, signs = _lagrangian_table(state.n)
    expect = state.expectations
    per_lagrangian = np.empty(len(bases))
    characters = np.empty(len(bases), dtype=np.intp)  # each row's first argmax
    step = BLOCK >> state.n  # Lagrangians per pass: a pass's tables hold BLOCK entries
    for lo in range(0, len(bases), step):
        rows = slice(lo, lo + step)
        fidelities = fwht(signs[rows] * expect[elements[rows]]) / (1 << state.n)
        characters[rows] = fidelities.argmax(axis=1)
        per_lagrangian[rows] = fidelities[np.arange(len(fidelities)), characters[rows]]
    best = int(np.argmax(per_lagrangian))  # first max = lexicographically smallest
    return FidelityReport(
        f_s=float(per_lagrangian[best]),
        argmax_lagrangian=GF2Subspace(bases[best].tolist(), state.n),
        argmax_character=int(characters[best]),
    )


def twirl_purity(state: PureState, V: GF2Subspace) -> float:
    """Purity of the V-twirled state, cross-checked densely against the p mass.

    Tr[(2^-n sum_{x in V} W_x psi W_x)^2] equals sum_{y in V} p(y); both
    routes are computed and must agree to 1e-9.
    """
    _require_lagrangian(V)
    if V.n > ORACLE_QUBIT_CAP:
        raise CapExceededError(f"dense twirl capped at n={ORACLE_QUBIT_CAP}")
    if state.n != V.n:
        raise ValidationError(f"qubit-count mismatch: state n={state.n}, V n={V.n}")
    psi = np.outer(state.amplitudes, np.conj(state.amplitudes))
    acc = np.zeros_like(psi)
    for w in weyl_matrices([WeylLabel(bits, V.n) for bits in V.element_bits]):
        acc += w @ psi @ w.conj().T
    acc /= 1 << V.n
    dense = float(np.trace(acc @ acc).real)
    mass = lagrangian_mass(state, V)
    if abs(dense - mass) > 1e-9:
        raise CertificateError(
            f"twirl identity failed: dense {dense!r} vs mass {mass!r} (engine bug)"
        )
    return mass
