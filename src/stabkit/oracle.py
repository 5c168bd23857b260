"""Ground-truth stabilizer fidelity by exhaustive Lagrangian maximization.

Every stabilizer state is the joint +1 eigenstate of a signed Lagrangian
group: pick a Lagrangian V and one of 2^n valid sign patterns.  The sign
patterns are the characters of V relative to a base pattern coming from
ordered products of the reduced-basis generators (the all-plus pattern is
not always a group: e.g. the span of XX and ZZ contains -YY).  The best
fidelity over one V is then a single Walsh-Hadamard transform of signed
expectations (``_character_fidelities``), and the oracle maximizes over all
Lagrangians (n <= ORACLE_QUBIT_CAP).  It reads them as rows of
``gf2._lagrangian_bases`` and builds a ``GF2Subspace`` only for the winning row.

Pruning.  The 2^n fidelities F_c of one V sum to 1, and by Parseval their
squares sum to mass(V) = sum_{x in V} p(x).  So mass(V) <= max_c F_c <=
sqrt(mass(V)), and a mass costs one gather of p, with no signs and no
transform.  The oracle computes every mass, takes as incumbent the best
exact F over the ``_INCUMBENT_ROWS`` heaviest rows, and transforms only the
rows with sqrt(mass) >= incumbent - slack.  Over 100 Haar states per n, at
most 14, 35 and 48 rows were kept at n = 3, 4 and 5 (medians 1, 2 and 8);
a stabilizer state keeps one row and T^n keeps 2^n.

Slack.  Let e be the computed expectations, N = 2^n, u = eps/2 the unit
roundoff and gamma_k = k u / (1 - k u), and let F' and mass' be the exact
values on e, so max F' <= sqrt(mass') holds exactly (Parseval alone).  A
computed F is an n-level butterfly sum, off by at most gamma_n sum_x |e_x| / N
<= gamma_n sqrt(mass') (Cauchy-Schwarz).  A computed mass sums N rounded
squares of e over N and a computed sqrt rounds once, so
sqrt(mass) >= (1 - gamma_(N+1)) sqrt(mass').  A row whose computed F reaches
the incumbent therefore has sqrt(mass) >= incumbent - (gamma_n +
gamma_(N+1)) sqrt(mass'), and sqrt(mass') <= 1 + 1e-10 because the state's
p is validated to at most 2^-n + 1e-12 per entry.  ``_slack`` returns
(N + n + 2) eps, over twice that bound: no row that reaches the incumbent is
dropped.

Ties.  The surviving rows keep their sorted basis order and every row whose
computed F equals the maximum survives, so the first maximum among them is
the first in sorted basis order, as in a pass over every row.  Each row's
transform depends on that row alone, so its bits do not depend on which
rows share its pass: f_s, the argmax Lagrangian and the argmax character
keep their bytes.

Worst case.  No bound stops every row from surviving; the call then costs
the mass pass, the incumbent pass and a pass over every row, about 0.85 ms
at n = 4 and 55 ms at n = 5 against 0.5 and 32 ms for the full pass alone
(2-vCPU x86-64, numpy 2.4).  A search for such states, a finite-difference
ascent on a smoothed count of kept rows from Haar starts, reached 1,228 of
2,295 rows at n = 4 (0.5 ms a call, as the full pass) and 16,884 of 75,735
at n = 5 (19 ms).
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
# The incumbent is the best exact F over this many heaviest rows.
_INCUMBENT_ROWS = 64


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

    ``bases`` holds k <= n commuting generators per row, isotropic or
    Lagrangian.  Entry c of a row is the product of W_(b_i) over the set
    bits i of c, which equals sign[c] * W_(elements[c]); the generators
    commute, so the products are Hermitian and every sign is +-1.  Columns
    double one generator at a time: appending b_j maps (e, t) to
    (e ^ b_j, t + phase(b_j, e)).  The signs come back as a bool array of
    the elements' shape, True where sign[c] = -1.
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
    return elements, phase_exp == 2


@lru_cache(maxsize=8)
def _lagrangian_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every Lagrangian's canonical basis, stacked elements and base sign bits, one row each.

    Rows are ``gf2._lagrangian_bases(n)``, sorted by basis, so argmax
    tie-breaks are lexicographic; all rows' elements and signs come from one
    vectorized doubling pass.  The signs are packed, one uint32 per row (bit c
    set where sign[c] = -1), and expanded only for the rows that get
    transformed: at n = 5 the table holds 21.7 MiB (bases 2.9, elements 18.5).
    """
    bases = _lagrangian_bases(n)
    elements, negative = _elements_and_signs(bases, n)
    bits = negative.astype(np.uint32) << np.arange(1 << n, dtype=np.uint32)
    return bases, elements, np.bitwise_or.reduce(bits, axis=1)


def _character_fidelities(
    expect: np.ndarray, elements: np.ndarray, sign_bits: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best fidelity max_c F_c and its first argmax character c.

    A row is one commuting group: its members ``elements`` and its base
    signs ``sign_bits`` (bit c set where sign[c] = -1), as
    ``_lagrangian_table`` packs them.  The 2^n character fidelities are
    one Walsh-Hadamard transform of the signed expectations, over 2^n.
    """
    signed = expect[elements]
    negative = (sign_bits[:, None] >> np.arange(1 << n, dtype=np.uint32)) & 1
    np.negative(signed, out=signed, where=negative.astype(bool))
    fidelities = fwht(signed) / (1 << n)
    characters = fidelities.argmax(axis=1)
    return fidelities[np.arange(len(characters)), characters], characters


def _slack(n: int) -> float:
    """Margin on sqrt(mass) >= incumbent that covers the rounding of mass and F (module doc)."""
    return ((1 << n) + n + 2) * np.finfo(np.float64).eps


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
    """Exhaustive max |<psi|S>|^2 over all stabilizer states (n <= ORACLE_QUBIT_CAP).

    Only the rows whose sqrt(mass) reaches the incumbent get transformed;
    the module docstring gives the bound, the slack and the tie rule.
    """
    if state.n > ORACLE_QUBIT_CAP:
        raise CapExceededError(
            f"exhaustive oracle capped at n={ORACLE_QUBIT_CAP}, got {state.n}"
        )
    n, expect = state.n, state.expectations
    bases, elements, sign_bits = _lagrangian_table(n)
    masses = char_distribution(state).values.take(elements) @ np.ones(1 << n)
    heavy = np.argpartition(masses, -min(_INCUMBENT_ROWS, len(masses)))[-_INCUMBENT_ROWS:]
    incumbent = _character_fidelities(expect, elements[heavy], sign_bits[heavy], n)[0].max()
    rows = np.flatnonzero(np.sqrt(masses) >= incumbent - _slack(n))  # sorted basis order
    per_row = np.empty(len(rows))
    characters = np.empty(len(rows), dtype=np.intp)  # each row's first argmax
    step = BLOCK >> n  # rows per pass: a pass's tables hold BLOCK entries
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step]
        per_row[lo : lo + step], characters[lo : lo + step] = _character_fidelities(
            expect, elements[block], sign_bits[block], n
        )
    best = int(np.argmax(per_row))  # first max = lexicographically smallest
    return FidelityReport(
        f_s=float(per_row[best]),
        argmax_lagrangian=GF2Subspace(bases[rows[best]].tolist(), n),
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
