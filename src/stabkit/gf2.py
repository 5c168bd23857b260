"""Bit-exact symplectic linear algebra over F2^(2n).

Weyl-operator labels are vectors x = (x1, x2) in F2^n x F2^n, packed into a
single int with x1 in the low n bits and x2 in the high n bits.  The
lexicographic (numeric) order on this packing fixes every "choose an
element" step, so all constructions here are deterministic.

Subspaces are canonical by construction: ``GF2Subspace`` takes any spanning
rows and stores their reduced basis (pivot = highest set bit, cleared from
every other row; rows strictly decreasing), so equal spans compare equal.
``_reduce`` is the one pivot-clearing step and ``_form_bits`` the one
symplectic form, on ints and int64 arrays alike.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import CapExceededError, ValidationError

__all__ = [
    "LAGRANGIAN_QUBIT_CAP",
    "RANDOM_QUBIT_CAP",
    "WeylLabel",
    "GF2Subspace",
    "SymplecticDecomposition",
    "symplectic_form",
    "label_batch_qubits",
    "span_and_classify",
    "symplectic_gram_schmidt",
    "extend_to_lagrangian",
    "isotropic_cover",
    "covers_exactly",
    "enumerate_lagrangians",
    "enumerate_subspaces",
    "random_subspace",
    "parse_label_bits",
    "format_label_bits",
    "parse_labels",
    "parse_subspace",
    "format_subspace",
]

# Largest n whose Lagrangians are enumerated (and so the exact oracle's cap).
LAGRANGIAN_QUBIT_CAP = 5
# Largest n whose labels fit in an int64 (2n bits): rng.integers draws them,
# and the label text is read and written as int64 arrays.
RANDOM_QUBIT_CAP = 31


@dataclass(frozen=True, order=True)
class WeylLabel:
    """A vector in F2^(2n) naming the Weyl operator W_x.

    ``bits`` packs x1 (low n bits) and x2 (high n bits); bit i of each half
    is qubit i.  The zero label names the identity.
    """

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"qubit count must be >= 1, got {self.n}")
        if not 0 <= self.bits < 1 << (2 * self.n):
            raise ValidationError(f"label 0x{self.bits:x} out of range for n={self.n}")

    @property
    def x1(self) -> int:
        return self.bits & ((1 << self.n) - 1)

    @property
    def x2(self) -> int:
        return self.bits >> self.n

    @classmethod
    def from_halves(cls, x1: int, x2: int, n: int) -> "WeylLabel":
        if not (0 <= x1 < 1 << n and 0 <= x2 < 1 << n):
            raise ValidationError(f"halves ({x1}, {x2}) out of range for n={n}")
        return cls(x1 | (x2 << n), n)

    @classmethod
    def from_string(cls, text: str) -> "WeylLabel":
        """Parse one line of label text (``parse_label_bits``)."""
        bits, n = parse_label_bits(text)
        if bits.size != 1:
            raise ValidationError(f"need one label, got {bits.size}: {text!r}")
        return cls(int(bits[0]), n)

    def to_string(self) -> str:
        return format_label_bits((self.bits,), self.n)[:-1]

    def __xor__(self, other: "WeylLabel") -> "WeylLabel":
        if self.n != other.n:
            raise ValidationError(f"qubit-count mismatch: {self.n} vs {other.n}")
        return WeylLabel(self.bits ^ other.bits, self.n)


def symplectic_form(x: WeylLabel, y: WeylLabel) -> int:
    """<x1,y2> + <x2,y1> mod 2; equals 1 iff W_x and W_y anticommute."""
    if x.n != y.n:
        raise ValidationError(f"qubit-count mismatch: {x.n} vs {y.n}")
    return _form_bits(x.bits, y.bits, x.n)


def label_batch_qubits(labels: list[WeylLabel]) -> int:
    """The one qubit count of a batch of labels, which must be non-empty."""
    counts = {lab.n for lab in labels}
    if len(counts) != 1:
        raise ValidationError(f"need labels on one qubit count, got counts {sorted(counts)}")
    return counts.pop()


def _form_bits(a, b, n: int):
    """<a1,b2> + <a2,b1> mod 2 of packed labels, for ints or int64 arrays of them."""
    mask = (1 << n) - 1
    v = ((a & mask) & (b >> n)) ^ ((a >> n) & (b & mask))
    return (v.bit_count() if isinstance(v, int) else np.bitwise_count(v)) & 1


def _reduce(vec, basis: Iterable[int]):
    """vec with each basis pivot cleared, for an int or an int64 array of them.

    On a reduced basis this is 0 on the span and, per coset, its smallest member.
    """
    for b in basis:
        vec = vec ^ ((vec >> (b.bit_length() - 1)) & 1) * b
    return vec


def _reduce_rows(rows: Iterable[int]) -> tuple[int, ...]:
    """Canonical reduced basis: pivots are highest set bits, rows descending."""
    basis: list[int] = []
    for row in rows:
        row = _reduce(row, basis)
        if row:  # clear the new pivot from the earlier rows
            basis = [_reduce(b, (row,)) for b in basis] + [row]
    return tuple(sorted(basis, reverse=True))


@dataclass(frozen=True, order=True)
class GF2Subspace:
    """A subspace of F2^(2n), spanned by the given rows and held as their canonical basis."""

    basis: tuple[int, ...]
    n: int

    def __post_init__(self):
        try:
            n = operator.index(self.n)
            rows = list(map(operator.index, self.basis))
        except TypeError:
            raise ValidationError("subspace rows and qubit count must be integers") from None
        if n < 1:
            raise ValidationError(f"qubit count must be >= 1, got {n}")
        if rows and not (0 <= min(rows) and max(rows) < 1 << (2 * n)):
            raise ValidationError(f"subspace rows out of [0, 4^n) for n={n}: {min(rows)}..{max(rows)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", _reduce_rows(rows))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return 1 << self.dim

    @cached_property
    def is_isotropic(self) -> bool:
        return all(
            _form_bits(a, b, self.n) == 0
            for a, b in itertools.combinations(self.basis, 2)
        )

    @cached_property
    def is_lagrangian(self) -> bool:
        return self.is_isotropic and self.dim == self.n

    @cached_property
    def decomposition(self) -> "SymplecticDecomposition":
        return symplectic_gram_schmidt(self)

    @property
    def k(self) -> int:
        return self.decomposition.k

    @property
    def m(self) -> int:
        return self.decomposition.m

    def labels(self) -> tuple[WeylLabel, ...]:
        return tuple(WeylLabel(b, self.n) for b in self.basis)

    @cached_property
    def element_bits(self) -> tuple[int, ...]:
        """All 2^dim packed members, in subset-combination order (element 0 first)."""
        elems = [0]
        for b in self.basis:
            elems += [e ^ b for e in elems]
        return tuple(elems)

    def contains(self, label: WeylLabel) -> bool:
        if label.n != self.n:
            raise ValidationError(f"qubit-count mismatch: {label.n} vs {self.n}")
        return _reduce(label.bits, self.basis) == 0


def span_and_classify(generators: list[WeylLabel]) -> GF2Subspace:
    """Span of the given labels as a canonical subspace.

    The isotropic/lagrangian flags and the (k, m) decomposition sizes are
    available as cached properties on the result.
    """
    n = label_batch_qubits(generators)
    return GF2Subspace([g.bits for g in generators], n)


@dataclass(frozen=True)
class SymplecticDecomposition:
    """Hyperbolic pairs plus commuting leftovers spanning a subspace.

    Pairs (z_i, x_i) satisfy [z_i, x_i] = 1 and have form 0 with every other
    listed generator; the isotropic part commutes with everything listed.
    2k + m equals the dimension of the decomposed subspace.
    """

    hyperbolic_pairs: tuple[tuple[WeylLabel, WeylLabel], ...]
    isotropic_part: tuple[WeylLabel, ...]
    n: int

    @property
    def k(self) -> int:
        return len(self.hyperbolic_pairs)

    @property
    def m(self) -> int:
        return len(self.isotropic_part)


def symplectic_gram_schmidt(V: GF2Subspace) -> SymplecticDecomposition:
    """Split V into k hyperbolic pairs and m commuting generators (2k+m = dim V)."""
    n = V.n
    rows = V.basis
    pairs: list[tuple[int, int]] = []
    while True:
        hit = next(
            (
                (i, j)
                for i in range(len(rows))
                for j in range(i + 1, len(rows))
                if _form_bits(rows[i], rows[j], n)
            ),
            None,
        )
        if hit is None:
            break
        i, j = hit
        z, x = rows[i], rows[j]
        pairs.append((z, x))
        rest = []
        for t, w in enumerate(rows):
            if t in (i, j):
                continue
            if _form_bits(w, x, n):
                w ^= z
            if _form_bits(w, z, n):
                w ^= x
            rest.append(w)
        rows = _reduce_rows(rest)
    if 2 * len(pairs) + len(rows) != V.dim:
        raise AssertionError("decomposition lost rank")  # pragma: no cover
    return SymplecticDecomposition(
        tuple((WeylLabel(z, n), WeylLabel(x, n)) for z, x in pairs),
        tuple(WeylLabel(b, n) for b in rows),
        n,
    )


def extend_to_lagrangian(V0: GF2Subspace) -> GF2Subspace:
    """Smallest-label greedy extension of an isotropic subspace to a Lagrangian."""
    if not V0.is_isotropic:
        raise ValidationError("subspace is not isotropic")
    V = V0
    for cand in range(1, 1 << (2 * V.n)):
        if V.dim == V.n:
            break
        if _reduce(cand, V.basis) and all(_form_bits(cand, b, V.n) == 0 for b in V.basis):
            V = GF2Subspace(V.basis + (cand,), V.n)
    if not V.is_lagrangian:
        raise AssertionError("greedy extension fell short")  # pragma: no cover
    return V


# ---------------------------------------------------------------------------
# Isotropic coverings via a symplectic spread of F2^(2k).
#
# The hyperbolic block of V is isomorphic to F2^(2k) with the standard form;
# a spread is a family of 2^k + 1 Lagrangian subspaces of that block meeting
# pairwise only in 0, so together they cover every element.  Adjoining the
# commuting generators of V to each spread member covers all of V with
# 2^k + 1 isotropic subspaces.
# ---------------------------------------------------------------------------

# Irreducible polynomials over F2 for GF(2^k), packed with the leading bit set.
_GF_POLY = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
}


def _gf_mul(a: int, b: int, k: int) -> int:
    poly = _GF_POLY[k]
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> k & 1:
            a ^= poly
    return acc


def _gf_trace(a: int, k: int) -> int:
    acc, cur = 0, a
    for _ in range(k):
        acc ^= cur
        cur = _gf_mul(cur, cur, k)
    return acc & 1  # trace lands in F2


@lru_cache(maxsize=None)
def _symplectic_spread(k: int) -> tuple[tuple[int, ...], ...]:
    """2^k + 1 pairwise-disjoint Lagrangian bases of F2^(2k), standard form.

    Built from GF(2^k) with monomial basis t^i.  Members are the b-axis plus
    one "slope s" subspace per field element, whose row i is (t^i, column i
    of M_s) with M_s[j][i] = tr(s t^i t^j): the second coordinate of s t^i
    in the basis trace-dual to the monomials, which makes the form tr(a*d) +
    tr(b*c) on pairs (a, b) the standard one.  Packing is low k bits / high k
    bits.
    """
    if k < 1 or k not in _GF_POLY:
        raise CapExceededError(f"no spread table for k={k}")
    members = [tuple(1 << (k + j) for j in range(k))]  # b-axis
    for s in range(1 << k):
        rows = []
        for i in range(k):
            s_ti = _gf_mul(s, 1 << i, k)
            column = sum(_gf_trace(_gf_mul(s_ti, 1 << j, k), k) << j for j in range(k))
            rows.append((1 << i) | (column << k))
        members.append(tuple(rows))
    return tuple(members)


def isotropic_cover(V: GF2Subspace) -> list[GF2Subspace]:
    """Cover V with at most 2^k + 1 isotropic subspaces of V (k from its decomposition)."""
    dec = V.decomposition
    if dec.k == 0:
        return [V]
    n, k = V.n, dec.k
    z = [p[0].bits for p in dec.hyperbolic_pairs]
    x = [p[1].bits for p in dec.hyperbolic_pairs]
    iso = [t.bits for t in dec.isotropic_part]

    def embed(vec: int) -> int:
        out = 0
        for i in range(k):
            if vec >> i & 1:
                out ^= z[i]
            if vec >> (k + i) & 1:
                out ^= x[i]
        return out

    parts = []
    for member in _symplectic_spread(k):
        part = GF2Subspace([embed(v) for v in member] + iso, n)
        if not part.is_isotropic or part.dim != k + dec.m:
            raise AssertionError("spread produced a bad cover part")  # pragma: no cover
        parts.append(part)
    return parts


def covers_exactly(V: GF2Subspace, parts: list[GF2Subspace]) -> bool:
    """Whether the union of ``parts`` is V, without listing V's 2^dim elements.

    When every part holds V's isotropic part I (seen on basis rows), the parts
    cover V exactly when their images modulo I cover V/I, which has 4^k elements.
    """
    iso = [lab.bits for lab in V.decomposition.isotropic_part]
    if any(_reduce(b, part.basis) for part in parts for b in iso):
        return False
    images = [GF2Subspace([_reduce(b, iso) for b in U.basis], V.n) for U in [V, *parts]]
    return set(images[0].element_bits) == set().union(*(U.element_bits for U in images[1:]))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_subspaces(two_n: int, dim: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the canonical basis of every subspace of F2^two_n (optionally fixed dim).

    Enumerates reduced row-echelon bases directly: choose decreasing pivot
    bits, then every assignment of the free positions below each pivot.
    """
    if two_n > 12:
        raise CapExceededError(f"subspace enumeration capped at 12 bits, got {two_n}")
    dims = range(two_n + 1) if dim is None else [dim]
    for d in dims:
        if d == 0:
            yield ()
            continue
        for pivots in itertools.combinations(range(two_n - 1, -1, -1), d):
            free = [
                [b for b in range(p) if b not in pivots] for p in pivots
            ]
            for fills in itertools.product(
                *(range(1 << len(f)) for f in free)
            ):
                rows = []
                for p, fcols, fill in zip(pivots, free, fills):
                    row = 1 << p
                    for idx, b in enumerate(fcols):
                        if fill >> idx & 1:
                            row |= 1 << b
                    rows.append(row)
                yield tuple(rows)


def enumerate_lagrangians(n: int) -> Iterator[GF2Subspace]:
    """Yield every Lagrangian subspace of F2^(2n) exactly once (n <= LAGRANGIAN_QUBIT_CAP).

    Each Lagrangian is uniquely {(S b + c, b) : b in B, c in B^perp}, where
    B <= F2^n is its x2-projection and S is a symmetric bilinear form on B
    (Dehaene-De Moor 2003), so there are prod_{i=1..n} (2^i + 1) of them.
    They come out sorted by canonical basis, one per row of ``_lagrangian_bases``.
    """
    for row in _lagrangian_bases(n).tolist():
        yield GF2Subspace(row, n)


def random_subspace(n: int, dim: int, rng) -> GF2Subspace:
    """Uniform-ish random subspace of F2^(2n) of the given dimension."""
    if n < 1:
        raise ValidationError(f"qubit count must be >= 1, got {n}")
    if not 0 <= dim <= 2 * n:
        raise ValidationError(f"dimension {dim} out of range for 2n={2 * n}")
    if n > RANDOM_QUBIT_CAP:
        raise CapExceededError(f"random subspaces capped at n={RANDOM_QUBIT_CAP}, got {n}")
    V = GF2Subspace((), n)
    while V.dim < dim:
        V = GF2Subspace(V.basis + (int(rng.integers(1, 1 << (2 * n))),), n)
    return V


@lru_cache(maxsize=None)
def _lagrangian_bases(n: int) -> np.ndarray:
    """Every Lagrangian's canonical basis, as the rows of a read-only (L, n) int64 array.

    Rows follow ``enumerate_lagrangians``' parametrization and are sorted by
    basis.  x2 is the high half, so B's reduced rows b_j lead each canonical
    basis and B^perp's reduced rows (x1 only) close it.  The dual basis
    f_j = e_(pivot b_j) reduced by B^perp has <b_i, f_j> = delta_ij and no
    pivot of B^perp, so the rows (sum_j S_ij f_j, b_i) come out reduced for
    every S at once.
    """
    if n < 1:
        raise ValidationError(f"qubit count must be >= 1, got {n}")
    if n > LAGRANGIAN_QUBIT_CAP:
        raise CapExceededError(f"Lagrangian enumeration capped at n={LAGRANGIAN_QUBIT_CAP}, got {n}")
    blocks = []
    for d in range(n + 1):
        i, j = np.triu_indices(d)
        fills = np.arange(1 << len(i))[:, None] >> np.arange(len(i)) & 1  # one S per fill
        sym = np.zeros((len(fills), d, d), dtype=np.int64)
        sym[:, i, j] = sym[:, j, i] = fills
        for b_rows in enumerate_subspaces(n, d):
            perp = _reduce_rows(
                c for c in range(1, 1 << n) if not any((c & b).bit_count() & 1 for b in b_rows)
            )
            dual = np.array([_reduce(1 << (b.bit_length() - 1), perp) for b in b_rows], np.int64)
            block = np.empty((len(fills), n), dtype=np.int64)
            block[:, :d] = np.bitwise_xor.reduce(sym * dual, axis=2) | np.array(b_rows, np.int64) << n
            block[:, d:] = perp
            blocks.append(block)
    bases = np.concatenate(blocks)
    bases = bases[np.lexsort(bases.T[::-1])]
    bases.flags.writeable = False
    return bases


# ---------------------------------------------------------------------------
# Text format: one label per line as a 2n-character 0/1 string, x1 half
# first, leftmost character = qubit 0.  parse_label_bits and
# format_label_bits are its one reader and one writer.
# ---------------------------------------------------------------------------


def parse_label_bits(text: str) -> tuple[np.ndarray, int]:
    """The packed labels of a label text as an int64 array in line order, and their n.

    Lines are stripped and blank ones skipped; every other line must be a label
    on the same n.  A malformed line raises ``ValidationError`` naming it; n
    above RANDOM_QUBIT_CAP raises ``CapExceededError``.
    """
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    widths = set(map(len, lines))
    # One byte per character, "?" for a non-ASCII one; below "0" wraps above 1.
    digits = np.frombuffer("".join(lines).encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    if any(width % 2 for width in widths) or (digits > 1).any():
        k, line = _first_line(text, lambda line: len(line) % 2 or line.strip("01"))
        raise ValidationError(f"line {k}: not a 2n-character 0/1 string: {line!r}")
    if len(widths) != 1:
        message = f"need labels on one qubit count, got counts {sorted(w // 2 for w in widths)}"
        if lines:
            k, line = _first_line(text, lambda line: len(line) != len(lines[0]))
            message += f"; line {k} ({line!r}) differs from the first label"
        else:
            message += "; the text has no label line"
        raise ValidationError(message)
    width = widths.pop()
    if width > 2 * RANDOM_QUBIT_CAP:
        raise CapExceededError(f"label text capped at n={RANDOM_QUBIT_CAP}, got {width // 2}")
    return digits.reshape(-1, width) @ (1 << np.arange(width)), width // 2


def _first_line(text: str, bad) -> tuple[int, str]:
    """The number and stripped text of the first non-blank line where ``bad`` holds."""
    lines = enumerate(map(str.strip, text.splitlines()), 1)
    return next((k, line) for k, line in lines if line and bad(line))


def format_label_bits(bits, n: int) -> str:
    """The label text of packed labels in [0, 4^n), one newline-terminated line each."""
    if n > RANDOM_QUBIT_CAP:
        raise CapExceededError(f"label text capped at n={RANDOM_QUBIT_CAP}, got {n}")
    bits = np.asarray(bits, dtype=np.int64).reshape(-1, 1)
    chars = np.full((bits.size, 2 * n + 1), ord("\n"), dtype=np.uint8)
    chars[:, :-1] = ((bits >> np.arange(2 * n)) & 1) + ord("0")
    return chars.tobytes().decode("ascii")


def parse_labels(text: str) -> list[WeylLabel]:
    """The labels of a one-label-per-line text; blank lines are skipped."""
    bits, n = parse_label_bits(text)
    return [WeylLabel(b, n) for b in bits.tolist()]


def parse_subspace(text: str) -> GF2Subspace:
    return span_and_classify(parse_labels(text))


def format_subspace(V: GF2Subspace) -> str:
    return format_label_bits(V.basis, V.n)
