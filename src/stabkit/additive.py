"""Additive combinatorics over F2^(2n): representation counts, nearly-linear
set extraction, sumsets and doubling, constructive BSG, heavy translates.

Representation counts r(x) = #{(a, b) in S^2 : a + b = x} have two exact
routes with the same bits: a small set (|S|^2 <= 4^(n+1)) counts the sum of
every pair, a larger one takes the dyadic self-convolution of its indicator
through the Walsh-Hadamard transform.  The switch sits below the measured
crossover (|S|^2 about 6-8 x 4^n at n = 7, 8); see ``representation_counts``.

The existence arguments behind the extraction and BSG steps are
probabilistic, so both are realized as retry loops with caps and explicit
success flags: at desk scale the stated size conditions may simply not
hold, and a capped failure is data rather than a crash.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapExceededError, ValidationError
from .gf2 import (GF2Subspace, WeylLabel, _reduce, enumerate_subspaces, format_label_bits,
                  parse_label_bits)
from .state import (BLOCK, TABLE_QUBIT_CAP, DyadicTable, PureState, char_distribution,
                    dyadic_self_convolution, gamma_exact, uniform_blocks)

__all__ = [
    "GF2Set",
    "ExtractionReport",
    "BsgResult",
    "representation_counts",
    "extract_nearly_linear_set",
    "sumset_doubling",
    "bsg_extract",
    "brute_force_subspace_cover",
    "find_heavy_translate",
    "parse_set",
    "format_set",
    "check_set_qubits",
]


def check_set_qubits(n: int) -> None:
    """A dense set holds 4^n entries: refuse n above TABLE_QUBIT_CAP before allocating."""
    if n > TABLE_QUBIT_CAP:
        raise CapExceededError(f"dense sets capped at n={TABLE_QUBIT_CAP}, got {n}")


@dataclass(frozen=True)
class GF2Set:
    """A subset of F2^(2n) as a dense membership bitset of length 4^n."""

    members: np.ndarray
    n: int

    def __post_init__(self):
        mem = np.asarray(self.members, dtype=bool)
        if mem.shape != (1 << (2 * self.n),):
            raise ValidationError(
                f"expected bitset of length {1 << (2 * self.n)} for n={self.n}"
            )
        mem = mem.copy()
        mem.setflags(write=False)
        object.__setattr__(self, "members", mem)

    @classmethod
    def from_indices(cls, indices, n: int) -> "GF2Set":
        check_set_qubits(n)
        mem = np.zeros(1 << (2 * n), dtype=bool)
        idx = indices if isinstance(indices, np.ndarray) else np.asarray(list(indices))
        if idx.size and not (idx.dtype.kind in "iu" and 0 <= idx.min() and idx.max() < mem.size):
            raise ValidationError(f"set members must be integers in [0, {mem.size}) for n={n}")
        mem[idx.astype(np.intp, copy=False)] = True
        return cls(mem, n)

    @classmethod
    def from_subspace(cls, V: GF2Subspace) -> "GF2Set":
        return cls.from_indices(V.element_bits, V.n)

    @property
    def size(self) -> int:
        return int(self.members.sum())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.members)


def representation_counts(S: GF2Set) -> dict:
    """r(x) = #{(a,b) in S^2 : a+b = x} plus closure probability and energy.

    Two exact routes give the count table.  When |S|^2 <= 4^(n+1), the sum of
    every pair is counted directly (``_pair_counts``, O(|S|^2)); a larger set
    takes the dyadic self-convolution of its indicator through the
    Walsh-Hadamard transform (``_transform_counts``, O(4^n n)).  At the switch
    the pairs take 0.25-0.6 of the transform's time for n = 3..8 (1.0 against
    1.7 ms at n = 8, one core, numpy 2.4); the two cost the same near
    |S|^2 = 6-8 x 4^n at n = 7 and 8, and further out at smaller n.  For a 0/1
    indicator at n <= 8 every value inside the transform is an integer below
    2^53, so both routes give the same bits, and so do the closure
    probability and energy read off them.
    """
    size = S.size
    if size < 1:
        raise ValidationError("set must be nonempty")
    r = (_pair_counts if size * size <= 4 * S.members.size else _transform_counts)(S)
    closure = float(r[S.members].sum() / (size * size))
    energy = int(np.dot(r, r))
    r.setflags(write=False)
    return {
        "r": DyadicTable(r, S.n, "generic"),
        "closure_prob": closure,
        "additive_energy": energy,
    }


def _pair_counts(S: GF2Set) -> np.ndarray:
    """r by counting a ^ b over all pairs of members, in row blocks of <= BLOCK pairs."""
    members = S.indices()
    r = np.zeros(S.members.size)
    rows = max(1, BLOCK // members.size)
    for lo in range(0, members.size, rows):
        np.add.at(r, members[lo : lo + rows, None] ^ members, 1.0)
    return r


def _transform_counts(S: GF2Set) -> np.ndarray:
    """r as the dyadic self-convolution of the indicator of S."""
    r = dyadic_self_convolution(S.members)
    return np.rint(r, out=r)


@dataclass(frozen=True)
class ExtractionReport:
    set: GF2Set
    size: int
    min_mass: float
    closure_prob: float
    succeeded: bool
    retries_used: int


def extract_nearly_linear_set(
    state: PureState,
    gamma: float,
    rng: np.random.Generator,
    retry_cap: int = 200,
) -> ExtractionReport:
    """Sample a large nearly-closed set of heavy labels.

    Candidates are the labels with 2^n p(x) >= gamma/4; each is kept with
    probability 2^n p(x), retrying until |S| >= (gamma/2) 2^n and the
    closure probability reaches gamma/6, or the cap runs out (failure flag;
    expected when 2^n is far below the regime the guarantee needs).
    gamma must be a finite number > 0: at 0 or below every label is heavy.
    """
    if retry_cap < 1:
        raise ValidationError(f"retry cap must be >= 1, got {retry_cap}")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValidationError(f"gamma must be a finite number > 0, got {gamma!r}")
    exact = gamma_exact(state)
    if gamma > exact + 1e-9:
        warnings.warn(
            f"requested gamma {gamma!r} exceeds the exact value {exact!r}",
            stacklevel=2,
        )
    p = char_distribution(state)
    scale = 1 << state.n
    inclusion = scale * p.values  # the mass 2^n p(x), then min(mass, 1) on heavy labels
    heavy = inclusion >= gamma / 4.0
    np.minimum(inclusion, 1.0, out=inclusion)
    inclusion[~heavy] = 0.0

    size_goal = (gamma / 2.0) * scale  # > 0, so an empty sample never succeeds
    closure_goal = gamma / 6.0
    best: ExtractionReport | None = None
    for attempt in range(1, retry_cap + 1):
        members = np.empty(inclusion.size, dtype=bool)
        for block, u in uniform_blocks(rng, inclusion.size):
            np.less(u, inclusion[block], out=members[block])
        sample = GF2Set(members, state.n)
        size = sample.size
        closure = representation_counts(sample)["closure_prob"] if size else 0.0
        min_mass = scale * float(p.values[members].min()) if size else 0.0  # exact: scale is 2^n
        ok = size >= size_goal and closure >= closure_goal
        candidate = ExtractionReport(sample, size, min_mass, closure, ok, attempt)
        if candidate.succeeded:
            return candidate
        if best is None or (size, closure) > (best.size, best.closure_prob):
            best = candidate
    return replace(best, retries_used=retry_cap)


def sumset_doubling(S: GF2Set) -> dict:
    """S+S (via the support of the representation counts) and |S+S|/|S|."""
    counts = representation_counts(S)
    sumset = GF2Set(counts["r"].values > 0.5, S.n)
    return {"sumset": sumset, "doubling": sumset.size / S.size}


# A pair a, b of B is an edge when r(a+b) >= _HEAVY_FRACTION * eps^2 |S|, and
# S' keeps the vertices of degree >= _DEGREE_FRACTION * |B| (the proof's constants).
_HEAVY_FRACTION = 1.0 / 16.0
_DEGREE_FRACTION = 0.75


@dataclass(frozen=True)
class BsgResult:
    s_prime: GF2Set
    z_used: WeylLabel
    succeeded: bool
    stats: dict
    eps: float  # the closure level the search ran at


def bsg_extract(
    S: GF2Set,
    eps: float | None,
    rng: np.random.Generator,
    trials: int = 500,
) -> BsgResult:
    """Constructive BSG step: a large small-doubling subset of a nearly-closed set.

    Each trial draws Z from S, forms B = S n (S+Z), links a, b in B when
    r(a+b) >= eps^2 |S| / 16, and keeps the vertices of degree >= 3|B|/4.
    The first candidate with
    |S'| >= (eps/(2 sqrt 2))|S| and doubling at most 8 eps^-6 is returned;
    otherwise the best candidate comes back with the failure flag set.  A
    trial whose B is empty counts as a failed candidate.  eps=None runs at
    the closure probability of S itself, read off the same counts r.
    """
    counts = representation_counts(S)
    source = "eps" if eps is not None else "the set's closure probability, the default eps,"
    eps = counts["closure_prob"] if eps is None else eps
    if not 0.0 < eps <= 1.0:
        raise ValidationError(f"{source} must be in (0,1], got {eps}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if counts["closure_prob"] < eps - 1e-12:
        raise ValidationError(
            f"closure probability {counts['closure_prob']!r} is below eps {eps!r}"
        )
    size = S.size
    r = counts["r"].values
    heavy_pair = r >= _HEAVY_FRACTION * eps * eps * size
    member_idx = S.indices()
    size_goal = eps / (2.0 * math.sqrt(2.0)) * size  # > 0, so an empty S' never succeeds
    doubling_goal = 8.0 * eps**-6

    best: BsgResult | None = None
    for trial in range(1, trials + 1):
        z = int(member_idx[rng.integers(size)])
        b_idx = member_idx[S.members[member_idx ^ z]]  # B = S n (S+Z), ascending
        degrees = np.empty(b_idx.size, dtype=np.int64)
        rows = max(1, BLOCK // max(b_idx.size, 1))  # a block's pair table holds <= BLOCK entries
        for lo in range(0, b_idx.size, rows):
            degrees[lo : lo + rows] = heavy_pair[b_idx[lo : lo + rows, None] ^ b_idx].sum(axis=1)
        keep = degrees >= _DEGREE_FRACTION * b_idx.size
        s_prime_idx = b_idx[keep]
        stats = {
            "trial": trial,
            "b_size": int(b_idx.size),
            "edge_density": float(degrees.sum() / b_idx.size**2) if b_idx.size else 0.0,
            "degree_histogram": np.bincount(degrees).tolist(),
            "s_prime_size": int(s_prime_idx.size),
        }
        s_prime = GF2Set.from_indices(s_prime_idx, S.n)
        if s_prime_idx.size:
            stats["doubling"] = sumset_doubling(s_prime)["doubling"]
        ok = s_prime_idx.size >= size_goal and stats["doubling"] <= doubling_goal
        candidate = BsgResult(s_prime, WeylLabel(z, S.n), ok, stats, eps)
        if candidate.succeeded:
            return candidate
        if best is None or candidate.stats["s_prime_size"] > best.stats["s_prime_size"]:
            best = candidate
    return best


def brute_force_subspace_cover(S: GF2Set, doubling: float | None = None) -> dict:
    """Tiny-n stand-in for the covering step of the small-doubling theory.

    Scans every subspace V of F2^(2n) with |V| <= |S| and returns the one
    hit by the fewest translates (ties broken toward larger subspaces, then
    lexicographically).  Exponential in 2n, hence capped at 2n <= 8; call
    it deliberately, never from a hot path.  ``doubling`` is |S+S|/|S| when
    the caller already has it (BSG computes it for S'); otherwise it is
    computed here.
    """
    if 2 * S.n > 8:
        raise CapExceededError(
            f"subspace cover search capped at 2n=8, got 2n={2 * S.n}"
        )
    member_idx = S.indices()
    if member_idx.size == 0:
        raise ValidationError("set must be nonempty")
    size = S.size
    best: tuple[int, int, tuple[int, ...]] | None = None
    for basis in enumerate_subspaces(2 * S.n):
        if 1 << len(basis) > size:
            continue
        translate_count = int(np.unique(_reduce(member_idx, basis)).size)
        ranking = (translate_count, -len(basis), basis)
        if best is None or ranking < best:
            best = ranking
    assert best is not None
    if doubling is None:
        doubling = sumset_doubling(S)["doubling"]
    return {
        "subspace": GF2Subspace(best[2], S.n),
        "translate_count": best[0],
        "doubling": doubling,
        "translate_bound": (2.0 * doubling) ** 9,
    }


def find_heavy_translate(S: GF2Set, V: GF2Subspace) -> dict:
    """The coset of V holding the most members of S (smallest representative).

    By pigeonhole the overlap is at least |S| divided by the coset count.
    """
    if V.n != S.n:
        raise ValidationError(f"qubit-count mismatch: set n={S.n}, V n={V.n}")
    member_idx = S.indices()
    if member_idx.size == 0:
        raise ValidationError("set must be nonempty")
    keys, counts = np.unique(_reduce(member_idx, V.basis), return_counts=True)  # coset minima
    best = np.argmax(counts)
    return {"coset_rep": WeylLabel(int(keys[best]), V.n), "overlap": int(counts[best])}


# ---------------------------------------------------------------------------
# Text format: one member per line as a 2n-character 0/1 string (gf2's label text).
# ---------------------------------------------------------------------------


def parse_set(text: str) -> GF2Set:
    return GF2Set.from_indices(*parse_label_bits(text))


def format_set(S: GF2Set) -> str:
    return format_label_bits(S.indices(), S.n)
