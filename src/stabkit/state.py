"""Dense statevector engine: Weyl action, expectations, dyadic tables.

States are immutable normalized complex vectors of length 2^n (cap n <= 12);
the full 4^n tables (characteristic and Weyl distributions) are capped at
n <= 8.  The fast Walsh-Hadamard transform drives both the table
construction, in O(4^n n), and the dyadic self-convolution.

Allocation rule for the 4^n tables: a call allocates each 4^n array at most
once, and the scratch kept between calls is at most 1 MiB per thread (two
float64 tables of 4^8 entries).  Freed n = 8 temporaries of 0.5-1 MiB go
back to the operating system and are faulted in again by the next call,
which once cost n = 8 calls a fifth to a third of their time.  So the
convolution transforms its own output in place against the scratch, gamma
keeps q in it, and a read-only table handed to ``DyadicTable`` is not copied.
This module owns the block rule too: a pass over a 4^n table or a long draw
takes ``BLOCK`` entries at a time, and its uniforms from ``uniform_blocks``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Literal

import numpy as np

from .errors import CapExceededError, CertificateError, ValidationError
from .gf2 import WeylLabel, label_batch_qubits

__all__ = [
    "STATE_QUBIT_CAP",
    "TABLE_QUBIT_CAP",
    "BLOCK",
    "uniform_blocks",
    "PureState",
    "DyadicTable",
    "fwht",
    "dyadic_self_convolution",
    "apply_weyl",
    "weyl_matrix",
    "weyl_matrices",
    "weyl_expectation",
    "weyl_expectation_table",
    "char_distribution",
    "weyl_distribution",
    "gamma_exact",
    "pad_with_zeros",
    "generate_state",
    "state_to_json_dict",
    "state_from_json_dict",
]

STATE_QUBIT_CAP = 12
TABLE_QUBIT_CAP = 8

_NORM_TOL = 1e-12
_HERMITICITY_TOL = 1e-10
_PHASE_ARRAY = np.array((1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j))  # i^k, exact
# Entries per block of a pass: 64 KiB of doubles, under malloc's 128 KiB mmap
# threshold, so a block's temporaries are reused, not mapped and faulted afresh.
BLOCK = 1 << 13

_scratch = threading.local()


def _real_scratch(size: int) -> np.ndarray:
    """A float64 work buffer of ``size`` entries, kept for later calls in this thread.

    One buffer serves every n: it grows to the largest request, at most two
    4^TABLE_QUBIT_CAP tables (1 MiB).  Longer requests get a fresh array.
    The contents are garbage; a caller must be done with the buffer before it
    calls anything else that uses it.  It starts on a 64-byte boundary: on a
    16-byte one (where malloc puts it) the n = 8 table and convolution ran
    about a fifth slower (2-vCPU x86-64, numpy 2.4).
    """
    if size > 2 << (2 * TABLE_QUBIT_CAP):
        return np.empty(size)
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < size:
        raw = np.empty(size + 8)
        start = -raw.ctypes.data % 64 // 8
        buf = _scratch.buf = raw[start : start + size]
    return buf[:size]


def uniform_blocks(rng: np.random.Generator, count: int) -> Iterator[tuple[slice, np.ndarray]]:
    """``rng.random(count)`` as consecutive (slice, uniforms) blocks of at most BLOCK."""
    for lo in range(0, count, BLOCK):
        block = slice(lo, min(lo + BLOCK, count))
        yield block, rng.random(block.stop - lo)  # in stream order, so they join to that call


def _check_qubit_count(n: int) -> None:
    if n < 1:
        raise ValidationError(f"qubit count must be >= 1, got {n}")
    if n > STATE_QUBIT_CAP:
        raise CapExceededError(f"statevector engine capped at n={STATE_QUBIT_CAP}, got {n}")


@dataclass(frozen=True)
class PureState:
    """A normalized n-qubit statevector (amplitudes in natural binary order)."""

    amplitudes: np.ndarray
    n: int

    def __post_init__(self):
        _check_qubit_count(self.n)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValidationError(
                f"expected {1 << self.n} amplitudes for n={self.n}, got {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValidationError("state amplitudes must be finite (no NaN or inf)")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            # Out-of-tolerance inputs are rejected, never silently renormalized.
            raise ValidationError(f"state norm^2 = {norm_sq!r} is not 1 within {_NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n

    # The per-state tables, each built once on first use and shared by every
    # consumer (oracle, sampler, extraction); read them, never write them.

    @cached_property
    def expectations(self) -> np.ndarray:
        """All 4^n expectations <psi|W_x|psi>, indexed by packed label bits."""
        table = weyl_expectation_table(self)
        table.setflags(write=False)
        return table

    @cached_property
    def char_dist(self) -> "DyadicTable":
        """Characteristic distribution p(x) = 2^-n <psi|W_x|psi>^2."""
        values = np.square(self.expectations)
        values /= self.dim
        values.setflags(write=False)
        return DyadicTable(values, self.n, "char_dist")

    @cached_property
    def gamma(self) -> float:
        """E_{x~q}[2^n p(x)] with q the Weyl distribution of p."""
        p = self.char_dist
        size = p.values.size
        work = _real_scratch(2 * size)  # q, then 2^n p, live only in this call
        q = _weyl_values(p, work[:size], work[size:])
        mass = np.multiply(p.values, self.dim, out=work[size:])
        return float(np.dot(q, mass))


TableKind = Literal["char_dist", "weyl_dist", "generic"]


@dataclass(frozen=True)
class DyadicTable:
    """A real table over F2^(2n), indexed by the packed Weyl-label bits.

    ``values`` is copied unless it is a read-only float64 array that owns
    its data, which nothing can then write.
    """

    values: np.ndarray
    n: int
    kind: TableKind = "generic"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (1 << (2 * self.n),):
            raise ValidationError(
                f"expected {1 << (2 * self.n)} entries for n={self.n}, got {vals.shape}"
            )
        if self.kind in ("char_dist", "weyl_dist"):
            low = vals.min()  # NaN if any entry is NaN, and NaN fails every comparison
            if not low >= 0.0:
                raise ValidationError(f"{self.kind} has a negative or NaN entry: {low!r}")
            total = float(vals.sum())
            if not abs(total - 1.0) <= 1e-10:
                raise ValidationError(f"{self.kind} sums to {total!r}, not 1 within 1e-10")
        if self.kind == "char_dist" and vals.max() > 2.0 ** (-self.n) + 1e-12:
            raise ValidationError(
                f"char_dist entry {vals.max()!r} exceeds 2^-n for n={self.n}"
            )
        if vals.flags.writeable or not vals.flags.owndata:
            vals = vals.copy()
            vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _fwht_levels(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Run fwht's levels along the last axis, src and dst taking turns.

    Returns whichever of the two holds the transform: src after an even
    number of levels, dst after an odd one.  Both are overwritten, src from
    the second level on.
    """
    size = src.shape[-1]
    if size & (size - 1):
        raise ValidationError(f"transform length {size} is not a power of two")
    half = size // 2
    for _ in range(size.bit_length() - 1):
        a, b = src[..., 0::2], src[..., 1::2]
        np.add(a, b, out=dst[..., :half])
        np.subtract(a, b, out=dst[..., half:])
        src, dst = dst, src
    return src


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along the last axis.

    Self-inverse up to a factor of the axis length.  The input is copied
    once and never written.

    Report bytes depend on the exact rounding, so the arithmetic is fixed:
    levels run in the order h = 1, 2, 4, ..., and each level maps every pair
    (a, b) of entries whose indices differ in bit log2(h) alone to
    (a + b, a - b).

    The loop has constant geometry (Pease): every level reads the adjacent
    pairs src[..., 0::2], src[..., 1::2] and writes a + b to the first half
    of dst and a - b to the second half.  A level's output position p holds
    index p rotated left by one bit, so the next level's adjacent pairs are
    the index pairs one bit higher, and the last level leaves every entry at
    its own index.  Each entry is the same sum or difference of the same two
    operands as in the in-place butterfly, so the rounding and the zero signs
    are unchanged; only the layout between levels differs.  The copy and one
    scratch buffer take turns as source and destination (``_fwht_levels``),
    so no level allocates.
    """
    src = np.array(values, order="C")
    return _fwht_levels(src, np.empty_like(src))


def _convolve_into(out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Replace the real table in ``out`` by its dyadic self-convolution.

    Transform, square in place, transform back, divide by the length; this
    order is part of the rounding that report bytes depend on.  ``out`` and
    ``scratch`` take turns as the transforms' buffers; their levels add up
    to an even number, so the result ends in ``out``.
    """
    spectrum = _fwht_levels(out, scratch)
    np.multiply(spectrum, spectrum, out=spectrum)
    _fwht_levels(spectrum, scratch if spectrum is out else out)
    out /= out.size
    return out


def dyadic_self_convolution(values: np.ndarray) -> np.ndarray:
    """(f * f)(x) = sum_y f(y) f(x + y) over F2^(2n), for a real f = ``values``.

    The float64 copy of ``values`` (bool sets included) is the only array
    allocated; the transforms run in it against the per-thread scratch.
    """
    out = np.array(values, dtype=np.float64, order="C")
    return _convolve_into(out, _real_scratch(out.size).reshape(out.shape))


def _check_n(state: PureState, x: WeylLabel) -> None:
    if state.n != x.n:
        raise ValidationError(f"qubit-count mismatch: state n={state.n}, label n={x.n}")


def _weyl_nonzeros(labels: list[WeylLabel]) -> tuple[np.ndarray, np.ndarray]:
    """Per label, W_x's nonzero in column z: row z ^ x1, value i^(x1.x2) (-1)^(z.x2)."""
    x1 = np.array([lab.x1 for lab in labels])[:, None]
    x2 = np.array([lab.x2 for lab in labels])[:, None]
    z = np.arange(1 << labels[0].n)
    signs = 1 - 2 * (np.bitwise_count(z & x2) & 1).astype(np.int64)
    return z ^ x1, _PHASE_ARRAY[np.bitwise_count(x1 & x2) & 3] * signs


def apply_weyl(state: PureState, x: WeylLabel) -> PureState:
    """W_x |psi> with the Hermitian phase convention i^(x1.x2)."""
    _check_n(state, x)
    rows, values = _weyl_nonzeros([x])
    # Row z ^ x1 of the output is values[z] psi[z], and z -> z ^ x1 is an involution.
    return PureState((values[0] * state.amplitudes)[rows[0]], state.n)


def weyl_matrices(labels: list[WeylLabel]) -> np.ndarray:
    """Dense 2^n x 2^n matrices of W_x for labels on one n, stacked (n <= 8)."""
    if label_batch_qubits(labels) > TABLE_QUBIT_CAP:
        raise CapExceededError(f"dense Weyl matrices capped at n={TABLE_QUBIT_CAP}")
    rows, values = _weyl_nonzeros(labels)
    count, dim = rows.shape
    mats = np.zeros((count, dim, dim), dtype=np.complex128)
    mats[np.arange(count)[:, None], rows, np.arange(dim)] = values
    return mats


def weyl_matrix(x: WeylLabel) -> np.ndarray:
    """Dense 2^n x 2^n matrix of W_x (n <= 8)."""
    return weyl_matrices([x])[0]


def weyl_expectation(state: PureState, x: WeylLabel) -> float:
    """<psi| W_x |psi>, checked to be real (W_x is Hermitian)."""
    _check_n(state, x)
    raw = np.vdot(state.amplitudes, apply_weyl(state, x).amplitudes)
    if abs(raw.imag) > _HERMITICITY_TOL:
        raise CertificateError(
            f"Weyl expectation has imaginary residue {raw.imag!r} (engine bug)"
        )
    return float(raw.real)


@lru_cache(maxsize=TABLE_QUBIT_CAP)
def _table_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-n constants of the table: gather index x1 ^ z and phase index x1.x2 mod 4.

    Both are [x1, ·] arrays, stored as uint8 (2^n <= 256) and read-only,
    because every call for this n shares them.
    """
    z = np.arange(1 << n, dtype=np.uint8)
    xored = z[:, None] ^ z[None, :]
    phase_idx = np.bitwise_count(z[:, None] & z[None, :])
    phase_idx &= 3
    for arr in (xored, phase_idx):
        arr.setflags(write=False)
    return xored, phase_idx


def weyl_expectation_table(state: PureState) -> np.ndarray:
    """All 4^n expectations <psi|W_x|psi> as a real vector indexed by packed bits.

    For each X-half a, the map x2 -> sum_z (-1)^(x2.z) psi*(z^a) psi(z) is one
    Walsh-Hadamard transform, so the whole table costs O(4^n n).  The rows a
    are independent, so they are built in blocks of BLOCK entries in the scratch,
    and each block's real part goes straight into the output, the only 4^n
    array allocated.  Every entry takes the same float operations as in one
    whole-table pass, so the bits are the same.
    """
    if state.n > TABLE_QUBIT_CAP:
        raise CapExceededError(
            f"full tables capped at n={TABLE_QUBIT_CAP}, got {state.n}"
        )
    dim = state.dim
    xored, phase_idx = _table_indices(state.n)
    conj = np.conj(state.amplitudes)
    rows = min(dim, BLOCK >> state.n)
    work = _real_scratch(6 * rows * dim).view(np.complex128).reshape(3, rows, dim)
    gathered, spare, phases = work  # gathered is [x1, z]
    out = np.empty(dim * dim)
    by_x2 = out.reshape(dim, dim)  # [x2, x1]: index = x1 | x2<<n
    worst = 0.0
    for lo in range(0, dim, rows):
        # take() gathers with uint8 indices faster than [] does (about 2x at
        # n = 8); the indices are in range, and mode="clip" lets take write
        # into out= without a buffer of its own.
        conj.take(xored[lo : lo + rows], out=gathered, mode="clip")
        gathered *= state.amplitudes
        block = _fwht_levels(gathered, spare)  # [x1, x2]
        # The complex multiply by i^k, not a real-part shortcut, fixes the zero signs.
        _PHASE_ARRAY.take(phase_idx[lo : lo + rows], out=phases, mode="clip")
        np.multiply(phases, block, out=block)
        worst = max(worst, float(np.max(np.abs(block.imag))))
        by_x2[:, lo : lo + rows] = block.real.T
    if worst > _HERMITICITY_TOL:
        raise CertificateError(
            f"expectation table has imaginary residue {worst!r} (engine bug)"
        )
    return out


def char_distribution(state: PureState) -> DyadicTable:
    """Characteristic distribution p(x) = 2^-n <psi|W_x|psi>^2 (cached on the state)."""
    return state.char_dist


def _weyl_values(p: DyadicTable, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The Weyl distribution's values p * p, computed in ``out``."""
    np.copyto(out, p.values)
    q = _convolve_into(out, scratch)
    # Convolution roundoff can leave ~1e-17 negatives; clip those only.
    if q.min() < -1e-12:
        raise CertificateError(f"convolution negativity {q.min()!r} (engine bug)")
    return np.maximum(q, 0.0, out=q)


def weyl_distribution(p: DyadicTable) -> DyadicTable:
    """Weyl distribution q(x) = sum_y p(y) p(x+y), via the dyadic transform."""
    if p.kind != "char_dist":
        raise ValidationError(f"weyl_distribution expects a char_dist, got {p.kind}")
    size = p.values.size
    q = _weyl_values(p, np.empty(size), _real_scratch(size))
    q.setflags(write=False)
    return DyadicTable(q, p.n, "weyl_dist")


def gamma_exact(state: PureState) -> float:
    """E_{x~q}[2^n p(x)], the acceptance-rate excess the sampler estimates (cached)."""
    return state.gamma


def pad_with_zeros(state: PureState, extra: int) -> PureState:
    """|psi> tensor |0>^extra; stabilizer fidelity and gamma are unchanged."""
    if extra < 0:
        raise ValidationError(f"padding count must be >= 0, got {extra}")
    if extra == 0:
        return state
    pad = np.zeros(1 << extra, dtype=np.complex128)
    pad[0] = 1.0
    return PureState(np.kron(state.amplitudes, pad), state.n + extra)


# ---------------------------------------------------------------------------
# Test-state generation
# ---------------------------------------------------------------------------


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@lru_cache(maxsize=None)  # at most n(n - 1) read-only arrays per n <= STATE_QUBIT_CAP
def _cnot_gather(size: int, control: int, target: int) -> np.ndarray:
    """The index z ^ (z_control << target): entry z of CNOT|psi> is psi at it."""
    idx = np.arange(size)
    gather = idx ^ (((idx >> control) & 1) << target)
    gather.setflags(write=False)
    return gather


def _random_clifford_state(n: int, rng: np.random.Generator) -> PureState:
    """Run 20 n^2 random H/S/CNOT gates on |0...0>, drawing as numpy's gate-by-gate calls.

    The 32-bit words come in bulk ``rng.integers`` calls.  Each asks for a
    lower bound on the words the circuit still needs: one for the draw at
    hand, then ``least`` for each later gate (its kind, and its qubit unless
    n = 1).  So every word drawn is used, once, and the generator ends where
    the gate-by-gate draws leave it.  The gates run on two buffers that take
    turns: H and CNOT write the other one, S scales the odd half in place.
    """
    gates, kinds, least = 20 * n * n, 3 if n > 1 else 2, 2 if n > 1 else 1
    amps, spare = np.zeros(1 << n, dtype=np.complex128), np.empty(1 << n, dtype=np.complex128)
    amps[0] = 1.0

    def halves_by_bit(buf: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """Per bit, the views of ``buf``'s entries whose bit is 0 and whose bit is 1."""
        return [tuple(buf.reshape(-1, 2, 1 << bit).swapaxes(0, 1)) for bit in range(n)]

    halves, spare_halves = halves_by_bit(amps), halves_by_bit(spare)
    phase, scale = np.array(1j), np.array(_INV_SQRT2)  # 0-d, so no gate converts a Python scalar
    words: list[int] = []
    pos = 0

    def below(high: int) -> int:
        """``rng.integers(high)``: Lemire's bounded draw on the 32-bit stream, as numpy's."""
        nonlocal words, pos
        if high == 1:
            return 0
        while True:
            if pos == len(words):
                size = 1 + least * (gates - gate - 1)  # this draw, then the later gates
                words, pos = rng.integers(0, 1 << 32, size=size, dtype=np.uint32).tolist(), 0
            m = words[pos] * high
            pos += 1
            low = m & 0xFFFFFFFF
            if low >= high or low >= (1 << 32) % high:  # else Lemire rejects it: redraw
                return m >> 32

    for gate in range(gates):
        kind = below(kinds)
        if kind == 1:
            odd = halves[below(n)][1]
            np.multiply(odd, phase, out=odd)
            continue
        if kind == 0:
            bit = below(n)
            (even, odd), (to_even, to_odd) = halves[bit], spare_halves[bit]
            np.add(even, odd, out=to_even)
            np.subtract(even, odd, out=to_odd)
            np.multiply(spare, scale, out=spare)
        else:  # rng.choice(n, 2, replace=False): Floyd's pair, then one shuffle swap
            a, v = below(n - 1), below(n)
            b = n - 1 if v == a else v
            control, target = (b, a) if below(2) == 0 else (a, b)
            np.take(amps, _cnot_gather(1 << n, control, target), out=spare)
        amps, spare, halves, spare_halves = spare, amps, spare_halves, halves
    return PureState(amps, n)


def _haar_state(n: int, rng: np.random.Generator) -> PureState:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(amps / np.linalg.norm(amps), n)


_T_SINGLE = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2.0)


def generate_state(
    kind: str,
    n: int,
    seed: int | None = None,
    noise: float = 0.0,
    rng: np.random.Generator | None = None,
) -> PureState:
    """Build a corpus state: stabilizer | haar | t_tensor | noisy_stabilizer.

    ``stabilizer`` applies a seeded random H/S/CNOT circuit of length 20 n^2
    to |0...0>.  Its draws are read from ``rng``'s 32-bit stream in a few bulk
    ``rng.integers`` calls, each for no more words than the circuit still
    needs, and decoded exactly as ``rng.integers`` and ``rng.choice(n, 2,
    replace=False)`` decode them: each state, and where ``rng`` is left,
    equals numpy's gate-by-gate draws bit for bit.  A thread sharing ``rng``
    may draw between two bulk calls, as between any two numpy draws; the
    circuit's own words are never split or reused.  ``noisy_stabilizer`` mixes a
    stabilizer state |S> with a Haar vector orthogonalized against it, so
    |<S|out>|^2 = 1 - noise exactly.
    """
    _check_qubit_count(n)  # before any 2^n allocation
    if rng is None:
        if seed is None and kind != "t_tensor":
            raise ValidationError(f"kind {kind!r} needs a seed")
        rng = np.random.default_rng(seed)
    if kind == "stabilizer":
        return _random_clifford_state(n, rng)
    if kind == "haar":
        return _haar_state(n, rng)
    if kind == "t_tensor":
        amps = np.array([1.0], dtype=np.complex128)
        for _ in range(n):
            amps = np.kron(amps, _T_SINGLE)
        return PureState(amps, n)
    if kind == "noisy_stabilizer":
        if not 0.0 <= noise <= 1.0:
            raise ValidationError(f"noise must be in [0,1], got {noise}")
        base = _random_clifford_state(n, rng)
        if noise == 0.0:
            return base
        while True:
            g = _haar_state(n, rng).amplitudes
            g = g - np.vdot(base.amplitudes, g) * base.amplitudes
            overlap_norm = np.linalg.norm(g)
            if overlap_norm > 1e-8:
                break
        g = g / overlap_norm
        out = np.sqrt(1.0 - noise) * base.amplitudes + np.sqrt(noise) * g
        return PureState(out / np.linalg.norm(out), n)
    raise ValidationError(f"unknown state kind {kind!r}")


# ---------------------------------------------------------------------------
# State file format: {"n": int, "re": [...], "im": [...]}
# ---------------------------------------------------------------------------


def state_to_json_dict(state: PureState) -> dict:
    return {
        "n": state.n,
        "re": state.amplitudes.real.tolist(),
        "im": state.amplitudes.imag.tolist(),
    }


def state_from_json_dict(payload: dict) -> PureState:
    try:
        n, parts = payload["n"], [payload["re"], payload["im"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad state payload: {exc}") from exc
    if isinstance(n, bool) or not isinstance(n, int):  # 1.5 must not run as n = 1
        raise ValidationError(f"state n must be an integer, got {n!r}")
    arrays = []
    for field, values in zip(("re", "im"), parts):
        # A float64 cast would take "1" and true as 1.0: only JSON ints and floats are numbers.
        if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
            raise ValidationError(f"state {field} must be a JSON list of numbers")
        try:
            arrays.append(np.asarray(values, dtype=np.float64))
        except OverflowError as exc:  # an int past float64's range
            raise ValidationError(f"state {field} must be a JSON list of numbers: {exc}") from exc
    re, im = arrays
    if re.shape != im.shape:
        raise ValidationError("re/im arrays differ in length")
    return PureState(re + 1j * im, n)
