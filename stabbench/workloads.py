"""Workload inputs and items for the stabkit benchmark.

A workload is a fixed recipe for one *round*: a list of items of the same
shapes every round, with states, labels and CLI seeds drawn from
``numpy.random.default_rng([seed, round])``.  An item is one or more CLI
commands (argv lists for ``stabkit.cli.main``), possibly with glue between
them, plus a check of every report against ``refcheck``.  Inputs are
written to files under the work directory before the round is timed.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

import refcheck as ref

THETA_TOL = 1e-6  # the uncertainty command's default, used as the check tolerance
DELTA = 1e-9  # failure probability allowed to each sampled-gamma check
GAMMA_M = 20_000
EPS1, EPS2 = 0.9, 1e-40  # the README's test plan: m = 457 rounds, D = 0.486
FAULT_STREAM_SEED = 505
FAULT_TRIAL = 35
FAULT_EXIT = 3  # the CLI's exit code for CertificateError
STREAM_TRIALS = 31  # trials 0..30 of the stream; none of them reaches the theta iteration cap


@dataclass
class Item:
    name: str
    shape: str  # the kind of input (graph, haar, full, ...); the self-test picks one item per shape
    steps: list  # argv lists, or callables run between commands (glue)
    check: Callable[[list], list]  # parsed reports of the argv steps -> problems
    outputs: list = field(default_factory=list)  # --out paths of the argv steps
    fault_exit: int | None = None  # the named fault's exit code, for the one item kept to show it


def _write_state(path: str, amps: np.ndarray) -> str:
    n = amps.size.bit_length() - 1
    with open(path, "w", encoding="ascii") as handle:
        json.dump({"n": n, "re": amps.real.tolist(), "im": amps.imag.tolist()}, handle)
    return path


def _write_lines(path: str, lines: list[str]) -> str:
    with open(path, "w", encoding="ascii") as handle:
        handle.write("".join(line + "\n" for line in lines))
    return path


def _cli_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(1 << 31)))


def _item(name: str, shape: str, commands: list, check, work: str,
          fault_exit: int | None = None) -> Item:
    """Append a distinct --out path to every argv step."""
    steps, outputs = [], []
    for k, step in enumerate(commands):
        if callable(step):
            steps.append(step)
            continue
        out = os.path.join(work, f"{name}.{k}.json")
        steps.append(list(step) + ["--out", out])
        outputs.append(out)
    return Item(name, shape, steps, check, outputs, fault_exit)


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
S = np.diag([1, 1j])
T_QUBIT = np.array([1, np.exp(1j * math.pi / 4)]) / math.sqrt(2)


@lru_cache(maxsize=1)
def one_qubit_cliffords() -> tuple:
    """The 24 one-qubit Cliffords (up to phase), generated from H and S."""
    def key(U):
        k = np.flatnonzero(np.abs(U.ravel()) > 1e-9)[0]
        return tuple(np.round(U.ravel() * abs(U.ravel()[k]) / U.ravel()[k], 6))
    found = {key(np.eye(2)): np.eye(2, dtype=complex)}
    frontier = list(found.values())
    while frontier:
        nxt = []
        for U in frontier:
            for G in (H, S):
                V = G @ U
                if key(V) not in found:
                    found[key(V)] = V
                    nxt.append(V)
        frontier = nxt
    return tuple(found[k] for k in sorted(found))


def random_qubit(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def haar_state(n: int, rng) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def graph_state(n: int, rng) -> np.ndarray:
    """CZ on |+>^n over a random graph, then a random one-qubit Clifford per qubit."""
    idx = np.arange(1 << n)
    phase = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                phase ^= (idx >> i) & (idx >> j) & 1
    psi = (1 - 2 * phase) / math.sqrt(1 << n) + 0j
    cliffords = one_qubit_cliffords()
    for q in range(n):
        psi = ref.apply_one_qubit(psi, q, cliffords[rng.integers(len(cliffords))])
    return psi


def t_qubits(n: int, rng) -> list[np.ndarray]:
    """T^(x)n with a random one-qubit Clifford on each qubit (F_S and gamma unchanged)."""
    cliffords = one_qubit_cliffords()
    return [cliffords[rng.integers(len(cliffords))] @ T_QUBIT for _ in range(n)]


def product_qubits(n: int, rng) -> list[np.ndarray]:
    return [random_qubit(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# Labels: packed ints (x1 low n bits, x2 high n bits)
# ---------------------------------------------------------------------------


def to_string(bits: int, n: int) -> str:
    return "".join("1" if bits >> i & 1 else "0" for i in range(2 * n))


def permute_qubits(n: int, rng) -> Callable[[int], int]:
    """A random qubit permutation, acting on labels.

    W_x maps to W_(pi x) with no sign, so a label set keeps its
    anticommutation graph (same theta iterations) and every operator
    H(a) = sum a_i W_i keeps its spectrum (same ascent from the same
    start), while the labels themselves change with the seed.
    """
    perm = [int(q) for q in rng.permutation(n)]

    def apply(x: int) -> int:
        out = 0
        for q in range(n):
            out |= (x >> q & 1) << perm[q]
            out |= (x >> (n + q) & 1) << (n + perm[q])
        return out

    return apply


def jordan_wigner_set(n: int) -> list[int]:
    """2n + 1 mutually anticommuting labels: Z..Z X_k, Z..Z Y_k and Z^(x)n."""
    out = []
    for k in range(n):
        zs = ((1 << k) - 1) << n
        out.append(zs | (1 << k))  # X_k
        out.append(zs | (1 << k) | (1 << (n + k)))  # Y_k
    out.append(((1 << n) - 1) << n)
    return out


@lru_cache(maxsize=1)
def criterion5_stream() -> tuple:
    """The criterion-5 stream (seed 505) as drawn at 8 restarts: (n, state, labels) per trial.

    It replays the acceptance test's draws, including the 8 restart vectors
    the certificate consumes per trial, so trial 35 is the n = 4, 14-label
    set whose theta solve stops at the iteration cap.
    """
    rng = np.random.default_rng(FAULT_STREAM_SEED)
    trials = []
    for _ in range(FAULT_TRIAL + 1):
        n = int(rng.integers(1, 5))
        count = int(rng.integers(2, min(30, 1 << (2 * n)) + 1))
        psi = haar_state(n, rng)
        picks = [int(b) for b in rng.choice(1 << (2 * n), size=count, replace=False)]
        for _ in range(8):
            rng.normal(size=count)
        trials.append((n, psi, picks))
    return tuple(trials)


@lru_cache(maxsize=None)
def graph_bounds(n: int, labels: tuple) -> tuple[int, int]:
    """(alpha, greedy clique cover) of the anticommutation graph of a base label set."""
    nbr = ref.adjacency([to_string(b, n) for b in labels])
    return ref.independence_number(nbr), ref.greedy_clique_cover(nbr)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _warmup(work: str) -> list:
    """One smallest call of every command the workloads use: first-call costs land in set-up."""
    out = os.path.join(work, "warmup.json")
    t = ["--kind", "t_tensor", "--n", "1"]
    return [
        ["gamma", *t, "--exact", "--out", out],
        ["gamma", *t, "--m", "100", "--seed", "1", "--out", out],
        ["test", *t, "--eps1", str(EPS1), "--eps2", str(EPS2), "--seed", "1", "--out", out],
        ["fidelity", *t, "--out", out],
        ["uncertainty", *t, "--random-labels", "2", "--seed", "1", "--out", out],
        ["extract", *t, "--seed", "1", "--out", out],
        ["bsg", "--n", "1", "--subspace-dim", "1", "--seed", "1", "--out", out],
    ]


class FidelitySweep:
    name = "fidelity-sweep"
    trace_rounds = 20
    min_rounds = 1
    setup_samples = 3  # each builds the Lagrangian tables, ~13 s

    def warmup(self, work: str) -> list:
        # The oracle's Lagrangian tables for every n the items use are built once per process.
        out = os.path.join(work, "warmup.json")
        return _warmup(work) + [
            ["fidelity", "--kind", "t_tensor", "--n", str(n), "--out", out] for n in (2, 3, 4)
        ]

    def round(self, rng, work: str) -> list[Item]:
        specs = (
            [("graph", 4)] * 3 + [("t", 4), ("t", 3)]
            + [("product", 4)] * 3 + [("product", 3)] + [("haar", 4)] * 4 + [("haar", 3)]
        )
        items = []
        for k, (kind, n) in enumerate(specs):
            closed = None
            if kind == "graph":
                psi, closed = graph_state(n, rng), 1.0
            elif kind == "haar":
                psi = haar_state(n, rng)
            else:
                qubits = t_qubits(n, rng) if kind == "t" else product_qubits(n, rng)
                psi = ref.product_state(qubits)
                closed = ref.COS2_PI_8**n if kind == "t" else ref.fidelity_product(
                    [ref.bloch(v) for v in qubits])
            name = f"fid{k:02d}-{kind}{n}"
            path = _write_state(os.path.join(work, name + ".state.json"), psi)
            items.append(_item(
                name, kind, [["fidelity", "--state-file", path]],
                lambda reps, psi=psi, closed=closed: ref.check_fidelity(
                    reps[0]["results"], psi, closed),
                work,
            ))
        # Three one-per-class sweeps make up 3 of 17 items, so p90 falls inside the
        # sweep items rather than in the tail of the single-state items.
        per_class, n = 1, 4
        for k in range(3):
            items.append(_item(
                f"sweep{k}", "sweep", [["sandwich-sweep", "--per-class", str(per_class),
                               "--n-values", str(n), "--seed", _cli_seed(rng)]],
                lambda reps: ref.check_sweep(reps[0]["results"], reps[0]["summary"],
                                             per_class, n),
                work,
            ))
        return items


class UncertaintyChain:
    name = "uncertainty-chain"
    trace_rounds = 1
    # Three long theta solves take most of a round's ~10 s; three rounds average
    # the machine's speed over ~30 s instead of ~20 s.
    min_rounds = 3
    setup_samples = 9  # a set-up is ~0.2 s of imports: the median of 9 steadies it

    def warmup(self, work: str) -> list:
        return _warmup(work)

    def round(self, rng, work: str) -> list[Item]:
        stream = criterion5_stream()
        n, psi, picks = stream[FAULT_TRIAL]
        # The named fault: the same state, labels and seed every round (exit 3 today).
        items = [self._item("fault-t35", n, psi, picks, FAULT_STREAM_SEED, "random", picks, work,
                            fault_exit=FAULT_EXIT)]
        for t in range(STREAM_TRIALS):
            n, _, base = stream[t]
            items.append(self._transformed(f"c5-t{t:02d}", n, base, "random", rng, work))
        for n in (2, 3):
            items.append(self._transformed(f"full{n}", n, list(range(1 << (2 * n))), "full",
                                           rng, work))
        for n in (1, 2, 3, 4):
            for k in range(4):
                items.append(self._transformed(f"anti{n}-{k}", n, jordan_wigner_set(n),
                                               "anticommuting", rng, work))
        return items

    def _transformed(self, name, n, base, shape, rng, work) -> Item:
        apply = permute_qubits(n, rng)
        labels = [apply(b) for b in base]
        # A fixed CLI seed per base set: the ascent's random starts repeat, only the
        # witness start moves with the state.
        seed = 1000 + zlib.crc32(name.encode())
        return self._item(name, n, haar_state(n, rng), labels, seed, shape, base, work)

    def _item(self, name, n, psi, labels, seed, shape, base, work, fault_exit=None) -> Item:
        texts = [to_string(b, n) for b in labels]
        alpha, cover = graph_bounds(n, tuple(base))
        state = _write_state(os.path.join(work, name + ".state.json"), psi)
        label_file = _write_lines(os.path.join(work, name + ".labels.txt"), texts)
        return _item(
            name, shape, [["uncertainty", "--state-file", state, "--labels-file", label_file,
                    "--seed", str(seed)]],
            lambda reps: ref.check_uncertainty(reps[0]["results"], psi, texts, THETA_TOL,
                                               alpha, cover, shape),
            work, fault_exit,
        )


class TesterPipeline:
    name = "tester-pipeline"
    trace_rounds = 6
    min_rounds = 1
    setup_samples = 9

    def warmup(self, work: str) -> list:
        return _warmup(work)

    def round(self, rng, work: str) -> list[Item]:
        items = []
        for kind in ("graph", "t", "product"):
            for n in (5, 6, 6, 7, 8):
                if kind == "graph":
                    psi, gamma = graph_state(n, rng), 1.0
                else:
                    qubits = t_qubits(n, rng) if kind == "t" else product_qubits(n, rng)
                    psi = ref.product_state(qubits)
                    gamma = ref.gamma_product([ref.bloch(v) for v in qubits])
                items.append(self._item(f"tp{len(items):02d}-{kind}{n}", kind, psi, gamma, rng,
                                        work))
        return items

    def _item(self, name, kind, psi, gamma, rng, work) -> Item:
        state = _write_state(os.path.join(work, name + ".state.json"), psi)
        extract_out = os.path.join(work, f"{name}.3.json")  # step 3 below
        set_file = os.path.join(work, name + ".set.txt")
        retry_cap = 200

        def write_set():
            with open(extract_out, encoding="ascii") as handle:
                _write_lines(set_file, json.load(handle)["results"]["members"])

        def check(reps):
            g_exact, g_sampled, test, extract, bsg = (r["results"] for r in reps)
            return (
                ref.check_gamma_exact(g_exact, gamma)
                + ref.check_gamma_sampled(g_sampled, gamma, GAMMA_M, DELTA)
                + ref.check_test(test, gamma, EPS1, EPS2, 1.0, 1.0 / 3.0, DELTA)
                + ref.check_extract(extract, psi, gamma, retry_cap)
                + ref.check_bsg(bsg, extract["members"])
            )

        return _item(name, kind, [
            ["gamma", "--exact", "--state-file", state],
            ["gamma", "--m", str(GAMMA_M), "--seed", _cli_seed(rng), "--state-file", state],
            ["test", "--eps1", str(EPS1), "--eps2", str(EPS2), "--seed", _cli_seed(rng),
             "--state-file", state],
            ["extract", "--retry-cap", str(retry_cap), "--seed", _cli_seed(rng),
             "--state-file", state],
            write_set,
            ["bsg", "--set-file", set_file, "--seed", _cli_seed(rng)],
        ], check, work)


WORKLOADS = {w.name: w for w in (FidelitySweep(), UncertaintyChain(), TesterPipeline())}
