"""Reference computations for checking stabkit reports, written apart from stabkit.

Nothing here imports stabkit.  Pauli operators are built from 2x2 matrices
(Kronecker products, or one 2x2 factor applied per qubit), and the closed
forms, graph bounds, Hoeffding radii and pair counts are computed directly.
Each ``check_*`` function returns a list of problems; an empty list means the
report passed.

Label convention (the stabkit file format): a label is a 2n-character 0/1
string, the x1 (X) half first, then the x2 (Z) half; character i of each half
is qubit i, and qubit i is bit i of the amplitude index.  The operator is
i^(x1.x2) X^x1 Z^x2, which per qubit is I, X, Z or Y.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {(0, 0): I2, (1, 0): X, (0, 1): Z, (1, 1): Y}

# The six one-qubit stabilizer states.
STAB_1Q = np.array(
    [[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]], dtype=complex
) / np.array([1, 1, math.sqrt(2), math.sqrt(2), math.sqrt(2), math.sqrt(2)])[:, None]

COS2_PI_8 = math.cos(math.pi / 8) ** 2


# ---------------------------------------------------------------------------
# Labels and Pauli operators
# ---------------------------------------------------------------------------


def label_bits(text: str) -> tuple[list[int], list[int]]:
    """(x1 bits, x2 bits) per qubit of a label string."""
    n = len(text) // 2
    return [int(c) for c in text[:n]], [int(c) for c in text[n:]]


def pauli_factors(text: str) -> list[np.ndarray]:
    x1, x2 = label_bits(text)
    return [PAULI[(a, b)] for a, b in zip(x1, x2)]


def pauli_matrix(text: str) -> np.ndarray:
    """Dense operator: Kronecker product with qubit n-1 as the leftmost factor."""
    out = np.ones((1, 1), dtype=complex)
    for factor in reversed(pauli_factors(text)):
        out = np.kron(out, factor)
    return out


def apply_one_qubit(psi: np.ndarray, q: int, U: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to qubit q (bit q of the amplitude index)."""
    n = psi.size.bit_length() - 1
    axis = n - 1 - q
    out = np.asarray(psi, dtype=complex).reshape((2,) * n)
    return np.moveaxis(np.tensordot(U, out, axes=([1], [axis])), 0, axis).reshape(-1)


def apply_pauli(psi: np.ndarray, text: str) -> np.ndarray:
    """Apply the operator one 2x2 factor per qubit, without the dense matrix."""
    for q, factor in enumerate(pauli_factors(text)):
        psi = apply_one_qubit(psi, q, factor)
    return psi


def expectation(psi: np.ndarray, text: str) -> float:
    return float(np.real(np.vdot(psi, apply_pauli(psi, text))))


def anticommute(a: str, b: str) -> bool:
    a1, a2 = label_bits(a)
    b1, b2 = label_bits(b)
    return (sum(p & q for p, q in zip(a1, b2)) + sum(p & q for p, q in zip(a2, b1))) % 2 == 1


def gf2_rank(rows: list[int]) -> int:
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


# ---------------------------------------------------------------------------
# States and closed forms
# ---------------------------------------------------------------------------


def product_state(qubits: list[np.ndarray]) -> np.ndarray:
    """Tensor product with qubits[i] on qubit i (bit i of the index)."""
    out = np.ones(1, dtype=complex)
    for v in qubits:
        out = np.kron(v, out)
    return out


def bloch(v: np.ndarray) -> np.ndarray:
    rho = np.outer(v, np.conj(v))
    return np.real([np.trace(rho @ P) for P in (X, Y, Z)])


def fidelity_product(blochs: list[np.ndarray]) -> float:
    """F_S of a product of one-qubit states: prod (1 + |r_i|_inf) / 2 (multiplicative)."""
    return float(np.prod([(1.0 + np.max(np.abs(r))) / 2.0 for r in blochs]))


def gamma_one_qubit(r: np.ndarray) -> float:
    """gamma = 2 sum_x q(x) p(x) over the Klein group {I, X, Z, Y}."""
    p = {(0, 0): 0.5, (1, 0): r[0] ** 2 / 2, (1, 1): r[1] ** 2 / 2, (0, 1): r[2] ** 2 / 2}
    q = {
        x: sum(p[y] * p[(x[0] ^ y[0], x[1] ^ y[1])] for y in p) for x in p
    }
    return float(2.0 * sum(q[x] * p[x] for x in p))


def gamma_product(blochs: list[np.ndarray]) -> float:
    return float(np.prod([gamma_one_qubit(r) for r in blochs]))


def all_labels(n: int) -> list[str]:
    out = []
    for bits in range(1 << (2 * n)):
        out.append("".join(str(bits >> i & 1) for i in range(2 * n)))
    return out


@lru_cache(maxsize=4)
def pauli_stack(n: int) -> np.ndarray:
    """All 4^n dense Pauli matrices, indexed by packed label bits."""
    return np.stack([pauli_matrix(lab) for lab in all_labels(n)])


def gamma_dense(psi: np.ndarray) -> float:
    """gamma from the 4^n expectations: p(x) = <W_x>^2 / 2^n, q = p * p (direct sum)."""
    dim = psi.size
    expect = np.real(np.einsum("i,kij,j->k", np.conj(psi), pauli_stack(dim.bit_length() - 1), psi))
    p = expect**2 / dim
    idx = np.arange(p.size)
    q = p[idx[:, None] ^ idx[None, :]] @ p
    return float(np.dot(q, dim * p))


def best_product_stabilizer_fidelity(psi: np.ndarray) -> float:
    """max |<s|psi>|^2 over the 6^n product stabilizer states (a lower bound on F_S)."""
    n = psi.size.bit_length() - 1
    t = np.asarray(psi, dtype=complex).reshape((2,) * n)
    for _ in range(n):  # contract the leading axis each time; results stack at the back
        t = np.moveaxis(np.tensordot(np.conj(STAB_1Q), t, axes=([1], [0])), 0, -1)
    return float(np.max(np.abs(t) ** 2))


def stabilizer_group_fidelity(psi: np.ndarray, basis: list[str]) -> float:
    """max over sign choices of <psi| prod_i (I + s_i P_i)/2 |psi>."""
    best = 0.0
    mats = [pauli_matrix(b) for b in basis]
    dim = psi.size
    for signs in range(1 << len(basis)):
        proj = np.eye(dim, dtype=complex)
        for i, P in enumerate(mats):
            s = -1.0 if signs >> i & 1 else 1.0
            proj = proj @ (np.eye(dim) + s * P) / 2.0
        best = max(best, float(np.real(np.vdot(psi, proj @ psi))))
    return best


def hoeffding_radius(m: int, delta: float) -> float:
    """Two-sided radius for the mean of m samples in [-1, 1] at confidence 1 - delta."""
    return math.sqrt(2.0 * math.log(2.0 / delta) / m)


# ---------------------------------------------------------------------------
# Graph bounds: alpha(G) <= theta(G) <= clique-cover size
# ---------------------------------------------------------------------------


def adjacency(labels: list[str]) -> list[int]:
    """Anticommutation graph as neighbour bitsets."""
    nbr = [0] * len(labels)
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if anticommute(labels[i], labels[j]):
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    return nbr


def independence_number(nbr: list[int]) -> int:
    """Exact alpha by branch and bound on bitsets (fine up to 64 vertices here)."""
    best = 0

    def grow(cand: int, size: int) -> None:
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if not cand:
            best = size
            return
        v = cand.bit_length() - 1
        grow(cand & ~nbr[v] & ~(1 << v), size + 1)  # take v
        grow(cand & ~(1 << v), size)  # skip v

    grow((1 << len(nbr)) - 1, 0)
    return best


def greedy_clique_cover(nbr: list[int]) -> int:
    """Greedy partition into cliques of G (a colouring of the complement)."""
    cliques: list[int] = []
    for v in range(len(nbr)):
        for k, members in enumerate(cliques):
            if members & ~nbr[v] == 0:
                cliques[k] |= 1 << v
                break
        else:
            cliques.append(1 << v)
    return len(cliques)


# ---------------------------------------------------------------------------
# Sets over F2^(2n): direct pair counts
# ---------------------------------------------------------------------------


def pack(text: str) -> int:
    return sum(1 << i for i, c in enumerate(text) if c == "1")


def closure_probability(members: np.ndarray) -> float:
    """#{(a, b) in S^2 : a + b in S} / |S|^2 by direct pair count."""
    sums = (members[:, None] ^ members[None, :]).ravel()
    return float(np.isin(sums, members).sum()) / members.size**2


def sumset_size(members: np.ndarray) -> int:
    return int(np.unique(members[:, None] ^ members[None, :]).size)


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_fidelity(res: dict, psi: np.ndarray, f_closed: float | None) -> list[str]:
    """fidelity: closed form where known, the argmax group attains f_s, the sandwich."""
    out = []
    n = psi.size.bit_length() - 1
    f_s = res["f_s"]
    if res["n"] != n:
        out.append(f"n {res['n']} != {n}")
    if f_closed is not None and not _close(f_s, f_closed, 1e-9):
        out.append(f"f_s {f_s!r} != closed form {f_closed!r}")
    basis = res["argmax_lagrangian"]
    if len(basis) != n or gf2_rank([pack(b) for b in basis]) != n:
        out.append("argmax basis is not n independent labels")
    elif any(anticommute(a, b) for a in basis for b in basis):
        out.append("argmax basis does not commute")
    elif not _close(stabilizer_group_fidelity(psi, basis), f_s, 1e-9):
        out.append(f"argmax group does not attain f_s {f_s!r}")
    if f_s < best_product_stabilizer_fidelity(psi) - 1e-9:
        out.append(f"f_s {f_s!r} below a product stabilizer state's fidelity")
    if not 2.0**-n - 1e-12 <= f_s <= 1.0 + 1e-12:
        out.append(f"f_s {f_s!r} outside [2^-n, 1]")
    if f_s > gamma_dense(psi) ** (1.0 / 6.0) + 1e-9:
        out.append("f_s above gamma^(1/6)")
    return out


def check_sweep(rows: list, summary: dict, per_class: int, n: int) -> list[str]:
    """sandwich-sweep rows: stabilizer rows exact, noisy rows >= 1 - noise, sandwich."""
    out = []
    if len(rows) != 3 * per_class or summary["count"] != len(rows):
        out.append(f"row count {len(rows)} != {3 * per_class}")
    worst = -math.inf
    for k, kind in enumerate(("haar", "noisy_stabilizer", "stabilizer")):
        for idx in range(per_class):
            row = rows[k * per_class + idx]
            g, f = row["gamma"], row["f_s"]
            if row["state_id"] != f"{kind}-{n}-{idx:03d}" or row["n"] != n:
                out.append(f"row id {row['state_id']!r}")
            if not (0.0 < g <= 1.0 + 1e-12 and 2.0**-n - 1e-12 <= f <= 1.0 + 1e-12):
                out.append(f"{row['state_id']}: gamma {g!r} or f_s {f!r} out of range")
                continue
            if not _close(row["gamma_to_sixth"], g ** (1.0 / 6.0), 1e-12):
                out.append(f"{row['state_id']}: gamma_to_sixth")
            if not math.isclose(row["ratio_f_over_g112"], f / g**112, rel_tol=1e-9):
                out.append(f"{row['state_id']}: ratio")
            if f > g ** (1.0 / 6.0) + 1e-9:
                out.append(f"{row['state_id']}: f_s above gamma^(1/6)")
            worst = max(worst, f - g ** (1.0 / 6.0))
            if kind == "stabilizer" and not (_close(f, 1.0, 1e-9) and _close(g, 1.0, 1e-9)):
                out.append(f"{row['state_id']}: stabilizer row f_s {f!r}, gamma {g!r}")
            if kind == "noisy_stabilizer":
                noise = 0.05 + 0.45 * (idx / max(per_class - 1, 1))
                if f < 1.0 - noise - 1e-9:
                    out.append(f"{row['state_id']}: f_s {f!r} < 1 - noise")
    if rows and not _close(summary["fact16_max_violation"], worst, 1e-12):
        out.append("fact16_max_violation")
    return out


def check_gamma_exact(res: dict, gamma: float) -> list[str]:
    if res["estimator"] != "exact" or not _close(res["gamma"], gamma, 1e-9):
        return [f"exact gamma {res['gamma']!r} != closed form {gamma!r}"]
    return []


def check_gamma_sampled(res: dict, gamma: float, m: int, delta: float) -> list[str]:
    out = []
    est = res["gamma"]
    if res["m"] != m or res["estimator"] != "sampled":
        out.append(f"m {res['m']} != {m}")
    if not _close(m * (est + 1.0) / 2.0, round(m * (est + 1.0) / 2.0), 1e-6):
        out.append(f"estimate {est!r} is not (2k - m)/m")
    if abs(est - gamma) > hoeffding_radius(m, delta):
        out.append(f"estimate {est!r} outside the Hoeffding radius of {gamma!r}")
    return out


def check_test(res: dict, gamma: float, eps1: float, eps2: float, C: float, tdelta: float,
               delta: float) -> list[str]:
    """Plan recomputed; decision consistent; decision right when gamma is clear of D."""
    out = []
    plan = res["plan"]
    D1, D2 = eps1**6, (eps2 / C) ** (1.0 / 112.0)
    m = math.ceil(72.0 * math.log(2.0 / tdelta) / eps1**12)
    if not (_close(plan["D1"], D1, 1e-12) and _close(plan["D2"], D2, 1e-12)
            and _close(plan["D"], (D1 + D2) / 2, 1e-12) and plan["m"] == m == res["m_used"]):
        out.append(f"plan {plan!r} != recomputed D1={D1!r} D2={D2!r} m={m}")
    gbar = res["gamma_bar"]
    if res["decision"] != ("Close" if gbar >= plan["D"] else "Far"):
        out.append(f"decision {res['decision']} inconsistent with gamma_bar {gbar!r}")
    radius = hoeffding_radius(m, delta)
    if abs(gbar - gamma) > radius:
        out.append(f"gamma_bar {gbar!r} outside the Hoeffding radius of {gamma!r}")
    if abs(gamma - plan["D"]) > radius and res["decision"] != ("Close" if gamma >= plan["D"] else "Far"):
        out.append(f"decision {res['decision']} wrong for gamma {gamma!r} vs D {plan['D']!r}")
    return out


def check_extract(res: dict, psi: np.ndarray, gamma: float, retry_cap: int) -> list[str]:
    out = []
    n = psi.size.bit_length() - 1
    members = res["members"]
    packed = np.array(sorted(pack(t) for t in members), dtype=np.int64)
    if not _close(res["gamma"], gamma, 1e-9):
        out.append(f"gamma {res['gamma']!r} != {gamma!r}")
    if res["size"] != len(members) or len(set(members)) != len(members):
        out.append("size does not match members")
    if not 1 <= res["retries_used"] <= retry_cap:
        out.append(f"retries_used {res['retries_used']}")
    if not members:
        return out
    mass = np.array([expectation(psi, t) ** 2 for t in members])
    if mass.min() < gamma / 4.0 - 1e-9:
        out.append(f"member with mass {mass.min()!r} below gamma/4")
    if not _close(res["min_mass"], float(mass.min()), 1e-9):
        out.append(f"min_mass {res['min_mass']!r} != {mass.min()!r}")
    closure = closure_probability(packed)
    if not _close(res["closure_prob"], closure, 1e-12):
        out.append(f"closure_prob {res['closure_prob']!r} != pair count {closure!r}")
    if res["succeeded"] and not (len(members) >= gamma / 2.0 * (1 << n) and closure >= gamma / 6.0):
        out.append("succeeded without meeting the size and closure goals")
    return out


def check_bsg(res: dict, set_members: list[str]) -> list[str]:
    """BSG bounds as criterion 8 states them, on direct pair counts."""
    out = []
    S = np.array(sorted(pack(t) for t in set_members), dtype=np.int64)
    eps = closure_probability(S)
    if res["set_size"] != S.size or not _close(res["eps"], eps, 1e-12):
        out.append(f"eps {res['eps']!r} / set_size {res['set_size']} != {eps!r} / {S.size}")
    kept = np.array(sorted(pack(t) for t in res["s_prime"]), dtype=np.int64)
    if res["s_prime_size"] != kept.size or not np.isin(kept, S).all():
        out.append("S' is not a subset of S of the reported size")
    if res["succeeded"]:
        if kept.size < eps / (2.0 * math.sqrt(2.0)) * S.size:
            out.append(f"|S'| = {kept.size} below eps/(2 sqrt 2)|S|")
        if sumset_size(kept) > 8.0 * eps**-6 * kept.size:
            out.append(f"|S'+S'| = {sumset_size(kept)} above 8 eps^-6 |S'|")
    return out


def check_uncertainty(res: dict, psi: np.ndarray, labels: list[str], tol: float,
                      alpha: int, cover: int, shape: str) -> list[str]:
    """Witness recomputed from Kronecker Paulis; alpha <= theta <= cover; closed forms per shape.

    The chain test repeats the program's own guard (a report that exits 0 meets
    it today); the other tests are computed apart from the program.
    """
    out = []
    n = psi.size.bit_length() - 1
    witness = np.array(res["witness"])
    want = np.array([np.real(np.vdot(psi, pauli_matrix(t) @ psi)) for t in labels])
    if res["m"] != len(labels) or witness.shape != want.shape:
        return [f"m {res['m']} != {len(labels)}"]
    if np.max(np.abs(witness - want)) > 1e-9:
        out.append(f"witness differs from <P_i> by {np.max(np.abs(witness - want))!r}")
    lhs, psi0, theta = res["lhs"], res["psi0_lb"], res["theta_ub"]
    if not _close(lhs, float(np.dot(want, want)), 1e-9):
        out.append(f"lhs {lhs!r} != sum <P_i>^2")
    if lhs > psi0 + 1e-8 or psi0 > theta + 10 * tol or lhs > theta + tol:
        out.append(f"chain lhs {lhs!r} <= psi0 {psi0!r} <= theta {theta!r} broken")
    if not alpha - 10 * tol <= theta <= cover + 10 * tol:
        out.append(f"theta {theta!r} outside [alpha {alpha}, cover {cover}]")
    if psi0 > cover + 10 * tol:
        out.append(f"psi0 {psi0!r} above the clique cover {cover}")
    if shape == "full":
        # Parseval: sum_x <W_x>^2 = 2^n for a pure state, so lhs = psi0 = theta = 2^n.
        if not _close(lhs, float(1 << n), 1e-9):
            out.append(f"Parseval: lhs {lhs!r} != 2^n")
        if not (_close(psi0, float(1 << n), 1e-8) and _close(theta, float(1 << n), 10 * tol)):
            out.append(f"full set: psi0 {psi0!r} or theta {theta!r} != 2^n")
    if shape == "anticommuting":
        # sum <P_i>^2 <= 1, attained by any eigenstate of a unit combination: psi0 = theta = 1.
        if lhs > 1.0 + 1e-9:
            out.append(f"anticommuting lhs {lhs!r} > 1")
        if not _close(psi0, 1.0, 1e-8):
            out.append(f"anticommuting psi0 {psi0!r} != 1")
    return out
