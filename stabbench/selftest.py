"""Self-test of the report checks: genuine reports pass, corrupted ones are rejected.

    python3 stabbench/selftest.py

For each workload it runs one item of each input shape from one round
(seed 1) through stabkit and checks the genuine reports.  Then it applies
one corruption at a time (f_s shifted by 1e-6, one witness sign flipped,
theta below alpha, ...), each aimed at one check, and requires that check's
message among the problems found.  Exits 1 if any genuine report fails, any
item exits other than as its named fault, or any corruption is not caught
by the check it aims at.
"""

import copy
import json
import os
import sys

import run  # first: it applies its BLAS thread default before numpy loads

import numpy as np


def res(k):
    """The results of the k-th report of an item."""
    return lambda reports: reports[k]["results"]


def setter(get, key, value):
    """A corruption that sets get(reports)[key] to value(old value)."""
    def corrupt(reports):
        target = get(reports)
        target[key] = value(target[key])
    return corrupt


def both(*corruptions):
    def corrupt(reports):
        for c in corruptions:
            c(reports)
    return corrupt


def row(k):
    return lambda reports: reports[0]["results"][k]


def _flip_last_bit(rows: list) -> list:
    return [rows[0][:-1] + ("1" if rows[0][-1] == "0" else "0")] + rows[1:]


def _flip_largest(witness: list) -> list:
    k = max(range(len(witness)), key=lambda i: abs(witness[i]))
    return witness[:k] + [-witness[k]] + witness[k + 1:]


def _outside(members: list, count: int) -> list:
    """count labels of the same length that are not in members, spread over the space."""
    n2 = len(members[0])
    rng = np.random.default_rng(0)
    out = []
    for bits in rng.permutation(1 << n2):
        text = "".join("1" if int(bits) >> i & 1 else "0" for i in range(n2))
        if text not in members:
            out.append(text)
        if len(out) == count:
            return out
    raise ValueError("too few labels outside the set")


SUMSET_SPREAD = 30  # labels outside the extracted group: |S'+S'| ~ 30^2 / 2 > 8 |S'|

f0, f1, f2, f3, f4 = (res(k) for k in range(5))

# (workload, shape) -> [(label, text the aimed check's message contains, corruption)]
CORRUPTIONS = {
    ("fidelity-sweep", "graph"): [
        ("f_s + 1e-6", "closed form", setter(f0, "f_s", lambda v: v + 1e-6)),
    ],
    ("fidelity-sweep", "product"): [
        ("f_s - 1e-6", "closed form", setter(f0, "f_s", lambda v: v - 1e-6)),
    ],
    ("fidelity-sweep", "haar"): [
        ("f_s - 1e-6", "argmax group does not attain", setter(f0, "f_s", lambda v: v - 1e-6)),
        ("argmax basis row changed", "argmax", setter(f0, "argmax_lagrangian", _flip_last_bit)),
        ("f_s = 2^-n", "below a product stabilizer",
         lambda r: f0(r).__setitem__("f_s", 2.0 ** -f0(r)["n"])),
        ("f_s = 1.5", "outside [2^-n, 1]", setter(f0, "f_s", lambda v: 1.5)),
        ("f_s = 0.999", "above gamma^(1/6)", setter(f0, "f_s", lambda v: 0.999)),
    ],
    ("fidelity-sweep", "sweep"): [
        ("row id changed", "row id", setter(row(0), "state_id", lambda v: v + "x")),
        ("stabilizer row f_s - 1e-6", "stabilizer row", setter(row(-1), "f_s", lambda v: v - 1e-6)),
        ("noisy row f_s = 0.9", "< 1 - noise", setter(row(1), "f_s", lambda v: 0.9)),
        ("haar row f_s = 0.999", "above gamma^(1/6)", setter(row(0), "f_s", lambda v: 0.999)),
        ("gamma_to_sixth + 1e-9", "gamma_to_sixth", setter(row(0), "gamma_to_sixth", lambda v: v + 1e-9)),
        ("ratio x 1.01", "ratio", setter(row(0), "ratio_f_over_g112", lambda v: v * 1.01)),
        ("fact16_max_violation + 1e-9", "fact16", setter(
            lambda r: r[0]["summary"], "fact16_max_violation", lambda v: v + 1e-9)),
    ],
    ("uncertainty-chain", "random"): [
        ("largest witness sign flipped", "witness differs", setter(f0, "witness", _flip_largest)),
        ("lhs + 1e-6", "!= sum <P_i>^2", setter(f0, "lhs", lambda v: v + 1e-6)),
        ("theta_ub = 0.5, below alpha", "outside [alpha", setter(f0, "theta_ub", lambda v: 0.5)),
        ("theta_ub = 1000, above the cover", "outside [alpha", setter(f0, "theta_ub", lambda v: 1e3)),
        ("psi0 = theta = 1000", "above the clique cover", both(
            setter(f0, "psi0_lb", lambda v: 1e3), setter(f0, "theta_ub", lambda v: 1e3))),
    ],
    ("uncertainty-chain", "full"): [
        ("lhs - 1e-6", "Parseval", setter(f0, "lhs", lambda v: v - 1e-6)),
        ("psi0 - 0.01", "full set", setter(f0, "psi0_lb", lambda v: v - 0.01)),
        ("theta - 0.01", "full set", setter(f0, "theta_ub", lambda v: v - 0.01)),
    ],
    ("uncertainty-chain", "anticommuting"): [
        ("lhs = 1.5", "anticommuting lhs", setter(f0, "lhs", lambda v: 1.5)),
        ("psi0 = 0.9", "anticommuting psi0", setter(f0, "psi0_lb", lambda v: 0.9)),
    ],
    ("tester-pipeline", "graph"): [
        ("exact gamma + 1e-6", "exact gamma", setter(f0, "gamma", lambda v: v + 1e-6)),
        ("sampled gamma - 0.4", "outside the Hoeffding radius", setter(f1, "gamma", lambda v: v - 0.4)),
        ("sampled gamma + 1e-5", "is not (2k - m)/m", setter(f1, "gamma", lambda v: v + 1e-5)),
        ("test decision flipped", "inconsistent", setter(
            f2, "decision", lambda v: {"Close": "Far", "Far": "Close"}[v])),
        ("test gamma_bar = 0.6", "gamma_bar 0.6 outside", setter(f2, "gamma_bar", lambda v: 0.6)),
        ("test Far with gamma_bar = 0.4", "wrong for gamma", both(
            setter(f2, "decision", lambda v: "Far"), setter(f2, "gamma_bar", lambda v: 0.4))),
        ("test plan m + 1", "plan", lambda r: f2(r)["plan"].__setitem__("m", f2(r)["plan"]["m"] + 1)),
        ("extract closure_prob + 1e-6", "closure_prob", setter(f3, "closure_prob", lambda v: v + 1e-6)),
        ("extract min_mass + 1e-6", "min_mass", setter(f3, "min_mass", lambda v: v + 1e-6)),
        ("extract gains a zero-mass label", "below gamma/4", setter(
            f3, "members", lambda v: v + _outside(v, 1))),
        ("extract keeps one member", "succeeded without", both(
            setter(f3, "members", lambda v: v[:1]), setter(f3, "size", lambda v: 1))),
        ("bsg eps + 1e-6", "eps", setter(f4, "eps", lambda v: v + 1e-6)),
        ("bsg S' gains a non-member", "not a subset", lambda r: f4(r).__setitem__(
            "s_prime", f4(r)["s_prime"] + _outside(f3(r)["members"], 1))),
        ("bsg S' keeps one member", "below eps/(2 sqrt 2)", both(
            setter(f4, "s_prime", lambda v: v[:1]), setter(f4, "s_prime_size", lambda v: 1))),
        (f"bsg S' = {SUMSET_SPREAD} spread labels", "above 8 eps^-6", lambda r: f4(r).update(
            s_prime=_outside(f3(r)["members"], SUMSET_SPREAD), s_prime_size=SUMSET_SPREAD)),
    ],
}


def main() -> int:
    cli = run.import_stabkit()
    import workloads

    bad = 0
    for workload in workloads.WORKLOADS.values():
        work = os.path.join(run.HERE, "work", "selftest", workload.name)
        os.makedirs(work, exist_ok=True)
        seen = set()
        for item in workload.round(np.random.default_rng([1, 0]), work):
            key = (workload.name, item.shape)
            if key in seen or key not in CORRUPTIONS:
                continue
            _, code = run.run_item(cli, item)
            if code:
                if code != item.fault_exit:
                    print(f"{workload.name:18s} {item.name:16s} exited {code}")
                    bad += 1
                continue  # the named fault's item: no report to check
            seen.add(key)
            reports = [json.loads(t) for t in run.read_reports(item)]
            problems = item.check(reports)
            print(f"{workload.name:18s} {item.name:16s} genuine report: "
                  f"{'passes' if not problems else 'FAILS ' + '; '.join(problems)}")
            bad += bool(problems)
            for label, aim, corrupt in CORRUPTIONS[key]:
                changed = copy.deepcopy(reports)
                corrupt(changed)
                hit = [p for p in item.check(changed) if aim in p]
                print(f"{'':18s} {'':16s} {label:34s} "
                      f"{'rejected: ' + hit[0] if hit else 'NOT REJECTED by ' + repr(aim)}")
                bad += not hit
        missing = [k for k in CORRUPTIONS if k[0] == workload.name and k not in seen]
        for key in missing:
            print(f"{workload.name:18s} no item of shape {key[1]!r} in the round")
        bad += len(missing)
    print("self-test", "passed" if not bad else f"FAILED ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
