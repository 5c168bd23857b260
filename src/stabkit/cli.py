"""Batch experiment runner: one subcommand per pipeline component.

All randomness is derived from the mandatory --seed, and reports are
serialized deterministically (floats at 17 significant digits, insertion-
ordered keys), so identical configs reproduce byte-identical files.  Wall
clock goes to stderr only.

Exit codes: 0 success, 2 validation error, 3 certificate/invariant
violation, 4 engine cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time

import numpy as np

from . import additive, gf2, graphs, oracle, sampling, state, uncertainty
from .errors import CapExceededError, CertificateError, ValidationError

__all__ = ["Report", "run_experiment", "emit_report", "main"]


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def _format_float(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return format(value, ".17g")


def _json_encode(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _json_encode(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(",")
            _json_encode(val, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _json_dumps(obj) -> str:
    out: list[str] = []
    _json_encode(obj, out)
    return "".join(out)


def _csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    if isinstance(value, dict):
        return _json_dumps(value)
    return str(value)


@dataclasses.dataclass
class Report:
    command: str
    config: dict
    results: object  # dict or list of row dicts
    summary: dict
    wall_clock_s: float
    csv_header: list[str] | None = None  # lets an empty trial list still emit a header


def emit_report(report: Report, fmt: str = "json", path: str | None = None) -> None:
    """Write the report; wall clock is deliberately not part of the payload."""
    if fmt == "json":
        payload = {
            "command": report.command,
            "config": report.config,
            "results": report.results,
            "summary": report.summary,
        }
        text = _json_dumps(payload) + "\n"
    elif fmt == "csv":
        rows = report.results if isinstance(report.results, list) else [report.results]
        header = report.csv_header or (list(rows[0].keys()) if rows else [])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if header:
            writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row[k]) for k in header])
        text = buf.getvalue()
    else:
        raise ValidationError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# Shared config handling
# ---------------------------------------------------------------------------

_STATE_KINDS = ("stabilizer", "haar", "t_tensor", "noisy_stabilizer")


def _get(cfg: dict, key: str, default):
    """cfg[key], or the default only when the flag is unset (a 0 is kept).

    For defaults that depend on the branch taken; argparse holds none for
    these flags, so the config echo lists them only when they were given.
    """
    value = cfg[key]
    return default if value is None else value


def _require_seed(cfg: dict) -> np.random.Generator:
    if cfg["seed"] is None:
        raise ValidationError("--seed is mandatory for randomized commands")
    return np.random.default_rng(cfg["seed"])


def _load_state(cfg: dict, rng: np.random.Generator | None = None) -> state.PureState:
    """The input state: read from --state-file, or generated from --kind and --n.

    Without a stream from the command, --seed seeds the generation.  A seed
    is mandatory unless the state comes from --state-file or is t_tensor.
    """
    if cfg["state_file"]:
        with open(cfg["state_file"], encoding="ascii") as handle:
            return state.state_from_json_dict(json.load(handle))
    if cfg["kind"] is None:
        raise ValidationError("--kind or --state-file is required")
    if cfg["n"] is None:
        raise ValidationError("--n is required when generating a state")
    return state.generate_state(
        cfg["kind"], cfg["n"], cfg["seed"], noise=_get(cfg, "noise", 0.0), rng=rng
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_gamma(cfg: dict) -> tuple[dict, dict]:
    if cfg["exact"]:
        return {"estimator": "exact", "gamma": state.gamma_exact(_load_state(cfg))}, {}
    rng = _require_seed(cfg)
    psi = _load_state(cfg, rng)
    m = _get(cfg, "m", 100_000)
    return {
        "estimator": "sampled",
        "gamma": sampling.estimate_gamma(psi, m, rng),
        "m": m,
    }, {}


def _cmd_test(cfg: dict) -> tuple[dict, dict]:
    rng = _require_seed(cfg)
    psi = _load_state(cfg, rng)
    plan = sampling.plan_test(cfg["eps1"], cfg["eps2"], cfg["C"], cfg["delta"])
    if cfg["m_override"] is not None:
        plan = dataclasses.replace(plan, m=cfg["m_override"])
    outcome = sampling.run_tolerant_test(psi, plan, rng)
    return {
        "decision": outcome.decision,
        "gamma_bar": outcome.gamma_bar,
        "m_used": outcome.m_used,
        "plan": {
            "D1": plan.D1, "D2": plan.D2, "D": plan.D,
            "m": plan.m, "half_gap": plan.half_gap,
        },
    }, {}


def _cmd_fidelity(cfg: dict) -> tuple[dict, dict]:
    psi = _load_state(cfg)
    report = oracle.stabilizer_fidelity_exact(psi)
    best = report.argmax_lagrangian
    return {
        "f_s": report.f_s,
        "argmax_lagrangian": [lab.to_string() for lab in best.labels()],
        "argmax_character": report.argmax_character,
        "n": psi.n,
    }, {}


def _cmd_sandwich_sweep(cfg: dict) -> tuple[list, dict]:
    rng = _require_seed(cfg)
    per_class, n_values = cfg["per_class"], cfg["n_values"]
    if per_class < 0:
        raise ValidationError(f"per-class count must be >= 0, got {per_class}")
    rows = []
    worst = -np.inf
    for kind in ("haar", "noisy_stabilizer", "stabilizer"):
        for idx in range(per_class):
            n = n_values[idx % len(n_values)]
            noise = 0.05 + 0.45 * (idx / max(per_class - 1, 1)) if kind == "noisy_stabilizer" else 0.0
            psi = state.generate_state(kind, n, noise=noise, rng=rng)
            gamma = state.gamma_exact(psi)
            f_s = oracle.stabilizer_fidelity_exact(psi).f_s
            sixth = gamma ** (1.0 / 6.0)
            worst = max(worst, f_s - sixth)
            if f_s > sixth + 1e-9:
                raise CertificateError(
                    f"fidelity sandwich violated: F_S {f_s!r} > gamma^(1/6) {sixth!r}"
                )
            rows.append({
                "state_id": f"{kind}-{n}-{idx:03d}",
                "n": n,
                "gamma": gamma,
                "f_s": f_s,
                "gamma_to_sixth": sixth,
                "ratio_f_over_g112": f_s / gamma**112 if gamma > 0 else float("inf"),
            })
    # An empty sweep has no worst case; null, not -Infinity, goes in the report.
    return rows, {"count": len(rows), "fact16_max_violation": worst if rows else None}


def _build_graph(cfg: dict) -> graphs.SimpleGraph:
    sources = [key for key in ("pauli_graph", "symplectic_graph", "complete", "empty", "cycle", "graph_file") if cfg[key] is not None]
    if len(sources) != 1:
        raise ValidationError(f"need exactly one graph source, got {sources}")
    key = sources[0]
    if key == "graph_file":
        with open(cfg[key], encoding="ascii") as handle:
            return graphs.parse_graph(handle.read())
    value = cfg[key]
    if key == "pauli_graph":
        return graphs.pauli_group_graph(value)
    if key == "symplectic_graph":
        return graphs.symplectic_graph(value)
    if key == "complete":
        return graphs.complete_graph(value)
    if key == "empty":
        return graphs.empty_graph(value)
    return graphs.cycle_graph(value)


def _cmd_theta(cfg: dict) -> tuple[dict, dict]:
    g = _build_graph(cfg)
    result = graphs.lovasz_theta(g, cfg["tol"])
    if not result.converged:
        raise CertificateError(
            f"theta solver did not converge; residuals {result.residuals!r}"
        )
    return {
        "value": result.value,
        "order": g.order,
        "iterations": result.iterations,
        "residuals": result.residuals,
        "upper": result.upper,
    }, {}


def _cmd_uncertainty(cfg: dict) -> tuple[dict, dict]:
    rng = _require_seed(cfg)
    psi = _load_state(cfg, rng)
    if cfg["labels_file"]:
        with open(cfg["labels_file"], encoding="ascii") as handle:
            labels = gf2.parse_labels(handle.read())
    else:
        count = _get(cfg, "random_labels", 8)
        if not 0 <= count <= 1 << (2 * psi.n):
            raise ValidationError(f"cannot draw {count} distinct labels at n={psi.n}")
        picks = rng.choice(1 << (2 * psi.n), size=count, replace=False)
        labels = [gf2.WeylLabel(int(b), psi.n) for b in picks]
    cert = uncertainty.uncertainty_certificate(
        psi,
        labels,
        theta_tol=cfg["theta_tol"],
        restarts=cfg["restarts"],
        rng=rng,
    )
    return {
        "m": len(labels),
        "lhs": cert.lhs,
        "psi0_lb": cert.psi0_lb,
        "theta_ub": cert.theta_ub,
        "witness": cert.witness.tolist(),
    }, {
        "theta_lower": cert.theta.value,
        "theta_iterations": cert.theta.iterations,
        "theta_solver": cert.theta.solver,
    }


def _cmd_extract(cfg: dict) -> tuple[dict, dict]:
    rng = _require_seed(cfg)
    psi = _load_state(cfg, rng)
    gamma = _get(cfg, "gamma", state.gamma_exact(psi))  # cached on psi; extraction needs it too
    report = additive.extract_nearly_linear_set(psi, gamma, rng, retry_cap=cfg["retry_cap"])
    return {
        "gamma": gamma,
        "size": report.size,
        "min_mass": report.min_mass,
        "closure_prob": report.closure_prob,
        "succeeded": report.succeeded,
        "retries_used": report.retries_used,
        "members": [lab.to_string() for lab in report.set.labels()],
    }, {}


def _cmd_bsg(cfg: dict) -> tuple[dict, dict]:
    rng = _require_seed(cfg)
    if cfg["set_file"]:
        with open(cfg["set_file"], encoding="ascii") as handle:
            S = additive.parse_set(handle.read())
    else:
        if cfg["n"] is None:
            raise ValidationError("--n is required without --set-file")
        n = cfg["n"]
        V = gf2.random_subspace(n, _get(cfg, "subspace_dim", n), rng)
        room = (1 << (2 * n)) - V.size  # labels left for junk; more would never be drawn
        if not 0 <= cfg["junk"] <= room:
            raise ValidationError(f"junk count must be in [0, {room}], got {cfg['junk']}")
        members = set(V.element_bits)
        while len(members) < V.size + cfg["junk"]:
            members.add(int(rng.integers(1 << (2 * n))))
        S = additive.GF2Set.from_indices(members, n)
    eps = cfg["eps"] if cfg["eps"] is not None else (
        additive.representation_counts(S)["closure_prob"]
    )
    result = additive.bsg_extract(S, eps, rng, trials=cfg["trials"])
    payload = {
        "eps": eps,
        "set_size": S.size,
        "succeeded": result.succeeded,
        "z_used": result.z_used.to_string(),
        "s_prime_size": result.s_prime.size,
        "s_prime": [lab.to_string() for lab in result.s_prime.labels()],
        "stats": result.stats,
    }
    if cfg["pfr_search"] and result.s_prime.size:
        cover = additive.brute_force_subspace_cover(result.s_prime)
        payload["pfr_search"] = {
            "subspace": [lab.to_string() for lab in cover["subspace"].labels()],
            "translate_count": cover["translate_count"],
            "doubling": cover["doubling"],
            "translate_bound": cover["translate_bound"],
        }
    return payload, {}


def _cmd_cover(cfg: dict) -> tuple[dict, dict]:
    if cfg["subspace_file"]:
        with open(cfg["subspace_file"], encoding="ascii") as handle:
            V = gf2.parse_subspace(handle.read())
    else:
        rng = _require_seed(cfg)
        if cfg["n"] is None:
            raise ValidationError("--n is required without --subspace-file")
        n = cfg["n"]
        V = gf2.random_subspace(n, _get(cfg, "dim", n), rng)
    parts = gf2.isotropic_cover(V)
    union = set()
    for part in parts:
        union |= set(part.element_bits)
    union_exact = union == set(V.element_bits)
    if not union_exact or len(parts) > (1 << V.k) + 1:
        raise CertificateError("isotropic cover failed its own contract")
    return {
        "n": V.n,
        "dim": V.dim,
        "k": V.k,
        "m": V.m,
        "part_count": len(parts),
        "bound": (1 << V.k) + 1,
        "union_exact": union_exact,
        "parts": [[lab.to_string() for lab in part.labels()] for part in parts],
    }, {}


_COMMANDS = {
    "gamma": _cmd_gamma,
    "test": _cmd_test,
    "fidelity": _cmd_fidelity,
    "sandwich-sweep": _cmd_sandwich_sweep,
    "theta": _cmd_theta,
    "uncertainty": _cmd_uncertainty,
    "extract": _cmd_extract,
    "bsg": _cmd_bsg,
    "cover": _cmd_cover,
}

_CSV_HEADERS = {
    "sandwich-sweep": ["state_id", "n", "gamma", "f_s", "gamma_to_sixth", "ratio_f_over_g112"],
}


def run_experiment(config: dict) -> Report:
    """Dispatch a validated config to its command; all randomness comes from the seed."""
    command = config["command"]
    if command not in _COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    started = time.perf_counter()
    results, summary = _COMMANDS[command](config)
    elapsed = time.perf_counter() - started
    echo = {k: v for k, v in sorted(config.items()) if v is not None and k != "command"}
    echo["threads"] = 1  # computation is single-threaded; kept so report bytes stay stable
    return Report(
        command=command,
        config=echo,
        results=results,
        summary=summary,
        wall_clock_s=elapsed,
        csv_header=_CSV_HEADERS.get(command),
    )


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and inf are rejected like non-numbers."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r} (need a finite number)")
    return value


def _add_state_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", choices=_STATE_KINDS)
    sub.add_argument("--n", type=int)
    sub.add_argument("--noise", type=_finite_float)
    sub.add_argument("--state-file", dest="state_file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabkit", description="Stabilizer-testing experiment runner"
    )
    parser.add_argument(
        "--config", help="JSON file of flag values, parsed like flags; command-line flags win"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = {"--seed": dict(type=int), "--out": dict(), "--format": dict(choices=("json", "csv"), default="json")}

    def add(name):
        p = sub.add_parser(name)
        for flag, kwargs in common.items():
            p.add_argument(flag, **kwargs)
        return p

    p = add("gamma")
    _add_state_flags(p)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--m", type=int)

    p = add("test")
    _add_state_flags(p)
    p.add_argument("--eps1", type=_finite_float, required=True)
    p.add_argument("--eps2", type=_finite_float, required=True)
    p.add_argument("--C", type=_finite_float, default=1.0)
    p.add_argument("--delta", type=_finite_float, default=1.0 / 3.0)
    p.add_argument("--m-override", dest="m_override", type=int)

    p = add("fidelity")
    _add_state_flags(p)

    p = add("sandwich-sweep")
    p.add_argument("--per-class", dest="per_class", type=int, default=10)
    p.add_argument(
        "--n-values",
        dest="n_values",
        type=lambda s: [int(x) for x in s.split(",")],
        default=[1, 2, 3, 4],
    )

    p = add("theta")
    p.add_argument("--pauli-graph", dest="pauli_graph", type=int)
    p.add_argument("--symplectic-graph", dest="symplectic_graph", type=int)
    p.add_argument("--complete", type=int)
    p.add_argument("--empty", type=int)
    p.add_argument("--cycle", type=int)
    p.add_argument("--graph-file", dest="graph_file")
    p.add_argument("--tol", type=_finite_float, default=1e-6)

    p = add("uncertainty")
    _add_state_flags(p)
    p.add_argument("--labels-file", dest="labels_file")
    p.add_argument("--random-labels", dest="random_labels", type=int)
    p.add_argument("--theta-tol", dest="theta_tol", type=_finite_float, default=1e-6)
    p.add_argument("--restarts", type=int, default=8)

    p = add("extract")
    _add_state_flags(p)
    p.add_argument("--gamma", type=_finite_float)
    p.add_argument("--retry-cap", dest="retry_cap", type=int, default=200)

    p = add("bsg")
    p.add_argument("--set-file", dest="set_file")
    p.add_argument("--n", type=int)
    p.add_argument("--subspace-dim", dest="subspace_dim", type=int)
    p.add_argument("--junk", type=int, default=0)
    p.add_argument("--eps", type=_finite_float)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--pfr-search", dest="pfr_search", action="store_true",
                   help="also brute-force the best covering subspace of S' (2n <= 8)")

    p = add("cover")
    p.add_argument("--subspace-file", dest="subspace_file")
    p.add_argument("--n", type=int)
    p.add_argument("--dim", type=int)

    return parser


def _config_flags(file_cfg: dict) -> list[str]:
    """Config-file entries as flags: true sets a switch, false and null are unset."""
    flags = []
    for key, value in file_cfg.items():
        flag = "--" + str(key).replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not False and value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            flags.append(f"{flag}={text}")
    return flags


def _parse_config(argv: list[str]) -> dict:
    """Command line and --config file, resolved in one argparse pass.

    The file's values become flags placed right after the command name, so
    they meet the same types and choices as typed flags, and a flag given on
    the command line, in either the --C 1 or the --C=1 form, comes later and
    wins.
    """
    parser = _build_parser()
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config:
        try:
            with open(known.config, encoding="ascii") as handle:
                file_cfg = json.load(handle)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if not isinstance(file_cfg, dict):
            parser.error("config file must hold a JSON object")
        rest[1:1] = _config_flags(file_cfg)
    config = vars(parser.parse_args(rest))
    del config["config"]
    return config


def main(argv: list[str] | None = None) -> int:
    config = _parse_config(list(sys.argv[1:] if argv is None else argv))
    out_path = config.pop("out")
    fmt = config.pop("format")
    try:
        report = run_experiment(config)
        emit_report(report, fmt, out_path)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 4
    print(f"# wall_clock_s={report.wall_clock_s:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
