"""CLI: command dispatch, file formats, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stabkit import additive, cli, gf2, state, uncertainty
from stabkit.gf2 import WeylLabel, span_and_classify, format_subspace
from stabkit.state import generate_state, state_to_json_dict


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def test_gamma_exact_payload(tmp_path):
    code, payload = run_to_file(
        tmp_path, "g.json", ["gamma", "--kind", "t_tensor", "--n", "1", "--exact"]
    )
    assert code == 0
    doc = json.loads(payload)
    assert doc["command"] == "gamma"
    assert abs(doc["results"]["gamma"] - 0.625) < 1e-9
    # 17-significant-digit float contract.
    assert b"0.62499999999999933" in payload


def test_tester_on_stabilizer_close(tmp_path):
    code, payload = run_to_file(
        tmp_path,
        "t.json",
        ["test", "--kind", "stabilizer", "--n", "3", "--eps1", "0.9",
         "--eps2", "1e-40", "--C", "1", "--delta", "0.333", "--seed", "7"],
    )
    assert code == 0
    doc = json.loads(payload)
    assert doc["results"]["decision"] == "Close"
    assert doc["results"]["gamma_bar"] == 1


def test_theta_pauli_graph(tmp_path):
    code, payload = run_to_file(
        tmp_path, "th.json", ["theta", "--pauli-graph", "2", "--tol", "1e-6"]
    )
    assert code == 0
    doc = json.loads(payload)
    assert abs(doc["results"]["value"] - 4.0) < 1e-5


def test_state_file_input(tmp_path):
    psi = generate_state("haar", 2, seed=5)
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(state_to_json_dict(psi)))
    code, payload = run_to_file(
        tmp_path, "gf.json", ["gamma", "--state-file", str(state_path), "--exact"]
    )
    assert code == 0
    from stabkit.state import gamma_exact

    assert json.loads(payload)["results"]["gamma"] == pytest.approx(gamma_exact(psi))


def test_subspace_file_cover(tmp_path):
    V = span_and_classify(
        [WeylLabel.from_string("100100"), WeylLabel.from_string("010010")]
    )
    sub_path = tmp_path / "v.txt"
    sub_path.write_text(format_subspace(V))
    code, payload = run_to_file(
        tmp_path, "c.json", ["cover", "--subspace-file", str(sub_path)]
    )
    assert code == 0
    doc = json.loads(payload)
    assert doc["results"]["union_exact"] is True
    assert doc["results"]["part_count"] <= doc["results"]["bound"]


def test_sandwich_sweep_csv_columns(tmp_path):
    code, payload = run_to_file(
        tmp_path,
        "s.csv",
        ["sandwich-sweep", "--per-class", "2", "--n-values", "1,2",
         "--seed", "3", "--format", "csv"],
    )
    assert code == 0
    lines = payload.decode().splitlines()
    assert lines[0] == "state_id,n,gamma,f_s,gamma_to_sixth,ratio_f_over_g112"
    assert len(lines) == 1 + 6  # three classes, two states each


def test_uncertainty_command(tmp_path):
    code, payload = run_to_file(
        tmp_path,
        "u.json",
        ["uncertainty", "--kind", "haar", "--n", "2", "--random-labels", "6",
         "--seed", "11", "--theta-tol", "1e-5"],
    )
    assert code == 0
    doc = json.loads(payload)["results"]
    assert doc["lhs"] <= doc["psi0_lb"] + 1e-8
    assert doc["psi0_lb"] <= doc["theta_ub"] + 1e-4


def test_extract_and_bsg_commands(tmp_path):
    code, payload = run_to_file(
        tmp_path,
        "e.json",
        ["extract", "--kind", "stabilizer", "--n", "3", "--seed", "13"],
    )
    assert code == 0
    doc = json.loads(payload)["results"]
    assert doc["succeeded"] is True and doc["size"] == 8

    code, payload = run_to_file(
        tmp_path,
        "b.json",
        ["bsg", "--n", "3", "--subspace-dim", "3", "--junk", "2", "--seed", "17",
         "--pfr-search"],
    )
    assert code == 0
    doc = json.loads(payload)["results"]
    assert doc["succeeded"] is True
    assert doc["pfr_search"]["translate_count"] >= 1


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "t_tensor", "n": 1, "exact": True}))
    code, payload = run_to_file(
        tmp_path, "m.json", ["--config", str(cfg), "gamma", "--n", "2"]
    )
    assert code == 0
    doc = json.loads(payload)
    assert doc["config"]["n"] == 2  # explicit flag wins
    assert doc["config"]["kind"] == "t_tensor"  # file fills the rest
    assert doc["results"]["gamma"] == pytest.approx(0.625**2)


def test_config_file_values_parse_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"C": "abc"}))
    test_argv = ["test", "--kind", "stabilizer", "--n", "1", "--eps1", "0.9",
                 "--eps2", "1e-40", "--seed", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg)] + test_argv)
    assert exc.value.code == 2  # argparse rejects the value, as it would a flag
    assert "invalid float value: 'abc'" in capsys.readouterr().err

    cfg.write_text(json.dumps({"C": 5, "delta": 0.25}))
    code, payload = run_to_file(tmp_path, "c.json", ["--config", str(cfg)] + test_argv + ["--C=2"])
    assert code == 0
    doc = json.loads(payload)
    assert doc["config"]["C"] == 2  # the --flag=value form wins over the file
    assert doc["config"]["delta"] == 0.25


def test_exit_codes(tmp_path, capsys):
    assert cli.main(["gamma", "--kind", "haar", "--n", "2"]) == 2  # missing seed
    assert cli.main(["fidelity", "--kind", "haar", "--n", "9", "--seed", "1"]) == 4
    assert cli.main(["fidelity", "--kind", "haar", "--n", "6", "--seed", "1"]) == 4
    assert (
        cli.main(
            ["test", "--kind", "haar", "--n", "2", "--eps1", "0.5",
             "--eps2", "0.9", "--seed", "1"]
        )
        == 2
    )
    capsys.readouterr()


def test_deterministic_reports(tmp_path):
    for name, argv in {
        "gamma": ["gamma", "--kind", "haar", "--n", "3", "--m", "2000", "--seed", "5"],
        "sweep": ["sandwich-sweep", "--per-class", "2", "--seed", "9"],
        "extract": ["extract", "--kind", "t_tensor", "--n", "3", "--seed", "2"],
    }.items():
        _, first = run_to_file(tmp_path, f"{name}-1.json", argv)
        _, second = run_to_file(tmp_path, f"{name}-2.json", argv)
        assert first == second


def test_wall_clock_not_in_payload(tmp_path):
    _, payload = run_to_file(
        tmp_path, "w.json", ["gamma", "--kind", "t_tensor", "--n", "1", "--exact"]
    )
    assert b"wall_clock" not in payload


def test_empty_sweep_emits_header_only_csv(tmp_path):
    code, payload = run_to_file(
        tmp_path,
        "empty.csv",
        ["sandwich-sweep", "--per-class", "0", "--seed", "1", "--format", "csv"],
    )
    assert code == 0
    assert payload.decode() == "state_id,n,gamma,f_s,gamma_to_sixth,ratio_f_over_g112\n"


def test_uncertainty_labels_file(tmp_path):
    labels_path = tmp_path / "labels.txt"
    labels_path.write_text("1000\n0010\n1010\n")  # X1, Z1, Y1 at n=2
    code, payload = run_to_file(
        tmp_path,
        "ulf.json",
        ["uncertainty", "--kind", "stabilizer", "--n", "2", "--seed", "19",
         "--labels-file", str(labels_path)],
    )
    assert code == 0
    doc = json.loads(payload)["results"]
    assert doc["m"] == 3
    assert doc["lhs"] <= 1.0 + 1e-9  # mutually anticommuting triple


def test_uncertainty_on_all_three_qubit_labels_closes_theta_in_the_bounds_stage(tmp_path):
    from stabkit.gf2 import format_label_bits

    labels_path = tmp_path / "full3.txt"
    labels_path.write_text(format_label_bits(np.arange(64), 3))
    code, payload = run_to_file(
        tmp_path, "full3.json",
        ["uncertainty", "--kind", "haar", "--n", "3", "--seed", "3", "--labels-file",
         str(labels_path)],
    )
    assert code == 0
    doc = json.loads(payload)
    assert doc["summary"]["theta_iterations"] == 0 and doc["summary"]["theta_solver"] == "bounds"
    assert doc["results"]["theta_ub"] == pytest.approx(8.0, abs=1e-6)  # Parseval: 2^n


def test_theta_graph_file(tmp_path):
    from stabkit.graphs import cycle_graph, format_graph

    graph_path = tmp_path / "c5.txt"
    graph_path.write_text(format_graph(cycle_graph(5)))
    code, payload = run_to_file(
        tmp_path, "gf5.json", ["theta", "--graph-file", str(graph_path)]
    )
    assert code == 0
    assert json.loads(payload)["results"]["value"] == pytest.approx(5**0.5, abs=1e-5)


def test_theta_and_uncertainty_report_the_bracket(tmp_path):
    code, payload = run_to_file(tmp_path, "th.json", ["theta", "--cycle", "5"])
    assert code == 0
    res = json.loads(payload)["results"]
    assert list(res) == ["value", "order", "iterations", "residuals", "upper", "gap", "converged"]
    assert res["value"] <= 5**0.5 <= res["upper"] <= res["value"] + 1e-6
    assert res["gap"] == res["upper"] - res["value"] and res["converged"] is True
    # alpha(C5) = 2 < sqrt(5) < 3, but C5 is edge-transitive: the eigenvalue pair closes it.
    assert res["iterations"] == 0

    code, payload = run_to_file(
        tmp_path, "u.json",
        ["uncertainty", "--kind", "haar", "--n", "2", "--random-labels", "6", "--seed", "4"],
    )
    assert code == 0
    doc = json.loads(payload)
    summary = doc["summary"]
    assert list(summary) == ["theta_lower", "theta_gap", "theta_iterations", "theta_solver",
                             "ascent_steps"]
    assert summary["theta_solver"] in ("bounds", "ipm")
    assert (summary["theta_iterations"] == 0) == (summary["theta_solver"] == "bounds")
    assert summary["theta_lower"] <= doc["results"]["theta_ub"] <= summary["theta_lower"] + 1e-6
    assert summary["theta_gap"] == doc["results"]["theta_ub"] - summary["theta_lower"]
    assert 1 <= summary["ascent_steps"] <= 500


def test_unconverged_theta_fails_the_certificate(monkeypatch, capsys):
    real = uncertainty.lovasz_theta
    monkeypatch.setattr(
        uncertainty, "lovasz_theta",
        lambda g, tol: dataclasses.replace(real(g, tol), converged=False),
    )
    argv = ["uncertainty", "--kind", "haar", "--n", "2", "--random-labels", "6", "--seed", "4"]
    assert cli.main(argv) == 3
    assert "theta solver did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("n, count, seed", [
    (6, 40, 1),  # 380 Schur rows; exited 3 once Douglas-Rachford ran 50,000 iterations
    (5, 33, 2), (5, 64, 3), (6, 36, 7), (6, 64, 5),
])
def test_uncertainty_on_dense_label_sets(tmp_path, n, count, seed):
    # From about 33 labels the anti-commutation graph has over 256 Schur rows.
    argv = ["uncertainty", "--kind", "haar", "--n", str(n), "--random-labels", str(count),
            "--seed", str(seed), "--theta-tol", "1e-6"]
    code, payload = run_to_file(tmp_path, "u.json", argv)
    assert code == 0
    assert json.loads(payload)["summary"]["theta_gap"] <= 1e-6


@pytest.mark.parametrize("seed", [1, 2])
def test_theta_dense_graph_file(tmp_path, seed):
    from stabkit.graphs import SimpleGraph, format_graph

    rng = np.random.default_rng(seed)  # orders 51 and 60, 883 and 673 edges
    order = int(rng.integers(40, 65))
    adj = np.triu(rng.random((order, order)) < rng.uniform(0.3, 0.8), 1)
    graph_path = tmp_path / "dense.txt"
    graph_path.write_text(format_graph(SimpleGraph(adj | adj.T)))
    code, payload = run_to_file(tmp_path, "t.json", ["theta", "--graph-file", str(graph_path)])
    assert code == 0
    res = json.loads(payload)["results"]
    assert res["converged"] is True and res["gap"] <= 1e-6


@pytest.mark.parametrize("source", ["random", "file", "restarts"])
def test_uncertainty_label_count_capped_before_the_ascent(tmp_path, monkeypatch, capsys, source):
    # 1,000 labels at n = 6 once stacked their matrices and ran the ascent before exiting 4.
    # Restarts stack a 4^n-entry matrix each per round: above the cap nothing is drawn.
    calls, drawn = [], []
    monkeypatch.setattr(uncertainty, "weyl_matrices", lambda *a: calls.append(a))
    monkeypatch.setattr(uncertainty, "_ascend", lambda *a: calls.append(a))
    real_generate = state.generate_state
    monkeypatch.setattr(state, "generate_state",
                        lambda *a, **k: drawn.append(a) or real_generate(*a, **k))
    labels_path = tmp_path / "labels.txt"
    labels_path.write_text("".join(WeylLabel(b, 6).to_string() + "\n" for b in range(65)))
    argv = ["uncertainty", "--kind", "haar", "--n", "6", "--seed", "1"] + {
        "random": ["--random-labels", "65"],
        "file": ["--labels-file", str(labels_path)],
        "restarts": ["--random-labels", "8", "--restarts", str(uncertainty.RESTART_CAP + 1)],
    }[source]
    assert cli.main(argv) == 4
    assert "cap exceeded" in capsys.readouterr().err
    assert calls == []
    assert (drawn == []) == (source == "restarts")


def test_theta_csv_format(tmp_path):
    code, payload = run_to_file(
        tmp_path, "th.csv", ["theta", "--cycle", "5", "--format", "csv"]
    )
    assert code == 0
    lines = payload.decode().splitlines()
    assert lines[0].startswith("value,order,iterations,residuals")
    assert len(lines) == 2


def test_m_override(tmp_path):
    code, payload = run_to_file(
        tmp_path,
        "mo.json",
        ["test", "--kind", "stabilizer", "--n", "2", "--eps1", "0.9",
         "--eps2", "1e-40", "--seed", "3", "--m-override", "25"],
    )
    assert code == 0
    assert json.loads(payload)["results"]["m_used"] == 25


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_COMMANDS = [
    ("fidelity_t_tensor_n4.json", ["fidelity", "--kind", "t_tensor", "--n", "4"]),
    (
        "sandwich_sweep_pc2_n4_s11.json",
        ["sandwich-sweep", "--per-class", "2", "--n-values", "4", "--seed", "11"],
    ),
    # The README's commands, except theta and uncertainty (iterative solvers).
    ("gamma_t_tensor_n1_exact.json", ["gamma", "--kind", "t_tensor", "--n", "1", "--exact"]),
    (
        "gamma_haar_n4_m100000_s7.json",
        ["gamma", "--kind", "haar", "--n", "4", "--m", "100000", "--seed", "7"],
    ),
    (
        "test_noisy_stabilizer_n3_s7.json",
        ["test", "--kind", "noisy_stabilizer", "--n", "3", "--noise", "0.02", "--eps1", "0.9",
         "--eps2", "1e-40", "--C", "1", "--delta", "0.333", "--seed", "7"],
    ),
    ("fidelity_haar_n3_s1.json", ["fidelity", "--kind", "haar", "--n", "3", "--seed", "1"]),
    (
        "sandwich_sweep_pc25_s11.csv",
        ["sandwich-sweep", "--per-class", "25", "--n-values", "1,2,3,4", "--seed", "11",
         "--format", "csv"],
    ),
    ("extract_t_tensor_n4_s3.json", ["extract", "--kind", "t_tensor", "--n", "4", "--seed", "3"]),
    (
        "bsg_n4_d5_j4_s9.json",
        ["bsg", "--n", "4", "--subspace-dim", "5", "--junk", "4", "--seed", "9"],
    ),
    ("cover_n3_d5_s2.json", ["cover", "--n", "3", "--dim", "5", "--seed", "2"]),
    # n = 6..8: transforms wide enough for every branch of the butterfly.
    ("gamma_haar_n8_s5_exact.json", ["gamma", "--kind", "haar", "--n", "8", "--seed", "5", "--exact"]),
    (
        "gamma_haar_n8_m20000_s5.json",
        ["gamma", "--kind", "haar", "--n", "8", "--seed", "5", "--m", "20000"],
    ),
    ("extract_t_tensor_n8_s5.json", ["extract", "--kind", "t_tensor", "--n", "8", "--seed", "5"]),
    ("extract_haar_n7_s5.json", ["extract", "--kind", "haar", "--n", "7", "--seed", "5"]),
    (
        "bsg_n6_d7_j8_s5.json",
        ["bsg", "--n", "6", "--subspace-dim", "7", "--junk", "8", "--seed", "5"],
    ),
]


@pytest.mark.parametrize("golden, argv", GOLDEN_COMMANDS)
def test_golden_reports(tmp_path, golden, argv):
    # Each golden was written by an earlier version of the code; refactors must
    # keep every byte, argmax tie-breaks and the config echo included.
    code, payload = run_to_file(tmp_path, golden, argv)
    assert code == 0
    assert payload == (GOLDEN / golden).read_bytes()


def test_calls_in_one_process_share_no_state(tmp_path):
    # The parser is built once per process; no flag or default may leak from
    # one call into the next.
    base = ["gamma", "--kind", "haar", "--n", "2", "--seed", "1"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"C": 2}')
    test_argv = ["test", "--kind", "stabilizer", "--n", "2", "--eps1", "0.9",
                 "--eps2", "1e-40", "--seed", "3", "--m-override", "5"]
    echoes = []
    for argv in (base + ["--m", "5"], base, ["--config", str(cfg_path)] + test_argv, test_argv):
        code, payload = run_to_file(tmp_path, "r.json", argv)
        assert code == 0
        echoes.append(json.loads(payload)["config"])
    assert echoes[0]["m"] == 5 and "m" not in echoes[1]
    assert echoes[2]["C"] == 2 and echoes[3]["C"] == 1

    argv = ["sandwich-sweep", "--seed", "1"]
    first = cli._parse_config(argv)
    fresh = dict(first)
    assert first["n_values"] == (1, 2, 3, 4)
    with pytest.raises(AttributeError):  # a tuple default cannot be mutated in place
        first["n_values"].append(5)
    first.clear()
    assert cli._parse_config(argv) == fresh


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_state_file_rejects_non_finite(tmp_path, capsys, token):
    state_path = tmp_path / "bad.json"
    state_path.write_text('{"n": 1, "re": [%s, 0], "im": [0, 0]}' % token)
    assert cli.main(["fidelity", "--state-file", str(state_path)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "re, im, field",
    [
        ('["1", "0"]', "[0, 0]", "re"),
        ("[true, false]", "[0, 0]", "re"),
        ("[1, 0]", "null", "im"),
        ("[1, null]", "[0, 0]", "re"),
        ("[[1], [0]]", "[[0], [0]]", "re"),
        ('{"0": 1}', "[0, 0]", "re"),
        ("[1, 0]", "[0, false]", "im"),
        ("[1, 0]", "[0, 1%s]" % ("0" * 400), "im"),
    ],
    ids=["strings", "bools", "im-null", "null-entry", "nested", "object", "im-bool", "im-huge-int"],
)
def test_state_file_takes_numbers_only(tmp_path, capsys, re, im, field):
    # A float64 cast reads "1" and true as 1.0, so these once ran to f_s = 1.
    state_path = tmp_path / "bad.json"
    state_path.write_text('{"n": 1, "re": %s, "im": %s}' % (re, im))
    assert cli.main(["fidelity", "--state-file", str(state_path)]) == 2
    assert f"state {field} must be a JSON list of numbers" in capsys.readouterr().err


def test_state_file_rejects_non_integer_n(tmp_path, capsys):
    state_path = tmp_path / "bad.json"
    state_path.write_text('{"n": 1.5, "re": [1, 0], "im": [0, 0]}')
    assert cli.main(["fidelity", "--state-file", str(state_path)]) == 2
    assert "state n must be an integer, got 1.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["theta", "--complete", "100000"], 4),
        (["theta", "--cycle", "100000"], 4),
        (["theta", "--graph-file", "{dir}/negative.txt"], 2),
        (["theta", "--graph-file", "{dir}/huge.txt"], 4),
    ],
    ids=["complete-huge", "cycle-huge", "file-negative", "file-huge"],
)
def test_theta_order_checked_before_allocation(tmp_path, capsys, argv, code):
    # Each of these once allocated order x order first and ended in a traceback.
    (tmp_path / "negative.txt").write_text("-1\n")
    (tmp_path / "huge.txt").write_text("100000\n")
    assert cli.main([arg.format(dir=tmp_path) for arg in argv]) == code
    assert ("cap exceeded" if code == 4 else "validation error") in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "--n", "40", "--dim", "1", "--seed", "1"],
        ["bsg", "--n", "40", "--subspace-dim", "1", "--seed", "1"],
        ["bsg", "--n", "9", "--subspace-dim", "1", "--seed", "1"],
        ["bsg", "--set-file", "{dir}/n9.txt", "--seed", "1"],
        ["bsg", "--set-file", "{dir}/n40.txt", "--seed", "1"],
        # One state per class never reaches the 6; every entry is checked before a draw.
        ["sandwich-sweep", "--per-class", "1", "--n-values", "1,6", "--seed", "1"],
    ],
    ids=["cover-n40", "bsg-n40", "bsg-n9", "bsg-file-n9", "bsg-file-n40", "sweep-n-values-1-6"],
)
def test_random_and_dense_set_sizes_capped_before_allocation(tmp_path, capsys, argv):
    # cover and bsg at n = 40 once ended in a traceback from rng.integers; bsg
    # builds 4^n tables, so its n is capped at the table cap before any is built.
    (tmp_path / "n9.txt").write_text("0" * 18 + "\n")
    (tmp_path / "n40.txt").write_text("0" * 80 + "\n")
    assert cli.main([arg.format(dir=tmp_path) for arg in argv]) == 4
    assert "cap exceeded" in capsys.readouterr().err


def test_theta_graph_file_non_integer_edge(tmp_path, capsys):
    graph_path = tmp_path / "bad.txt"
    graph_path.write_text("3\n0 1\n1 x\n")
    assert cli.main(["theta", "--graph-file", str(graph_path)]) == 2
    assert "non-integer edge token" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--kind", "haar", "--n", "1", "--seed", "1", "--m", "0"],
        ["test", "--kind", "stabilizer", "--n", "1", "--eps1", "0.9", "--eps2", "1e-40",
         "--seed", "1", "--C", "0"],
        ["test", "--kind", "stabilizer", "--n", "1", "--eps1", "0.9", "--eps2", "1e-40",
         "--seed", "1", "--delta", "0"],
        ["theta", "--cycle", "5", "--tol", "0"],
        ["uncertainty", "--kind", "haar", "--n", "1", "--random-labels", "2", "--seed", "1",
         "--theta-tol", "0"],
        ["uncertainty", "--kind", "haar", "--n", "1", "--random-labels", "2", "--seed", "1",
         "--restarts", "0"],
        ["bsg", "--n", "2", "--subspace-dim", "2", "--seed", "1", "--trials", "0"],
        ["extract", "--kind", "t_tensor", "--n", "2", "--seed", "1", "--retry-cap", "0"],
        ["uncertainty", "--kind", "haar", "--n", "2", "--seed", "1", "--random-labels", "0"],
        # Negative sizes are rejected before they reach numpy or a loop.
        ["fidelity", "--kind", "haar", "--n", "-1", "--seed", "1"],
        ["sandwich-sweep", "--n-values", "-1", "--seed", "1"],
        ["theta", "--complete", "-1"],
        ["theta", "--empty", "-1"],
        ["uncertainty", "--kind", "haar", "--n", "2", "--seed", "1", "--random-labels", "-1"],
        ["bsg", "--n", "2", "--seed", "1", "--junk", "-1"],
        # More junk than labels outside V: the drawing loop would never end.
        ["bsg", "--n", "1", "--subspace-dim", "2", "--seed", "1", "--junk", "1"],
        ["cover", "--n", "0", "--dim", "0", "--seed", "1"],
    ],
    ids=["m", "C", "delta", "tol", "theta-tol", "restarts", "trials", "retry-cap",
         "random-labels", "n-negative", "n-values-negative", "complete-negative",
         "empty-negative", "random-labels-negative", "junk-negative", "junk-overflow",
         "cover-n-zero"],
)
def test_zero_flag_reaches_validator(capsys, argv):
    # A 0 must not be swapped for the default; the callee rejects it.
    assert cli.main(argv) == 2
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"1000\n100\n", "validation error: line 2: not a 2n-character 0/1 string: '100'"),
        (b"1000\n10\n", "validation error: need labels on one qubit count, got counts [1, 2]; "
                        "line 2 ('10') differs from the first label"),
        (b"1000\n1020\n", "validation error: line 2: not a 2n-character 0/1 string: '1020'"),
        (b"1000\n1\xc3\xa900\n", "file error: 'ascii' codec can't decode byte 0xc3"),
        (b"", "validation error: need labels on one qubit count, got counts []"),
        (b"\n \n", "validation error: need labels on one qubit count, got counts []"),
    ],
    ids=["odd-width", "mixed-width", "not-0-1", "non-ascii", "empty", "blank"],
)
@pytest.mark.parametrize(
    "argv",
    [["bsg", "--set-file", "{path}", "--seed", "1"],
     ["uncertainty", "--kind", "haar", "--n", "2", "--seed", "1", "--labels-file", "{path}"]],
    ids=["bsg", "uncertainty"],
)
def test_malformed_label_files_exit_2(tmp_path, capsys, argv, content, message):
    path = tmp_path / "labels.txt"
    path.write_bytes(content)
    assert cli.main([arg.format(path=path) for arg in argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fidelity", "--state-file", "{missing}"],
        ["fidelity", "--state-file", "{not_json}"],
        ["uncertainty", "--kind", "haar", "--n", "1", "--seed", "1", "--labels-file", "{missing}"],
        ["uncertainty", "--kind", "haar", "--n", "1", "--seed", "1", "--labels-file",
         "{not_ascii}"],
        ["bsg", "--set-file", "{missing}", "--seed", "1"],
        ["theta", "--graph-file", "{missing}"],
        ["cover", "--subspace-file", "{missing}"],
        ["fidelity", "--kind", "t_tensor", "--n", "1", "--out", "{missing}/report.json"],
        ["fidelity", "--kind", "t_tensor", "--n", "1", "--out", "{directory}"],
    ],
    ids=["state-file", "state-file-not-json", "labels-file", "labels-file-not-ascii",
         "set-file", "graph-file", "subspace-file", "out", "out-directory"],
)
def test_unreadable_files_exit_2(tmp_path, capsys, argv):
    (tmp_path / "not.json").write_text("{n: 1")
    (tmp_path / "latin1.txt").write_bytes(b"10\xff\n")
    paths = {"missing": tmp_path / "missing", "not_json": tmp_path / "not.json",
             "not_ascii": tmp_path / "latin1.txt", "directory": tmp_path}
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    assert "file error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--kind", "stabilizer", "--n", "1", "--eps1", "0.9", "--eps2", "1e-40",
         "--seed", "1", "--C", "nan"],
        ["extract", "--kind", "t_tensor", "--n", "2", "--seed", "1", "--gamma", "inf"],
        ["gamma", "--kind", "haar", "--n", "1", "--seed", "1", "--m", "10", "--noise=-inf"],
    ],
    ids=["C-nan", "gamma-inf", "noise-minus-inf"],
)
def test_non_finite_float_flag_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "need a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--kind", "haar", "--n", "2", "--exact", "--seed", "-1"],
        ["gamma", "--kind", "haar", "--n", "2", "--seed", "-1"],
        ["test", "--kind", "haar", "--n", "1", "--eps1", "0.9", "--eps2", "0", "--seed", "-1"],
        ["fidelity", "--kind", "haar", "--n", "2", "--seed", "-1"],
        ["sandwich-sweep", "--seed", "-1"],
        ["uncertainty", "--kind", "haar", "--n", "1", "--seed", "-1"],
        ["extract", "--kind", "haar", "--n", "1", "--seed", "-1"],
        ["bsg", "--n", "1", "--seed", "-1"],
        ["cover", "--n", "1", "--seed", "-1"],
        ["--config", "{cfg}", "fidelity", "--kind", "haar", "--n", "2"],
    ],
    ids=["gamma-exact", "gamma", "test", "fidelity", "sandwich-sweep", "uncertainty",
         "extract", "bsg", "cover", "config"],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    # numpy rejects a negative seed deep inside the command; the flag's type rejects it first.
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": -1}')
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(cfg=cfg) for arg in argv])
    assert exc.value.code == 2
    assert "argument --seed: invalid seed: '-1' (need an integer >= 0)" in capsys.readouterr().err


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"delta": NaN}')  # Python's json module reads the NaN token
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "test", "--kind", "stabilizer", "--n", "1",
                  "--eps1", "0.9", "--eps2", "1e-40", "--seed", "1"])
    assert exc.value.code == 2
    assert "argument --delta: invalid float value: 'nan'" in capsys.readouterr().err


def test_cover_dim_zero_is_kept(tmp_path):
    code, payload = run_to_file(tmp_path, "c0.json", ["cover", "--n", "2", "--dim", "0", "--seed", "1"])
    assert code == 0
    assert json.loads(payload)["results"]["dim"] == 0


def test_cover_of_a_large_commuting_subspace_stays_small(tmp_path):
    # The union was once checked on all 2^20 elements of V (152 MB at n = 20);
    # on V/I it has one element here, since all 20 generators commute (k = 0).
    sub_path = tmp_path / "allz.txt"
    sub_path.write_text("".join("0" * (20 + i) + "1" + "0" * (19 - i) + "\n" for i in range(20)))
    tracemalloc.start()
    try:
        code, payload = run_to_file(tmp_path, "c.json", ["cover", "--subspace-file", str(sub_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    doc = json.loads(payload)["results"]
    assert (doc["dim"], doc["k"], doc["part_count"], doc["union_exact"]) == (20, 0, 1, True)
    assert peak < 10_000_000


def test_cover_decomposes_its_subspace_once(tmp_path, monkeypatch):
    # k, m, the cover and the union check all read one cached decomposition (once 3 runs).
    calls = []
    decompose = gf2.symplectic_gram_schmidt
    monkeypatch.setattr(gf2, "symplectic_gram_schmidt", lambda V: calls.append(V) or decompose(V))
    code, payload = run_to_file(tmp_path, "c.json", ["cover", "--n", "3", "--dim", "5", "--seed", "2"])
    assert code == 0 and payload == (GOLDEN / "cover_n3_d5_s2.json").read_bytes()
    assert len(calls) == 1


@pytest.mark.parametrize("gamma", ["0", "-0.5"])
def test_extract_needs_a_positive_gamma(capsys, gamma):
    # At gamma <= 0 every label counted as heavy, and the run reported success.
    argv = ["extract", "--kind", "haar", "--n", "3", "--seed", "1", "--gamma", gamma]
    assert cli.main(argv) == 2
    assert "validation error: gamma must be a finite number > 0" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["haar", "stabilizer", "t_tensor"])
def test_noise_needs_the_noisy_kind(capsys, kind):
    # --noise was once dropped silently for these kinds, and echoed in the report's config.
    assert cli.main(["gamma", "--kind", kind, "--n", "2", "--exact", "--seed", "1", "--noise", "0.7"]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and "--noise" in err and f"--kind {kind}" in err


def test_bsg_on_a_set_with_closure_probability_0(tmp_path, capsys):
    # Without --eps the search runs at the set's closure probability; the
    # message once named an eps of 0.0 that was never given.
    set_path = tmp_path / "s.txt"
    set_path.write_text("1000\n")
    assert cli.main(["bsg", "--set-file", str(set_path), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "the set's closure probability, the default eps, must be in (0,1], got 0.0" in err


@pytest.mark.parametrize("seed", ["2", "3"])
def test_bsg_all_trials_with_empty_b(tmp_path, seed):
    # B = S n (S+z) is empty for z = 0010, the member these seeds draw first.
    set_path = tmp_path / "s.txt"
    set_path.write_text("1000\n0100\n1100\n0010\n")
    code, payload = run_to_file(
        tmp_path, "b.json", ["bsg", "--set-file", str(set_path), "--trials", "1", "--seed", seed]
    )
    assert code == 0
    doc = json.loads(payload)["results"]
    assert doc["succeeded"] is False
    assert doc["z_used"] == "0010"
    assert doc["stats"]["b_size"] == 0 and doc["s_prime_size"] == 0


def test_bsg_on_the_full_space_stays_small(tmp_path):
    # Degrees were once read off a |B| x |B| pair table: 4096^2 entries here, a 179 MB peak.
    argv = ["bsg", "--n", "6", "--subspace-dim", "12", "--trials", "1", "--seed", "1"]
    tracemalloc.start()
    try:
        code, payload = run_to_file(tmp_path, "b.json", argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert hashlib.sha256(payload).hexdigest() == (  # the bytes of the pair-table version
        "c9fbfcf053c11f69d689d35561f6caa0b120939f1c10402118e3bfcb253c52c6")
    assert peak < 20_000_000


def test_uncertainty_checks_its_caps_before_drawing(capsys):
    # 400,000 labels at n = 10 were all drawn and wrapped before the n cap fired (121 MB).
    argv = ["uncertainty", "--kind", "haar", "--n", "10", "--random-labels", "400000", "--seed", "1"]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert "dense Hamiltonians capped at n=6, got 10" in capsys.readouterr().err
    assert peak < 10_000_000


def test_bsg_convolves_its_set_once(tmp_path, monkeypatch):
    # Without --eps the closure probability comes from the counts the search builds anyway.
    calls, sets = [], []
    counts, extract = additive.representation_counts, additive.bsg_extract
    monkeypatch.setattr(additive, "representation_counts", lambda S: calls.append(S) or counts(S))
    monkeypatch.setattr(additive, "bsg_extract",
                        lambda S, *args, **kwargs: sets.append(S) or extract(S, *args, **kwargs))
    argv = ["bsg", "--n", "4", "--subspace-dim", "5", "--junk", "4", "--seed", "9"]
    code, payload = run_to_file(tmp_path, "b.json", argv)
    assert code == 0 and payload == (GOLDEN / "bsg_n4_d5_j4_s9.json").read_bytes()
    assert len(sets) == 1 and sum(S is sets[0] for S in calls) == 1


def test_bsg_pfr_search_convolves_each_set_once(tmp_path, monkeypatch):
    # The cover search reads S''s doubling from the BSG stats; it once convolved S' a second time.
    calls = []
    counts = additive.representation_counts
    monkeypatch.setattr(additive, "representation_counts", lambda S: calls.append(S) or counts(S))
    argv = ["bsg", "--n", "3", "--subspace-dim", "3", "--junk", "2", "--seed", "17", "--pfr-search"]
    code, payload = run_to_file(tmp_path, "b.json", argv)
    assert code == 0 and "pfr_search" in json.loads(payload)["results"]
    assert len(calls) == 2 and all(sum(T is S for T in calls) == 1 for S in calls)


@pytest.mark.parametrize("flag", ["--pauli-graph", "--symplectic-graph"])
@pytest.mark.parametrize("k, code", [(0, 2), (4, 4)])
def test_theta_graph_family_qubits(capsys, flag, k, code):
    # k = 0 is invalid input (exit 2), as --complete 0 is; k = 4 passes the order cap (exit 4).
    assert cli.main(["theta", flag, str(k)]) == code
    assert ("cap exceeded" if code == 4 else "validation error") in capsys.readouterr().err


def _input_files(tmp_path) -> dict:
    """One file per input flag: a Haar state at n = 2, and labels, a set and a subspace."""
    paths = {key: tmp_path / name for key, name in
             [("state", "st.json"), ("labels", "l.txt"), ("set", "s.txt"), ("subspace", "v.txt")]}
    paths["state"].write_text(json.dumps(state_to_json_dict(generate_state("haar", 2, seed=5))))
    paths["labels"].write_text("1000\n0010\n1010\n")
    paths["set"].write_text("1000\n0100\n1100\n0011\n")
    paths["subspace"].write_text("100100\n010010\n")
    return paths


_ALONE = {
    "state-file": ["fidelity", "--state-file", "{state}"],
    "state-file-exact": ["gamma", "--exact", "--state-file", "{state}"],
    "labels-file": ["uncertainty", "--state-file", "{state}", "--labels-file", "{labels}",
                    "--seed", "1"],
    "set-file": ["bsg", "--set-file", "{set}", "--seed", "1"],
    "set-file-junk-0": ["bsg", "--set-file", "{set}", "--junk", "0", "--seed", "1"],
    "subspace-file": ["cover", "--subspace-file", "{subspace}"],
    "exact": ["gamma", "--exact", "--kind", "haar", "--n", "2", "--seed", "1"],
}


@pytest.mark.parametrize("argv", _ALONE.values(), ids=_ALONE.keys())
def test_file_flag_alone_is_the_input(tmp_path, argv):
    paths = _input_files(tmp_path)
    code, _ = run_to_file(tmp_path, "r.json", [arg.format(**paths) for arg in argv])
    assert code == 0


@pytest.mark.parametrize(
    "argv, rivals",
    [
        (["fidelity", "--state-file", "{state}", "--kind", "t_tensor", "--n", "3"],
         "--state-file and --kind, --n"),
        (["gamma", "--exact", "--state-file", "{state}", "--noise", "0.1"], "--state-file and --noise"),
        (["uncertainty", "--state-file", "{state}", "--labels-file", "{labels}",
          "--random-labels", "2", "--seed", "1"], "--labels-file and --random-labels"),
        (["bsg", "--set-file", "{set}", "--n", "2", "--seed", "1"], "--set-file and --n"),
        (["bsg", "--set-file", "{set}", "--subspace-dim", "2", "--seed", "1"],
         "--set-file and --subspace-dim"),
        (["bsg", "--set-file", "{set}", "--junk", "1", "--seed", "1"], "--set-file and --junk"),
        (["cover", "--subspace-file", "{subspace}", "--n", "3"], "--subspace-file and --n"),
        (["cover", "--subspace-file", "{subspace}", "--dim", "2"], "--subspace-file and --dim"),
        (["gamma", "--exact", "--kind", "haar", "--n", "2", "--seed", "1", "--m", "10"],
         "--exact and --m"),
    ],
    ids=["state-kind-n", "state-noise", "labels-random", "set-n", "set-subspace-dim", "set-junk",
         "subspace-n", "subspace-dim", "exact-m"],
)
def test_an_input_has_one_source(tmp_path, capsys, argv, rivals):
    # Each rival flag was once dropped silently, and echoed in the report's config.
    paths = _input_files(tmp_path)
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and rivals in err


@pytest.mark.parametrize(
    "argv",
    [
        # eps1 = 0.3 plans m = ceil(72 ln 6 / 0.3^12) = 242,748,832 rounds.
        ["test", "--kind", "haar", "--n", "1", "--seed", "1", "--eps1", "0.3", "--eps2", "0"],
        ["test", "--kind", "haar", "--n", "1", "--seed", "1", "--eps1", "0.9", "--eps2", "0",
         "--m-override", "200000001"],
        ["gamma", "--kind", "haar", "--n", "1", "--seed", "1", "--m", "200000001"],
    ],
    ids=["planned-m", "m-override", "gamma-m"],
)
def test_rounds_above_the_cap_exit_4(capsys, argv):
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert "cap exceeded" in err
    assert ("242748832" if "0.3" in argv else "200000001") in err


def test_warm_n8_exact_gamma_faults_few_fresh_pages(tmp_path):
    # A warm n = 8 call once faulted in 1,344 fresh pages a call, because it
    # allocated its 0.5-1 MiB tables several times over and the heap handed
    # the freed ones back to the system.  It now faults 224 (its expectation
    # and char_dist tables, 512 KiB each); the bound is half the old count.
    resource = pytest.importorskip("resource", reason="needs resource.getrusage (POSIX)")
    path = tmp_path / "st.json"
    path.write_text(json.dumps(state_to_json_dict(generate_state("haar", 8, seed=8))))
    argv = ["gamma", "--exact", "--state-file", str(path), "--out", str(tmp_path / "g.json")]
    faults = []
    for _ in range(4):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert cli.main(argv) == 0
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert min(faults[1:]) <= 672


# The child's own peak: ru_maxrss would carry the parent's peak across exec.
_PEAK_RSS = """
import sys
from stabkit import cli
code = cli.main(["test", "--kind", "haar", "--n", "1", "--seed", "1", "--eps1", "0.5",
                 "--eps2", "0", "--m-override", sys.argv[1], "--out", sys.argv[2]])
with open("/proc/self/status", encoding="ascii") as status:
    print(code, next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def test_tester_memory_does_not_grow_with_m(tmp_path):
    # Rounds are drawn in bounded passes: 2,000,000 rounds once took 115 MB against 37 MB.
    if not Path("/proc/self/status").is_file():
        pytest.skip("needs /proc/self/status for a process's own peak resident set (VmHWM)")
    src = str(Path(cli.__file__).resolve().parents[1])
    peaks = {}
    for m in ("1", "2000000"):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, m, str(tmp_path / f"t{m}.json")],
            capture_output=True, text=True, timeout=120, check=True,
            env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        )
        code, peak = proc.stdout.split()
        assert code == "0"
        peaks[m] = int(peak)
    assert peaks["2000000"] <= 1.10 * peaks["1"]


_GAMMA_T1 = ["gamma", "--kind", "t_tensor", "--n", "1", "--exact"]
_GAMMA_T1_REPORT = (GOLDEN / "gamma_t_tensor_n1_exact.json").read_bytes()
_SRC = str(Path(cli.__file__).resolve().parents[1])


def _stabkit(argv, threads="1"):
    """``python -m stabkit argv`` in a fresh process at the given OpenBLAS thread count."""
    env = {**os.environ, "PYTHONPATH": _SRC, "OPENBLAS_NUM_THREADS": threads}
    return subprocess.run([sys.executable, "-m", "stabkit", *argv], capture_output=True,
                          timeout=120, env=env)


def test_python_m_stabkit_runs_the_cli():
    proc = _stabkit(_GAMMA_T1)
    assert proc.returncode == 0
    assert proc.stdout == _GAMMA_T1_REPORT


def test_out_overwrites_a_longer_file_in_place(tmp_path):
    # A short report over a long file leaves the report's bytes alone, in the
    # same inode with the same mode; a new file takes its mode from the umask.
    out = tmp_path / "g.json"
    out.write_bytes(b"x" * 10_000)
    out.chmod(0o640)
    before = out.stat()
    assert cli.main(_GAMMA_T1 + ["--out", str(out)]) == 0
    after = out.stat()
    assert out.read_bytes() == _GAMMA_T1_REPORT
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    mask = os.umask(0o027)
    try:
        assert cli.main(_GAMMA_T1 + ["--out", str(tmp_path / "new.json")]) == 0
    finally:
        os.umask(mask)
    assert (tmp_path / "new.json").stat().st_mode & 0o777 == 0o640


def test_out_through_a_symlink_writes_its_target(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"x" * 10_000)
    link.symlink_to(target)
    assert cli.main(_GAMMA_T1 + ["--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == _GAMMA_T1_REPORT


def test_out_never_opens_the_report_with_o_trunc(tmp_path, monkeypatch):
    # Truncating to zero and writing again cost about five times the in-place write.
    out, flags = tmp_path / "g.json", []
    real_open = os.open

    def spy(path, flag, *args, **kwargs):
        if os.fspath(path) == str(out):
            flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    out.write_bytes(b"x" * 10_000)
    monkeypatch.setattr(os, "open", spy)
    assert cli.main(_GAMMA_T1 + ["--out", str(out)]) == 0
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
    assert out.read_bytes() == _GAMMA_T1_REPORT


def test_out_to_a_pipe_or_fifo_streams_the_report(tmp_path):
    # A pipe, FIFO or device cannot be cut to length; it is written and left so.
    if not hasattr(os, "mkfifo") or not os.path.exists("/dev/stdout"):
        pytest.skip("needs os.mkfifo and /dev/stdout (POSIX)")
    proc = _stabkit(_GAMMA_T1 + ["--out", "/dev/stdout"])
    assert proc.returncode == 0 and proc.stdout == _GAMMA_T1_REPORT

    fifo, got = tmp_path / "fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert cli.main(_GAMMA_T1 + ["--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [_GAMMA_T1_REPORT]
    assert cli.main(_GAMMA_T1 + ["--out", os.devnull]) == 0


_RUN_ALL = """
import json, sys
from stabkit import cli
for i, argv in enumerate(json.loads(sys.argv[1])):
    if cli.main(argv + ["--out", f"{sys.argv[2]}/{i}"]) != 0:
        sys.exit(f"exit != 0: {argv}")
"""


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Importing stabkit pins OpenBLAS to one thread.  Unpinned, two threads
    # split the BLAS dot in gamma and the solvers' products, and moved the last
    # digits of gamma (t_tensor, n = 8) and of theta's bracket.  One process
    # per thread count runs every golden command and the README's solvers.
    commands = GOLDEN_COMMANDS + [
        (None, ["gamma", "--kind", "t_tensor", "--n", "8", "--exact"]),
        (None, ["uncertainty", "--kind", "haar", "--n", "6", "--random-labels", "64", "--seed", "5"]),
        (None, ["theta", "--pauli-graph", "2", "--tol", "1e-6"]),
        (None, ["uncertainty", "--kind", "haar", "--n", "3", "--random-labels", "12", "--seed", "5"]),
    ]
    argvs = json.dumps([argv for _, argv in commands])
    for threads in ("2", "1"):
        (tmp_path / threads).mkdir()
        env = {**os.environ, "PYTHONPATH": _SRC, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _RUN_ALL, argvs, str(tmp_path / threads)],
                              capture_output=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    for i, (golden, argv) in enumerate(commands):
        two, one = ((tmp_path / threads / str(i)).read_bytes() for threads in ("2", "1"))
        assert two == one, argv
        if golden:
            assert one == (GOLDEN / golden).read_bytes(), argv
