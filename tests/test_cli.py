"""CLI: command dispatch, file formats, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from stabkit import cli, uncertainty
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
    assert list(res) == ["value", "order", "iterations", "residuals", "upper"]
    assert res["value"] <= 5**0.5 <= res["upper"] <= res["value"] + 1e-6

    code, payload = run_to_file(
        tmp_path, "u.json",
        ["uncertainty", "--kind", "haar", "--n", "2", "--random-labels", "6", "--seed", "4"],
    )
    assert code == 0
    doc = json.loads(payload)
    summary = doc["summary"]
    assert list(summary) == ["theta_lower", "theta_iterations", "theta_solver"]
    assert summary["theta_solver"] == "ipm" and summary["theta_iterations"] >= 1
    assert summary["theta_lower"] <= doc["results"]["theta_ub"] <= summary["theta_lower"] + 1e-6


def test_unconverged_theta_fails_the_certificate(monkeypatch, capsys):
    real = uncertainty.lovasz_theta
    monkeypatch.setattr(
        uncertainty, "lovasz_theta",
        lambda g, tol: dataclasses.replace(real(g, tol), converged=False),
    )
    argv = ["uncertainty", "--kind", "haar", "--n", "2", "--random-labels", "6", "--seed", "4"]
    assert cli.main(argv) == 3
    assert "theta solver did not converge" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "golden, argv",
    [
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
    ],
)
def test_golden_reports(tmp_path, golden, argv):
    # Each golden was written by an earlier version of the code; refactors must
    # keep every byte, argmax tie-breaks and the config echo included.
    code, payload = run_to_file(tmp_path, golden, argv)
    assert code == 0
    assert payload == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_state_file_rejects_non_finite(tmp_path, capsys, token):
    state_path = tmp_path / "bad.json"
    state_path.write_text('{"n": 1, "re": [%s, 0], "im": [0, 0]}' % token)
    assert cli.main(["fidelity", "--state-file", str(state_path)]) == 2
    assert "finite" in capsys.readouterr().err


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
    ],
    ids=["state-file", "state-file-not-json", "labels-file", "labels-file-not-ascii",
         "set-file", "graph-file", "subspace-file", "out"],
)
def test_unreadable_files_exit_2(tmp_path, capsys, argv):
    (tmp_path / "not.json").write_text("{n: 1")
    (tmp_path / "latin1.txt").write_bytes(b"10\xff\n")
    paths = {"missing": tmp_path / "missing", "not_json": tmp_path / "not.json",
             "not_ascii": tmp_path / "latin1.txt"}
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


_PEAK_RSS = """
import resource, sys
from stabkit import cli
code = cli.main(["test", "--kind", "haar", "--n", "1", "--seed", "1", "--eps1", "0.5",
                 "--eps2", "0", "--m-override", sys.argv[1], "--out", sys.argv[2]])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_tester_memory_does_not_grow_with_m(tmp_path):
    # Rounds are drawn in bounded passes: 2,000,000 rounds once took 115 MB against 37 MB.
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
