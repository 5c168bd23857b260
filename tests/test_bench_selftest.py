"""The benchmark's report checks, run on one round of each workload without stabkit.

``stabbench/selftest.py`` runs one item of each input shape through the CLI,
checks the genuine reports with ``stabbench/refcheck.py`` (which never
imports stabkit), and requires each check to reject the corruption aimed at
it.  So the theta, uncertainty, sampled-gamma, test, extract and bsg reports,
which no golden pins, are checked here by an independent implementation.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

STABBENCH = Path(__file__).resolve().parents[1] / "stabbench"


def test_benchmark_report_checks_pass_and_catch_their_corruptions(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # what run.py would set, undone afterwards
    monkeypatch.syspath_prepend(str(STABBENCH))  # selftest imports run, workloads and refcheck
    spec = importlib.util.spec_from_file_location("stabbench_selftest", STABBENCH / "selftest.py")
    selftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(selftest)
    monkeypatch.setattr(selftest.run, "HERE", str(tmp_path))  # work files under tmp_path
    assert selftest.main() == 0, capsys.readouterr().out
    assert (tmp_path / "work" / "selftest" / "uncertainty-chain").is_dir()
