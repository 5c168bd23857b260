"""Bounded CLI fuzz: any flag values on cheap commands end in exit 0, 2, 3 or 4.

Sizes run over [-3, 3], qubit counts up to 2, seeds over [-3, 50], graph
orders up to 4 plus 65 and 10**6 (both above the theta cap), and float
flags include NaN and inf.  Every flag is passed as --flag=value, so
a negative number reaches the flag's type and is not read as an option.
An exit of 0 must also leave no NaN or Infinity token in the report.
"""

from __future__ import annotations

import contextlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import cli

SIZES = st.integers(-3, 3)
QUBITS = st.integers(-3, 2)
FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(-2.0, 2.0))
KINDS = st.sampled_from(["stabilizer", "haar", "t_tensor", "noisy_stabilizer"])


def _flags(**values) -> list[str]:
    return [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(
        ["gamma", "test", "fidelity", "sandwich-sweep", "theta", "uncertainty", "extract",
         "bsg", "cover"]))
    seed = draw(st.integers(-3, 50))
    state = _flags(kind=draw(KINDS), n=draw(QUBITS), seed=seed)
    if command == "gamma":
        extra = ["--exact"] if draw(st.booleans()) else _flags(m=draw(SIZES))
        return ["gamma"] + state + _flags(noise=draw(FLOATS)) + extra
    if command == "test":
        return ["test"] + state + _flags(eps1=draw(FLOATS), eps2=draw(FLOATS), C=draw(FLOATS),
                                         delta=draw(FLOATS), m_override=draw(SIZES))
    if command == "fidelity":
        return ["fidelity"] + state
    if command == "sandwich-sweep":
        return ["sandwich-sweep"] + _flags(per_class=draw(SIZES), n_values=draw(QUBITS),
                                           seed=seed)
    if command == "theta":
        source = draw(st.sampled_from(["complete", "empty", "cycle"]))
        order = draw(st.one_of(st.integers(-3, 4), st.sampled_from([65, 10**6])))
        return ["theta"] + _flags(**{source: order}, tol=draw(FLOATS))
    if command == "uncertainty":
        return ["uncertainty"] + state + _flags(random_labels=draw(SIZES),
                                                theta_tol=draw(FLOATS), restarts=draw(SIZES))
    if command == "extract":
        return ["extract"] + state + _flags(gamma=draw(FLOATS), retry_cap=draw(SIZES))
    if command == "bsg":
        return ["bsg"] + _flags(n=draw(QUBITS), subspace_dim=draw(SIZES), junk=draw(SIZES),
                                eps=draw(FLOATS), trials=draw(SIZES), seed=seed)
    return ["cover"] + _flags(n=draw(QUBITS), dim=draw(SIZES), seed=seed)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_argv())
def test_cli_exits_only_with_documented_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag value with exit 2
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    if code == 0:
        assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue(), argv
