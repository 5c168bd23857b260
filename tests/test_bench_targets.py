"""The benchmark's tracer patches stabkit by name; every name must still exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "stabbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("stabbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for mod_name, attr, _, _ in tracer.TARGETS:
        module = importlib.import_module("stabkit." + mod_name)
        if "." in attr:  # a method, patched on its class
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), f"{mod_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
