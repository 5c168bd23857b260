"""In-process tracing of stabkit's layers, without editing stabkit.

``Tracer.install()`` replaces each traced function in every ``stabkit``
module namespace that holds it (callers look functions up there, so
``from .state import fwht`` in ``oracle`` is patched too), and the two
``BellSampler`` methods on the class.  Each call records a span
[id, name, start, end, parent, item, tag] in memory; result hooks add
counts.  ``uninstall()`` restores the originals.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict


def _lagrangian_count(tr, args, kwargs, result):
    tr.counts["gf2.enumerate_lagrangians.count"] += len(result)


def _theta(tr, args, kwargs, result):
    tr.counts["graphs.lovasz_theta.iterations"] += result.iterations
    tr.counts["graphs.lovasz_theta.unconverged"] += not result.converged
    tr.iterations_max = max(tr.iterations_max, result.iterations)


def _rounds(tr, args, kwargs, result):
    tr.counts["sampling.rounds"] += len(result[0])


def _retries(tr, args, kwargs, result):
    tr.counts["additive.extract_nearly_linear_set.retries"] += result.retries_used


def _bsg_trials(tr, args, kwargs, result):
    # A successful search stops at the returned trial; a failed one ran them all.
    ran = result.stats["trial"] if result.succeeded else kwargs.get("trials", 500)
    tr.counts["additive.bsg_extract.trials"] += ran


# (module, attribute, result hook, tag from the arguments)
TARGETS = [
    ("gf2", "enumerate_lagrangians", _lagrangian_count, None),
    ("state", "fwht", None, None),
    ("state", "weyl_expectation_table", None, None),
    ("state", "weyl_expectation", None, None),
    ("state", "char_distribution", None, None),
    ("state", "weyl_distribution", None, None),
    ("state", "gamma_exact", None, None),
    ("state", "generate_state", None, None),
    ("state", "state_from_json_dict", None, None),
    ("sampling", "BellSampler.__init__", None, None),
    ("sampling", "BellSampler.rounds", _rounds, None),
    ("sampling", "estimate_gamma", None, None),
    ("sampling", "plan_test", None, None),
    ("sampling", "run_tolerant_test", None, None),
    ("oracle", "stabilizer_fidelity_exact", None, lambda a, k: a[0].n),
    ("graphs", "anticommutation_graph", None, None),
    ("graphs", "lovasz_theta", _theta, None),
    ("uncertainty", "uncertainty_certificate", None, None),
    ("uncertainty", "psi0_lower_bound", None, None),
    ("uncertainty", "hamiltonian_norm_sq", None, None),
    ("additive", "representation_counts", None, None),
    ("additive", "sumset_doubling", None, None),
    ("additive", "extract_nearly_linear_set", _retries, None),
    ("additive", "bsg_extract", _bsg_trials, None),
    ("additive", "parse_set", None, None),
    ("cli", "run_experiment", None, None),
    ("cli", "emit_report", None, None),
    ("cli", "main", None, None),
]

GENERATORS = {"enumerate_lagrangians"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict = defaultdict(int)
        self.iterations_max = 0
        self.item: str | None = None  # the benchmark item the next spans belong to
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, tag=None):
        """Open a span; returns its id.  Close it with ``end``."""
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.item, tag])
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, hook, tag, generator):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.span(name, tag(args, kwargs) if tag else None)
            try:
                result = fn(*args, **kwargs)
                if generator:  # consume inside the span; the callers here consume it whole
                    result = tuple(result)
            finally:
                tracer.end(sid)
            if hook:
                hook(tracer, args, kwargs, result)
            return iter(result) if generator else result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "stabkit" or key.startswith("stabkit."))]
        for mod_name, attr, hook, tag in TARGETS:
            module = sys.modules["stabkit." + mod_name]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                label = name if meth != "__init__" else f"{mod_name}.{cls_name}"
                setattr(cls, meth, self._wrap(label, orig, hook, tag, False))
                self._patches.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, hook, tag, attr in GENERATORS)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for sid, name, start, end, parent, item, tag in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                         "parent": parent, "item": item, "tag": tag}) + "\n")

    def metrics(self, items: int) -> dict:
        """Per-layer metrics over every span recorded (set-up and the traced pass)."""
        dur = defaultdict(list)
        self_dur = defaultdict(list)
        child = defaultdict(float)
        enum_child = defaultdict(float)
        for sid, name, start, end, parent, item, tag in self.spans:
            if parent is not None:
                child[parent] += end - start
                if name == "gf2.enumerate_lagrangians":
                    enum_child[parent] += end - start
        in_items = defaultdict(int)
        cold_seen, cold_self = set(), 0.0
        for sid, name, start, end, parent, item, tag in self.spans:
            dur[name].append(end - start)
            self_dur[name].append(end - start - child[sid])
            if item is not None:
                in_items[name] += 1
            if name == "oracle.stabilizer_fidelity_exact" and tag not in cold_seen:
                cold_seen.add(tag)
                cold_self += end - start - enum_child[sid]

        def total(name):
            return float(sum(dur[name]))

        def p50_ms(values):
            return 1000.0 * statistics.median(values) if values else 0.0

        c = self.counts
        theta_iters = c["graphs.lovasz_theta.iterations"]
        rounds_s = total("sampling.BellSampler.rounds")
        return {
            "gf2.enumerate_lagrangians.s": total("gf2.enumerate_lagrangians"),
            "gf2.enumerate_lagrangians.count": c["gf2.enumerate_lagrangians.count"],
            "oracle.cold_call.self_s": cold_self,
            "oracle.stabilizer_fidelity_exact.calls": len(dur["oracle.stabilizer_fidelity_exact"]),
            "oracle.stabilizer_fidelity_exact.self_ms_p50": p50_ms(
                self_dur["oracle.stabilizer_fidelity_exact"]),
            "state.weyl_expectation_table.calls_per_item":
                in_items["state.weyl_expectation_table"] / items,
            "state.weyl_expectation_table.ms_p50": p50_ms(dur["state.weyl_expectation_table"]),
            "state.fwht.calls": len(dur["state.fwht"]),
            "state.fwht.s": total("state.fwht"),
            "state.gamma_exact.s": total("state.gamma_exact"),
            "state.weyl_expectation.calls": len(dur["state.weyl_expectation"]),
            "state.weyl_expectation.s": total("state.weyl_expectation"),
            "sampling.BellSampler.s": total("sampling.BellSampler"),
            "sampling.rounds_per_s": c["sampling.rounds"] / rounds_s if rounds_s else 0.0,
            "sampling.estimate_gamma.s": total("sampling.estimate_gamma"),
            "graphs.lovasz_theta.calls": len(dur["graphs.lovasz_theta"]),
            "graphs.lovasz_theta.s": total("graphs.lovasz_theta"),
            "graphs.lovasz_theta.iterations": theta_iters,
            "graphs.lovasz_theta.iterations_max": self.iterations_max,
            "graphs.lovasz_theta.unconverged": c["graphs.lovasz_theta.unconverged"],
            "graphs.lovasz_theta.us_per_iteration":
                1e6 * total("graphs.lovasz_theta") / theta_iters if theta_iters else 0.0,
            "graphs.anticommutation_graph.s": total("graphs.anticommutation_graph"),
            "uncertainty.psi0_lower_bound.s": total("uncertainty.psi0_lower_bound"),
            "uncertainty.hamiltonian_norm_sq.s": total("uncertainty.hamiltonian_norm_sq"),
            "uncertainty.uncertainty_certificate.self_s": float(
                sum(self_dur["uncertainty.uncertainty_certificate"])),
            "additive.extract_nearly_linear_set.s": total("additive.extract_nearly_linear_set"),
            "additive.extract_nearly_linear_set.retries":
                c["additive.extract_nearly_linear_set.retries"],
            "additive.bsg_extract.s": total("additive.bsg_extract"),
            "additive.bsg_extract.trials": c["additive.bsg_extract.trials"],
            "additive.representation_counts.calls": len(dur["additive.representation_counts"]),
            "cli.run_experiment.self_s": float(sum(self_dur["cli.run_experiment"])),
            "cli.emit_report.s": total("cli.emit_report"),
            "trace.spans": len(self.spans),
        }
