"""Span recorder for the traced benchmark run.

The program itself carries no instrumentation.  `Tracer.install` wraps
kcontact's layer functions from outside: every module binding of a
function in `LAYERS` is replaced by a wrapper that records a span
(name, parent, start, end, amount) in memory.  The Jet wrapper also
wraps the density it is handed, so the time spent evaluating the model
on Taylor values shows as its own span.  A layer the program no longer
defines is skipped and its metrics read 0.

Self time is a span's duration minus the durations of its direct
children; single-threaded calls nest, so that is the time the layer
spent outside every other traced layer.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (defining module, function, span name)
LAYERS = (
    ("kcontact.jet", "evaluate_jet_batch", "jet.evaluate_jet_batch"),
    ("kcontact.jet", "evaluate_jet", "jet.evaluate_jet"),
    ("kcontact.contact", "hessian", "contact.hessian"),
    ("kcontact.contact", "reeb_energy_derivative_batch",
     "contact.reeb_energy_derivative_batch"),
    ("kcontact.dynamics", "evolution_rhs_batch",
     "dynamics.evolution_rhs_batch"),
    ("kcontact.dynamics", "el_residual_batch", "dynamics.el_residual_batch"),
    ("kcontact.dynamics", "assemble_sopde", "dynamics.assemble_sopde"),
    ("kcontact.dynamics", "verify_sopde", "dynamics.verify_sopde"),
    # the Newton loop behind legendre_inverse and hdw_residual
    ("kcontact.hamiltonian", "_newton_batch", "hamiltonian.newton"),
    ("kcontact.hamiltonian", "legendre_inverse",
     "hamiltonian.legendre_inverse"),
    ("kcontact.hamiltonian", "hdw_residual", "hamiltonian.hdw_residual"),
    ("kcontact.symmetry", "dissipation_law_check",
     "symmetry.dissipation_law_check"),
    ("kcontact.symmetry", "check_contact_symmetry",
     "symmetry.check_contact_symmetry"),
    ("kcontact.inverse", "roundtrip_check", "inverse.roundtrip_check"),
    ("kcontact.sim", "step", "sim.step"),
    ("kcontact.sim", "check_cfl", "sim.check_cfl"),
    ("kcontact.sim", "trace_el_residual", "sim.trace_el_residual"),
    ("kcontact.sim", "save_trace", "sim.save_trace"),
    ("kcontact.sim", "load_trace", "sim.load_trace"),
    ("kcontact.cli", "main", "cli.main"),
)

STATS = ("calls", "total", "self", "amount")

# per-layer metric -> (span name, statistic, unit); statistics are per
# round: calls, total (seconds), self (seconds) or amount
LAYER_METRICS = {
    "taylor.density_calls": ("taylor.density", "calls", "count"),
    "taylor.density_s": ("taylor.density", "total", "s"),
    "jet.evaluate_jet_batch_calls": ("jet.evaluate_jet_batch", "calls",
                                     "count"),
    "jet.evaluate_jet_batch_points": ("jet.evaluate_jet_batch", "amount",
                                      "count"),
    "jet.evaluate_jet_batch_self_s": ("jet.evaluate_jet_batch", "self", "s"),
    "jet.evaluate_jet_calls": ("jet.evaluate_jet", "calls", "count"),
    "jet.evaluate_jet_s": ("jet.evaluate_jet", "total", "s"),
    "contact.hessian_calls": ("contact.hessian", "calls", "count"),
    "contact.hessian_s": ("contact.hessian", "total", "s"),
    "contact.reeb_energy_derivative_batch_self_s": (
        "contact.reeb_energy_derivative_batch", "self", "s"),
    "dynamics.evolution_rhs_batch_self_s": ("dynamics.evolution_rhs_batch",
                                            "self", "s"),
    "dynamics.el_residual_batch_self_s": ("dynamics.el_residual_batch",
                                          "self", "s"),
    "sim.trace_el_residual_self_s": ("sim.trace_el_residual", "self", "s"),
    "dynamics.assemble_sopde_s": ("dynamics.assemble_sopde", "total", "s"),
    "dynamics.verify_sopde_s": ("dynamics.verify_sopde", "total", "s"),
    "hamiltonian.hdw_residual_self_s": ("hamiltonian.hdw_residual", "self",
                                        "s"),
    "hamiltonian.legendre_inverse_calls": ("hamiltonian.legendre_inverse",
                                           "calls", "count"),
    "hamiltonian.legendre_inverse_s": ("hamiltonian.legendre_inverse",
                                       "total", "s"),
    "symmetry.dissipation_law_check_self_s": (
        "symmetry.dissipation_law_check", "self", "s"),
    "symmetry.check_contact_symmetry_s": ("symmetry.check_contact_symmetry",
                                          "total", "s"),
    "inverse.roundtrip_check_s": ("inverse.roundtrip_check", "total", "s"),
    "sim.step_calls": ("sim.step", "calls", "count"),
    "sim.step_self_s": ("sim.step", "self", "s"),
    "sim.check_cfl_s": ("sim.check_cfl", "total", "s"),
    "sim.save_trace_s": ("sim.save_trace", "total", "s"),
    "sim.save_trace_mb": ("sim.save_trace", "amount", "MB"),
    "sim.load_trace_calls": ("sim.load_trace", "calls", "count"),
    "sim.load_trace_s": ("sim.load_trace", "total", "s"),
    "cli.self_s": ("cli.main", "self", "s"),
}

# metrics derived from several spans, with their units
DERIVED_UNITS = {
    "jet.jets_per_phase_point": "jets/point",
    "hamiltonian.newton_jets": "count",
    "tracing.spans": "count",
    "tracing.overhead_s": "s",
}


def _batch_points(args, kwargs):
    q = args[1] if len(args) > 1 else kwargs["q"]
    return math.prod(np.shape(q)[1:])


def _trace_mb(args, kwargs):
    directory = Path(args[1] if len(args) > 1 else kwargs["directory"])
    return sum(f.stat().st_size for f in directory.iterdir()
               if f.is_file()) / 1e6


class Tracer:
    """Spans of one traced run, kept in memory until `write`."""

    def __init__(self):
        self.spans = []      # [name, parent index, start, end, amount]
        self._stack = []
        self._patches = []   # (module, attribute, original)

    def wrap(self, name, fn, before=None, after=None):
        """`fn` recording a span per call.  `before(args, kwargs)` may
        return replacement (args, kwargs); `after(args, kwargs)` returns
        the span's amount and runs once the call has returned."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if after is not None:
                rec[4] = after(args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_layer(self, name, fn):
        if name == "jet.evaluate_jet_batch":
            def with_traced_density(args, kwargs):
                model = dataclasses.replace(
                    args[0], lagrangian=self.wrap("taylor.density",
                                                  args[0].lagrangian))
                return (model,) + tuple(args[1:]), kwargs

            return self.wrap(name, fn, before=with_traced_density,
                             after=_batch_points)
        if name == "sim.save_trace":
            return self.wrap(name, fn, after=_trace_mb)
        return self.wrap(name, fn)

    def install(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "kcontact" or key.startswith("kcontact.")]
        for modname, attr, name in LAYERS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                continue
            wrapped = self._wrap_layer(name, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def stats(self, first_round_span, rounds):
        """Calls, total seconds, self seconds and amount per span name,
        plus the calls of "newton_jets", the jets evaluated directly in
        the Newton loop; names never seen read 0.  Spans before
        `first_round_span` (the set-up) count once, later ones are
        divided by the number of rounds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        # raw sums over the set-up and over all rounds, in STATS order
        sums = defaultdict(lambda: ([0, 0.0, 0.0, 0.0], [0, 0.0, 0.0, 0.0]))
        for i, (name, parent, start, end, amount) in enumerate(spans):
            part = int(i >= first_round_span)
            keys = [name]
            if (name == "jet.evaluate_jet_batch" and parent >= 0
                    and spans[parent][0] == "hamiltonian.newton"):
                keys.append("newton_jets")
            for key in keys:
                acc = sums[key][part]
                acc[0] += 1
                acc[1] += end - start
                acc[2] += end - start - child[i]
                acc[3] += amount
        stats = defaultdict(lambda: dict.fromkeys(STATS, 0.0))
        for key, (setup, all_rounds) in sums.items():
            stats[key] = {stat: setup[j] + all_rounds[j] / rounds
                          for j, stat in enumerate(STATS)}
        return stats

    def metrics(self, first_round_span, rounds, phase_points):
        """Every per-layer metric except the tracing overhead."""
        stats = self.stats(first_round_span, rounds)
        out = {metric: stats[span][stat]
               for metric, (span, stat, _) in LAYER_METRICS.items()}
        jets = out["jet.evaluate_jet_batch_calls"]
        out["jet.jets_per_phase_point"] = (jets / phase_points
                                           if phase_points else 0.0)
        out["hamiltonian.newton_jets"] = stats["newton_jets"]["calls"]
        out["tracing.spans"] = (len(self.spans) - first_round_span) / rounds
        return out

    def write(self, path, workload, run_id):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, parent, start, end, amount) in enumerate(
                    self.spans):
                fh.write(json.dumps({
                    "run": run_id, "workload": workload, "id": i,
                    "parent": parent, "name": name, "start": start,
                    "end": end, "amount": amount}) + "\n")


def units():
    """Unit of every per-layer metric, in report order."""
    out = {metric: unit for metric, (_, _, unit) in LAYER_METRICS.items()}
    out.update(DERIVED_UNITS)
    return out
