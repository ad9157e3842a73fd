"""Spans around the public functions of each tcmerton module, recorded
from the benchmark's side, and the per-layer metrics derived from them.

A span holds name, start, end and the index of its parent span.  Spans
stay in memory and are written out once, when the command has ended.
A span's self time is its duration minus the time its child spans
cover (calls are sequential, so children never overlap).
"""

import collections
import functools
import inspect
import json
import os
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self.maxima = collections.defaultdict(float)
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced

    def total(self, name):
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, a - t0, b - t0, p]
                                 for n, a, b, p in self.spans]}, f)


# ---------------------------------------------------------------------------
# counters read at the span boundaries
# ---------------------------------------------------------------------------

def _bytes_written(tr, args, kwargs, result):
    tr.counts["cli.bytes_written"] += os.path.getsize(args[0])


def _picard(tr, args, kwargs, rho):
    h = rho.residual_history
    tr.counts["fixed_point.iterations"] += rho.iterations
    tr.counts["fixed_point.damping_cuts"] += sum(
        1 for k in range(1, len(h)) if h[k] >= h[k - 1])


def _columns(tr, args, kwargs, result):
    stepper, u_next = args[0], np.asarray(args[2])
    tr.counts["pde.columns_stepped"] += u_next.size // stepper.grid.n_y
    tr.counts["pde.column_nodes"] += u_next.size


def _points(key):
    def count(tr, args, kwargs, result):
        tr.counts[key] += np.size(result)
    return count


def _paths(key, fn, exit_of):
    """Path-steps (n_paths x n_steps, defaults included) and the exit
    fraction of a Monte Carlo call."""
    signature = inspect.signature(fn)

    def count(tr, args, kwargs, result):
        a = signature.bind(*args, **kwargs)
        a.apply_defaults()
        a = a.arguments
        tr.counts[key] += int(a["n_paths"]) * int(a["n_steps"])
        tr.maxima["montecarlo.exit_fraction_max"] = max(
            tr.maxima["montecarlo.exit_fraction_max"], exit_of(result))
    return count


def _est_exit(result):
    est = result[0] if isinstance(result, tuple) else result
    return est.exit_fraction


def _pair_exit(result):
    return result[1]


WRITERS = ("write_field_csv", "write_strategy_csv", "write_value_csv")
CHECKS = ("merton_reduction", "first_order_conditions", "hjb_residual",
          "bounds_suite", "wealth_identity", "value_consistency",
          "operator_cross_validation", "subgame_perturbation")


def targets(tc):
    """(span name, owner, attribute, counter) for every traced call.

    Module functions are replaced wherever a tcmerton module holds them,
    so names imported by value (bilinear in strategy and montecarlo,
    estimate_J in verify and cli) are traced at each call site.  Methods
    are replaced on their class.
    """
    mc = tc.montecarlo
    out = [
        ("cli.cmd_solve", tc.cli, "cmd_solve", None),
        ("cli.cmd_verify", tc.cli, "cmd_verify", None),
        ("cli.RunConfig.from_file", tc.cli.RunConfig, "from_file", None),
        ("pipeline.solve", tc.pipeline, "solve", None),
        ("fixed_point.OperatorWorkspace.__init__",
         tc.fixed_point.OperatorWorkspace, "__init__", None),
        ("fixed_point.OperatorWorkspace.sweep",
         tc.fixed_point.OperatorWorkspace, "sweep", None),
        ("fixed_point.iterate", tc.fixed_point, "iterate", _picard),
        ("pde.BackwardStepper.step_to", tc.pde.BackwardStepper, "step_to",
         _columns),
        ("pde.solve_backward", tc.pde, "solve_backward", None),
        ("strategy.compute_pbar", tc.strategy, "compute_pbar", None),
        ("strategy.controls_from_pbar", tc.strategy, "controls_from_pbar",
         None),
        ("strategy.value_function", tc.strategy, "value_function", None),
        ("grids.bilinear", tc.grids, "bilinear",
         _points("grids.bilinear_points")),
        ("grids.deriv_y", tc.grids, "deriv_y", None),
        ("model.MixedPowerUtility.I", tc.model.MixedPowerUtility, "I",
         _points("model.inverse_points")),
        ("verify.full_report", tc.verify, "full_report", None),
        ("verify.wealth_identity_errors", tc.verify,
         "wealth_identity_errors",
         _paths("verify.wealth_identity_path_steps",
                tc.verify.wealth_identity_errors, _pair_exit)),
    ]
    for fn in ("estimate_J", "estimate_F_mc"):
        out.append(("montecarlo." + fn, mc, fn,
                    _paths("montecarlo.%s_path_steps" % fn,
                           getattr(mc, fn), _est_exit)))
    for fn in WRITERS:
        out.append(("cli." + fn, tc.cli, fn, _bytes_written))
    for check in CHECKS:
        out.append(("verify.check_" + check, tc.verify, "check_" + check,
                    None))
    return out


def install(tracer, wanted=None):
    """Wrap the targets (all, or those named in ``wanted``)."""
    import tcmerton
    modules = [m for n, m in list(sys.modules.items())
               if n == "tcmerton" or n.startswith("tcmerton.")]
    for name, owner, attr, count in targets(tcmerton):
        if wanted is not None and name not in wanted:
            continue
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(tracer.wrap(name, raw.__func__, count)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw, count))
            continue
        orig = getattr(owner, attr)
        traced = tracer.wrap(name, orig, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _per(numerator_s, count, scale=1e9):
    return numerator_s * scale / count if count else 0.0


def layer_metrics(tracer):
    """Per-layer metrics (name -> value) from one traced command."""
    sweep = "fixed_point.OperatorWorkspace.sweep"
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total = collections.defaultdict(float)
    own = collections.defaultdict(float)
    calls = collections.Counter()
    aggregate = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[i]
        calls[name] += 1
        if (name == sweep and parent >= 0
                and spans[parent][0] == "pipeline.solve"):
            aggregate += end - start
    c = tracer.counts
    m = {
        "cli.config_s": total["cli.RunConfig.from_file"],
        "cli.write_s": sum(total["cli." + w] for w in WRITERS),
        "cli.bytes_written": c["cli.bytes_written"],
        "pipeline.aggregate_s": aggregate,
        "fixed_point.workspace_s":
            total["fixed_point.OperatorWorkspace.__init__"],
        "fixed_point.sweeps": calls[sweep],
        "fixed_point.sweep_self_s": own[sweep],
        "fixed_point.ms_per_sweep": _per(total[sweep], calls[sweep], 1e3),
        "fixed_point.iterations": c["fixed_point.iterations"],
        "fixed_point.damping_cuts": c["fixed_point.damping_cuts"],
        "pde.banded_solves": calls["pde.BackwardStepper.step_to"],
        "pde.columns_stepped": c["pde.columns_stepped"],
        "pde.step_to_s": total["pde.BackwardStepper.step_to"],
        "pde.ns_per_column_node": _per(total["pde.BackwardStepper.step_to"],
                                       c["pde.column_nodes"]),
        "strategy.compute_pbar_s": total["strategy.compute_pbar"],
        "strategy.controls_s": total["strategy.controls_from_pbar"],
        "strategy.value_function_s": total["strategy.value_function"],
    }
    for fn in ("estimate_J", "estimate_F_mc"):
        steps = c["montecarlo.%s_path_steps" % fn]
        m["montecarlo.%s_s" % fn] = total["montecarlo." + fn]
        m["montecarlo.%s_path_steps" % fn] = steps
        m["montecarlo.%s_ns_per_path_step" % fn] = _per(
            total["montecarlo." + fn], steps)
    m["montecarlo.exit_fraction_max"] = tracer.maxima[
        "montecarlo.exit_fraction_max"]
    m.update({
        "grids.bilinear_calls": calls["grids.bilinear"],
        "grids.bilinear_points": c["grids.bilinear_points"],
        "grids.bilinear_s": total["grids.bilinear"],
        "grids.ns_per_bilinear_point": _per(total["grids.bilinear"],
                                            c["grids.bilinear_points"]),
        "grids.deriv_y_s": total["grids.deriv_y"],
        "model.inverse_calls": calls["model.MixedPowerUtility.I"],
        "model.inverse_points": c["model.inverse_points"],
        "model.inverse_s": total["model.MixedPowerUtility.I"],
        "model.ns_per_inverse_point": _per(
            total["model.MixedPowerUtility.I"], c["model.inverse_points"]),
    })
    for check in CHECKS:
        m["verify.%s_s" % check] = total["verify.check_" + check]
    m["verify.wealth_identity_ns_per_path_step"] = _per(
        total["verify.wealth_identity_errors"],
        c["verify.wealth_identity_path_steps"])
    return m
