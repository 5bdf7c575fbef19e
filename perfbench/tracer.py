"""Timing wrappers at the library's layer boundaries, for traced runs only.

`Tracer.install()` replaces each traced public function by a wrapper and
patches the name in every `robust_orlicz` module that imported it, plus
the evaluation entry points of every Orlicz-function class. Each call
records a span (name, start, end, parent, operation index) in memory;
self times and counters are accumulated as spans close. `dump()` writes
the spans at the end of the run; `uninstall()` restores the originals.
A layer is the module a traced name lives in.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# a restart is useful when it ends this close to the best restart, the
# same tolerance project_onto_span applies to its own restart spread
RESTART_TOL = 1e-6

FUNCTIONS = {
    "model": ("canonicalise", "qs_order", "qs_min", "qs_max", "expectation"),
    "scalar": ("golden_section_max", "bisect_threshold"),
    "norms": ("luxemburg_norm", "penalised_norm", "single_prior_luxemburg",
              "single_prior_modular", "modular", "weighted_lp_norm", "risk_measure"),
    "duality": ("dual_witness", "kothe_dual_norm", "prior_norm_bound",
                "verify_l1_reduction", "canonical_projection"),
    "domination": ("dominating_measure", "uniform_integrability_report"),
    # _robust_norm is the per-rung norm evaluation of the ladder diagnostics
    "diagnostics": ("membership_classify", "tail_membership", "mixture_witness",
                    "moment_growth", "gaussian_power_ladder",
                    "gaussian_uniform_family_ladder", "_robust_norm"),
    "spanning": ("option_basis", "project_onto_span", "spanning_report"),
    "preferences": ("aggregate_family", "verify_extension_bound", "evaluate_utility"),
    "serialization": ("model_from_json", "family_from_json", "orlicz_from_json",
                      "agents_from_json", "utility_from_json", "dumps_report"),
}
PHI_METHODS = ("__call__", "_eval_array", "conjugate", "conjugate_array",
               "right_derivative", "affine_minorant")
PHI_CLASSES = (("orlicz", "OrliczFunction"), ("orlicz", "Power"), ("orlicz", "Exponential"),
               ("orlicz", "EssSupIndicator"), ("orlicz", "PiecewiseLinear"),
               ("orlicz", "Scaled"), ("preferences", "AggregateOrlicz"))
SERIALIZATION_LOADS = ("model_from_json", "family_from_json", "orlicz_from_json",
                       "agents_from_json", "utility_from_json")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []  # frames: [name id, span index, child seconds, extra]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.paused = False
        self.op = -1
        self._undo = []
        self._projection_depth = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, enter=None, leave=None):
        """A wrapper recording one span per call of `fn` under `name`.

        `enter(frame, args)` runs before the call with the caller's frame
        still on top of the stack; `leave(frame, result)` runs after it,
        with result None when the call raised.
        """
        nid = self._id(name)
        stack, perf = self.stack, time.perf_counter
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][1] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            frame = [nid, idx, 0.0, None]
            if enter is not None:
                enter(frame, args)
            stack.append(frame)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                dur = t1 - t0
                self_s[nid] += dur - frame[2]
                calls[nid] += 1
                if stack:
                    stack[-1][2] += dur
                if leave is not None:
                    leave(frame, result)
        return traced

    # -- installation -----------------------------------------------------

    def _patch_everywhere(self, orig, wrapped):
        for modname, mod in list(sys.modules.items()):
            if modname == "robust_orlicz" or modname.startswith("robust_orlicz."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, orig))

    def _patch_class(self, cls, attr, name, enter=None, leave=None):
        orig = cls.__dict__.get(attr)
        if orig is None:
            return
        if isinstance(orig, property):
            wrapped = property(self.wrap(name, orig.fget, enter, leave))
        else:
            wrapped = self.wrap(name, orig, enter, leave)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, orig))

    def install(self):
        import robust_orlicz  # noqa: F401  (loads every library module)
        mods = {name: sys.modules[f"robust_orlicz.{name}"] for name in
                ("model", "orlicz", "scalar", "norms", "duality", "domination",
                 "diagnostics", "spanning", "preferences", "serialization")}
        hooks = self._hooks()
        for modname, funcs in FUNCTIONS.items():
            for fname in funcs:
                orig = getattr(mods[modname], fname, None)
                if orig is None or not callable(orig):
                    continue
                enter, leave = hooks.get(f"{modname}.{fname}", (None, None))
                self._patch_everywhere(orig, self.wrap(f"{modname}.{fname}", orig, enter, leave))

        golden = getattr(mods["scalar"], "golden_section_min", None)
        if golden is not None:
            counts = self.counts

            def golden_counting(f, *args, **kwargs):
                def counted(t):
                    counts["golden_objective_evals"] += 1
                    return f(t)
                return golden(counted, *args, **kwargs)
            self._patch_everywhere(golden, self.wrap("scalar.golden_section_min", golden_counting))

        model_cls = mods["model"].ScenarioModel
        self._patch_class(model_cls, "__init__", "model.ScenarioModel.__init__")
        self._patch_class(model_cls, "support_mask", "model.ScenarioModel.support_mask")

        for modname, clsname in PHI_CLASSES:
            cls = getattr(mods[modname], clsname, None)
            if cls is None:
                continue
            for meth in PHI_METHODS:
                enter, leave = hooks.get(meth, (None, None))
                self._patch_class(cls, meth, f"orlicz.{clsname}.{meth}", enter, leave)

        # only when already imported, so that tracing adds no import
        optimize = sys.modules.get("scipy.optimize")
        if optimize is not None:
            enter, leave = hooks["scipy.optimize.minimize"]
            minimize = optimize.minimize
            optimize.minimize = self.wrap("scipy.optimize.minimize", minimize, enter, leave)
            self._undo.append((optimize, "minimize", minimize))

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # -- counters kept at the layer boundaries ----------------------------

    def _hooks(self):
        counts, stack, ids = self.counts, self.stack, self._id
        eval_ids = set()
        conj_ids = set()
        for _, clsname in PHI_CLASSES:
            eval_ids.add(ids(f"orlicz.{clsname}._eval_array"))
            conj_ids.add(ids(f"orlicz.{clsname}.conjugate"))
            conj_ids.add(ids(f"orlicz.{clsname}.conjugate_array"))
        joint_ids = {ids("norms.luxemburg_norm"), ids("norms.penalised_norm")}
        per_prior_id = ids("norms.single_prior_luxemburg")
        project_id = ids("spanning.project_onto_span")

        def phi_eval(frame, args):
            if not (stack and stack[-1][0] in eval_ids):
                counts["phi_evals"] += 1
                counts["phi_points"] += int(np.size(args[1]))

        def conjugate(frame, args):
            if not (stack and stack[-1][0] in conj_ids):
                counts["conjugate_evals"] += 1

        def modular(frame, args):
            for f in reversed(stack):
                if f[0] in joint_ids:
                    counts["joint_modular_calls"] += 1
                    return
                if f[0] == per_prior_id:
                    counts["per_prior_modular_calls"] += 1
                    f[3] = True  # this per-prior norm did not use a closed form
                    return
            counts["other_modular_calls"] += 1

        def per_prior_leave(frame, result):
            if frame[3] is None:
                counts["closed_form_calls"] += 1
            if self._projection_depth:
                counts["objective_evals"] += 1

        def norm_leave(frame, result):
            if result is not None:
                counts["bisection_iters"] += result.iterations

        def dominate_leave(frame, result):
            if result is not None:
                counts["order_pairs_checked"] += result.order_pairs_checked

        def project_enter(frame, args):
            frame[3] = []
            self._projection_depth += 1

        def project_leave(frame, result):
            self._projection_depth -= 1
            finals = frame[3]
            counts["restarts_run"] += len(finals)
            if finals:
                best = min(finals)
                counts["useful_restarts"] += sum(
                    f - best <= RESTART_TOL * max(1.0, best) for f in finals)

        def minimize_leave(frame, result):
            if result is None:
                return
            for f in reversed(stack):
                if f[0] == project_id:
                    f[3].append(float(result.fun))
                    return

        def rung(frame, args):
            counts["rung_norms"] += 1

        return {
            "_eval_array": (phi_eval, None),
            "conjugate": (conjugate, None),
            "conjugate_array": (conjugate, None),
            "norms.single_prior_modular": (modular, None),
            "norms.single_prior_luxemburg": (None, per_prior_leave),
            "norms.luxemburg_norm": (None, norm_leave),
            "norms.penalised_norm": (None, norm_leave),
            "domination.dominating_measure": (None, dominate_leave),
            "spanning.project_onto_span": (project_enter, project_leave),
            "scipy.optimize.minimize": (None, minimize_leave),
            "diagnostics._robust_norm": (rung, None),
        }

    # -- results ----------------------------------------------------------

    def _self(self, *names):
        return sum(self.self_s.get(self._ids[n], 0.0) for n in names if n in self._ids)

    def _calls(self, *names):
        return sum(self.calls.get(self._ids[n], 0) for n in names if n in self._ids)

    def _layer_self(self, layer):
        return sum(t for nid, t in self.self_s.items()
                   if self.names[nid].split(".", 1)[0] == layer)

    def layer_metrics(self):
        """Per-layer metrics as {name: (value, unit)}; counts are exact."""
        c = self.counts
        per_prior = self._calls("norms.single_prior_luxemburg")
        restarts = c["restarts_run"]
        return {
            "model.support_mask_calls": (self._calls("model.ScenarioModel.support_mask"), "count"),
            "model.canonicalise_calls": (self._calls("model.canonicalise"), "count"),
            "model.build_s": (self._self("model.ScenarioModel.__init__"), "s"),
            "model.self_s": (self._layer_self("model"), "s"),
            "orlicz.phi_evals": (c["phi_evals"], "count"),
            "orlicz.phi_points": (c["phi_points"], "count"),
            "orlicz.phi_computed_bytes": (8 * c["phi_points"], "B"),
            "orlicz.conjugate_evals": (c["conjugate_evals"], "count"),
            "orlicz.self_s": (self._layer_self("orlicz"), "s"),
            "scalar.golden_calls": (self._calls("scalar.golden_section_min"), "count"),
            "scalar.golden_objective_evals": (c["golden_objective_evals"], "count"),
            "scalar.self_s": (self._layer_self("scalar"), "s"),
            "norms.robust_calls": (self._calls("norms.luxemburg_norm"), "count"),
            "norms.robust_self_s": (self._self("norms.luxemburg_norm"), "s"),
            "norms.penalised_self_s": (self._self("norms.penalised_norm"), "s"),
            "norms.per_prior_calls": (per_prior, "count"),
            "norms.per_prior_self_s": (self._self("norms.single_prior_luxemburg"), "s"),
            "norms.modular_self_s": (self._self("norms.single_prior_modular", "norms.modular"), "s"),
            "norms.joint_modular_calls": (c["joint_modular_calls"], "count"),
            "norms.per_prior_modular_calls": (c["per_prior_modular_calls"], "count"),
            "norms.bisection_iters": (c["bisection_iters"], "count"),
            "norms.closed_form_share": (c["closed_form_calls"] / per_prior if per_prior else 0.0, "ratio"),
            "duality.witness_calls": (self._calls("duality.dual_witness"), "count"),
            "duality.witness_self_s": (self._self("duality.dual_witness"), "s"),
            "duality.dual_norm_calls": (self._calls("duality.kothe_dual_norm"), "count"),
            "duality.dual_norm_self_s": (self._self("duality.kothe_dual_norm"), "s"),
            "domination.calls": (self._calls("domination.dominating_measure"), "count"),
            "domination.self_s": (self._layer_self("domination"), "s"),
            "domination.order_pairs_checked": (c["order_pairs_checked"], "count"),
            "diagnostics.self_s": (self._layer_self("diagnostics"), "s"),
            "diagnostics.rung_norms": (c["rung_norms"], "count"),
            "spanning.project_calls": (self._calls("spanning.project_onto_span"), "count"),
            "spanning.project_self_s": (self._self("spanning.project_onto_span"), "s"),
            "spanning.objective_evals": (c["objective_evals"], "count"),
            "spanning.restarts_run": (restarts, "count"),
            "spanning.useful_restart_ratio": (c["useful_restarts"] / restarts if restarts else 0.0, "ratio"),
            "spanning.scipy_minimize_s": (self._self("scipy.optimize.minimize"), "s"),
            "preferences.aggregate_s": (self._self("preferences.aggregate_family"), "s"),
            "serialization.load_s": (self._self(*(f"serialization.{n}" for n in SERIALIZATION_LOADS)), "s"),
            "serialization.dumps_s": (self._self("serialization.dumps_report"), "s"),
        }

    def state(self):
        """Totals by name, for merging the tracers of several processes."""
        return {"self_s": {self.names[i]: v for i, v in self.self_s.items()},
                "calls": {self.names[i]: v for i, v in self.calls.items()},
                "counts": dict(self.counts)}

    def merge(self, state):
        for name, v in state["self_s"].items():
            self.self_s[self._id(name)] += v
        for name, v in state["calls"].items():
            self.calls[self._id(name)] += v
        self.counts.update(state["counts"])

    def exclusive_of_layer(self, outer_prefix, layer):
        """Total time in spans named `outer_prefix...` minus the time of
        the outermost `layer` spans inside them."""
        names = [self.names[i] for i in self.span_name]
        total = 0.0
        for i, name in enumerate(names):
            dur = self.span_end[i] - self.span_start[i]
            if name.startswith(outer_prefix):
                total += dur
            elif name.split(".", 1)[0] == layer:
                parent = self.span_parent[i]
                if parent >= 0 and names[parent].split(".", 1)[0] == layer:
                    continue
                while parent >= 0 and not names[parent].startswith(outer_prefix):
                    parent = self.span_parent[parent]
                if parent >= 0:
                    total -= dur
        return total

    def n_spans(self):
        return len(self.span_name)

    def dump(self, path):
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
