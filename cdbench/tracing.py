"""Spans and counters around the cdrive layers, recorded from outside.

The program is not changed.  ``Tracer.install`` replaces public functions of
each cdrive module with wrappers, in the defining module and in every other
cdrive module that imported the same object (``cdrive.cli`` among them), so
calls between modules are seen too.  ``Tracer.uninstall`` puts the
originals back.

A span records name, layer, start, end, parent span, operation id and
thread id.  Spans stay in memory and are written out by ``write_spans``.
Hot per-point calls (schedules, systems, banded solves) are counted only.

Self time of a span is its duration minus the part of it that its children
cover; children may run on other threads (pool tasks), so the covered part
is the union of the children's intervals.  A layer's self time is the sum of
the self times of its spans.

Standard library only at import time; cdrive is imported by ``install``.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

# per-layer metrics of a traced run: name -> unit
PER_LAYER = {
    "classical.self_s": "s",
    "classical.ensemble_s": "s",
    "classical.trajectory_s": "s",
    "classical.draw_s": "s",
    "classical.ks_s": "s",
    "classical.dissipation_s": "s",
    "classical.collisions": "count",
    "classical.samples": "count",
    "quantum.self_s": "s",
    "quantum.grid_s": "s",
    "quantum.basis_s": "s",
    "quantum.eigensolve_s": "s",
    "quantum.eigensolves": "count",
    "quantum.banded_solves": "count",
    "quantum.box_phase_s": "s",
    "generators.self_s": "s",
    "generators.table_builds": "count",
    "generators.grad_evals": "count",
    "generators.builds_per_eval": "ratio",
    "generators.verify_s": "s",
    "shells.self_s": "s",
    "shells.calls": "count",
    "systems.point_calls": "count",
    "schedules.calls": "count",
    "schedules.points": "count",
    "config.load_s": "s",
    "config.parse_calls": "count",
    "config.validate_report_s": "s",
    "cli.self_s": "s",
    "cli.queue_wait_s": "s",
    "cli.workers": "count",
    "cli.cpu_s": "s",
    "cli.csv_s": "s",
    "cli.output_bytes": "B",
    "cli.op.gas_compare_s": "s",
    "cli.op.basis_compare_s": "s",
    "cli.op.sweep_T_s": "s",
    "cli.op.grid_compare_s": "s",
    "cli.op.numeric_compare_s": "s",
    "classical.omega_drift_on": "ratio",
    "classical.ks_max_on": "ratio",
    "quantum.phase_error_on": "rad",
    "quantum.min_fidelity_on": "ratio",
    "quantum.norm_drift_off": "ratio",
    "generators.omega_drift_numeric_on": "ratio",
    "trace.overhead_s": "s",
}

# inclusive time of these span names feeds the named metric
_INCLUSIVE = {
    "classical.evolve_ensemble": "classical.ensemble_s",
    "classical.evolve_cd": "classical.trajectory_s",
    "classical.evolve_bare": "classical.trajectory_s",
    "classical._draw_initial_conditions": "classical.draw_s",
    "classical.kstest": "classical.ks_s",
    "classical.dissipation": "classical.dissipation_s",
    "quantum.propagate_grid": "quantum.grid_s",
    "quantum.propagate_basis": "quantum.basis_s",
    "quantum.eigh": "quantum.eigensolve_s",
    "quantum.eigh_tridiagonal": "quantum.eigensolve_s",
    "quantum.box_phase": "quantum.box_phase_s",
    "generators.verify_generator": "generators.verify_s",
    "config.load_config": "config.load_s",
    "config.validate_report": "config.validate_report_s",
    "cli.csv": "cli.csv_s",
}

# span names whose calls are also counted under the named counter
_SPAN_COUNTS = {
    "quantum.eigh": "quantum.eigensolves",
    "quantum.eigh_tridiagonal": "quantum.eigensolves",
    "generators.build_xi_numeric": "generators.table_builds",
    "generators.NumericShellGenerator.evaluate_grad_z": "generators.grad_evals",
    "config.config_from_dict": "config.parse_calls",
}

_SPANNED_FUNCTIONS = {
    "classical": ("evolve_ensemble", "evolve_cd", "evolve_bare",
                  "_draw_initial_conditions", "kstest", "dissipation"),
    "quantum": ("propagate_grid", "propagate_basis", "eigensystem", "box_phase",
                "xi_spectral", "xi_dilation", "grad_h0_matrix", "discretize_h0",
                "well_grid", "box_grid", "exact_box_state", "fidelity",
                "eigh", "eigh_tridiagonal"),
    "generators": ("build_xi_numeric", "verify_generator", "analytic_generator_for",
                   "parametric_map_check"),
    "shells": ("power_law_coefficient", "turning_points", "phase_volume",
               "adiabatic_invariant", "orbit_period", "d_volume_dE",
               "shell_energy_from_volume", "microcanonical_average",
               "shell_average_grad_lambda", "d_volume_dlam", "grad_shell_energy",
               "energy_shell"),
    "config": ("load_config", "config_from_dict", "validate_report"),
    "cli": ("main", "do_run", "do_compare", "do_sweep"),
}

_SPANNED_METHODS = (
    ("generators", "NumericShellGenerator", ("evaluate", "evaluate_grad_z")),
)

# report writers: spans named cli.csv, since the CLI calls them per artifact
_CSV_METHODS = (
    ("classical", "TrajectoryRecord", "to_csv"),
    ("classical", "EnsembleRecord", "snapshot_csv"),
    ("quantum", "GridTrajectory", "to_csv"),
    ("quantum", "BasisTrajectory", "to_csv"),
)

_POINT_METHODS = ("potential_energy", "grad_q", "grad_lambda")
_SCHEDULE_FACTORIES = ("linear_ramp", "smoothstep_ramp", "cosine_ramp",
                       "constant_hold", "tabulated")


class _ThreadState(threading.local):
    def __init__(self, registry):
        self.stack = []
        self.op = None
        self.counts = collections.Counter()
        registry.append(self.counts)


class Tracer:
    """Spans and counts of one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans = []  # (id, name, layer, start, end, parent, op, thread)
        self.queue_waits = []
        self.workers = 0
        self._ids = itertools.count(1)
        self._counters = []
        self._local = _ThreadState(self._counters)
        self._undo = []

    # -- recording --------------------------------------------------------

    @property
    def op(self):
        return self._local.op

    @op.setter
    def op(self, value):
        self._local.op = value

    def counts(self) -> collections.Counter:
        total = collections.Counter()
        for c in self._counters:
            total.update(c)
        return total

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn inside a span."""
        local = self._local
        stack = local.stack
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, layer, t0, t1, parent, local.op,
                               threading.get_ident()))

    def _spanned(self, fn, name, layer):
        counter = _SPAN_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                self._local.counts[counter] += 1
            return self.span(name, layer, fn, *args, **kwargs)

        return wrapper

    def _counted(self, fn, key):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Records worker count, submit-to-start wait and a task span."""

            def __init__(self, max_workers=None, *args, **kwargs):
                tracer.workers = max(tracer.workers, int(max_workers or 0))
                super().__init__(max_workers, *args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                local = tracer._local
                parent = local.stack[-1] if local.stack else None
                op = local.op
                submitted = time.perf_counter()

                def task():
                    tracer.queue_waits.append(time.perf_counter() - submitted)
                    local.op = op
                    local.stack = [parent] if parent is not None else []
                    try:
                        return tracer.span("cli.task", "cli", fn, *args, **kwargs)
                    finally:
                        local.stack = []

                return super().submit(task)

        return TracedPool

    # -- installing the wrappers -----------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new):
        """Rebind every cdrive module global that holds ``original``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "cdrive" and not modname.startswith("cdrive."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, new)

    def install(self) -> None:
        import cdrive.cli  # noqa: F401  (loads every layer)
        import cdrive.schedules as schedules
        import cdrive.systems as systems

        mods = {name: sys.modules[f"cdrive.{name}"] for name in _SPANNED_FUNCTIONS}
        for layer, names in _SPANNED_FUNCTIONS.items():
            for name in names:
                original = getattr(mods[layer], name)
                self._replace_everywhere(
                    original, self._spanned(original, f"{layer}.{name}", layer))
        for layer, cls_name, methods in _SPANNED_METHODS:
            cls = getattr(mods[layer], cls_name)
            for m in methods:
                self._replace(cls, m, self._spanned(
                    getattr(cls, m), f"{layer}.{cls_name}.{m}", layer))
        for modname, cls_name, m in _CSV_METHODS:
            cls = getattr(sys.modules[f"cdrive.{modname}"], cls_name)
            self._replace(cls, m, self._spanned(getattr(cls, m), "cli.csv", "cli"))

        # classical.collisions: trajectory records list their wall events;
        # the vectorized box path resolves its crossings in rounds, each
        # selecting the crossing particles with the module's only
        # one-argument np.where, so the selection sizes count them
        classical = mods["classical"]
        np = classical.np
        counting_np = types.ModuleType("numpy")
        counting_np.__dict__.update(vars(np))
        local = self._local

        def where(*args, **kwargs):
            out = np.where(*args, **kwargs)
            if len(args) == 1:
                local.counts["classical.collisions"] += int(out[0].size)
            return out

        counting_np.where = where
        self._replace(classical, "np", counting_np)
        for name in ("evolve_cd", "evolve_bare"):
            inner = getattr(classical, name)

            def with_events(*args, _inner=inner, **kwargs):
                rec = _inner(*args, **kwargs)
                local.counts["classical.collisions"] += len(rec.collisions)
                return rec

            self._replace_everywhere(inner, functools.wraps(inner)(with_events))

        draw = classical._draw_initial_conditions

        def draw_counted(system, sampler, lam, n, seed):
            local.counts["classical.samples"] += int(n)
            return draw(system, sampler, lam, n, seed)

        self._replace_everywhere(draw, functools.wraps(draw)(draw_counted))

        quantum = mods["quantum"]
        self._replace(quantum, "solve_banded",
                      self._counted(quantum.solve_banded, "quantum.banded_solves"))
        for m in _POINT_METHODS:
            self._replace(systems.SystemModel, m, self._counted(
                getattr(systems.SystemModel, m), "systems.point_calls"))

        def point_counted(fn):
            def wrapper(t):
                counts = local.counts
                counts["schedules.calls"] += 1
                counts["schedules.points"] += getattr(t, "size", 1)
                return fn(t)
            return wrapper

        def counted_factory(factory):
            @functools.wraps(factory)
            def wrapper(*args, **kwargs):
                s = factory(*args, **kwargs)
                return type(s)(s.duration, point_counted(s.value),
                               point_counted(s.rate), s.tag)
            return wrapper

        for name in _SCHEDULE_FACTORIES:
            original = getattr(schedules, name)
            wrapped = counted_factory(original)
            self._replace_everywhere(original, wrapped)
            for key, value in list(schedules.BUILTIN_SHAPES.items()):
                if value is original:
                    self._replace_item(schedules.BUILTIN_SHAPES, key, wrapped)

        self._replace(mods["cli"], "ThreadPoolExecutor", self._pool_class())

    def _replace_item(self, mapping, key, new):
        old = mapping[key]
        mapping[key] = new
        self._undo.append((mapping, key, old))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    def write_spans(self, path) -> None:
        keys = ("id", "name", "layer", "start", "end", "parent", "op", "thread")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


# ---------------------------------------------------------------------------
# arithmetic over recorded spans


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, end = 0.0, lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the time its children cover."""
    children = collections.defaultdict(list)
    for s in spans:
        if s[5] is not None:
            children[s[5]].append((s[3], s[4]))
    return {s[0]: (s[4] - s[3]) - _covered(children.get(s[0], ()), s[3], s[4])
            for s in spans}


def layer_metrics(spans, counts) -> dict:
    """The span- and count-based per-layer metrics (all of PER_LAYER except
    the accuracy, per-operation, cpu, output and overhead figures)."""
    out = {k: 0.0 for k in PER_LAYER if k.endswith("_s")}
    own = self_times(spans)
    for s in spans:
        layer = s[2]
        if f"{layer}.self_s" in out:
            out[f"{layer}.self_s"] += own[s[0]]
        target = _INCLUSIVE.get(s[1])
        if target:
            out[target] += s[4] - s[3]
    for key in ("classical.collisions", "classical.samples", "quantum.eigensolves",
                "quantum.banded_solves", "generators.table_builds",
                "generators.grad_evals", "systems.point_calls", "schedules.calls",
                "schedules.points", "config.parse_calls"):
        out[key] = int(counts.get(key, 0))
    out["shells.calls"] = sum(1 for s in spans if s[2] == "shells")
    evals = out["generators.grad_evals"]
    out["generators.builds_per_eval"] = out["generators.table_builds"] / evals if evals else 0.0
    return out
