"""The traced run: per-layer numbers measured from outside the package.

Spans come from wrappers the benchmark installs around calls into the
package's layers, on the workload's objective (instance attributes, or the
objective class when the harness builds the objectives itself) and on
module attributes (``polycd.solvers.weight_refresh``,
``polycd.objectives.bisect_line_min``, ``polycd.harness.run_experiment``
and ``polycd.harness.run_solver_cell``).  The package itself is not
modified.  Spans are kept in memory and written out with the run's record.
Every other per-layer number times one public call directly.
"""

import contextlib
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import polycd
from polycd import _kernels, baselines, harness, objectives, solvers, verify

from metrics import (Span, Tally, covered_by_children, rel_gap,
                     self_time_by_name, self_times)
import workloads as wl

# layer of each span name, for the per-layer self time
SPAN_LAYER = {
    "solve": "solvers",
    "solver_cell": "solvers",
    "weight_refresh": "solvers",
    "run_cycle": "kernels",
    "refresh_cache": "objectives",
    "eval": "objectives",
    "line_search": "objectives",
    "bisect_line_min": "objectives",
    "experiment": "harness",
}
OBJECTIVE_METHODS = ("run_cycle", "refresh_cache", "eval", "line_search")

# fixed iteration budgets of the baseline probes on the workloads whose
# own solve runs no baseline; an iteration on KDE costs about 50x one on
# lasso, and the budgets keep every probe under about a second
BASELINE_PROBE_ITERS = {
    "lasso-away": {"fw": 200, "afw": 200, "fista": 50, "2cd": 4000},
    "kde-away": {"fw": 20, "afw": 20, "fista": 8, "2cd": 400},
}
SETUP_REPS = 3
STEP_RULE_TOL = 1e-9  # per-step pass vs kernel pass, relative


class Tracer:
    """Records one span per wrapped call: name, start, end and the span
    that was open when the call began.  All spans share one run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s)
        return traced

    def wrap_bisect(self, fn):
        """bisect_line_min with its derivative wrapped to count the
        evaluations of each call."""
        def traced(dphi, *args, **kwargs):
            def counted(alpha):
                self.counts["dphi_evals"] = self.counts.get("dphi_evals", 0) + 1
                return dphi(alpha)
            s = self._open("bisect_line_min")
            try:
                return fn(counted, *args, **kwargs)
            finally:
                self._close(s)
        return traced

    def patch(self, owner, attr, wrapper):
        """Replace owner.attr (instance, class or module) by wrapper(attr's
        current value) until restore()."""
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def patch_objective(self, owner):
        for name in OBJECTIVE_METHODS:
            self.patch(owner, name, lambda fn, n=name: self.wrap(n, fn))

    def patch_modules(self):
        self.patch(solvers, "weight_refresh",
                   lambda fn: self.wrap("weight_refresh", fn))
        self.patch(objectives, "bisect_line_min", self.wrap_bisect)

    def restore(self):
        while self._patches:
            owner, attr, had, old = self._patches.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def calls(self, name):
        return [s for s in self.spans if s.name == name]

    def layer_self_times(self):
        out = {}
        for s, st in zip(self.spans, self_times(self.spans)):
            layer = SPAN_LAYER[s.name]
            out[layer] = out.get(layer, 0.0) + st
        return out

    def dump(self):
        return {"run_id": self.run_id,
                "spans": [{"name": s.name, "start": s.start, "end": s.end,
                           "parent": s.parent} for s in self.spans],
                "self_time_by_name": {
                    k: {"self_s": v[0], "calls": v[1]}
                    for k, v in self_time_by_name(self.spans).items()},
                "counts": dict(self.counts)}


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _setup_probes(fam, seed, out):
    data = fam.generate(seed)
    out["problems.gen_s"] = _median_time(lambda: fam.generate(seed), SETUP_REPS)
    out["objectives.init_s"] = _median_time(lambda: fam.build(data), SETUP_REPS)
    obj, _ = fam.build(data)
    out["objectives.L_s"] = _median_time(obj.estimate_smoothness, SETUP_REPS)


def _direct_passes(fam, data, passes, probe_after):
    """Run the solve's passes by calling the objective's compiled-kernel
    cycle directly (weight hygiene between passes, untimed).  Returns the
    per-pass times, the final objective and weights, and the weights
    after `probe_after` passes."""
    obj, poly = fam.build(data)
    M = poly.M
    order = np.arange(M, dtype=np.int64)
    lam = np.zeros(M)
    lam[0] = 1.0
    obj.reset(poly.vertex(0))
    state = solvers.AwayState(lam=lam)
    fn = _kernels.kernel(obj.kernel_name())
    cfg = polycd.SolveConfig()
    times, probe_lam = [], None
    for p in range(passes):
        t0 = time.perf_counter()
        obj.run_cycle(fn, order, lam, False, True, cfg.gamma_cap,
                      cfg.drop_tol, cfg.ls_tol, cfg.ls_max_iter)
        times.append(time.perf_counter() - t0)
        solvers.weight_refresh(state, obj.x, poly, tol=1e-8)
        if p + 1 == probe_after:
            probe_lam = lam.copy()
    return times, obj, poly, lam, probe_lam


def _step_probe(fam, data, lam0, tracer_id, out, tally):
    """One pass through the per-step path (inner_callback) from lam0,
    counting step kinds and line-search work; it must end at the same f as
    one compiled-kernel pass from lam0."""
    cfg = polycd.SolveConfig(max_outer=1, rel_improve_tol=0.0, lam0=lam0)
    obj_k, poly = fam.build(data)
    _, _, trace_k = polycd.polycdwa_solve(obj_k, poly, cfg)
    obj, poly = fam.build(data)
    alphas = []
    with Tracer(tracer_id) as tr:
        tr.patch(obj, "line_search", lambda fn: tr.wrap("line_search", fn))
        tr.patch(objectives, "bisect_line_min", tr.wrap_bisect)
        _, _, trace_s = polycd.polycdwa_solve(
            obj, poly, cfg, inner_callback=lambda t, i, a: alphas.append(a))
    a = np.array(alphas)
    out["kernels.useful_step_ratio"] = float(np.mean(a != 0.0))
    out["kernels.away_step_share"] = float(np.mean(a < 0.0))
    out["kernels.full_step_share"] = float(np.mean(a == 1.0))
    ls = tr.calls("line_search")
    out["objectives.line_search_us"] = (
        1e6 * sum(s.duration for s in ls) / len(ls) if ls else 0.0)
    out["objectives.line_search_evals"] = (
        tr.counts.get("dphi_evals", 0) / len(ls) if ls else 0.0)
    f_k, f_s = trace_k[-1].f_value, trace_s[-1].f_value
    tally.record([] if abs(rel_gap(f_s, f_k)) <= STEP_RULE_TOL else
                 [f"per-step pass ends at {f_s:.17g}, kernel pass at "
                  f"{f_k:.17g}"], "per-step probe")
    return tr.dump()


def _column_probe(obj, poly, out, count=200):
    idx = np.linspace(0, poly.M - 1, count).astype(np.int64)
    if isinstance(obj, polycd.KdeHuber):
        def fetch(i):
            return obj.kernel_column(i)
    else:
        def fetch(i):
            return obj.A_cols[poly.vertex_coords[i]] * poly.vertex_scales[i]
    t0 = time.perf_counter()
    for i in idx:
        fetch(int(i))
    out["objectives.kernel_column_us"] = 1e6 * (time.perf_counter() - t0) / count


def _polytope_probes(obj, poly, lam, out, reps=21):
    x = poly.combination(lam)
    g = obj.grad_at(x)
    y = x - g / max(float(np.abs(g).max()), 1e-300)
    out["polytope.vertex_scores_us"] = 1e6 * _median_time(
        lambda: poly.vertex_scores(g), reps)
    out["polytope.project_us"] = 1e6 * _median_time(lambda: poly.project(y), reps)
    out["polytope.combination_us"] = 1e6 * _median_time(
        lambda: poly.combination(lam), reps)
    out["verify.certify_s"] = _median_time(
        lambda: verify.certify_fw_gap(obj, poly, x), 5)


def _baseline_probes(workload, data, out):
    """Each baseline for a fixed iteration budget on the workload's
    instance; the 2-coordinate method runs on the lifted simplex form of
    the l1-ball problems, as the harness does."""
    fam = workload.family
    budgets = BASELINE_PROBE_ITERS[workload.name]
    for name, solve in (("fw", baselines.fw_solve), ("afw", baselines.afw_solve),
                        ("fista", baselines.fista_solve),
                        ("2cd", baselines.twocd_solve)):
        obj, poly = fam.build(data)
        if name == "2cd" and isinstance(poly, polycd.L1Ball):
            A, b, C = data
            poly = polycd.StandardSimplex(2 * poly.d)
            obj = polycd.LeastSquares(np.hstack([A, -A]) * C, b, poly)
        cfg = baselines.BaselineConfig(max_iter=budgets[name], window=None)
        _, trace = solve(obj, poly, cfg)
        out[f"baselines.{name}.iters"] = trace[-1].t
        out[f"baselines.{name}.iter_us"] = 1e6 * trace[-1].elapsed / trace[-1].t


def _traced_solve(workload, seed, run_id, out, tally, refs, work_dir):
    """Untraced then traced run of the workload's own solve on one pool
    instance.  Returns (data, tracer, untraced s, traced s, passes); the
    tracer's first span is the root around the solve."""
    run = wl.timed_solve(workload, seed)
    _, problems = wl.check_solve(workload, run, refs)
    tally.record(problems, f"untraced solve, instance {seed}")
    obj, poly = workload.family.build(run.data)
    cfg = polycd.SolveConfig(max_outer=workload.passes, rel_improve_tol=0.0)
    with Tracer(run_id) as tr:
        tr.patch_objective(obj)
        tr.patch_modules()
        t0 = time.perf_counter()
        with tr.span("solve"):
            _, _, trace = polycd.polycdwa_solve(obj, poly, cfg)
        traced_s = time.perf_counter() - t0
    tally.record([] if trace[-1].f_value == run.trace[-1].f_value else
                 ["traced solve left the untraced trajectory"], "traced solve")
    ref = refs.get(seed, run.data)
    gaps = [rel_gap(r.f_value, ref["f_ref"]) for r in run.trace]
    out["solvers.passes_to_gap"] = next(
        (t for t, g in enumerate(gaps) if g <= workload.target), -1)
    out["solvers.pass_s"] = run.solve_s / run.passes
    with tempfile.TemporaryDirectory(dir=work_dir) as d:
        path = Path(d) / "plot.csv"
        t0 = time.perf_counter()
        harness.emit_plot_data({"polycdwa": run.trace}, ref["f_ref"], path)
        out["harness.overhead_s"] = time.perf_counter() - t0
        out["harness.bytes_written"] = path.stat().st_size
    return run.data, tr, run.solve_s, traced_s, run.passes


def _traced_experiment(workload, seed, run_id, out, tally, refs, work_dir):
    """As _traced_solve, for one ``polycd bench`` experiment; the root span
    is harness.run_experiment."""
    run = wl.timed_experiment(seed, work_dir)
    _, problems = wl.check_experiment(workload, run, refs)
    tally.record(problems, f"untraced experiment, instance {seed}")
    with Tracer(run_id) as tr:
        tr.patch_objective(polycd.Logistic)
        tr.patch_modules()
        tr.patch(harness, "run_experiment",
                 lambda fn: tr.wrap("experiment", fn))
        tr.patch(harness, "run_solver_cell",
                 lambda fn: tr.wrap("solver_cell", fn))
        traced = wl.timed_experiment(seed, work_dir)
    tally.record([traced.error] if traced.error else [], "traced experiment")
    data = workload.family.generate(seed)
    ref = refs.get(seed, data)
    cd = run.traces["polycdwa"]
    gaps = [rel_gap(r[2], ref["f_ref"]) for r in cd]
    out["solvers.passes_to_gap"] = next(
        (t for t, g in zip((r[0] for r in cd), gaps) if g <= workload.target), -1)
    passes = cd[-1][0]
    out["solvers.pass_s"] = cd[-1][1] / passes
    for name in ("fw", "afw", "fista", "2cd"):
        rows = run.traces[name]
        out[f"baselines.{name}.iters"] = rows[-1][0]
        out[f"baselines.{name}.iter_us"] = 1e6 * rows[-1][1] / rows[-1][0]
    clocks = sum(rows[-1][1] for rows in run.traces.values())
    out["harness.overhead_s"] = run.wall_s - clocks
    out["harness.bytes_written"] = run.bytes_written
    return data, tr, run.wall_s, traced.wall_s, passes


def run_traced(workload, seed, work_dir, log):
    """Per-layer metrics for one pool instance chosen by seed.
    Returns (metrics {name: value}, tally, dumps)."""
    rng = np.random.default_rng(seed)
    inst = int(rng.permutation(workload.pool)[0])
    refs = wl.References(workload, log)
    tally = Tally()
    fam = workload.family
    out = {}
    run_id = f"{workload.name}-seed{seed}-instance{inst}"

    _setup_probes(fam, inst, out)
    if workload.kind == "harness":
        data, tr, untraced_s, traced_s, passes = _traced_experiment(
            workload, inst, run_id, out, tally, refs, work_dir)
    else:
        data, tr, untraced_s, traced_s, passes = _traced_solve(
            workload, inst, run_id, out, tally, refs, work_dir)
        _baseline_probes(workload, data, out)
    layer_self = tr.layer_self_times()
    out["trace.kernels.self_s"] = layer_self.get("kernels", 0.0)
    out["trace.objectives.self_s"] = layer_self.get("objectives", 0.0)
    out["trace.solvers.self_s"] = layer_self.get("solvers", 0.0)
    out["trace.unaccounted_s"] = untraced_s - covered_by_children(tr.spans, 0)
    out["trace.overhead_s"] = traced_s - untraced_s
    per_call = self_time_by_name(tr.spans)
    for name, key in (("refresh_cache", "objectives.refresh_cache_s"),
                      ("eval", "objectives.eval_s"),
                      ("weight_refresh", "solvers.weight_refresh_s")):
        tot, calls = per_call.get(name, (0.0, 0))
        out[key] = tot / calls if calls else 0.0

    times, obj, poly, lam, probe_lam = _direct_passes(fam, data, passes, 2)
    out["kernels.step_us"] = 1e6 * sum(times) / (len(times) * poly.M)
    out["solvers.pass_overhead_s"] = out["solvers.pass_s"] - sum(times) / len(times)
    out["solvers.support_size"] = int(np.count_nonzero(lam > 0.0))
    step_dump = _step_probe(fam, data, probe_lam, run_id + "-step", out, tally)
    _column_probe(obj, poly, out)
    _polytope_probes(obj, poly, lam, out)
    return out, tally, {"solve": tr.dump(), "step_probe": step_dump}
