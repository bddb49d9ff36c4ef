"""The benchmark's workloads: instance pools, certified references, the
timed closed loop and the correctness gate.

Each workload draws its instances from a fixed pool of generator seeds
whose reference values are stored in ``refs.json`` beside this file; the
run's ``--seed`` sets the order in which the closed loop visits the pool.
Every run measures whole passes over the pool, so two runs differ only in
visit order and measurement noise, never in which instances they average.
See README.md for why the pools are fixed.
"""

import hashlib
import json
import resource
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import polycd
from polycd import harness, verify
from polycd.problems import (KdeSpec, LassoSpec, LogisticSpec, gen_kde,
                             gen_lasso, gen_logistic)
from polycd.solvers import ConsistencyError

from hostspeed import REFERENCE_PROBE_S, HostSpeed
from metrics import (Tally, at_reference_speed, host_factor, instance_medians,
                     rel_gap, summarize, time_to_gap)

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

# ---------------------------------------------------------------------------
# problem families: generation, construction, instance hash, reference
# ---------------------------------------------------------------------------


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class Lasso:
    """gen_lasso(n=1000, d=1000, r=50, snr=10) on the l1 ball of radius
    ||x*||_1 (M = 2000 vertices): the criterion-1 instance."""

    params = {"n": 1000, "d": 1000, "r": 50, "snr": 10.0}

    def generate(self, seed):
        A, b, _, C = gen_lasso(LassoSpec(seed=seed, **self.params))
        return A, b, C

    def build(self, data):
        A, b, C = data
        poly = polycd.L1Ball(A.shape[1], C)
        return polycd.LeastSquares(A, b, poly), poly

    def instance_hash(self, data):
        A, b, C = data
        return _sha256(A, b, [C])

    def reference(self, data):
        """A long away run; its stateless Frank-Wolfe certificate bounds
        how far the reference value can sit above the optimum."""
        obj, poly = self.build(data)
        cfg = polycd.SolveConfig(max_outer=80, rel_improve_tol=0.0)
        x, _, _ = polycd.polycdwa_solve(obj, poly, cfg)
        return {"f_ref": float(obj.eval_at(x)),
                "cert": verify.certify_fw_gap(obj, poly, x),
                "method": "polycdwa_solve, 80 passes, line search; "
                          "verify.certify_fw_gap"}


class Kde:
    """gen_kde(n=1000, d=2) with the Gaussian kernel of bandwidth 1 and
    Huber threshold 0.4, on the simplex of the n sample weights."""

    params = {"n": 1000, "d": 2, "sigma_kernel": 1.0, "mu_huber": 0.4}
    ref_rounds = 30

    def generate(self, seed):
        X, _ = gen_kde(KdeSpec(seed=seed, **self.params))
        return X

    def build(self, data):
        obj = polycd.KdeHuber(data, self.params["sigma_kernel"],
                              self.params["mu_huber"])
        return obj, obj.poly

    def instance_hash(self, data):
        return _sha256(data)

    def reference(self, data):
        """verify.reference_solve_kde bounded by rounds only (no wall-clock
        budget), so the stored value does not depend on machine load."""
        ref = verify.reference_solve_kde(
            data, self.params["sigma_kernel"], self.params["mu_huber"],
            rounds=self.ref_rounds)
        return {"f_ref": float(ref.f), "cert": float(ref.fw_gap),
                "method": f"verify.reference_solve_kde, rounds="
                          f"{self.ref_rounds}, no time budget"}


class LogisticL1:
    """gen_logistic(n=200, d=200, r=20) on the l1 ball of radius
    ||x*||_1, the logistic preset of ``polycd bench``."""

    params = {"n": 200, "d": 200, "r": 20}

    def generate(self, seed):
        A, labels, _, C = gen_logistic(LogisticSpec(seed=seed, **self.params))
        return A, labels, C

    def build(self, data):
        A, labels, C = data
        poly = polycd.L1Ball(A.shape[1], C)
        return polycd.Logistic(A, labels, poly), poly

    def instance_hash(self, data):
        A, labels, C = data
        return _sha256(A, labels, [C])

    def reference(self, data):
        obj, poly = self.build(data)
        cfg = polycd.SolveConfig(max_outer=300, rel_improve_tol=0.0)
        x, _, _ = polycd.polycdwa_solve(obj, poly, cfg)
        return {"f_ref": float(obj.eval_at(x)),
                "cert": verify.certify_fw_gap(obj, poly, x),
                "method": "polycdwa_solve, 300 passes, line search; "
                          "verify.certify_fw_gap"}


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    family: object
    pool: tuple          # generator seeds of the instances
    target: float        # relative gap that ends time-to-gap
    passes: int = 0      # fixed pass budget of the direct solve
    kind: str = "solve"  # "solve": direct polycdwa_solve; "harness": bench


WORKLOADS = {
    "lasso-away": Workload("lasso-away", Lasso(), tuple(range(8)),
                           target=1e-6, passes=16),
    "kde-away": Workload("kde-away", Kde(), tuple(range(2)),
                         target=1e-5, passes=7),
    "bench-logistic": Workload("bench-logistic", LogisticL1(),
                               tuple(range(2)), target=1e-6, kind="harness"),
}

# the solver cells of ``polycd bench`` on the logistic preset, each at its
# default budget
BENCH_SOLVERS = (
    {"name": "polycdwa", "step_rule": "line_search"},
    {"name": "polycd", "step_rule": "grad"},
    {"name": "fw"},
    {"name": "afw"},
    {"name": "fista"},
    {"name": "2cd"},
)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def load_refs():
    if not REFS_PATH.exists():
        return {}
    return json.loads(REFS_PATH.read_text())


class References:
    """Stored reference values, checked against the generated instance's
    hash; a missing or stale entry is recomputed (outside every timed
    region) and reported."""

    def __init__(self, workload, log):
        self.workload = workload
        self.stored = load_refs().get(workload.name, {})
        self.log = log
        self.recomputed = []

    def get(self, seed, data):
        rec = self.stored.get(str(seed))
        if rec is None or rec["sha256"] != self.workload.family.instance_hash(data):
            why = "missing" if rec is None else "instance hash changed"
            self.log(f"reference for {self.workload.name} seed {seed} {why}; "
                     f"recomputing")
            rec = reference_record(self.workload.family, data)
            self.stored[str(seed)] = rec
            self.recomputed.append(seed)
        return rec


def reference_record(family, data):
    """The family's reference for one instance, with its relative
    certificate, run time and instance hash."""
    t0 = time.perf_counter()
    rec = family.reference(data)
    rec["seconds"] = time.perf_counter() - t0
    rec["rel_cert"] = rec["cert"] / max(abs(rec["f_ref"]), 1.0)
    rec["sha256"] = family.instance_hash(data)
    return rec


def compute_refs(workload, seeds, log=print):
    out = {}
    for seed in seeds:
        rec = reference_record(workload.family, workload.family.generate(seed))
        log(f"{workload.name} seed {seed}: f_ref={rec['f_ref']:.17g} "
            f"rel_cert={rec['rel_cert']:.2e} ({rec['seconds']:.1f} s)")
        out[str(seed)] = rec
    return out


# ---------------------------------------------------------------------------
# one measured operation per workload kind, and its correctness gate
# ---------------------------------------------------------------------------


@dataclass
class SolveRun:
    """One timed generate-construct-solve call and what it returned."""

    seed: int
    data: object
    obj: object
    poly: object
    t0: float              # before generation
    t1: float              # after construction, before the solver call
    t2: float = 0.0        # after the solver returned
    x: object = None
    state: object = None
    trace: list = None
    error: str = ""

    @property
    def solve_s(self):
        return self.t2 - self.t1

    @property
    def passes(self):
        return self.trace[-1].t


def timed_solve(workload, seed):
    """Generate, construct and solve one pool instance with the away solver
    at the fixed pass budget.  With rel_improve_tol=0 only a pass that
    makes f rise, which happens once rounding dominates, ends it early."""
    fam = workload.family
    t0 = time.perf_counter()
    data = fam.generate(seed)
    obj, poly = fam.build(data)
    run = SolveRun(seed, data, obj, poly, t0, time.perf_counter())
    cfg = polycd.SolveConfig(max_outer=workload.passes, rel_improve_tol=0.0)
    try:
        run.x, run.state, run.trace = polycd.polycdwa_solve(obj, poly, cfg)
    except Exception as exc:  # noqa: BLE001 - a raising solver is a failure
        run.error = f"solver raised {exc!r}"
    run.t2 = time.perf_counter()
    return run


def _check_final(f_final, ref, reached, problems):
    if not reached:
        problems.append("target gap not reached within the budget")
    if f_final < ref["f_ref"] - ref["cert"]:
        problems.append(f"f_final {f_final:.17g} below the certified "
                        f"interval of f_ref {ref['f_ref']:.17g}")


def check_solve(workload, run, refs):
    """Correctness gate of one solve, run outside the timed region.
    Returns (sample or None, problems)."""
    if run.error:
        return None, [run.error]
    problems = []
    ref = refs.get(run.seed, run.data)
    if not run.poly.contains(run.x):
        problems.append("iterate left the polytope")
    try:
        polycd.weight_refresh(run.state, run.x, run.poly)
    except ConsistencyError as exc:
        problems.append(f"away weights fail weight_refresh: {exc}")
    trace = run.trace
    ttg = time_to_gap([r.elapsed for r in trace], [r.f_value for r in trace],
                      ref["f_ref"], workload.target,
                      call_offset=run.solve_s - trace[-1].elapsed)
    _check_final(float(run.obj.eval_at(run.x)), ref, ttg is not None,
                 problems)
    if problems:
        return None, problems
    return {
        "seed": run.seed,
        "window": (run.t0, run.t2),
        "setup_s": run.t1 - run.t0,
        "wall_s": run.t2 - run.t0,
        "time_to_gap_s": ttg,
        "steps_per_s": trace[-1].inner_steps / run.solve_s,
        "final_gap": rel_gap(trace[-1].f_value, ref["f_ref"]),
        "elapsed": [r.elapsed for r in trace],
        "solve_s": run.solve_s,
    }, []


def read_trace_csv(path):
    """(t, seconds, f_value) rows of a harness trace file."""
    rows = []
    for line in Path(path).read_text().splitlines()[1:]:
        parts = line.split(",")
        rows.append((int(parts[2]), float(parts[3]), float(parts[4])))
    return rows


@dataclass
class ExperimentRun:
    """One timed ``polycd bench`` experiment and what it wrote."""

    seed: int
    t0: float = 0.0
    wall_s: float = 0.0
    summary: dict = None
    traces: dict = None    # solver label -> [(t, seconds, f_value)]
    bytes_written: int = 0
    error: str = ""


def timed_experiment(seed, work_dir):
    """harness.run_experiment on one pool instance with the solver cells of
    BENCH_SOLVERS, writing traces and summary into a scratch directory."""
    run = ExperimentRun(seed)
    with tempfile.TemporaryDirectory(dir=work_dir) as out:
        cfg = harness.ExperimentConfig(
            preset="logistic", problem=dict(LogisticL1.params),
            solvers=[dict(s) for s in BENCH_SOLVERS], repetitions=1,
            seeds=[seed], out_dir=out)
        run.t0 = time.perf_counter()
        try:
            run.summary = harness.run_experiment(cfg, quiet=True)
        except Exception as exc:  # noqa: BLE001 - a raising run is a failure
            run.error = f"run_experiment raised {exc!r}"
            return run
        run.wall_s = time.perf_counter() - run.t0
        files = list(Path(out).iterdir())
        run.bytes_written = sum(p.stat().st_size for p in files)
        run.traces = {
            p.name[len("trace_"):-len("_rep0.csv")]: read_trace_csv(p)
            for p in files if p.name.startswith("trace_")}
    return run


def check_experiment(workload, run, refs):
    if run.error:
        return None, [run.error]
    problems = [f"summary lists solver error: {e}"
                for e in run.summary["errors"]]
    ref = refs.get(run.seed, workload.family.generate(run.seed))
    missing = set(run.summary["solvers"]) - set(run.traces)
    if missing:
        problems.append(f"solvers without a trace: {sorted(missing)}")
    for label, rows in run.traces.items():
        f_min = min(r[2] for r in rows)
        if f_min < ref["f_ref"] - ref["cert"]:
            problems.append(f"{label} value {f_min:.17g} below the certified "
                            f"interval of f_ref {ref['f_ref']:.17g}")
    cd = run.traces.get("polycdwa")
    if cd is None:
        problems.append("polycdwa wrote no trace")
        return None, problems
    ttg = time_to_gap([r[1] for r in cd], [r[2] for r in cd],
                      ref["f_ref"], workload.target)
    _check_final(cd[-1][2], ref, ttg is not None, problems)
    if problems:
        return None, problems
    clocks = sum(rows[-1][1] for rows in run.traces.values())
    M = 2 * LogisticL1.params["d"]
    return {
        "seed": run.seed,
        "window": (run.t0, run.t0 + run.wall_s),
        "wall_s": run.wall_s,
        "setup_s": run.wall_s - clocks,
        "time_to_gap_s": ttg,
        "steps_per_s": cd[-1][0] * M / cd[-1][1],
        "final_gap": rel_gap(cd[-1][2], ref["f_ref"]),
    }, []


def measure_once(workload, seed, refs, work_dir):
    if workload.kind == "harness":
        return check_experiment(workload, timed_experiment(seed, work_dir), refs)
    return check_solve(workload, timed_solve(workload, seed), refs)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def visit_order(pool, rng):
    """Endless visit order over the pool: a fresh permutation drawn from
    rng for every round, so each instance is visited equally often."""
    while True:
        yield from (int(i) for i in rng.permutation(pool))


def warm_up(workload, refs):
    """Untimed: generate every pool instance, check its stored reference
    (recomputing a missing or stale one) and construct one objective, so
    first-call costs and reference solves stay out of the closed loop."""
    for seed in workload.pool:
        data = workload.family.generate(seed)
        refs.get(seed, data)
    workload.family.build(data)


# the end-to-end timings, and which of them are rates
TIMINGS = ("time_to_gap_s", "steps_per_s", "wall_s", "setup_s")
RATES = {"steps_per_s"}


def at_reference(sample):
    """The sample's timings scaled to the reference host speed by its
    host factor."""
    out = {name: at_reference_speed(sample[name], sample["host_factor"],
                                    name in RATES)
           for name in TIMINGS}
    out["seed"] = sample["seed"]
    return out


def run_end_to_end(workload, seed, seconds, work_dir, log):
    """The closed loop: after an untimed warm-up, one caller visits the
    pool in an order drawn from seed, each operation starting after the
    previous one returned.  It visits every instance at least once and
    goes on while the next visit is expected to end within `seconds`.

    Returns (metrics, tally, samples, probes, refs).  Each end-to-end
    timing is the median over the pool's instances of the instance's
    median visit, after each visit is scaled to the reference host speed
    by the probes taken during it (hostspeed.py); peak RSS is one
    process-wide value."""
    refs = References(workload, log)
    warm_up(workload, refs)
    order = visit_order(workload.pool, np.random.default_rng(seed))
    tally = Tally()
    samples = []
    with HostSpeed() as host:
        t_start = time.perf_counter()
        while True:
            inst = next(order)
            sample, problems = measure_once(workload, inst, refs, work_dir)
            if tally.record(problems, f"instance {inst}"):
                samples.append(sample)
            n = tally.attempted
            loop_s = time.perf_counter() - t_start
            if n >= len(workload.pool) and loop_s * (n + 1) / n > seconds:
                break
    probes = {"n": len(host.durations), "loop_s": loop_s,
              "share": sum(host.durations) / loop_s}
    for s in samples:
        s["host_factor"] = host_factor(host.starts, host.durations,
                                       *s["window"], REFERENCE_PROBE_S)
    scaled = [at_reference(s) for s in samples]
    metrics = {}
    if samples:
        for name in TIMINGS:
            metrics[name] = dict(summarize(instance_medians(scaled, name)),
                                 visits=len(samples),
                                 measured=summarize(instance_medians(samples,
                                                                     name)))
    metrics["peak_rss_mb"] = summarize([peak_rss_mb()])
    return metrics, tally, samples, probes, refs
