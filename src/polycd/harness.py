"""Experiment configuration, presets, execution, and persistence.

An experiment is a preset problem family, a list of solver cells, and a
repetition count; every repetition regenerates data under its own seed,
runs each solver on a fresh objective, and scores everything against the
best objective value any solver found on that instance.  One CSV trace per
(solver, repetition) and one JSON summary are written.
"""

import dataclasses
import json
import numbers
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .baselines import BaselineConfig, afw_solve, fista_solve, fw_solve, twocd_solve
from .objectives import (KdeHuber, LeastSquares, Logistic, Quadratic,
                         smoothness_override)
from .polytope import L1Ball, StandardSimplex
from .problems import (RNG_NAME, KdeSpec, LassoSpec, LogisticSpec, gen_kde,
                       gen_lasso, gen_logistic)
from .solvers import (LINE_SEARCH, SolveConfig, _nnz, polycd_solve,
                      polycdwa_solve, require_ints)

PRESETS = ("lasso", "logistic", "kde", "custom-simplex-quadratic")
SOLVER_NAMES = ("polycd", "polycdwa", "fw", "afw", "fista", "2cd")

# the l1-ball presets: spec class, generator, objective class
L1_PRESETS = {
    "lasso": (LassoSpec, gen_lasso, LeastSquares),
    "logistic": (LogisticSpec, gen_logistic, Logistic),
}


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


# problem-section keys per preset: the spec fields but the seed, which each
# repetition sets, and for the l1 presets "c", which overrides the radius
_PROBLEM_KEYS = {
    **{p: (_fields(spec) - {"seed"}) | {"c"}
       for p, (spec, _, _) in L1_PRESETS.items()},
    "kde": _fields(KdeSpec) - {"seed"},
    "custom-simplex-quadratic": {"d", "mu"},
}
# the problem-section keys that hold sizes
_SIZE_KEYS = ("n", "d", "r", "m")
# a solver label names files and fills a CSV field
_LABEL = re.compile(r'[^,"/\\\x00-\x1f\x7f-\x9f]+')


def compute_gap(f_hat, f_star):
    """Relative optimality gap (f_hat - f_star) / max(|f_star|, 1)."""
    return (f_hat - f_star) / max(abs(f_star), 1.0)


@dataclass
class SolverCell:
    name: str
    step_rule: str = LINE_SEARCH
    max_outer: int = 100
    rel_improve_tol: float = 1e-8
    max_iter: int | None = None  # baseline budget; None = per-method default
    window: int = 50  # stagnation window of fw, afw and fista; 2cd has none
    window_tol: float = 1e-8
    rng_seed: int | None = None  # pair-descent draw seed; None = repetition seed
    smoothness: float | None = None  # user override of the certified L bound
    label: str | None = None

    def __post_init__(self):
        if self.name not in SOLVER_NAMES:
            raise ValueError(f"unknown solver {self.name!r}; known: {SOLVER_NAMES}")
        require_ints(self, "max_outer", "max_iter", "window", "rng_seed")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1 or None")
        if self.rng_seed is not None and self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative or None")
        # not <: a NaN is rejected too, here and not in the run
        for name in ("rel_improve_tol", "window_tol"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        smoothness_override(self.smoothness, "smoothness")
        if self.label is None:
            self.label = self.name
        if not (isinstance(self.label, str) and _LABEL.fullmatch(self.label)):
            raise ValueError("label must be nonempty, without a comma, a double "
                             f"quote, / \\ or a control character: {self.label!r}")

    @classmethod
    def from_dict(cls, d):
        _reject_unknown(d, _fields(cls), "solver")
        return cls(**d)


@dataclass
class ExperimentConfig:
    preset: str
    problem: dict
    solvers: list
    repetitions: int = 5
    seeds: list | None = None
    out_dir: str = "results"

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; known: {PRESETS}")
        if not self.solvers:
            raise ValueError("need at least one solver")
        require_ints(self, "repetitions")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        _reject_unknown(self.problem, _PROBLEM_KEYS[self.preset],
                        f"problem ({self.preset})")
        require_ints(SimpleNamespace(**self.problem),
                     *(k for k in _SIZE_KEYS if k in self.problem))
        self.solvers = [s if isinstance(s, SolverCell) else SolverCell.from_dict(s)
                        for s in self.solvers]
        if (self.preset == "custom-simplex-quadratic"
                and any(s.smoothness is not None for s in self.solvers)):
            raise ValueError("smoothness cannot be overridden for the "
                             "custom-simplex-quadratic preset: Quadratic "
                             "computes L exactly")
        labels = [s.label for s in self.solvers]
        if len(set(labels)) != len(labels):
            raise ValueError("solver labels must be unique (set label explicitly)")
        if self.seeds is not None:
            if len(self.seeds) != self.repetitions:
                raise ValueError("seeds must match repetitions")
            for seed in self.seeds:
                if not (isinstance(seed, numbers.Integral) and seed >= 0):
                    raise ValueError(f"seeds must be nonnegative integers, "
                                     f"not {seed!r}")

    @classmethod
    def from_dict(cls, d):
        _reject_unknown(d, _fields(cls), "experiment")
        return cls(**d)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        d = dataclasses.asdict(self)
        return d


def _reject_unknown(d, allowed, what):
    if not isinstance(d, dict):
        raise ValueError(f"{what} section must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


class _Bundle:
    """One generated instance plus factories for per-solver objectives."""

    def __init__(self, preset, prob, seed):
        self.preset = preset
        self.seed = seed
        prob = dict(prob)
        if preset in L1_PRESETS:
            spec_cls, gen, objective = L1_PRESETS[preset]
            c_override = prob.pop("c", None)
            spec = spec_cls(seed=seed, **prob)
            A, y, _, C = gen(spec)
            if c_override is not None:
                C = float(c_override)
            # the factories close over locals, never self: a bundle in a
            # reference cycle would keep its arrays until a full gc pass
            poly = self.poly = L1Ball(spec.d, C)
            self._make = lambda L=None: objective(A, y, poly, L=L)
            B = np.hstack([A, -A]) * C
            lifted_poly = self.lifted_poly = StandardSimplex(2 * spec.d)
            self._make_lifted = lambda L=None: objective(B, y, lifted_poly, L=L)
            self.radius = C
            self.dim = spec.d
        elif preset == "kde":
            spec = KdeSpec(seed=seed, **prob)
            X, _ = gen_kde(spec)
            poly = self.poly = self.lifted_poly = StandardSimplex(spec.n)
            self._make = lambda L=None: KdeHuber(X, spec.sigma_kernel,
                                                 spec.mu_huber, poly, L=L)
            self._make_lifted = self._make
            self.dim = spec.n
        elif preset == "custom-simplex-quadratic":
            d = int(prob["d"])
            mu = float(prob.get("mu", 0.0))
            rng = np.random.default_rng(seed)
            B = rng.standard_normal((2 * d, d))
            Q = B.T @ B / d + mu * np.eye(d)
            qlin = rng.standard_normal(d)
            poly = self.poly = self.lifted_poly = StandardSimplex(d)
            # L is exact here; ExperimentConfig rejects an override
            self._make = lambda L=None: Quadratic(Q, qlin, poly=poly)
            self._make_lifted = self._make
            self.dim = d
        else:  # pragma: no cover - guarded by config validation
            raise ValueError(preset)
        self.twocd_budget = 100 * self.dim

    def objective(self, lifted=False, L=None):
        return self._make_lifted(L=L) if lifted else self._make(L=L)

    def unlift(self, u):
        if self.preset in L1_PRESETS:
            return self.radius * (u[:self.dim] - u[self.dim:])
        return u

    def lifted_nnz_fn(self):
        return lambda u: _nnz(self.unlift(u))


def run_solver_cell(cell, bundle):
    """Run one solver on one instance; returns (x_in_original_space, trace)."""
    if cell.name in ("polycd", "polycdwa"):
        cfg = SolveConfig(step_rule=cell.step_rule, max_outer=cell.max_outer,
                          rel_improve_tol=cell.rel_improve_tol)
        obj = bundle.objective(L=cell.smoothness)
        if cell.name == "polycd":
            x, trace = polycd_solve(obj, bundle.poly, cfg)
        else:
            x, _, trace = polycdwa_solve(obj, bundle.poly, cfg)
        return x, trace
    if cell.name == "2cd":
        obj = bundle.objective(lifted=True, L=cell.smoothness)
        cfg = BaselineConfig(
            max_iter=(bundle.twocd_budget if cell.max_iter is None
                      else cell.max_iter),
            rng_seed=cell.rng_seed if cell.rng_seed is not None else bundle.seed,
            record_every=max(1, bundle.lifted_poly.M // 4),
        )
        u, trace = twocd_solve(obj, bundle.lifted_poly, cfg,
                               nnz_fn=bundle.lifted_nnz_fn())
        return bundle.unlift(u), trace
    obj = bundle.objective(L=cell.smoothness)
    default_iter = {"fw": 5000, "afw": 5000, "fista": 1000}[cell.name]
    cfg = BaselineConfig(
        max_iter=default_iter if cell.max_iter is None else cell.max_iter,
        window=cell.window, window_tol=cell.window_tol)
    solver = {"fw": fw_solve, "afw": afw_solve, "fista": fista_solve}[cell.name]
    x, trace = solver(obj, bundle.poly, cfg)
    return x, trace


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

_TRACE_HEADER = "solver,rep,t,seconds,f_value,gap,nnz\n"
_PLOT_HEADER = "solver,t,seconds,gap\n"


def _formatted(trace, f_star):
    """Each record with its seconds, f_value and gap in the files' format."""
    for r in trace:
        yield (r, f"{r.elapsed:.17g}", f"{r.f_value:.17g}",
               f"{compute_gap(r.f_value, f_star):.17g}")


def emit_plot_data(traces, f_star, path):
    """Write gap-vs-iteration/time series for any plotting tool.

    traces: mapping solver label -> trace list sharing the f_star reference.
    Columns: solver, t, seconds, gap.
    """
    with open(path, "w") as plot:
        plot.write(_PLOT_HEADER)
        for label, trace in traces.items():
            for r, seconds, _, gap in _formatted(trace, f_star):
                plot.write(f"{label},{r.t},{seconds},{gap}\n")
    return path


def _write_rep(out, rep, traces, f_star):
    """One repetition's trace and plot files, each record formatted once."""
    with open(out / f"plot_rep{rep}.csv", "w") as plot:
        plot.write(_PLOT_HEADER)
        for label, trace in traces.items():
            with open(out / f"trace_{label}_rep{rep}.csv", "w") as fh:
                fh.write(_TRACE_HEADER)
                for r, seconds, f_value, gap in _formatted(trace, f_star):
                    fh.write(f"{label},{rep},{r.t},{seconds},{f_value},"
                             f"{gap},{r.nnz}\n")
                    plot.write(f"{label},{r.t},{seconds},{gap}\n")


def run_experiment(cfg, quiet=False):
    """Execute every (repetition, solver) cell, persist traces and a JSON
    summary, and return the summary dict.  Solver failures are recorded and
    excluded from the means with a warning rather than aborting the run."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = list(cfg.seeds) if cfg.seeds is not None else list(range(cfg.repetitions))
    per_solver = {cell.label: [] for cell in cfg.solvers}
    f_stars = []
    errors = []

    for rep, seed in enumerate(seeds):
        bundle = _Bundle(cfg.preset, cfg.problem, seed)
        traces = {}
        for cell in cfg.solvers:
            try:
                traces[cell.label] = run_solver_cell(cell, bundle)[1]
            except Exception as exc:  # noqa: BLE001 - record and continue
                msg = f"{cell.label} failed on rep {rep}: {exc!r}"
                errors.append({"solver": cell.label, "rep": rep, "error": repr(exc)})
                warnings.warn(msg)
        if not traces:
            continue
        f_star = min(min(r.f_value for r in trace) for trace in traces.values())
        f_stars.append(f_star)
        _write_rep(out, rep, traces, f_star)
        for label, trace in traces.items():
            f_best = min(r.f_value for r in trace)
            per_solver[label].append({
                "runtime": trace[-1].elapsed,
                "gap": compute_gap(f_best, f_star),
                "nnz": trace[-1].nnz,
                "f_best": f_best,
            })
            if not quiet:
                print(f"rep {rep} {label:>10s}: f={f_best:.9e} "
                      f"gap={compute_gap(f_best, f_star):.2e} "
                      f"time={trace[-1].elapsed:.3f}s nnz={trace[-1].nnz}")

    summary = {
        "preset": cfg.preset,
        "config": cfg.to_dict(),
        "rng": RNG_NAME,
        "version": __version__,
        "seeds": seeds,
        "f_star_per_rep": f_stars,
        "solvers": {},
        "errors": errors,
    }
    for label, cells in per_solver.items():
        if not cells:
            summary["solvers"][label] = {"failed": True}
            continue
        summary["solvers"][label] = {
            "mean_runtime": float(np.mean([c["runtime"] for c in cells])),
            "mean_gap": float(np.mean([c["gap"] for c in cells])),
            "mean_nnz": float(np.mean([c["nnz"] for c in cells])),
            "repetitions": len(cells),
        }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary

