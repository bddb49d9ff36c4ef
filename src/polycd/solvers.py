"""Cyclic vertex descent over a polytope, plain and with away steps.

Both solvers sweep the vertex list in a fixed cyclic order; per inner step
the iterate moves along the segment toward the visited vertex with a step
chosen either by exact line search or by the one-dimensional gradient rule.
The away variant additionally maintains the convex-combination weights of
the iterate and allows backward steps down to -gamma_i, where
gamma_i = lam_i / (1 - lam_i) is the largest feasible move away from
vertex i.

Structured problems (the composite and kernel-density objectives over the
simplex / l1 ball) run whole outer passes inside the cycle kernels of
``_kernels``.  Everything else, and every run given an inner_callback,
runs through the per-step objective API, which produces the same
trajectories.
"""

from dataclasses import dataclass
import operator
import time

import numpy as np

from . import _kernels
from .objectives import grad_step_alpha

LINE_SEARCH = "line_search"
GRAD_1D = "grad"
_RULES = (LINE_SEARCH, GRAD_1D)
NNZ_TOL = 1e-10  # |x_k| above this counts as a nonzero in the traces


class ConsistencyError(RuntimeError):
    pass


def require_ints(cfg, *names):
    """Store each of the fields names of cfg that is not None as the Python
    int that operator.index gives; ValueError, naming the field, unless it
    holds an integer (Python or numpy)."""
    for name in names:
        value = getattr(cfg, name)
        if value is not None:
            try:
                setattr(cfg, name, operator.index(value))
            except TypeError:
                raise ValueError(
                    f"{name} must be an integer, not {value!r}") from None


@dataclass
class SolveConfig:
    step_rule: str = LINE_SEARCH
    max_outer: int = 100
    # stop when (f(x^t) - f(x^{t+1})) / max(|f(x^t)|, 1) falls below this
    rel_improve_tol: float = 1e-8
    visit_order: np.ndarray | None = None  # permutation of range(M); None = cyclic
    # the start weights; None = the objective's obj.start_weights()
    lam0: np.ndarray | None = None

    # the step constants, not settings: perfbench's tracing._direct_passes
    # reads them here to call run_cycle, which tests/test_perfbench_names.py
    # pins
    gamma_cap = _kernels.GAMMA_CAP
    drop_tol = _kernels.DROP_TOL
    ls_tol = _kernels.LS_TOL
    ls_max_iter = _kernels.LS_MAX_ITER

    def __post_init__(self):
        if self.step_rule not in _RULES:
            raise ValueError(f"step_rule must be one of {_RULES}")
        require_ints(self, "max_outer")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        # not <: a NaN tolerance is rejected too
        if not self.rel_improve_tol >= 0:
            raise ValueError("rel_improve_tol must be nonnegative")


@dataclass
class TraceRecord:
    t: int
    f_value: float
    elapsed: float
    inner_steps: int
    nnz: int


@dataclass
class AwayState:
    """Convex-combination weights lam with x = sum_j lam_j v_j."""

    lam: np.ndarray

    @property
    def support(self):
        return np.flatnonzero(self.lam > 0.0)


def weight_refresh(state, x, poly, tol=1e-6):
    """Numerical hygiene for the weight vector: clip tiny negatives, rescale
    to sum exactly 1, and verify that the weights still reconstruct x.
    Raises ConsistencyError when x and lam have irrecoverably diverged."""
    lam = state.lam
    np.maximum(lam, 0.0, out=lam)
    s = lam.sum()
    if not s > 0:
        raise ConsistencyError("weight vector collapsed to zero")
    if s != 1.0:
        lam /= s
    recon = poly.combination(lam)
    err = np.linalg.norm(recon - x)
    if err > tol * (1.0 + np.linalg.norm(x)):
        raise ConsistencyError(
            f"weights no longer reconstruct the iterate (error {err:.3e})")
    return state


def _nnz(x):
    return int(np.count_nonzero(np.abs(x) > NNZ_TOL))


def _resolve_order(M, visit_order):
    if visit_order is None:
        return np.arange(M, dtype=np.int64)
    given = np.asarray(visit_order)
    with np.errstate(invalid="ignore"):
        order = given.astype(np.int64)
    # the cast must keep every value: arange(M) + 0.9 is not arange(M)
    if (given.shape != (M,) or not np.array_equal(order, given)
            or not np.array_equal(np.sort(order), np.arange(M))):
        raise ValueError("visit_order must be a permutation of range(M)")
    return order


def start_weights(obj, cfg):
    """The vertex weights a cyclic solve starts at: cfg.lam0, else the
    objective's own default obj.start_weights()."""
    if cfg.lam0 is None:
        return obj.start_weights()
    lam = np.array(cfg.lam0, dtype=np.float64)
    if (lam.shape != (obj.poly.M,) or not np.isfinite(lam).all()
            or lam.min() < 0 or abs(lam.sum() - 1.0) > 1e-10):
        raise ValueError("lam0 must be a point of the weight simplex")
    return lam


def _inner_step(obj, i, lo, cfg):
    """Choose the step toward vertex i on [lo, 1] and return it (not applied)."""
    if cfg.step_rule == GRAD_1D:
        q = obj.segment_query(i)
        return grad_step_alpha(q.b, q.c, obj.L, lo, 1.0)
    return obj.line_search(i, lo, 1.0)


def _drive(obj, poly, cfg, away, inner_callback=None):
    poly = poly if poly is not None else obj.poly
    if poly is not obj.poly:
        raise ValueError("objective is bound to a different polytope")
    M = poly.M
    order = _resolve_order(M, cfg.visit_order)

    # the plain solver's kernels never read the weights
    lam = start_weights(obj, cfg)
    obj.reset(poly.combination(lam))
    state = AwayState(lam=lam) if away else None

    # the per-step path serves objectives without a cycle kernel and runs
    # that report each step to inner_callback
    kname = obj.kernel_name()
    fn = (_kernels.kernel(kname)
          if kname is not None and inner_callback is None else None)
    grad_rule = cfg.step_rule == GRAD_1D

    t_start = time.perf_counter()
    trace = [TraceRecord(0, obj.eval(), time.perf_counter() - t_start, 0, _nnz(obj.x))]
    inner_total = 0

    for t in range(1, cfg.max_outer + 1):
        if fn is not None:
            obj.run_cycle(fn, order, lam, grad_rule, away,
                          _kernels.GAMMA_CAP, _kernels.DROP_TOL,
                          _kernels.LS_TOL, _kernels.LS_MAX_ITER)
        else:
            # a degenerate visit counts as a zero step, as in a kernel
            # pass, and the weights carry their rescale as one scalar, lsc,
            # folded in at the pass end as the kernels fold theirs
            lsc = 1.0
            for i in order:
                alpha = 0.0
                if not obj.segment_is_degenerate(i):
                    lo, capped = _kernels.step_interval(
                        away, lam, lsc, i, _kernels.GAMMA_CAP)
                    alpha = _inner_step(obj, i, lo, cfg)
                    if away:
                        alpha, lsc = _kernels.away_update(
                            lam, lsc, i, alpha, lo, capped, _kernels.DROP_TOL)
                obj.apply_step(i, alpha)
                if inner_callback is not None:
                    inner_callback(t, int(i), float(alpha))
            if lsc != 1.0:
                lam *= lsc
        inner_total += M
        if away:
            weight_refresh(state, obj.x, poly, tol=1e-8)

        f_now = obj.eval()
        trace.append(TraceRecord(t, f_now, time.perf_counter() - t_start,
                                 inner_total, _nnz(obj.x)))
        f_prev = trace[-2].f_value
        if (f_prev - f_now) / max(abs(f_prev), 1.0) < cfg.rel_improve_tol:
            break

    x = obj.x.copy()
    if away:
        return x, state, trace
    return x, trace


def polycd_solve(obj, poly=None, cfg=None, inner_callback=None):
    """Cyclic vertex descent with steps in [0, 1].

    Returns (x, trace); the trace holds one record per outer iteration
    boundary, record 0 being the start point.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    return _drive(obj, poly, cfg, away=False, inner_callback=inner_callback)


def polycdwa_solve(obj, poly=None, cfg=None, inner_callback=None):
    """Cyclic vertex descent with away steps: steps in [-gamma_i, 1] and
    exact weight maintenance (a step hitting -gamma_i writes the weight as
    an exact zero).

    Returns (x, away_state, trace).
    """
    cfg = cfg if cfg is not None else SolveConfig()
    return _drive(obj, poly, cfg, away=True, inner_callback=inner_callback)
