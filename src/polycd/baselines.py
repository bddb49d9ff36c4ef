"""Reference competitors: vanilla Frank-Wolfe, away-step Frank-Wolfe,
FISTA with projection, and randomized two-coordinate descent.

These are full-gradient (or, for the pair method, coordinate-pair) methods
used for cross-checking the cyclic solvers and for the benchmark tables.
They share the objective API, so feasibility and line-search behavior are
tested by the same machinery.
"""

from collections import deque
from dataclasses import dataclass
import time

import numpy as np

from . import _kernels
from .polytope import StandardSimplex
from .solvers import AwayState, TraceRecord, _nnz, weight_refresh


@dataclass
class BaselineConfig:
    max_iter: int = 1000
    # stagnation rule: stop at iteration k when the best value found has
    # improved relatively by less than window_tol over the last `window`
    # iterations (fw, afw and fista; twocd_solve applies no window)
    window: int = 50
    window_tol: float = 1e-8
    rng_seed: int = 0  # two-coordinate method only
    fw_gap_tol: float = 1e-12
    record_every: int = 1  # trace thinning
    time_budget: float | None = None  # wall-clock cap in seconds

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.window is not None and self.window < 1:
            raise ValueError("window must be >= 1 or None")


def _over_budget(cfg, t0):
    return (cfg.time_budget is not None
            and time.perf_counter() - t0 > cfg.time_budget)


class _Stagnation:
    """The window rule over the running best value.  Only the last
    window + 1 best values are kept; with window=None nothing is."""

    def __init__(self, window, tol):
        self.window = window
        self.tol = tol
        self.best = deque(maxlen=window + 1) if window is not None else None

    def update(self, f):
        best = self.best
        if best is None:
            return False
        best.append(min(f, best[-1]) if best else f)
        if len(best) <= self.window:
            return False
        return (best[0] - best[-1]) / max(abs(best[0]), 1.0) < self.tol


def _start(obj, poly, cfg):
    poly = poly if poly is not None else obj.poly
    if poly is not obj.poly:
        raise ValueError("objective is bound to a different polytope")
    cfg = cfg if cfg is not None else BaselineConfig()
    return poly, cfg


def fw_solve(obj, poly=None, cfg=None):
    """Vanilla Frank-Wolfe: per iteration pick the vertex minimizing the
    linearized objective (ties broken by lowest index), then exact line
    search on the segment toward it."""
    poly, cfg = _start(obj, poly, cfg)
    obj.reset(poly.vertex(0))
    stag = _Stagnation(cfg.window, cfg.window_tol)
    t0 = time.perf_counter()
    trace = [TraceRecord(0, obj.eval(), time.perf_counter() - t0, 0, _nnz(obj.x))]
    stag.update(trace[0].f_value)
    for k in range(1, cfg.max_iter + 1):
        if _over_budget(cfg, t0):
            break
        g = obj.full_gradient()
        scores = poly.vertex_scores(g)
        v_idx = int(scores.argmin())
        fw_gap = float(g @ obj.x) - float(scores[v_idx])
        if fw_gap <= cfg.fw_gap_tol:
            break
        alpha = obj.line_search(v_idx, 0.0, 1.0)
        obj.apply_step(v_idx, alpha)
        record = k % cfg.record_every == 0 or k == cfg.max_iter
        if not record and cfg.window is None:
            continue
        f_now = obj.eval()
        if record:
            trace.append(TraceRecord(k, f_now, time.perf_counter() - t0, k,
                                     _nnz(obj.x)))
        if stag.update(f_now):
            if trace[-1].t != k:
                trace.append(TraceRecord(k, f_now, time.perf_counter() - t0, k,
                                         _nnz(obj.x)))
            break
    return obj.x.copy(), trace


def afw_solve(obj, poly=None, cfg=None, gamma_cap=1e12):
    """Away-step Frank-Wolfe with exact line search and weight maintenance.

    Per iteration the steeper of the toward-vertex and away-from-vertex
    directions is taken; away steps reuse the segment machinery with steps
    in [-gamma, 0], gamma capped at gamma_cap, and share the cyclic
    solver's drop snap and weight update (a capped step is never a drop).
    """
    # not <=: a NaN cap is rejected too
    if not gamma_cap > 0:
        raise ValueError("gamma_cap must be positive")
    poly, cfg = _start(obj, poly, cfg)
    obj.reset(poly.vertex(0))
    lam = np.zeros(poly.M)
    lam[0] = 1.0
    state = AwayState(lam=lam)
    stag = _Stagnation(cfg.window, cfg.window_tol)
    t0 = time.perf_counter()
    trace = [TraceRecord(0, obj.eval(), time.perf_counter() - t0, 0, _nnz(obj.x))]
    stag.update(trace[0].f_value)
    for k in range(1, cfg.max_iter + 1):
        if _over_budget(cfg, t0):
            break
        g = obj.full_gradient()
        scores = poly.vertex_scores(g)
        v_fw = int(np.argmin(scores))
        gx = float(g @ obj.x)
        fw_gap = gx - float(scores[v_fw])
        if fw_gap <= cfg.fw_gap_tol:
            break
        away_scores = np.where(lam > 0.0, scores, -np.inf)
        v_aw = int(np.argmax(away_scores))
        fw_slope = float(scores[v_fw]) - gx      # <g, v_fw - x> <= 0
        aw_slope = gx - float(scores[v_aw])      # <g, x - v_aw> <= 0
        li = lam[v_aw]
        if fw_slope <= aw_slope or li >= 1.0:
            v = v_fw
            alpha = obj.line_search(v_fw, 0.0, 1.0)
            dropped = False
        else:
            v = v_aw
            lo, capped = _kernels.away_interval(li, gamma_cap)
            alpha, dropped = _kernels.snap_drop(
                obj.line_search(v_aw, lo, 0.0), lo, capped, _kernels.DROP_TOL)
        obj.apply_step(v, alpha)
        _kernels.reweight(lam, v, alpha, dropped)
        weight_refresh(state, obj.x, poly, tol=1e-8)
        f_now = obj.eval()
        if k % cfg.record_every == 0 or k == cfg.max_iter:
            trace.append(TraceRecord(k, f_now, time.perf_counter() - t0, k,
                                     _nnz(obj.x)))
        if stag.update(f_now):
            if trace[-1].t != k:
                trace.append(TraceRecord(k, f_now, time.perf_counter() - t0, k,
                                         _nnz(obj.x)))
            break
    return obj.x.copy(), trace


def fista_solve(obj, poly=None, cfg=None):
    """Accelerated projected gradient with fixed step 1/L and the classical
    extrapolation sequence t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2."""
    poly, cfg = _start(obj, poly, cfg)
    L = obj.L
    stag = _Stagnation(cfg.window, cfg.window_tol)
    t0 = time.perf_counter()
    x = poly.vertex(0)
    y = x.copy()
    tk = 1.0
    trace = [TraceRecord(0, obj.eval_at(x), time.perf_counter() - t0, 0, _nnz(x))]
    stag.update(trace[0].f_value)
    best_x, best_f = x.copy(), trace[0].f_value
    for k in range(1, cfg.max_iter + 1):
        if _over_budget(cfg, t0):
            break
        x_new = poly.project(y - obj.grad_at(y) / L)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        y = x_new + ((tk - 1.0) / t_new) * (x_new - x)
        x, tk = x_new, t_new
        f_now = obj.eval_at(x)
        if f_now < best_f:
            best_f, best_x = f_now, x.copy()
        if k % cfg.record_every == 0 or k == cfg.max_iter:
            trace.append(TraceRecord(k, f_now, time.perf_counter() - t0, k, _nnz(x)))
        if stag.update(f_now):
            if trace[-1].t != k:
                trace.append(TraceRecord(k, f_now, time.perf_counter() - t0,
                                         k, _nnz(x)))
            break
    return best_x, trace


# pairs drawn per generator call by pair_stream
_PAIR_BLOCK = 4096


def pair_stream(rng, d):
    """Endless uniform distinct coordinate pairs (i, j), drawn _PAIR_BLOCK
    pairs per generator call.  The draws interleave as i_1, j_1, i_2, ...,
    which is the stream of the scalar calls rng.integers(d),
    rng.integers(d - 1) per pair; j is then shifted past i."""
    highs = np.tile(np.array([d, d - 1]), _PAIR_BLOCK)
    while True:
        draws = rng.integers(highs)
        i = draws[0::2]
        j = draws[1::2]
        j += j >= i
        yield from zip(i.tolist(), j.tolist())


def twocd_solve(obj, poly=None, cfg=None, nnz_fn=None):
    """Randomized two-coordinate descent on a simplex domain: per iteration
    draw a distinct coordinate pair (i, j) uniformly and minimize along
    x + theta (e_i - e_j) for theta in [-x_i, x_j] (exact line search,
    closed form for quadratics and safeguarded Newton otherwise).  On a
    one-coordinate simplex no pair exists and the start vertex is returned.

    The customary budget for this method is max_iter = 100 * dimension.  It
    applies no stagnation window: cfg.window and cfg.window_tol are ignored.
    """
    poly, cfg = _start(obj, poly, cfg)
    if not isinstance(poly, StandardSimplex):
        raise ValueError("two-coordinate descent needs a simplex domain "
                         "(lift l1-ball problems first)")
    d = poly.d
    obj.reset(poly.vertex(0))
    rng = np.random.default_rng(cfg.rng_seed)
    nnz = nnz_fn if nnz_fn is not None else _nnz
    t0 = time.perf_counter()
    trace = [TraceRecord(0, obj.eval(), time.perf_counter() - t0, 0, nnz(obj.x))]
    if d < 2:
        # no coordinate pair exists; the start vertex is the only point
        return obj.x.copy(), trace
    for k, (i, j) in zip(range(1, cfg.max_iter + 1), pair_stream(rng, d)):
        if _over_budget(cfg, t0):
            break
        lo = -obj.x[i]
        hi = obj.x[j]
        if hi > lo:
            theta = obj.pair_line_search(i, j, lo, hi)
        else:
            theta = 0.0
        obj.apply_pair_step(i, j, theta)
        if k % cfg.record_every == 0 or k == cfg.max_iter:
            trace.append(TraceRecord(k, obj.eval(), time.perf_counter() - t0,
                                     k, nnz(obj.x)))
    return obj.x.copy(), trace
