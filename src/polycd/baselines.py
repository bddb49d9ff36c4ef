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
from .solvers import (AwayState, TraceRecord, _nnz, require_ints,
                      weight_refresh)


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
        require_ints(self, "max_iter", "window", "rng_seed", "record_every")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.window is not None and self.window < 1:
            raise ValueError("window must be >= 1 or None")
        # not <: a NaN, which switched its stop rule off, is rejected too
        if not self.window_tol >= 0:
            raise ValueError("window_tol must be nonnegative")
        # a NaN switched FW's gap stop off; -inf stays allowed
        if np.isnan(self.fw_gap_tol):
            raise ValueError("fw_gap_tol must not be NaN")
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError("time_budget must be nonnegative or None")


class _Run:
    """The record-and-stop protocol of the baselines and the trace it
    keeps.  Record 0 is the start point; iteration k is recorded when
    record_every divides it and at max_iter.  The run stops when the time
    budget is spent or when the best value found has improved relatively
    by less than window_tol over the last `window` iterations, and a
    window stop is recorded once.  f is read only where a record or the
    window needs it."""

    def __init__(self, cfg, f, x, nnz=_nnz, windowed=True):
        self.cfg = cfg
        self.nnz = nnz
        # the running best value over the last window + 1 iterations
        self.best = (deque(maxlen=cfg.window + 1)
                     if windowed and cfg.window is not None else None)
        self.t0 = time.perf_counter()
        self.trace = []
        self._close(0, f(), x, True)

    def iterations(self):
        """1, ..., max_iter, ending once the time budget is spent."""
        budget = self.cfg.time_budget
        for k in range(1, self.cfg.max_iter + 1):
            if budget is not None and time.perf_counter() - self.t0 > budget:
                return
            yield k

    def stop_after(self, k, f, x):
        """Whether the run stops after iteration k, whose value is f() and
        iterate x; records k where due."""
        record = k % self.cfg.record_every == 0 or k == self.cfg.max_iter
        if not record and self.best is None:
            return False
        return self._close(k, f(), x, record)

    def _close(self, k, f_k, x, record):
        best = self.best
        stop = False
        if best is not None:
            best.append(min(f_k, best[-1]) if best else f_k)
            stop = (len(best) > self.cfg.window and (best[0] - best[-1])
                    / max(abs(best[0]), 1.0) < self.cfg.window_tol)
        if record or stop:
            self.trace.append(TraceRecord(
                k, f_k, time.perf_counter() - self.t0, k, self.nnz(x)))
        return stop


def _start(obj, poly, cfg):
    """(poly, cfg, lam): the defaults filled in, and the objective's start
    weights obj.start_weights(), where every baseline starts."""
    poly = poly if poly is not None else obj.poly
    if poly is not obj.poly:
        raise ValueError("objective is bound to a different polytope")
    cfg = cfg if cfg is not None else BaselineConfig()
    return poly, cfg, obj.start_weights()


def _fw_loop(obj, poly, cfg, away):
    """The loop of fw_solve and, with away steps, afw_solve.  The two
    differ only in the choice of direction, the weight update and the
    weight refresh, which plain Frank-Wolfe skips."""
    poly, cfg, lam = _start(obj, poly, cfg)
    obj.reset(poly.combination(lam))
    state = AwayState(lam=lam)
    run = _Run(cfg, obj.eval, obj.x)
    for k in run.iterations():
        g = obj.full_gradient()
        scores = poly.vertex_scores(g)
        v = int(scores.argmin())
        gx = float(g @ obj.x)
        fw_gap = gx - float(scores[v])
        if fw_gap <= cfg.fw_gap_tol:
            break
        # a toward step is never a drop: it counts as capped
        lo, hi, capped = 0.0, 1.0, True
        if away:
            v_aw = int(np.argmax(np.where(lam > 0.0, scores, -np.inf)))
            fw_slope = float(scores[v]) - gx      # <g, v_fw - x> <= 0
            aw_slope = gx - float(scores[v_aw])   # <g, x - v_aw> <= 0
            if not (fw_slope <= aw_slope or lam[v_aw] >= 1.0):
                v, hi = v_aw, 0.0
                lo, capped = _kernels.step_interval(True, lam, 1.0, v,
                                                    _kernels.GAMMA_CAP)
        alpha = obj.line_search(v, lo, hi)
        if away:
            alpha, lsc = _kernels.away_update(lam, 1.0, v, alpha, lo, capped,
                                              _kernels.DROP_TOL)
            if lsc != 1.0:
                lam *= lsc
        obj.apply_step(v, alpha)
        if away:
            weight_refresh(state, obj.x, poly, tol=1e-8)
        if run.stop_after(k, obj.eval, obj.x):
            break
    return obj.x.copy(), run.trace


def fw_solve(obj, poly=None, cfg=None):
    """Vanilla Frank-Wolfe: per iteration pick the vertex minimizing the
    linearized objective (ties broken by lowest index), then exact line
    search on the segment toward it."""
    return _fw_loop(obj, poly, cfg, False)


def afw_solve(obj, poly=None, cfg=None):
    """Away-step Frank-Wolfe with exact line search and weight maintenance.

    Per iteration the steeper of the toward-vertex and away-from-vertex
    directions is taken; away steps reuse the segment machinery with steps
    in [-gamma, 0], gamma capped at _kernels.GAMMA_CAP, and share the
    cyclic solver's drop snap and weight update (a capped step is never a
    drop).
    """
    return _fw_loop(obj, poly, cfg, True)


def fista_solve(obj, poly=None, cfg=None):
    """Accelerated projected gradient with fixed step 1/L and the classical
    extrapolation sequence t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2."""
    poly, cfg, lam = _start(obj, poly, cfg)
    L = obj.L
    x = poly.combination(lam)
    y = x.copy()
    tk = 1.0
    run = _Run(cfg, lambda: obj.eval_at(x), x)
    best_x, best_f = x.copy(), run.trace[0].f_value
    for k in run.iterations():
        x_new = poly.project(y - obj.grad_at(y) / L)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        y = x_new + ((tk - 1.0) / t_new) * (x_new - x)
        x, tk = x_new, t_new
        f_now = obj.eval_at(x)
        if f_now < best_f:
            best_f, best_x = f_now, x.copy()
        if run.stop_after(k, lambda: f_now, x):
            break
    return best_x, run.trace


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
    one-coordinate simplex no pair exists and the start point is returned.

    The customary budget for this method is max_iter = 100 * dimension.  It
    applies no stagnation window: cfg.window and cfg.window_tol are ignored.
    """
    poly, cfg, lam = _start(obj, poly, cfg)
    if not isinstance(poly, StandardSimplex):
        raise ValueError("two-coordinate descent needs a simplex domain "
                         "(lift l1-ball problems first)")
    d = poly.d
    obj.reset(poly.combination(lam))
    rng = np.random.default_rng(cfg.rng_seed)
    run = _Run(cfg, obj.eval, obj.x, nnz_fn if nnz_fn is not None else _nnz,
               windowed=False)
    if d < 2:
        # no coordinate pair exists; the start vertex is the only point
        return obj.x.copy(), run.trace
    for k, (i, j) in zip(run.iterations(), pair_stream(rng, d)):
        lo = -obj.x[i]
        hi = obj.x[j]
        if hi > lo:
            theta = obj.pair_line_search(i, j, lo, hi)
        else:
            theta = 0.0
        obj.apply_pair_step(i, j, theta)
        run.stop_after(k, obj.eval, obj.x)
    return obj.x.copy(), run.trace
