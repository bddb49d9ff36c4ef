import dis
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from polycd import _kernels


def test_backend_registry_and_switching():
    prev = _kernels.active_backend()
    try:
        _kernels.use_backend("numpy")
        assert _kernels.active_backend() == "numpy"
        fn = _kernels.kernel("ls_cycle")
        assert fn is _kernels._PY_FUNCS["ls_cycle"]
        if _kernels.HAVE_NUMBA:
            _kernels.use_backend("numba")
            assert _kernels.kernel("ls_cycle") is not fn
    finally:
        _kernels.use_backend(prev)
    with pytest.raises(ValueError):
        _kernels.use_backend("cuda")


def test_env_flag_selects_numpy_backend():
    code = ("import polycd._kernels as k; "
            "print(k.active_backend())")
    env = dict(os.environ, POLYCD_NUMBA="0")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "numpy"


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not installed")
def test_env_flag_selects_numba_backend():
    code = ("import polycd._kernels as k; "
            "print(k.active_backend())")
    env = dict(os.environ, POLYCD_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "numba"


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not installed")
def test_warmup_compiles_all_kernels():
    _kernels.warmup()
    for name in ("ls_cycle", "logistic_cycle", "kde_cycle"):
        assert name in _kernels._JIT_FUNCS


def test_ls_cycle_single_pass_matches_manual_update():
    # one pass over a 2-vertex simplex with the exact line-search rule,
    # cross-checked against the hand-derived closed form
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 2))
    b = rng.standard_normal(6)
    A_cols = np.ascontiguousarray(A.T)
    x = np.array([1.0, 0.0])
    z = A @ x
    sq_x = 1.0
    order = np.arange(2, dtype=np.int64)
    coords = np.arange(2, dtype=np.int64)
    scales = np.ones(2)
    fn = _kernels.kernel("ls_cycle", backend="numpy")
    sq_out = fn(A_cols, b, z, x, np.empty(0), order, coords, scales,
                False, False, 1.0, sq_x, 1e12, 1e-14, A_cols @ b,
                np.sum(A_cols * A_cols, axis=1))
    # manual: step toward e_0 is degenerate; step toward e_1 has
    # alpha* = -<w, z-b>/<w, w> with w = A e_1 - A x
    x2 = np.array([1.0, 0.0])
    z2 = A @ x2
    w = A_cols[1] - z2
    alpha = min(max(-(w @ (z2 - b)) / (w @ w), 0.0), 1.0)
    x2 += alpha * (np.array([0.0, 1.0]) - x2)
    assert np.allclose(x, x2, atol=1e-15)
    assert sq_out == pytest.approx(float(x2 @ x2), rel=1e-12)


def test_kde_columns_match_dense_kernel_rows():
    from polycd.verify import DenseKdeHuber

    rng = np.random.default_rng(4)
    X = rng.standard_normal((90, 2)) * 2.0
    X[10] = X[3]
    X[60] = X[3]
    xsq = np.sum(X * X, axis=1)
    for bw in (1.0, 0.6):
        dense = DenseKdeHuber(X, bw, 0.4)
        k0 = dense.kappa0
        for J in ([3], [10, 3, 60], list(range(0, 90, 7)), [89, 89]):
            J = np.array(J)
            B = _kernels.kde_columns(X, xsq, J, k0, dense.inv2s2)
            assert B.shape == (len(J), 90)
            assert np.max(np.abs(B - dense._K[J])) <= 1e-15 * k0
    # registered as a step helper, so the numba-readiness check walks it
    assert "kde_columns" in _kernels._HELPERS


# builtins that numba's nopython mode supports and the kernels call
_NUMBA_BUILTINS = {"min", "max", "abs", "range", "float"}


def _loaded_globals(code):
    """Names of every LOAD_GLOBAL and every import in code and its nested
    code objects; an import is reported as "import <module>"."""
    for ins in dis.get_instructions(code):
        if ins.opname == "LOAD_GLOBAL":
            yield ins.argval
        elif ins.opname == "IMPORT_NAME":
            yield f"import {ins.argval}"
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _loaded_globals(const)


@pytest.mark.parametrize("name", sorted(_kernels._PY_FUNCS)
                         + sorted(_kernels._HELPERS))
def test_kernel_globals_are_numba_ready(name):
    # a compiled kernel can reach only numpy, numeric constants, the
    # builtins numba supports and the helpers registered with numba; this
    # catches, without numba, a kernel or helper calling plain Python code
    fn = _kernels._PY_FUNCS.get(name) or _kernels._HELPERS[name]
    helpers = list(_kernels._HELPERS.values())
    scope = vars(_kernels)
    for g in _loaded_globals(fn.__code__):
        if g in scope:
            val = scope[g]
            ok = (val is np or any(val is h for h in helpers)
                  or (isinstance(val, (int, float))
                      and not isinstance(val, bool)))
        else:
            ok = g in _NUMBA_BUILTINS
        assert ok, f"{name} uses {g}, which numba cannot compile"
