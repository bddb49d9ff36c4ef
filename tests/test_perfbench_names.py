"""Every polycd name that the benchmark scripts in perfbench/ read must exist.

perfbench reads the package through attributes of its modules, through
``from polycd... import`` lists, through attributes that it patches by name
(``Tracer.patch(module, "name", ...)``), and through the fields of the
config dataclasses that it builds.  A change that renames, moves or deletes
one of them would otherwise fail only in a benchmark run.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _Missing:
    """What a name that does not resolve binds; no attribute resolves on it."""


def _import(module, name):
    """from module import name, as Python does it: an attribute of module,
    else its submodule name."""
    obj = getattr(importlib.import_module(module), name, _Missing)
    if obj is _Missing:
        try:
            obj = importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            pass
    return obj


def _imports(tree):
    """name -> object for each polycd module or name that the file imports."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "polycd":
                    out[a.asname or a.name] = importlib.import_module(a.name)
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "polycd"):
            for a in node.names:
                out[a.asname or a.name] = _import(node.module, a.name)
    return out


def _resolve(node, scope):
    """(dotted label, object) of a name or attribute chain rooted in scope,
    else (None, None)."""
    if isinstance(node, ast.Name):
        return scope.get(node.id, (None, None))
    if isinstance(node, ast.Attribute):
        label, obj = _resolve(node.value, scope)
        if label is not None:
            return f"{label}.{node.attr}", getattr(obj, node.attr, _Missing)
    return None, None


def _config_instances(fn, scope):
    """name -> (label, class) for each local name of the function fn that
    every assignment in fn binds to a new instance of one polycd dataclass."""
    found = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            label, cls = (_resolve(node.value.func, scope)
                          if isinstance(node.value, ast.Call) else (None, None))
            for t in node.targets:
                if isinstance(t, ast.Name):
                    found.setdefault(t.id, set()).add(
                        (f"{label}()", cls) if dataclasses.is_dataclass(cls)
                        else None)
    return {name: v.pop() for name, v in found.items()
            if len(v) == 1 and None not in v}


def _has(obj, attr):
    return hasattr(obj, attr) or (
        dataclasses.is_dataclass(obj)
        and attr in {f.name for f in dataclasses.fields(obj)})


def _reads(path):
    """(dotted name, resolves) for each polycd name that the file reads."""
    tree = ast.parse(path.read_text())
    imported = _imports(tree)
    reads = [(name, obj is not _Missing) for name, obj in imported.items()]
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    for body in [tree] + functions:
        scope = {name: (name, obj) for name, obj in imported.items()}
        if body is not tree:
            scope.update(_config_instances(body, scope))
        for node in ast.walk(body):
            if isinstance(node, ast.Attribute):
                owner, attr = node.value, node.attr
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "patch" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                owner, attr = node.args[0], node.args[1].value
            else:
                continue
            label, obj = _resolve(owner, scope)
            if label is not None and obj is not _Missing:
                reads.append((f"{label}.{attr}", _has(obj, attr)))
    return reads


def test_every_polycd_name_perfbench_reads_resolves():
    reads = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        for name, ok in _reads(path):
            reads.setdefault(name, set()).add((path.name, ok))
    missing = sorted(f"{f}: {name}" for name, uses in reads.items()
                     for f, ok in uses if not ok)
    assert not missing, missing
    # the collector sees each kind of read
    for name in ("polycd.active_backend", "verify.certify_fw_gap",
                 "solvers.weight_refresh", "objectives.bisect_line_min",
                 "polycd.SolveConfig().ls_max_iter", "ConsistencyError"):
        assert name in reads, name
