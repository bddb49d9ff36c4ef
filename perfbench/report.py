"""Runs one workload for the launcher (run.py), prints the metric table
and the result line, and writes the run's record with its provenance."""

import ctypes
import hashlib
import json
import os
import platform
import sys
import time

import numpy
import scipy

import polycd

import tracing
import workloads as wl
from metrics import summarize

RECORD_DIR = ".perfbench"


def _blas_info():
    """BLAS library from numpy's build configuration, plus the thread count
    the loaded OpenBLAS reports (None where it cannot be asked)."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        info = {"name": None, "version": None}
    info["threads_reported"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads_reported"] = int(fn())
                info["library"] = os.path.basename(path)
                return info
    return info


def _git_commit(root):
    """HEAD of the checkout's own git directory, or None when the checkout
    is not a git repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_sha256(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "polycd").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, root, threads):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": polycd.active_backend(),
        "have_numba": polycd.HAVE_NUMBA,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
        "closed_loop": "one caller, one operation in flight",
    }


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def _write_record(root, args, record):
    out = root / RECORD_DIR / "records"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    return path


def declared_metrics(root, trace):
    """(name, unit) of the metrics BENCHMARK.json declares for this kind of
    run, in declared order."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main(args, root, threads):
    workload = wl.WORKLOADS[args.workload]
    declared = declared_metrics(root, args.trace)
    work_dir = root / RECORD_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    record = {"provenance": provenance(args, root, threads)}
    t0 = time.perf_counter()
    if args.trace:
        values, tally, dumps = tracing.run_traced(workload, args.seed,
                                                  work_dir, _log)
        measured = {k: summarize([v]) for k, v in values.items()}
        record["spans"] = dumps
    else:
        measured, tally, samples, probes, refs = wl.run_end_to_end(
            workload, args.seed, args.seconds, work_dir, _log)
        record["samples"] = samples
        record["host_probes"] = probes
        record["references_recomputed"] = refs.recomputed
    metrics = {name: dict(measured[name], unit=unit)
               for name, unit in declared if name in measured}
    missing = [name for name, _ in declared if name not in measured]
    record["run_s"] = time.perf_counter() - t0
    record["metrics"] = metrics
    record["missing_metrics"] = missing
    record["attempted"], record["failed"] = tally.attempted, tally.failed
    record["failures"] = tally.reasons
    path = _write_record(root, args, record)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"backend {polycd.active_backend()}  blas threads {threads}  "
          f"record {path.relative_to(root)}")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    for name in missing:
        print(f"MISSING {name}")
    if not args.trace:
        factors = [s["host_factor"] for s in samples] or [1.0]
        print(f"host probes: {probes['n']}, {100 * probes['share']:.2f}% of "
              f"the loop; host factor median {summarize(factors)['median']:.3f}"
              f" (visit timings are divided by it)")
    for name, s in metrics.items():
        over = (f"median over {s['n']} instances of their median "
                f"visit, {s['visits']} visits, at reference host speed; "
                f"as measured {s['measured']['median']:.6g}" if "visits" in s
                else f"{s['n']} sample")
        print(f"{name:32s} {s['median']:14.6g} {s['unit']:6s} ({over}; "
              f"p25 {s['p25']:.6g}, p75 {s['p75']:.6g}, max {s['max']:.6g})")
    result = {
        "correct": tally.correct and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                    for name, s in metrics.items()},
    }
    print(json.dumps(result))
    return 0
