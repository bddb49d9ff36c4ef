"""Record the benchmark's end-to-end metrics in committed files.

    python3 tools/bench_record.py [--runs N] [--seconds S]

For each workload that BENCHMARK.json declares, runs the unmodified

    python3 perfbench/run.py --workload W --seed s --seconds S

as a subprocess for s = 1, ..., N, one run at a time, from the root of the
checkout.  It reads each run's closing JSON line and the record the run
writes to .perfbench/records/, and writes BENCH_<W>.json at the root with,
per end-to-end metric, the median, the interquartile range (inclusive
quartiles) and the number of runs n, together with the records' git_commit
and source_sha256, the provenance (backend, library versions, BLAS threads,
nproc) and the command lines.

Where a run exits nonzero, reads "correct": false or reports a failed
operation, or where the runs disagree on the commit or the source, the tool
exits 1 and writes no file at all.
"""

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the provenance fields copied from the first run's record; each must be the
# same in every run of the command
PROVENANCE = ("backend", "have_numba", "python", "numpy", "scipy", "blas",
              "blas_threads", "nproc", "machine")
SOURCE = ("git_commit", "source_sha256")


def run_once(workload, seed, seconds):
    """(command, closing JSON, record) of one benchmark run; RuntimeError
    where it fails or is not correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    shown = shlex.join(["python3", *cmd[1:]])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{shown} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 1) != 0:
        raise RuntimeError(f"{shown}: correct {result.get('correct')}, "
                           f"failed {result.get('failed')}")
    path = ROOT / ".perfbench" / "records" / f"{workload}-seed{seed}-trace0.json"
    return shown, result, json.loads(path.read_text())


def summary(values):
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "iqr": [q1, q3], "n": len(values)}


def record_workload(workload, runs, seconds, metrics):
    """The BENCH_<workload>.json content from runs seeds 1..runs."""
    commands, results, records = [], [], []
    for seed in range(1, runs + 1):
        shown, result, record = run_once(workload, seed, seconds)
        print(f"{shown}: " + ", ".join(
            f"{m} {result['metrics'][m]['value']:.6g}" for m, _ in metrics
            if m in result["metrics"]), flush=True)
        commands.append(shown)
        results.append(result)
        records.append(record["provenance"])
    first = records[0]
    for key in SOURCE + PROVENANCE:
        if any(r.get(key) != first.get(key) for r in records):
            raise RuntimeError(f"{workload}: the runs disagree on {key}")
    out = {"workload": workload, "runs": runs, "seconds": seconds,
           "seeds": list(range(1, runs + 1)),
           **{key: first.get(key) for key in SOURCE},
           "metrics": {}, "provenance": {k: first.get(k) for k in PROVENANCE},
           "commands": commands}
    for name, unit in metrics:
        values = [r["metrics"][name]["value"] for r in results
                  if name in r["metrics"]]
        if len(values) != runs:
            raise RuntimeError(f"{workload}: {name} missing from a run")
        out["metrics"][name] = {**summary(values), "unit": unit,
                                "values": values}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    if args.runs < 1 or not args.seconds > 0:
        ap.error("--runs must be >= 1 and --seconds positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    try:
        files = {w["name"]: record_workload(w["name"], args.runs,
                                            args.seconds, metrics)
                 for w in spec["workloads"]}
    except (RuntimeError, ValueError, OSError, KeyError) as exc:
        # a failed or incorrect run, or output that does not parse
        print(f"error: {exc}; no BENCH file written", file=sys.stderr)
        return 1
    invocation = shlex.join(["python3", "tools/bench_record.py",
                             "--runs", str(args.runs),
                             "--seconds", str(args.seconds)])
    for workload, content in files.items():
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps({"command": invocation, **content},
                                   indent=1) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
