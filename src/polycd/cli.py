"""Command-line interface.

Subcommands:
  solve          one problem instance, one solver, prints the result
  bench          full multi-solver comparison driven by a JSON config
  gen            generate and dump a synthetic dataset
"""

import argparse
import json
import sys
from pathlib import Path

from .harness import (_PROBLEM_KEYS, L1_PRESETS, PRESETS, SOLVER_NAMES,
                      ExperimentConfig, SolverCell, run_experiment)
from .problems import KdeSpec, dump_tsv, gen_kde
from .solvers import GRAD_1D, LINE_SEARCH


def _add_problem_flags(p):
    p.add_argument("--preset", choices=PRESETS, default="lasso")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", type=int, default=None, help="default 200; 2 for kde")
    p.add_argument("--r", type=int, default=20)
    p.add_argument("--snr", type=float, default=1.0)
    p.add_argument("--s", type=float, default=None,
                   help="signal scale (logistic preset)")
    p.add_argument("--rho", type=float, default=None,
                   help="design correlation (lasso/logistic)")
    p.add_argument("--c", type=float, default=None,
                   help="l1 radius override (default ||x*||_1)")
    p.add_argument("--m", type=int, default=None,
                   help="mixture components (kde preset)")
    p.add_argument("--sigma-kernel", type=float, default=None)
    p.add_argument("--mu-huber", type=float, default=None)
    p.add_argument("--mu", type=float, default=None,
                   help="strong-convexity shift (quadratic preset)")
    p.add_argument("--seed", type=int, default=0)


def _problem_dict(args):
    flags = vars(args)
    if args.d is None and args.preset != "kde":  # KdeSpec's own d is 2
        flags = {**flags, "d": 200}
    keys = _PROBLEM_KEYS[args.preset]
    return {k: v for k, v in flags.items() if k in keys and v is not None}


def _cmd_solve(args):
    cell = SolverCell(name=args.solver, step_rule=args.step_rule,
                      max_outer=args.max_outer,
                      rel_improve_tol=args.tol,
                      max_iter=args.max_iter,
                      smoothness=args.smoothness)
    cfg = ExperimentConfig(preset=args.preset, problem=_problem_dict(args),
                           solvers=[cell], repetitions=1, seeds=[args.seed],
                           out_dir=args.out)
    summary = run_experiment(cfg)
    print(json.dumps(summary["solvers"], indent=2))
    return 0


def _cmd_bench(args):
    cfg = ExperimentConfig.from_json(args.config)
    summary = run_experiment(cfg)
    print(json.dumps(summary["solvers"], indent=2))
    return 0


def _cmd_gen(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prob = _problem_dict(args)
    meta = {"preset": args.preset, "seed": args.seed, "problem": prob}
    if args.preset in L1_PRESETS:
        spec_cls, gen, _ = L1_PRESETS[args.preset]
        A, y, x_star, C = gen(spec_cls(seed=args.seed, **{
            k: v for k, v in prob.items() if k != "c"}))
        dump_tsv(out / "A.tsv", A)
        dump_tsv(out / ("b.tsv" if args.preset == "lasso" else "labels.tsv"), y)
        dump_tsv(out / "x_star.tsv", x_star)
        meta["C"] = C
    elif args.preset == "kde":
        X, truth = gen_kde(KdeSpec(seed=args.seed, **prob))
        dump_tsv(out / "points.tsv", X)
        meta["n_inliers"] = truth["n_inliers"]
        meta["n_outliers"] = truth["n_outliers"]
    else:
        raise SystemExit("gen supports the data presets (lasso/logistic/kde)")
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {args.preset} dataset to {out}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="polycd",
        description="cyclic vertex descent solvers over vertex-enumerated "
                    "polytopes, with a benchmark harness")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="run one solver on one instance")
    _add_problem_flags(p)
    p.add_argument("--solver", choices=SOLVER_NAMES, default="polycdwa")
    p.add_argument("--step-rule", choices=[LINE_SEARCH, GRAD_1D],
                   default=LINE_SEARCH)
    p.add_argument("--max-outer", type=int, default=100)
    p.add_argument("--max-iter", type=int, default=None,
                   help="iteration budget for the baseline solvers")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="relative-improvement stop")
    p.add_argument("--smoothness", type=float, default=None,
                   help="override the certified smoothness bound L")
    p.add_argument("--out", default="results",
                   help="output directory for trace/summary")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="full comparison from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen", help="dump a synthetic dataset")
    _add_problem_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
