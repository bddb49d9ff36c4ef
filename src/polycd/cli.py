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
                      ExperimentConfig, SolverCell, problem_spec,
                      run_experiment)
from .problems import dump_tsv, gen_kde
from .solvers import GRAD_1D, LINE_SEARCH

# the problem flags, by their keys in a problem section
_PROBLEM_FLAGS = ("n", "d", "r", "snr", "s", "rho", "c", "m", "sigma_kernel",
                  "mu_huber", "mu")
# the value of each unset size flag, for the presets that take its key (kde
# keeps its spec's d)
_PROBLEM_DEFAULTS = {"n": 200, "d": 200, "r": 20, "snr": 1.0}
# the solver flags, by their keys in a solver section
_SOLVER_FLAGS = ("step_rule", "max_outer", "max_iter", "rel_improve_tol",
                 "smoothness")


def _add_problem_flags(p):
    p.add_argument("--preset", choices=PRESETS, default="lasso")
    p.add_argument("--n", type=int, help="default 200")
    p.add_argument("--d", type=int, help="default 200; 2 for kde")
    p.add_argument("--r", type=int, help="default 20")
    p.add_argument("--snr", type=float, help="default 1.0")
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


def _set(args, keys):
    """{key: value} of the flags among keys that the command line set."""
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def _problem_dict(args):
    """The problem section: every problem flag set, over the defaults of the
    keys that the preset takes; a flag that it does not take is left for
    the unknown-key check to reject."""
    keys = _PROBLEM_KEYS[args.preset] - ({"d"} if args.preset == "kde"
                                         else set())
    return {**{k: v for k, v in _PROBLEM_DEFAULTS.items() if k in keys},
            **_set(args, _PROBLEM_FLAGS)}


def _cmd_solve(args):
    cell = SolverCell.from_dict({"name": args.solver,
                                 **_set(args, _SOLVER_FLAGS)})
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
    if args.preset not in (*L1_PRESETS, "kde"):
        raise SystemExit("gen supports the data presets (lasso/logistic/kde)")
    prob = _problem_dict(args)
    spec, c = problem_spec(args.preset, prob, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"preset": args.preset, "seed": args.seed, "problem": prob}
    if args.preset in L1_PRESETS:
        A, y, x_star, C = L1_PRESETS[args.preset][1](spec)
        dump_tsv(out / "A.tsv", A)
        dump_tsv(out / ("b.tsv" if args.preset == "lasso" else "labels.tsv"), y)
        dump_tsv(out / "x_star.tsv", x_star)
        meta["C"] = C if c is None else c
    else:
        X, truth = gen_kde(spec)
        dump_tsv(out / "points.tsv", X)
        meta["n_inliers"] = truth["n_inliers"]
        meta["n_outliers"] = truth["n_outliers"]
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
    # each solver flag left unset takes SolverCell's default, and one that
    # the solver does not read is rejected
    p.add_argument("--step-rule", choices=[LINE_SEARCH, GRAD_1D],
                   help="cyclic solvers' step rule")
    p.add_argument("--max-outer", type=int,
                   help="pass budget for the cyclic solvers")
    p.add_argument("--max-iter", type=int,
                   help="iteration budget for the baseline solvers")
    p.add_argument("--tol", type=float, dest="rel_improve_tol",
                   help="relative-improvement stop of the cyclic solvers")
    p.add_argument("--smoothness", type=float,
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
