import json

import numpy as np
import pytest

from polycd import cli
from polycd.cli import main
from polycd.problems import load_tsv


def test_solve_subcommand_writes_outputs(tmp_path, capsys):
    rc = main(["solve", "--preset", "lasso", "--n", "50", "--d", "25",
               "--r", "4", "--snr", "1.0", "--solver", "polycdwa",
               "--max-outer", "40", "--seed", "3",
               "--out", str(tmp_path / "res")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "polycdwa" in out
    assert (tmp_path / "res" / "summary.json").exists()
    assert (tmp_path / "res" / "trace_polycdwa_rep0.csv").exists()


@pytest.mark.parametrize("flag", ["--max-outer", "--max-iter", "--smoothness"])
def test_solve_rejects_zero_budget(tmp_path, flag):
    # --max-outer 0 used to exit 0 with the solver reported as failed, and
    # --smoothness 0 divided by zero partway through a pass
    with pytest.raises(ValueError, match=flag[2:].replace("-", "_")):
        main(["solve", "--preset", "lasso", "--n", "20", "--d", "10",
              "--r", "2", "--solver", "fw", flag, "0",
              "--out", str(tmp_path / "res")])


def test_solve_with_smoothness_override(tmp_path):
    rc = main(["solve", "--preset", "lasso", "--n", "40", "--d", "20",
               "--r", "3", "--solver", "polycd", "--step-rule", "grad",
               "--max-outer", "30", "--smoothness", "500.0",
               "--out", str(tmp_path / "res2")])
    assert rc == 0


def test_bench_subcommand(tmp_path):
    cfg = {
        "preset": "lasso",
        "problem": {"n": 50, "d": 20, "r": 3, "snr": 1.0},
        "solvers": [{"name": "polycdwa", "max_outer": 40},
                    {"name": "fista", "max_iter": 400}],
        "repetitions": 2,
        "out_dir": str(tmp_path / "bench"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["bench", "--config", str(cfg_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "bench" / "summary.json").read_text())
    assert set(summary["solvers"]) == {"polycdwa", "fista"}


def test_bench_rejects_unknown_config_keys(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"preset": "lasso", "problem": {},
                                    "solvers": [{"name": "fw"}],
                                    "surprise": 1}))
    with pytest.raises(ValueError, match="unknown experiment keys"):
        main(["bench", "--config", str(cfg_path)])


def test_gen_subcommand_round_trip(tmp_path):
    out = tmp_path / "data"
    rc = main(["gen", "--preset", "lasso", "--n", "30", "--d", "12",
               "--r", "3", "--seed", "7", "--out", str(out)])
    assert rc == 0
    A = load_tsv(out / "A.tsv")
    assert A.shape == (30, 12)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["C"] == 3.0

    from polycd.problems import LassoSpec, gen_lasso

    A2, b2, x2, _ = gen_lasso(LassoSpec(n=30, d=12, r=3, snr=1.0, seed=7))
    assert np.array_equal(A, A2)  # 17-digit dump reproduces the bytes
    assert np.array_equal(load_tsv(out / "b.tsv").ravel(), b2)


def test_gen_kde_subcommand(tmp_path):
    out = tmp_path / "kde"
    rc = main(["gen", "--preset", "kde", "--n", "120", "--d", "2",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    X = load_tsv(out / "points.tsv")
    assert X.shape == (120, 2)


def test_gen_kde_honours_d(tmp_path):
    # an explicit --d 200 used to be taken for the default and dropped, so
    # the points came out in 2 columns
    out = tmp_path / "kde200"
    rc = main(["gen", "--preset", "kde", "--n", "100", "--d", "200",
               "--out", str(out)])
    assert rc == 0
    assert load_tsv(out / "points.tsv").shape == (100, 200)


@pytest.mark.parametrize("preset, problem", [
    ("lasso", {"n": 200, "d": 200, "r": 20, "snr": 1.0}),
    ("logistic", {"n": 200, "d": 200, "r": 20}),
    ("kde", {"n": 200}),
    ("custom-simplex-quadratic", {"d": 200}),
])
def test_default_flags_problem_section(monkeypatch, preset, problem):
    # each preset takes only its own keys, and kde keeps its spec's d
    seen = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda cfg: seen.append(cfg.problem) or {"solvers": {}})
    assert main(["solve", "--preset", preset]) == 0
    assert seen == [problem]
