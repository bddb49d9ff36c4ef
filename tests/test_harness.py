import gc
import json
import weakref

import numpy as np
import pytest

import polycd
from polycd.harness import (ExperimentConfig, SolverCell, compute_gap,
                            emit_plot_data, run_experiment, run_solver_cell,
                            _Bundle)
from polycd.solvers import TraceRecord


def small_cfg(tmp_path, solvers, preset="lasso", problem=None, reps=1,
              seeds=None):
    problem = problem or {"n": 60, "d": 30, "r": 5, "snr": 1.0}
    return ExperimentConfig(preset=preset, problem=problem, solvers=solvers,
                            repetitions=reps, seeds=seeds,
                            out_dir=str(tmp_path / "out"))


def test_compute_gap_examples():
    assert compute_gap(1.0, 1.0) == 0.0
    assert compute_gap(2.0, 0.5) == pytest.approx(1.5)
    assert compute_gap(11.0, 10.0) == pytest.approx(0.1)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown experiment keys"):
        ExperimentConfig.from_dict({"preset": "lasso", "problem": {},
                                    "solvers": [{"name": "fista"}],
                                    "bogus": 1})
    with pytest.raises(ValueError, match="unknown problem"):
        ExperimentConfig.from_dict({"preset": "lasso",
                                    "problem": {"n": 10, "d": 5, "r": 2,
                                                "weird": 0},
                                    "solvers": [{"name": "fista"}]})
    with pytest.raises(ValueError, match="unknown solver"):
        ExperimentConfig.from_dict({"preset": "lasso",
                                    "problem": {"n": 10, "d": 5, "r": 2},
                                    "solvers": [{"name": "fista",
                                                 "oops": True}]})
    with pytest.raises(ValueError):
        SolverCell(name="nonexistent")


@pytest.mark.parametrize("field, value", [("max_iter", 0), ("max_iter", -1),
                                          ("max_outer", 0)])
def test_solver_cell_rejects_budget_below_one(field, value):
    # max_iter=0 used to run the per-method default budget, and
    # max_outer=0 reported the solver as failed
    with pytest.raises(ValueError, match=field):
        SolverCell(name="fw", **{field: value})


@pytest.mark.parametrize("field", ["rel_improve_tol", "window_tol"])
def test_solver_cell_rejects_a_nan_tolerance(field):
    # a NaN rel_improve_tol failed only in the run, reported among
    # summary["errors"]; a NaN window_tol switched the window off
    with pytest.raises(ValueError, match=field):
        SolverCell(name="polycd", **{field: np.nan})


@pytest.mark.parametrize("field, value", [("max_outer", 2.5),
                                          ("max_iter", 2.5), ("window", 2.5),
                                          ("rng_seed", 1.5), ("rng_seed", -1)])
def test_solver_cell_rejects_non_integer_counts(field, value):
    # a bench file's {"name": "polycd", "max_outer": 2.5} got past the cell
    # and showed up only as a TypeError among the run's errors, and
    # {"name": "2cd", "rng_seed": -1} as numpy's ValueError
    with pytest.raises(ValueError, match=field):
        ExperimentConfig.from_dict({"preset": "lasso",
                                    "problem": {"n": 10, "d": 5, "r": 2},
                                    "solvers": [{"name": "polycd",
                                                 field: value}]})


@pytest.mark.parametrize("field, value", [("repetitions", 2.0),
                                          ("seeds", [0.5]), ("seeds", ["a"]),
                                          ("seeds", [-1])])
def test_config_rejects_a_non_integer_repetition_count_or_seed(field, value):
    # each got past the config and failed only in run_experiment, with
    # numpy's TypeError or ValueError
    kw = {"repetitions": len(value)} if field == "seeds" else {}
    with pytest.raises(ValueError, match=field):
        ExperimentConfig.from_dict({"preset": "lasso",
                                    "problem": {"n": 10, "d": 5, "r": 2},
                                    "solvers": [{"name": "polycd"}],
                                    field: value, **kw})


@pytest.mark.parametrize("preset, problem, key", [
    ("custom-simplex-quadratic", {"d": 2.5}, "d"),
    ("lasso", {"n": 10, "d": 20.5, "r": 2}, "d"),
    ("lasso", {"n": 10.0, "d": 5, "r": 2}, "n"),
    ("logistic", {"n": 10, "d": 5, "r": 2.5}, "r"),
    ("kde", {"n": 200, "m": 3.5}, "m"),
])
def test_config_rejects_a_non_integer_problem_size(preset, problem, key):
    # the quadratic preset ran {"d": 2.5} on d = 2 while summary.json
    # recorded 2.5, and {"d": 20.5} crashed a lasso bench run in numpy
    with pytest.raises(ValueError, match=f"^{key} must be an integer"):
        ExperimentConfig.from_dict({"preset": preset, "problem": problem,
                                    "solvers": [{"name": "polycd"}]})


@pytest.mark.parametrize("label", ["", "x/y", "a,b", 'a"b', "a\\b", "a\tb",
                                   "a\nb", "a\x7fb", 3])
def test_solver_cell_rejects_an_unsafe_label(label):
    # a label names files and fills a CSV field: "x/y" raised
    # FileNotFoundError only after every solver had run, losing the run,
    # and "a,b" wrote 8-field rows under the 7-column header
    with pytest.raises(ValueError, match="^label must be"):
        ExperimentConfig.from_dict({"preset": "lasso",
                                    "problem": {"n": 10, "d": 5, "r": 2},
                                    "solvers": [{"name": "fw", "label": label}]})


def test_quadratic_preset_rejects_a_smoothness_override():
    # Quadratic computes L exactly, and the override used to be dropped
    with pytest.raises(ValueError, match="smoothness"):
        ExperimentConfig.from_dict({"preset": "custom-simplex-quadratic",
                                    "problem": {"d": 5},
                                    "solvers": [{"name": "polycd",
                                                 "smoothness": 10.0}]})


def test_solver_cell_budget_none_means_default():
    bundle = _Bundle("lasso", {"n": 30, "d": 6, "r": 2, "snr": 1.0}, 0)
    for max_iter, last in ((None, bundle.twocd_budget), (3, 3)):
        _, trace = run_solver_cell(SolverCell("2cd", max_iter=max_iter), bundle)
        assert trace[-1].t == last


def test_config_json_round_trip(tmp_path):
    cfg = small_cfg(tmp_path, [{"name": "polycdwa", "max_outer": 40}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    cfg2 = ExperimentConfig.from_json(path)
    assert cfg2.preset == cfg.preset
    assert cfg2.solvers[0].max_outer == 40


def test_run_experiment_single_solver_gap_zero(tmp_path):
    cfg = small_cfg(tmp_path, [{"name": "polycdwa", "max_outer": 60}])
    summary = run_experiment(cfg, quiet=True)
    cell = summary["solvers"]["polycdwa"]
    assert cell["mean_gap"] == 0.0  # alone, it defines f_star
    assert (tmp_path / "out" / "trace_polycdwa_rep0.csv").exists()
    written = json.loads((tmp_path / "out" / "summary.json").read_text())
    # the package's version, also when it runs from a checkout with src on
    # the path and nothing installed
    assert summary["version"] == written["version"] == polycd.__version__


def test_run_experiment_repetitions_and_files(tmp_path):
    cfg = small_cfg(tmp_path, [{"name": "polycdwa", "max_outer": 40},
                               {"name": "fista", "max_iter": 600}],
                    reps=3)
    summary = run_experiment(cfg, quiet=True)
    for label in ("polycdwa", "fista"):
        for rep in range(3):
            assert (tmp_path / "out" / f"trace_{label}_rep{rep}.csv").exists()
        assert summary["solvers"][label]["repetitions"] == 3
    assert len(summary["f_star_per_rep"]) == 3
    assert summary["rng"].startswith("numpy")


def test_summary_means_match_traces(tmp_path):
    cfg = small_cfg(tmp_path, [{"name": "polycdwa", "max_outer": 50},
                               {"name": "afw", "max_iter": 3000}], reps=2)
    summary = run_experiment(cfg, quiet=True)
    for label in ("polycdwa", "afw"):
        gaps = []
        for rep in range(2):
            rows = (tmp_path / "out" / f"trace_{label}_rep{rep}.csv"
                    ).read_text().strip().splitlines()[1:]
            gap_col = [float(r.split(",")[5]) for r in rows]
            gaps.append(min(gap_col))
        assert summary["solvers"][label]["mean_gap"] == pytest.approx(
            np.mean(gaps), rel=1e-12, abs=1e-15)


def test_gap_never_negative_beyond_tolerance(tmp_path):
    cfg = small_cfg(tmp_path, [{"name": "polycdwa", "max_outer": 80},
                               {"name": "fista", "max_iter": 2000},
                               {"name": "afw", "max_iter": 4000}])
    summary = run_experiment(cfg, quiet=True)
    for label, cell in summary["solvers"].items():
        assert cell["mean_gap"] >= -1e-12


def test_trace_csv_schema(tmp_path):
    cfg = small_cfg(tmp_path, [{"name": "polycd", "max_outer": 10}])
    run_experiment(cfg, quiet=True)
    text = (tmp_path / "out" / "trace_polycd_rep0.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "solver,rep,t,seconds,f_value,gap,nnz"
    first = lines[1].split(",")
    assert first[0] == "polycd" and first[1] == "0" and first[2] == "0"
    # 17 significant digits survive the round trip
    f_val = float(first[4])
    assert f"{f_val:.17g}" == first[4]


def test_round_trip_reproducibility(tmp_path):
    cfg1 = small_cfg(tmp_path / "a", [{"name": "polycdwa", "max_outer": 30}])
    s1 = run_experiment(cfg1, quiet=True)
    cfg2 = ExperimentConfig.from_dict(
        json.loads(json.dumps(cfg1.to_dict())))
    cfg2.out_dir = str(tmp_path / "b" / "out")
    s2 = run_experiment(cfg2, quiet=True)
    t1 = (tmp_path / "a" / "out" / "trace_polycdwa_rep0.csv").read_text()
    t2 = (tmp_path / "b" / "out" / "trace_polycdwa_rep0.csv").read_text()
    # identical f_value columns (timing columns may differ)
    f1 = [r.split(",")[4] for r in t1.splitlines()[1:]]
    f2 = [r.split(",")[4] for r in t2.splitlines()[1:]]
    assert f1 == f2


def test_emit_plot_data(tmp_path):
    tr_a = [TraceRecord(t, 10.0 - t, 0.1 * t, t, 3) for t in range(11)]
    tr_b = [TraceRecord(t, 10.0 - 0.5 * t, 0.2 * t, t, 3) for t in range(11)]
    path = tmp_path / "plot.csv"
    emit_plot_data({"a": tr_a, "b": tr_b}, f_star=0.0, path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "solver,t,seconds,gap"
    assert len(lines) == 1 + 22
    # descent traces yield nonincreasing gap per solver
    gaps_a = [float(l.split(",")[3]) for l in lines[1:] if l.startswith("a,")]
    assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps_a, gaps_a[1:]))
    # 17 significant digits, not the shortest repr
    assert lines[1:5] == ["a,0,0,10", "a,1,0.10000000000000001,9",
                          "a,2,0.20000000000000001,8",
                          "a,3,0.30000000000000004,7"]
    assert lines[12:15] == ["b,0,0,10", "b,1,0.20000000000000001,9.5",
                            "b,2,0.40000000000000002,9"]
    # the gap divides by |f_star| once it exceeds 1, and by 1 below
    for f_star, gaps in ((-20.0, ["1.5", "1.45", "1.3999999999999999"]),
                         (0.5, ["9.5", "8.5", "7.5"])):
        emit_plot_data({"a": tr_a[:3]}, f_star=f_star, path=path)
        assert path.read_text() == (
            "solver,t,seconds,gap\n"
            f"a,0,0,{gaps[0]}\n"
            f"a,1,0.10000000000000001,{gaps[1]}\n"
            f"a,2,0.20000000000000001,{gaps[2]}\n")


def test_plot_file_is_the_trace_files_projection(tmp_path):
    # each plot row is label,t,seconds,gap of the matching trace row, in
    # cell order, the same strings written to both files
    cfg = small_cfg(tmp_path, [{"name": "polycdwa", "max_outer": 20},
                               {"name": "fista", "max_iter": 200,
                                "label": "fista 200"},
                               {"name": "2cd", "max_iter": 300}])
    run_experiment(cfg, quiet=True)
    out = tmp_path / "out"
    expected = ["solver,t,seconds,gap"]
    for cell in cfg.solvers:
        text = (out / f"trace_{cell.label}_rep0.csv").read_text()
        for row in text.splitlines()[1:]:
            label, _, t, seconds, _, gap, _ = row.split(",")
            assert label == cell.label
            expected.append(f"{label},{t},{seconds},{gap}")
    assert len(expected) > 3
    assert (out / "plot_rep0.csv").read_text() == "\n".join(expected) + "\n"


def test_twocd_lifting_preserves_objective(tmp_path):
    bundle = _Bundle("lasso", {"n": 40, "d": 12, "r": 3, "snr": 1.0}, seed=0)
    obj_lift = bundle.objective(lifted=True)
    rng = np.random.default_rng(0)
    u = rng.random(24)
    u /= u.sum()
    x = bundle.unlift(u)
    obj_orig = bundle.objective()
    assert obj_lift.eval_at(u) == pytest.approx(obj_orig.eval_at(x), rel=1e-12)
    assert np.abs(x).sum() <= bundle.radius + 1e-12


@pytest.mark.parametrize("preset, problem", [
    ("lasso", {"n": 20, "d": 6, "r": 2}),
    ("logistic", {"n": 20, "d": 6, "r": 2}),
    ("kde", {"n": 100, "d": 2}),
    ("custom-simplex-quadratic", {"d": 5}),
])
def test_bundle_freed_without_cycle_collector(preset, problem):
    # a bundle holds the instance's arrays; it must go with its last
    # reference, not wait for a full gc pass
    bundle = _Bundle(preset, problem, seed=0)
    bundle.objective(lifted=True)
    ref = weakref.ref(bundle)
    gc.disable()
    try:
        del bundle
        assert ref() is None
    finally:
        gc.enable()


def test_twocd_cell_runs_and_reports_original_nnz(tmp_path):
    cfg = small_cfg(tmp_path, [{"name": "2cd", "max_iter": 3000}],
                    problem={"n": 40, "d": 12, "r": 3, "snr": 1.0})
    summary = run_experiment(cfg, quiet=True)
    nnz = summary["solvers"]["2cd"]["mean_nnz"]
    assert 0 < nnz <= 12  # counted in the original coordinates


def test_solver_failure_recorded_not_fatal(tmp_path, monkeypatch):
    cfg = small_cfg(tmp_path, [{"name": "polycdwa", "max_outer": 20},
                               {"name": "fw", "max_iter": 100}])

    import polycd.harness as hz

    real = hz.fw_solve

    def boom(*a, **kw):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(hz, "fw_solve", boom)
    with pytest.warns(UserWarning):
        summary = run_experiment(cfg, quiet=True)
    assert summary["errors"] and summary["errors"][0]["solver"] == "fw"
    assert summary["solvers"]["fw"].get("failed")
    assert "mean_gap" in summary["solvers"]["polycdwa"]
    monkeypatch.setattr(hz, "fw_solve", real)


def test_custom_quadratic_preset(tmp_path):
    cfg = small_cfg(tmp_path, [{"name": "polycdwa", "max_outer": 50},
                               {"name": "2cd", "max_iter": 2000}],
                    preset="custom-simplex-quadratic",
                    problem={"d": 8, "mu": 0.3})
    summary = run_experiment(cfg, quiet=True)
    assert summary["solvers"]["polycdwa"]["mean_gap"] <= 1e-8


def test_kde_preset_smoke(tmp_path):
    cfg = small_cfg(tmp_path, [{"name": "polycdwa", "max_outer": 10}],
                    preset="kde", problem={"n": 150, "d": 2})
    summary = run_experiment(cfg, quiet=True)
    assert summary["solvers"]["polycdwa"]["mean_gap"] == 0.0
