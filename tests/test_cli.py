"""End-to-end command-line runs: artifacts, manifests, replay determinism,
and exit codes."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qvmart import cli, path_core
from qvmart.cli import main
from qvmart.inference import BinSpec, choose_truncation_level, decompose, estimate_alpha
from qvmart.path_core import Ensemble, TimeGrid, load_ensemble, save_ensemble
from qvmart.strategy import load_strategy_file, pi_for_ensemble
from test_wealth import ref_wealth


def read_dir_bytes(d: Path) -> dict:
    return {
        p.relative_to(d).as_posix(): p.read_bytes()
        for p in sorted(d.rglob("*"))
        if p.is_file()
    }


def test_simulate_writes_manifest_and_paths(tmp_path):
    out = tmp_path / "run"
    rc = main([
        "simulate", "--model", "brownian", "--paths", "5", "--steps", "64",
        "--seed", "7", "--out", str(out),
    ])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert (out / "path_00000.csv").exists()
    assert (out / "path_00004.csv").exists()


def test_csv_simulate_into_an_earlier_runs_directory(tmp_path):
    # seed 1's path 0 has jumps and seed 3's has none: its jump file must go
    argv = ["simulate", "--model", "counterexample", "--format", "csv", "--paths", "4",
            "--steps", "16", "--log-steps", "32", "--eps", "0.01", "--rate", "2"]
    for seed, out in (("1", "sim"), ("3", "sim"), ("3", "fresh")):
        assert main(argv + ["--seed", seed, "--out", str(tmp_path / out)]) == 0
    assert read_dir_bytes(tmp_path / "sim") == read_dir_bytes(tmp_path / "fresh")
    for run in ("sim", "fresh"):
        assert main(["qv", "--in", str(tmp_path / run), "--out", str(tmp_path / f"{run}-qv")]) == 0
    qv = [(tmp_path / f"{run}-qv" / "qv.csv").read_bytes() for run in ("sim", "fresh")]
    assert qv[0] == qv[1]


def test_csv_simulate_of_fewer_paths_into_an_earlier_runs_directory(tmp_path):
    # 2 paths over an earlier run's 5: that run's paths 2 to 4 must go
    argv = ["simulate", "--model", "brownian", "--format", "csv", "--steps", "16", "--seed", "1"]
    for paths, out in (("5", "sim"), ("2", "sim"), ("2", "fresh")):
        assert main(argv + ["--paths", paths, "--out", str(tmp_path / out)]) == 0
    assert len(list((tmp_path / "sim").glob("path_*.csv"))) == 2
    assert read_dir_bytes(tmp_path / "sim") == read_dir_bytes(tmp_path / "fresh")
    for run in ("sim", "fresh"):
        assert main(["qv", "--in", str(tmp_path / run), "--out", str(tmp_path / f"{run}-qv")]) == 0
    qv = [(tmp_path / f"{run}-qv" / "qv.csv").read_bytes() for run in ("sim", "fresh")]
    assert qv[0] == qv[1]


def test_simulate_is_byte_deterministic(tmp_path):
    args = ["simulate", "--model", "drifted", "--mu", "0.1", "--sigma", "0.2",
            "--paths", "4", "--steps", "128", "--seed", "9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read_dir_bytes(a) == read_dir_bytes(b)


def test_replay_reproduces_bytes(tmp_path):
    out = tmp_path / "orig"
    assert main([
        "simulate", "--model", "counterexample", "--paths", "3", "--steps", "32",
        "--log-steps", "64", "--eps", "0.01", "--seed", "3",
        "--format", "json", "--out", str(out),
    ]) == 0
    redo = tmp_path / "redo"
    assert main(["replay", str(out / "manifest.json"), "--out", str(redo)]) == 0
    assert read_dir_bytes(out) == read_dir_bytes(redo)


def test_decompose_tests_file_mixing_const_and_sign_legs(tmp_path):
    # no declared bound: the sign leg's default scale 1 sets it, not the 0.5 legs
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", "drifted", "--mu", "0.1", "--sigma", "0.2",
                 "--paths", "200", "--steps", "64", "--seed", "5", "--out", str(sim)]) == 0
    tests = tmp_path / "tests.json"
    tests.write_text(json.dumps([
        {"name": "half", "legs": [{"until": 1.0, "rule_id": "const", "params": {"value": 0.5}}]},
        {"name": "mixed", "legs": [
            {"until": 0.5, "rule_id": "const", "params": {"value": 0.5}},
            {"until": 1.0, "rule_id": "sign_prefix_end"},
        ]},
    ]))
    dec = tmp_path / "dec"
    assert main(["decompose", "--in", str(sim), "--bins", "4", "--tests", str(tests),
                 "--out", str(dec)]) == 0


def test_decompose_tests_file_with_zero_bound_exits_2(tmp_path, capsys):
    # a declared bound of 0 is checked, not replaced by the largest leg value
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", "drifted", "--paths", "20", "--steps", "16",
                 "--seed", "5", "--out", str(sim)]) == 0
    tests = tmp_path / "tests.json"
    tests.write_text(json.dumps([{"name": "zero", "bound": 0, "legs": [
        {"until": 1.0, "rule_id": "const", "params": {"value": 0.5}}]}]))
    assert main(["decompose", "--in", str(sim), "--bins", "4", "--tests", str(tests),
                 "--out", str(tmp_path / "dec")]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "input" and "bound" in error["message"]


def test_qv_refinement_table(tmp_path):
    out = tmp_path / "qv"
    assert main(["qv", "--levels", "8,10", "--seed", "2", "--out", str(out)]) == 0
    lines = (out / "refine.csv").read_text().strip().splitlines()
    assert lines[0] == "n_steps,qv_total"
    assert len(lines) == 3


def test_qv_of_stored_ensemble(tmp_path):
    sim = tmp_path / "sim"
    main(["simulate", "--model", "brownian", "--paths", "3", "--steps", "256",
          "--seed", "5", "--out", str(sim)])
    out = tmp_path / "qv"
    assert main(["qv", "--in", str(sim), "--out", str(out)]) == 0
    rows = (out / "qv.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3
    for r in rows:
        assert 0.5 < float(r.split(",")[1]) < 1.7


def test_wealth_run(tmp_path):
    sim = tmp_path / "sim"
    main(["simulate", "--model", "brownian", "--paths", "6", "--steps", "128",
          "--seed", "4", "--out", str(sim)])
    strat = tmp_path / "strategy.json"
    strat.write_text(json.dumps({"name": "half", "rule_id": "const",
                                 "params": {"value": 0.5}}))
    out = tmp_path / "wealth"
    assert main(["wealth", "--in", str(sim), "--strategy", str(strat),
                 "--out", str(out)]) == 0
    rows = (out / "w1.csv").read_text().strip().splitlines()
    assert rows[0] == "path_id,W1,hit_nonpositive"
    assert len(rows) == 7
    utility = json.loads((out / "utility.json").read_text())
    assert utility["n_nonpositive"] == 0


def test_wealth_holds_one_view_of_wealth(tmp_path):
    # the loaded values (1x) and one row view's profile, variation and
    # wealth, against 4.5x with the whole profile, variation and wealth
    vals = np.cumsum(np.random.default_rng(8).normal(0.0, 0.06, (10_000, 257)), axis=1)
    sim, legs = tmp_path / "sim", tmp_path / "legs.json"
    save_ensemble(Ensemble(TimeGrid.uniform(256), vals, 8, "x"), sim, fmt="json")
    legs.write_text(json.dumps({"name": "legs", "legs": [
        {"until": {"metric": "level_or_qv", "threshold": 0.3, "default": 0.5},
         "rule_id": "const", "params": {"value": 0.5}},
        {"until": 1.0, "rule_id": "sign_prefix_end", "params": {"scale": 0.8}}]}))
    tracemalloc.start()
    try:
        assert main(["wealth", "--in", str(sim), "--strategy", str(legs),
                     "--out", str(tmp_path / "w")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * vals.nbytes


def test_decompose_and_optimize(tmp_path):
    sim = tmp_path / "sim"
    main(["simulate", "--model", "drifted", "--mu", "0.1", "--sigma", "0.2",
          "--paths", "2000", "--steps", "128", "--seed", "31",
          "--format", "json", "--out", str(sim)])
    dec = tmp_path / "dec"
    assert main(["decompose", "--in", str(sim), "--bins", "8", "--out", str(dec)]) == 0
    alpha_rows = (dec / "alpha.csv").read_text().strip().splitlines()[1:]
    assert len(alpha_rows) == 8
    fitted = [float(r.split(",")[2]) for r in alpha_rows]
    assert all(1.0 < a < 4.0 for a in fitted)  # near mu/sigma^2 = 2.5
    report = json.loads((dec / "decomposition_report.json").read_text())
    assert report["all_diagnostics_passed"]
    assert report["coverage"] == 1.0
    assert 0.0 < report["recentred_second_moment_max"] < 1.0  # about sigma^2 t
    assert report["oracle_alpha"] == pytest.approx(2.5)
    assert report["max_abs_z_vs_oracle"] <= 3.0

    opt = tmp_path / "opt"
    assert main(["optimize", "--in", str(sim), "--bins", "8", "--out", str(opt)]) == 0
    growth = json.loads((opt / "growth_report.json").read_text())
    assert 0.05 < growth["growth_value"] < 0.25
    assert growth["all_gaps_within_noise"]

    rep = tmp_path / "rep"
    assert main(["report", str(dec), str(opt), "--out", str(rep)]) == 0
    summary = json.loads((rep / "summary.json").read_text())
    assert len(summary["runs"]) == 2


def test_decompose_builds_variation_only_on_recentred_views(tmp_path, qv_calls, monkeypatch):
    sim, dec = tmp_path / "sim", tmp_path / "dec"
    assert main(["simulate", "--model", "drifted", "--mu", "0.3", "--paths", "200",
                 "--steps", "64", "--seed", "5", "--out", str(sim)]) == 0
    monkeypatch.setattr(path_core, "_CHUNK_CELLS", 64 * 64)  # 64 rows a block, four views
    assert main(["decompose", "--in", str(sim), "--bins", "4", "--state-bins", "2",
                 "--min-count", "20", "--out", str(dec)]) == 0
    ens = load_ensemble(sim)
    # the fit reads d[S] one row view at a time, and the truncation rules
    # read each view's own running variation: no variation matrix is built
    # on the stored paths, nor on more than one row block of the recentred ones
    assert qv_calls
    assert {e.model_tag for e in qv_calls} == {ens.model_tag + "-recentred"}
    assert max(e.n_paths for e in qv_calls) == 64
    result = decompose(ens, estimate_alpha(ens, BinSpec(4, state_bins=2, min_count=20)))
    report = json.loads((dec / "decomposition_report.json").read_text())
    assert report["truncation_level"] == choose_truncation_level(result.s_hat)


def test_decompose_diagnostics_build_the_recentred_variation_twice(tmp_path, qv_calls,
                                                                    monkeypatch):
    sim, dec = tmp_path / "sim", tmp_path / "dec"
    assert main(["simulate", "--model", "drifted", "--mu", "0.3", "--paths", "200",
                 "--steps", "64", "--seed", "5", "--out", str(sim)]) == 0
    monkeypatch.setattr(path_core, "_CHUNK_CELLS", 64 * 64)  # 64 rows a block, four views
    assert main(["decompose", "--in", str(sim), "--bins", "4", "--out", str(dec)]) == 0
    assert len(json.loads((dec / "diagnostics.json").read_text())) == 5
    # once per view for the truncation level, once per view for all five
    # tests' stops and hitting rules: one pass over the views for the family
    assert [e.n_paths for e in qv_calls] == [64, 64, 64, 8] * 2


def test_optimize_makes_two_kernel_passes(tmp_path, monkeypatch):
    from qvmart import inference

    sim = tmp_path / "sim"
    assert main(["simulate", "--model", "drifted", "--paths", "300", "--steps", "32",
                 "--seed", "5", "--out", str(sim)]) == 0
    passes = []
    real = inference._moments
    monkeypatch.setattr(inference, "_moments", lambda *a: passes.append(a) or real(*a))
    assert main(["optimize", "--in", str(sim), "--bins", "4", "--out", str(tmp_path / "o")]) == 0
    # the growth value, then the nine default strategies together
    assert len(passes) == 2


def test_report_with_no_dirs_is_empty(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["report", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text()) == {"runs": []}


def test_counterexample_poisson_lemma(tmp_path):
    out = tmp_path / "pl"
    assert main(["counterexample", "poisson-lemma", "--samples", "2000",
                 "--beta", "prefix-sign", "--seed", "11", "--out", str(out)]) == 0
    rep = json.loads((out / "poisson_lemma.json").read_text())
    assert rep["passed"]


def test_counterexample_divergence(tmp_path):
    out = tmp_path / "div"
    assert main(["counterexample", "divergence", "--bundles", "400",
                 "--eps-list", "0.1,0.01", "--steps", "128", "--log-steps", "512",
                 "--seed", "13", "--out", str(out)]) == 0
    lines = (out / "divergence.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,mc_tv,closed_form,stderr"
    assert len(lines) == 3


def test_counterexample_sweep_and_band(tmp_path):
    out = tmp_path / "sweep"
    assert main(["counterexample", "sweep", "--bundles", "300", "--eps", "0.01",
                 "--seed", "17", "--out", str(out)]) == 0
    rep = json.loads((out / "sweep.json").read_text())
    assert rep["n_ruined_strategies"] == 0
    assert len(rep["entries"]) >= 25
    # the rest of the bounded-utility evidence, from the same pass
    terms = json.loads((out / "bound_terms.json").read_text())
    assert [t["strategy"] for t in terms] == [e["strategy"] for e in rep["entries"]]
    for t in terms:
        assert t["jump_term"] <= 3.0 * t["jump_stderr"]
        assert t["supermartingale_mean"] <= 1.0 + 3.0 * t["supermartingale_stderr"]

    strat = tmp_path / "violating.json"
    strat.write_text(json.dumps({"name": "flat", "rule_id": "const",
                                 "params": {"value": 0.6}}))
    band = tmp_path / "band"
    assert main(["counterexample", "band", "--bundles", "400", "--eps", "0.01",
                 "--seed", "19", "--strategy", str(strat), "--out", str(band)]) == 0
    rep = json.loads((band / "band_report.json").read_text())
    assert rep["p_hat"] > 0.0


def test_band_manifest_replays(tmp_path):
    # off-default grid sizes: replay must take them from the manifest
    strat = tmp_path / "violating.json"
    strat.write_text(json.dumps({"name": "flat", "rule_id": "const",
                                 "params": {"value": 0.6}}))
    run, again = tmp_path / "band", tmp_path / "replayed"
    assert main(["counterexample", "band", "--bundles", "60", "--eps", "0.01",
                 "--steps", "64", "--log-steps", "128", "--seed", "3",
                 "--strategy", str(strat), "--out", str(run)]) == 0
    assert main(["replay", str(run / "manifest.json"), "--out", str(again)]) == 0
    assert read_dir_bytes(run) == read_dir_bytes(again)


def test_invalid_config_exits_2(tmp_path):
    rc = main(["simulate", "--model", "gaussian_m", "--eps", "0.9",
               "--paths", "1", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_admissible_band_probe_exits_1(tmp_path):
    strat = tmp_path / "fine.json"
    strat.write_text(json.dumps({"rule_id": "band_fraction", "params": {"c": 0.5}}))
    rc = main(["counterexample", "band", "--bundles", "50", "--eps", "0.01",
               "--seed", "1", "--strategy", str(strat), "--out", str(tmp_path / "y")])
    assert rc == 1


def test_margin_violation_exits_1(inputs, tmp_path, capsys):
    # |pi_t| = 0.5 (1 - t) is inside the band but not inside the declared
    # margin, (1 - 0.9)(1 - t)
    strat = tmp_path / "tight.json"
    strat.write_text(json.dumps({"rule_id": "band_fraction", "params": {"c": 0.5},
                                 "margin": 0.9}))
    rc = main(["wealth", "--in", inputs["sim"], "--strategy", str(strat),
               "--out", str(tmp_path / "w")])
    assert rc == 1
    assert "margin" in capsys.readouterr().err
    strat.write_text(json.dumps({"rule_id": "band_fraction", "params": {"c": 0.5},
                                 "margin": 0.5}))
    assert main(["wealth", "--in", inputs["sim"], "--strategy", str(strat),
                 "--out", str(tmp_path / "w2")]) == 0


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A stored drifted ensemble and two strategy files shared by the CLI runs."""
    d = tmp_path_factory.mktemp("inputs")
    assert main(["simulate", "--model", "drifted", "--mu", "0.1", "--sigma", "0.2",
                 "--paths", "300", "--steps", "64", "--seed", "8", "--format", "json",
                 "--out", str(d / "sim")]) == 0
    (d / "half.json").write_text(json.dumps({"name": "half", "rule_id": "const",
                                             "params": {"value": 0.5}}))
    (d / "flat.json").write_text(json.dumps({"name": "flat", "rule_id": "const",
                                             "params": {"value": 0.6}}))
    (d / "broken.json").write_text("not json\n")
    (d / "tests.json").write_text(json.dumps([
        {"name": "half", "legs": [{"until": 1.0, "rule_id": "const", "params": {"value": 0.5}}]},
        {"name": "mixed", "legs": [
            {"until": 0.5, "rule_id": "const", "params": {"value": 0.5}},
            {"until": 1.0, "rule_id": "sign_prefix_end"},
        ]},
    ]))
    (d / "strategies.json").write_text(json.dumps([
        {"name": "one", "rule_id": "const", "params": {"value": 1.0}},
        {"name": "two", "rule_id": "const", "params": {"value": 2.0}},
    ]))
    (d / "legs.json").write_text(json.dumps({"name": "legs", "legs": [
        {"until": {"metric": "level_or_qv", "threshold": 0.3, "default": 0.5},
         "rule_id": "const", "params": {"value": 0.5}},
        {"until": 1.0, "rule_id": "sign_prefix_end", "params": {"scale": 0.8}},
    ]}))
    for fmt in ("csv", "json"):
        assert main(["simulate", "--model", "counterexample", "--paths", "4", "--steps", "16",
                     "--log-steps", "32", "--eps", "0.01", "--rate", "3.0", "--seed", "2",
                     "--format", fmt, "--out", str(d / f"cx-{fmt}")]) == 0
    # malformed CSV ensembles: a manifest listing no paths, and a path off path 0's grid
    assert main(["simulate", "--model", "brownian", "--paths", "2", "--steps", "4",
                 "--out", str(d / "empty")]) == 0
    mf = d / "empty" / "ensemble_manifest.json"
    mf.write_text(mf.read_text().replace('"n_paths": 2', '"n_paths": 0'))
    assert main(["simulate", "--model", "brownian", "--paths", "2", "--steps", "4",
                 "--out", str(d / "offgrid")]) == 0
    p1 = d / "offgrid" / "path_00001.csv"
    p1.write_text(p1.read_text().replace("0.25,", "0.2,"))
    # malformed strategy files: JSON of the wrong shape at each level
    bad_strategies = {
        "str": "hello", "num": 3, "list-of-num": [1, 2],
        "legs-str": {"name": "x", "legs": "abc"},
        "params-list": {"name": "x", "rule_id": "const", "params": [1]},
        "until-null": {"name": "x", "legs": [{"until": None, "rule_id": "const"}]},
        "margin-str": {"name": "x", "rule_id": "const", "params": {"value": 0.5},
                       "margin": "a"},
        "default-str": {"name": "x", "legs": [{"until": {"threshold": 0.3, "default": "x"}},
                                              {"until": 1.0}]},
        "margin-big": {"name": "x", "rule_id": "const", "params": {"value": 0.5}, "margin": 2},
        # a scale that is not finite gives a bound that is not
        "scale-nan": {"rule_id": "sign_prefix_end", "params": {"t0": 0.5, "scale": float("nan")}},
        "scale-inf": {"rule_id": "sign_prefix_end", "params": {"t0": 0.5, "scale": float("inf")}},
    }
    for name, obj in bad_strategies.items():
        (d / f"bad-{name}.json").write_text(json.dumps(obj))
    # malformed stored ensembles: no JSON paths, jumps off the grid, a grid
    # not spanning [0, 1], a header-only path file, a CSV row without a comma
    for name, model, fmt in (("json-empty", "brownian", "json"), ("span", "brownian", "csv"),
                             ("header", "brownian", "csv"), ("jump-csv", "counterexample", "csv"),
                             ("jump-json", "counterexample", "json"),
                             ("short-row", "brownian", "csv"),
                             ("short-jump-row", "counterexample", "csv")):
        assert main(["simulate", "--model", model, "--paths", "2", "--steps", "4",
                     "--log-steps", "8", "--eps", "0.01", "--format", fmt,
                     "--out", str(d / name)]) == 0
    for name, edit in (("json-empty", lambda obj: obj.update(paths=[])),
                       ("jump-json", lambda obj: obj["paths"][0].update(jumps=[[0.123, 1.0]]))):
        f = d / name / "ensemble.json"
        obj = json.loads(f.read_text())
        edit(obj)
        f.write_text(json.dumps(obj))
        assert (d / name / "ensemble.npy").exists()  # now stale: the edited text is read
    p0 = d / "span" / "path_00000.csv"
    p0.write_text(p0.read_text().replace("\n1.0,", "\n0.9,"))
    (d / "header" / "path_00000.csv").write_text("t,value\n")
    (d / "jump-csv" / "path_00000.jumps.csv").write_text("t,jump_size\n0.123,1.0\n")
    p1 = d / "short-row" / "path_00001.csv"
    p1.write_text("\n".join("0.25" if ln.startswith("0.25,") else ln
                            for ln in p1.read_text().splitlines()) + "\n")
    (d / "short-jump-row" / "path_00000.jumps.csv").write_text("t,jump_size\n0.5\n")
    # two finished runs for report to summarise
    assert main(["qv", "--in", str(d / "sim"), "--out", str(d / "qv")]) == 0
    assert main(["counterexample", "poisson-lemma", "--samples", "50", "--seed", "4",
                 "--out", str(d / "pl")]) == 0
    return {"sim": str(d / "sim"), "half": str(d / "half.json"),
            "flat": str(d / "flat.json"), "broken": str(d / "broken.json"),
            "legs": str(d / "legs.json"), "tests": str(d / "tests.json"),
            "strategies": str(d / "strategies.json"),
            "cx_csv": str(d / "cx-csv"), "cx_json": str(d / "cx-json"),
            "empty": str(d / "empty"), "offgrid": str(d / "offgrid"),
            "qv": str(d / "qv"), "pl": str(d / "pl"),
            **{f"bad_{k.replace('-', '_')}": str(d / f"bad-{k}.json") for k in bad_strategies},
            **{f"stored_{k.replace('-', '_')}": str(d / k)
               for k in ("json-empty", "span", "header", "jump-csv", "jump-json", "short-row",
                         "short-jump-row")}}


_BUNDLES = ["--bundles", "40", "--steps", "32", "--log-steps", "64", "--seed", "6"]
REPLAY_CASES = {
    "simulate-brownian": ["simulate", "--model", "brownian", "--paths", "3", "--steps", "32",
                          "--seed", "1"],
    "simulate-drifted": ["simulate", "--model", "drifted", "--mu", "0.3", "--paths", "3",
                         "--steps", "32", "--seed", "1", "--format", "json"],
    "simulate-gaussian_m": ["simulate", "--model", "gaussian_m", "--paths", "3", "--steps", "16",
                            "--log-steps", "32", "--eps", "0.01", "--seed", "1"],
    "simulate-counterexample": ["simulate", "--model", "counterexample", "--paths", "3",
                                "--steps", "16", "--log-steps", "32", "--eps", "0.01",
                                "--rate", "2.0", "--seed", "1"],
    "qv-stored": ["qv", "--in", "{sim}"],
    "qv-stored-counterexample-csv": ["qv", "--in", "{cx_csv}"],
    "qv-stored-counterexample-json": ["qv", "--in", "{cx_json}"],
    "qv-refine": ["qv", "--levels", "4,6", "--seed", "2"],
    "wealth": ["wealth", "--in", "{sim}", "--strategy", "{half}"],
    "wealth-counterexample-legs": ["wealth", "--in", "{cx_json}", "--strategy", "{legs}"],
    "decompose": ["decompose", "--in", "{sim}", "--bins", "4", "--state-bins", "2",
                  "--min-count", "20"],
    "decompose-tests": ["decompose", "--in", "{sim}", "--bins", "4", "--tests", "{tests}"],
    "optimize": ["optimize", "--in", "{sim}", "--bins", "4"],
    "optimize-strategies": ["optimize", "--in", "{sim}", "--bins", "4",
                            "--strategies", "{strategies}"],
    "counterexample-poisson-lemma": ["counterexample", "poisson-lemma", "--samples", "200",
                                     "--beta", "switch", "--eps", "0.02", "--seed", "3"],
    "counterexample-band": ["counterexample", "band", "--eps", "0.01", "--strategy", "{flat}",
                            *_BUNDLES],
    "counterexample-sweep": ["counterexample", "sweep", "--eps", "0.01", *_BUNDLES],
    "counterexample-divergence": ["counterexample", "divergence", "--eps-list", "0.1,0.01",
                                  *_BUNDLES],
    "counterexample-divergence-default-eps": ["counterexample", "divergence", *_BUNDLES],
    "report": ["report", "{qv}", "{pl}"],
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_every_manifest_replays(case, inputs, tmp_path):
    argv = [a.format(**inputs) for a in REPLAY_CASES[case]]
    run, again = tmp_path / "run", tmp_path / "again"
    assert main(argv + ["--out", str(run)]) == 0
    assert main(["replay", str(run / "manifest.json"), "--out", str(again)]) == 0
    assert read_dir_bytes(run) == read_dir_bytes(again)


def test_manifest_with_unknown_key_replays(tmp_path):
    # manifests written before the thread pool was retired record "threads"
    run, again = tmp_path / "run", tmp_path / "again"
    assert main(["simulate", "--model", "drifted", "--mu", "0.3", "--paths", "3", "--steps", "32",
                 "--seed", "1", "--out", str(run)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["config"]["threads"] = 4
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    assert main(["replay", str(old), "--out", str(again)]) == 0
    assert read_dir_bytes(run) == read_dir_bytes(again)


def test_hit_default_off_the_grid_exits_1(tmp_path, capsys):
    # every row crosses a negative threshold at once, but 0.77 is still no grid time
    legs = tmp_path / "legs.json"
    legs.write_text(json.dumps({"name": "off", "legs": [
        {"until": {"metric": "qv", "threshold": -1, "default": 0.77},
         "rule_id": "const", "params": {"value": 0.5}},
        {"until": 1.0, "rule_id": "const", "params": {"value": 0.25}},
    ]}))
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", "drifted", "--paths", "4", "--steps", "16",
                 "--seed", "3", "--out", str(sim)]) == 0
    assert main(["wealth", "--in", str(sim), "--strategy", str(legs),
                 "--out", str(tmp_path / "w")]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "contract" and "grid point" in error["message"]


def test_divergence_cutoff_off_the_grid_exits_1(tmp_path, capsys):
    # 1 - 0.3 is no point of the insider grid
    out = tmp_path / "div"
    assert main(["counterexample", "divergence", "--bundles", "20", "--steps", "32",
                 "--log-steps", "64", "--eps-list", "0.3,0.01", "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "contract" and "not a grid point" in error["message"]
    assert not out.exists()  # a refused run leaves no manifest, nor its directory


def test_divergence_cutoff_off_the_grid_is_refused_before_generation(tmp_path, capsys,
                                                                    monkeypatch):
    def generate(*args):
        raise AssertionError("bundles generated before the cutoffs were checked")

    monkeypatch.setattr(cli, "gen_bundles", generate)
    out = tmp_path / "div"
    assert main(["counterexample", "divergence", "--bundles", "20", "--steps", "32",
                 "--log-steps", "64", "--eps-list", "0.3,1e-4", "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "contract" and "0.3" in error["message"]
    assert not out.exists()


# Sizes far beyond any machine's address space: the allocation fails at once.
@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "brownian", "--paths", "1000000000000000", "--steps", "16"],
    ["counterexample", "sweep", "--bundles", "1", "--rate", "1e15", "--steps", "8",
     "--log-steps", "8"],
], ids=["simulate-paths", "sweep-rate"])
def test_unallocatable_size_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "big"
    assert main(argv + ["--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "input" and error["message"].startswith("MemoryError")
    assert not out.exists()  # neither the manifest nor the directory it made is left


def test_poisson_lemma_without_samples_exits_1(tmp_path, capsys):
    assert main(["counterexample", "poisson-lemma", "--samples", "0",
                 "--out", str(tmp_path / "pl")]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "contract"


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "counterexample", "--paths", "2", "--steps", "16",
     "--log-steps", "32"],
    ["counterexample", "poisson-lemma", "--samples", "5"],
    ["counterexample", "sweep", "--bundles", "5", "--steps", "16", "--log-steps", "32"],
], ids=["simulate", "poisson-lemma", "sweep"])
def test_non_finite_rate_is_refused_as_zero_rate_is(argv, tmp_path, capsys):
    outcomes = []
    for rate in ("0", "nan", "inf"):
        rc = main(argv + ["--rate", rate, "--out", str(tmp_path / rate)])
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "rate must be positive and finite" in error["message"]
        assert not (tmp_path / rate).exists()  # a refused run leaves no manifest, nor its directory
        outcomes.append((rc, error["error"]))
    assert outcomes[0][0] in (1, 2) and outcomes == [outcomes[0]] * 3


def test_refused_run_keeps_a_directory_it_did_not_make(tmp_path, capsys):
    argv = ["counterexample", "sweep", "--bundles", "5", "--rate", "inf", "--out"]
    empty, used = tmp_path / "empty", tmp_path / "used"
    empty.mkdir()
    used.mkdir()
    (used / "notes.txt").write_text("kept\n")
    for out in (empty, used):
        assert main(argv + [str(out)]) == 1
    assert empty.is_dir() and not any(empty.iterdir())
    assert sorted(p.name for p in used.iterdir()) == ["notes.txt"]
    assert (used / "notes.txt").read_text() == "kept\n"


@pytest.mark.parametrize("strategy", ["legs", "half"])  # every row ruined; two of four
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wealth_matches_per_row_exponential(fmt, strategy, inputs, tmp_path):
    # the matrix wealth pass equals the row-by-row reference on each
    # profile row, with the variation of the row's continuous part
    assert main(["wealth", "--in", inputs[f"cx_{fmt}"], "--strategy", inputs[strategy],
                 "--out", str(tmp_path / "w")]) == 0
    ens = load_ensemble(inputs[f"cx_{fmt}"])
    pi = np.broadcast_to(pi_for_ensemble(load_strategy_file(inputs[strategy]), ens),
                         (ens.n_paths, ens.grid.n_steps))
    lines = ["path_id,W1,hit_nonpositive"]
    for i in range(ens.n_paths):
        mine = ens.jump_path == i
        w, dead = ref_wealth(pi[i], ens.values[i], ens.jump_cell[mine], ens.jump_size[mine])
        lines.append(f"{i},{float(w[-1])!r},{int(dead >= 0)}")
    assert (tmp_path / "w" / "w1.csv").read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("model", [
    ["drifted", "--mu", "0.3", "--steps", "32"],
    ["gaussian_m", "--steps", "16", "--log-steps", "32", "--eps", "0.01"],
    ["counterexample", "--steps", "16", "--log-steps", "32", "--eps", "0.01", "--rate", "3.0"],
], ids=["drifted", "gaussian_m", "counterexample"])
def test_binary_copy_loads_bit_equal_to_the_text(model, fmt, tmp_path):
    # ensemble.npy gives the arrays the text parses to, bit for bit (a -0.0
    # or a NaN payload would show in the int64 view)
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", *model, "--paths", "5", "--seed", "3",
                 "--format", fmt, "--out", str(sim)]) == 0
    cached = load_ensemble(sim)
    (sim / "ensemble.npy").unlink()
    parsed = load_ensemble(sim)
    for name in ("values", "jump_path", "jump_cell", "jump_size"):
        assert np.array_equal(getattr(cached, name).view(np.int64),
                              getattr(parsed, name).view(np.int64)), name
    assert np.array_equal(cached.grid.points.view(np.int64), parsed.grid.points.view(np.int64))
    assert (cached.master_seed, cached.model_tag) == (parsed.master_seed, parsed.model_tag)


# JSON of the wrong shape, and values a strategy refuses: all malformed input
_BAD_STRATEGIES = ("str", "num", "list_of_num", "legs_str", "params_list", "until_null",
                   "margin_str", "default_str", "margin_big", "scale_nan", "scale_inf")
_BAD_STORED = ("json_empty", "span", "header", "jump_csv", "jump_json", "short_row",
               "short_jump_row")


@pytest.mark.parametrize("argv, kind", [
    *((argv, "input") for argv in (
        ["qv", "--levels", "8,x"],
        ["wealth", "--in", "{sim}-missing", "--strategy", "{half}"],
        ["replay", "{broken}"],
        ["counterexample", "divergence", "--eps-list", "0.1,zz"],
        ["qv", "--in", "{empty}"],
        ["qv", "--in", "{offgrid}"],
        ["qv", "--levels", "40"],
        ["qv", "--levels", "-1"],
        *(["wealth", "--in", "{sim}", "--strategy", f"{{bad_{k}}}"] for k in _BAD_STRATEGIES),
        ["wealth", "--in", "{sim}", "--strategy", "{strategies}"],
        ["counterexample", "band", "--strategy", "{strategies}", *_BUNDLES],
        *(["qv", "--in", f"{{stored_{k}}}"] for k in _BAD_STORED),
    )),
], ids=["qv-levels", "wealth-missing-input", "replay-non-json", "divergence-eps-list",
        "qv-no-paths", "qv-off-grid-path", "qv-level-too-fine", "qv-level-negative",
        *(f"strategy-{k}" for k in _BAD_STRATEGIES), "wealth-strategy-list",
        "band-strategy-list", *(f"stored-{k}" for k in _BAD_STORED)])
def test_bad_input_exits_2_with_json_error(argv, kind, inputs, tmp_path, capsys):
    argv = [a.format(**inputs) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == kind and error["message"]
    assert not (tmp_path / "out").exists()  # a refused run leaves no manifest, nor its directory


@pytest.mark.parametrize("flag", [["--levels", "99"], ["--seed", "0"], ["--model", "brownian"]],
                         ids=["levels", "seed", "model"])
def test_qv_stored_refuses_refinement_flags(flag, inputs, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["qv", "--in", inputs["sim"], *flag, "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "configuration" and flag[0] in error["message"]
    assert not out.exists()  # refused before the manifest


_UNREAD = {
    f"{flag}-{cmd[0]}": cmd + value
    for cmd in (["wealth", "--in", "x", "--strategy", "y"], ["decompose", "--in", "x"],
                ["optimize", "--in", "x"], ["report"])
    for flag, value in (("seed", ["--seed", "1"]), ("format", ["--format", "json"]))
}
_UNREAD.update({
    "poisson-lemma-bundles": ["counterexample", "poisson-lemma", "--bundles", "5"],
    "sweep-samples": ["counterexample", "sweep", "--samples", "5"],
    "sweep-eps-list": ["counterexample", "sweep", "--eps-list", "0.1"],
    "divergence-eps": ["counterexample", "divergence", "--eps", "0.05"],
    "band-without-strategy": ["counterexample", "band"],
})


@pytest.mark.parametrize("argv", list(_UNREAD.values()), ids=list(_UNREAD))
def test_flags_only_where_read(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
