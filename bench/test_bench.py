"""Tests of the benchmark itself, at toy sizes.

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def _is_count(name: str) -> bool:
    return name.endswith(".calls") or "bytes" in name or name.endswith("profile_useful_ratio")


def _units(line: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in line["metrics"].items()}


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, seed):
    line, info = run.run(workload, seed, seconds=0, trace=False, scale="toy")
    assert line["correct"], info["samples"]["failed_checks"]
    # The untimed warm-up job and one timed job.
    assert (line["attempted"], line["failed"]) == (2, 0)
    assert _units(line) == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert len(info["samples"]["setup_s"]) == run.SETUP_SAMPLES


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_and_artifacts_match(workload):
    first, info = run.run(workload, 3, seconds=0, trace=True, scale="toy")
    second, _ = run.run(workload, 3, seconds=0, trace=True, scale="toy")
    assert first["correct"] and info["traced"]["identical_artifacts"]
    assert _units(first) == dict(run.PER_LAYER)
    counts = [name for name in first["metrics"] if _is_count(name)]
    assert len(counts) == 10
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts}


def test_tracer_wraps_every_public_function_and_restores_it():
    mods = {layer: importlib.import_module(f"qvmart.{layer}") for layer in tracer.LAYERS}
    originals = {(layer, name): fn for layer, mod in mods.items()
                 for name, fn in tracer.public_functions(mod).items()}
    assert ("cli", "main") in originals and ("strategy", "evaluate") in originals
    sim = mods["simulate"]
    methods = (sim.SeedStream.substream, sim.BrownianModel.path_at_level)
    orig_ids = {id(fn) for fn in originals.values()}
    tr = tracer.Tracer.install()
    try:
        for (layer, name), fn in originals.items():
            assert getattr(mods[layer], name).__wrapped__ is fn
        assert sim.SeedStream.substream.__wrapped__ is methods[0]
        assert sim.BrownianModel.path_at_level.__wrapped__ is methods[1]
        # No import site still holds an original: re-exports and
        # ``from ... import`` names are patched too.
        for name, mod in list(sys.modules.items()):
            if name == "qvmart" or name.startswith("qvmart."):
                assert not [a for a, v in vars(mod).items() if id(v) in orig_ids]
    finally:
        tr.uninstall()
    for (layer, name), fn in originals.items():
        assert getattr(mods[layer], name) is fn
    assert (sim.SeedStream.substream, sim.BrownianModel.path_at_level) == methods


def test_install_fails_loudly_when_a_named_function_is_gone(monkeypatch):
    strategy = importlib.import_module("qvmart.strategy")
    before = strategy.evaluate
    monkeypatch.setattr(strategy, "__all__", [n for n in strategy.__all__ if n != "evaluate"])
    with pytest.raises(RuntimeError, match="strategy.evaluate"):
        tracer.Tracer.install()
    assert strategy.evaluate is before


def test_without_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "insider_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
