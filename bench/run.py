"""qvmart benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {drift_cli,insider_sweep} \
        --seed N --seconds S --trace {0,1}

Each run starts worker processes (``worker.py``) that import qvmart from
``src/`` and set up: a few that only set up, to sample set-up time, then
one that runs the jobs.  Job ``k`` uses a seed derived from ``--seed``
and ``k``, and its outputs are checked.  Job 0 warms the process and is
not timed; jobs 1, 2, ... are timed while the next is expected to end
within ``--seconds``.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` one more process re-runs job 0
under the outside-in tracer and the last line holds the per-layer
metrics.  The line before it records provenance and the per-job samples.
``DESIGN.md`` says why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")  # relative to the checkout root
WORKLOADS = ("drift_cli", "insider_sweep")
TIME_LIMIT_S = 170.0  # the whole run, set-up included, must end within this
SETUP_SAMPLES = 5  # processes whose set-up time is sampled, the job process included
# peak_rss_mb is read after this many jobs: the same work on every run,
# however fast the code is, and several seeds, whose peaks differ.
RSS_JOBS = 5

END_TO_END = (
    ("paths_per_s", "paths/s"),
    ("tta_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("pass_frac", "frac"),
)

PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    *((f"{layer}.rss_gain_mb", "MiB") for layer in LAYERS),
    ("simulate.substream.calls", "count"),
    ("simulate.substream.s", "s"),
    ("path_core.save_ensemble.s", "s"),
    ("path_core.load_ensemble.s", "s"),
    ("path_core.bytes_written", "B"),
    ("path_core.bytes_read", "B"),
    ("path_core.qv_matrix.calls", "count"),
    ("path_core.qv_matrix.s", "s"),
    ("strategy.evaluate.calls", "count"),
    ("strategy.evaluate.s", "s"),
    ("strategy.pi_for_ensemble.calls", "count"),
    ("strategy.profile_useful_ratio", "ratio"),
    ("counterexample.utility_sweep.s", "s"),
    ("counterexample.utility_bound_terms_family.s", "s"),
    ("wealth.terminal_log_wealth_jumps.calls", "count"),
    ("wealth.terminal_log_wealth_continuous.calls", "count"),
    ("inference.estimate_alpha.s", "s"),
    ("inference.optimality_gap.s", "s"),
    ("cli.artifact_bytes", "B"),
    ("setup.import_s", "s"),
    ("run.cpu_s", "s"),
    ("trace.overhead_frac", "frac"),
)

# One thread of ours: BLAS pools pinned to one thread, qvmart's own thread
# setting unset.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "QVMART_THREADS"}
    env.update(PINNED_ENV)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # same import cost on every run
    env.pop("PYTHONPATH", None)  # qvmart comes from src/ only
    return env


class Runner:
    """Starts worker processes one at a time and keeps the run's time limit."""

    def __init__(self, root: Path, workload: str, scale: str, seed: int):
        self.root, self.workload, self.scale, self.seed = root, workload, scale, seed
        self.t0 = time.monotonic()
        self.env = _worker_env()
        self.count = 0

    def worker(self, mode: str, seconds: float = 0.0) -> dict:
        self.count += 1
        result = self.root / WORK / f"worker-{os.getpid()}-{self.count}.json"
        cfg = {"workload": self.workload, "scale": self.scale, "mode": mode,
               "seed": self.seed, "seconds": seconds, "result": str(result)}
        remaining = TIME_LIMIT_S - (time.monotonic() - self.t0)
        if remaining < 1.0:
            raise TimeoutError("run time limit reached")
        t_spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), json.dumps(cfg)],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, timeout=remaining, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
        out = json.loads(result.read_text())
        result.unlink()
        out["setup_s"] = out["setup_end"] - t_spawn
        return out


def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def _mount_type(path: Path) -> str:
    """Filesystem type (tmpfs, ext4, overlay, ...) holding ``path``."""
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) > 2 and (target == parts[1] or target.startswith(parts[1].rstrip("/") + "/")):
            if len(parts[1]) >= len(best):
                best, fstype = parts[1], parts[2]
    return fstype


def _git(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=20, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                               capture_output=True, text=True, timeout=20, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(dirty.strip())}


def _run_metrics(jobs: list[dict], target: float) -> dict[str, float]:
    """End-to-end metrics of one run; ``jobs[0]`` is the untimed warm-up."""
    timed = jobs[1:]
    passed = [j for j in jobs if j["passed"]]
    # One job's stderr is itself a noisy estimate of the estimator's
    # spread, with a heavy tail for insider_sweep's running max.
    var = _median([(j["stderr"] / target) ** 2 for j in passed])
    return {
        "paths_per_s": _median([j["n_paths"] / j["job_s"] if j["passed"] else 0.0
                                for j in timed]),
        "tta_s": _median([j["job_s"] for j in timed if j["passed"]]) * var,
        "peak_rss_mb": jobs[min(RSS_JOBS, len(jobs)) - 1]["maxrss_kb"] / 1024.0,
        "pass_frac": len(passed) / len(jobs),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path = ROOT, scale: str = "full") -> tuple[dict, dict]:
    """Run one benchmark; return (result line, provenance and samples)."""
    (root / WORK).mkdir(exist_ok=True)
    runner = Runner(root, workload, scale, seed)
    setups = [runner.worker("setup") for _ in range(SETUP_SAMPLES - 1)]
    main_run = runner.worker("run", seconds)
    setups.append(main_run)
    jobs = main_run["jobs"]
    attempted, failed = len(jobs), sum(not j["passed"] for j in jobs)
    e2e = {**_run_metrics(jobs, main_run["target"]),
           "setup_s": _median([s["setup_s"] for s in setups])}
    traced = None
    if trace:
        traced = runner.worker("traced")
        tj = traced["jobs"][0]
        traced["identical_artifacts"] = tj["digest"] == jobs[0]["digest"]
        attempted += 1
        failed += not (tj["passed"] and traced["identical_artifacts"])
        layers = traced["layers"]
        layers["setup.import_s"] = _median([s["import_s"] for s in setups])
        layers["run.cpu_s"] = _median([j["cpu_s"] for j in jobs[1:]])
        # Job 0 on the same seed, first in a fresh process either way.
        layers["trace.overhead_frac"] = tj["job_s"] / jobs[0]["job_s"] - 1.0
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    shutil.rmtree(root / WORK / workload, ignore_errors=True)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        "job_seeds": [j["job_seed"] for j in jobs],
        "sizes": main_run["sizes"], "versions": main_run["versions"], "git": _git(root),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "blas_threads": PINNED_ENV,
        "qvmart_threads": "unset", "artifacts_fs": _mount_type(root / WORK),
        "samples": {
            "jobs": len(jobs),
            "timed_window_s": main_run["window_s"],
            "job_s": [j["job_s"] for j in jobs],
            "cpu_s": [j["cpu_s"] for j in jobs],
            "setup_s": [s["setup_s"] for s in setups],
            "maxrss_mb": [j["maxrss_kb"] / 1024.0 for j in jobs],
            "estimate": [j["estimate"] for j in jobs],
            "stderr": [j["stderr"] for j in jobs],
            "failed_checks": [[c for c in j["checks"] if not c[1]] or j["error"] for j in jobs
                              if not j["passed"]],
        },
        "failed_frac": failed / attempted,
        "end_to_end": e2e,
    }
    if traced is not None:
        info["traced"] = {"identical_artifacts": traced["identical_artifacts"],
                          **{k: tj[k] for k in ("job_s", "passed", "checks", "error")}}
    return line, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qvmart" / "__init__.py").is_file():
        print(f"error: no qvmart sources under {ROOT / 'src'}; run from a qvmart checkout",
              file=sys.stderr)
        return 2
    try:
        line, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = ROOT / WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": line, "info": info}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
