"""One workload process: import qvmart from ``src/``, set up, run jobs.

Started by ``run.py`` in the checkout root as
``python3 bench/worker.py '<json config>'``.  The config names the
workload, scale, master seed, mode and the file to write the result to:

- ``setup``: import and set up, then exit;
- ``run``: a warm-up job (job 0), then timed jobs 1, 2, ... until the
  next one is expected to end after ``seconds``;
- ``traced``: job 0 alone under the outside-in tracer.

Every job is checked.  ``setup_end`` is a CLOCK_MONOTONIC reading,
comparable with the parent's, so the parent can time interpreter start to
first job.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

WORK = Path(".bench_work")


def job_seed(seed: int, job: int) -> int:
    """Master seed of job ``job`` in a run with ``--seed seed``."""
    return int.from_bytes(hashlib.sha256(f"qvmart-bench:{seed}:{job}".encode()).digest()[:4], "big")


def _import_qvmart() -> dict:
    """Import every layer from ``src/`` and return the library versions."""
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import qvmart
    from qvmart import cli, counterexample, inference, path_core, simulate, strategy, wealth  # noqa: F401

    if Path(qvmart.__file__).resolve().parent != src / "qvmart":
        raise SystemExit(f"qvmart was imported from {qvmart.__file__}, not from src/")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "qvmart": qvmart.__version__}


def digest(artifacts: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(artifacts):
        h.update(name.encode() + b"\0" + hashlib.sha256(artifacts[name]).digest())
    return h.hexdigest()


def run_job(wl, seed: int, with_digest: bool, tr=None) -> dict:
    """Run and check one job; only the job itself is timed."""
    wl.reset()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        res = wl.job(seed)
        error = None
    except Exception:  # a failed job is a measured outcome, not a crash
        res, error = None, traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        job_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tr is not None:
            tr.uninstall()
    return {
        "job_seed": seed, "job_s": job_s, "cpu_s": cpu_s, "maxrss_kb": maxrss_kb,
        "error": error,
        "passed": res is not None and res.passed,
        "n_paths": res.n_paths if res else 0,
        "estimate": res.estimate if res else None,
        "stderr": res.stderr if res else None,
        "checks": res.checks if res else [],
        "digest": digest(res.artifacts()) if res and with_digest else None,
    }


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[1])
    versions = _import_qvmart()
    import_s = time.monotonic() - T_START
    import tracer
    import workloads

    wl = workloads.make(cfg["workload"], cfg["scale"], WORK)
    out = {"setup_end": time.monotonic(), "import_s": import_s, "versions": versions,
           "sizes": wl.sizes, "target": wl.target}
    seed = cfg["seed"]
    if cfg["mode"] == "traced":
        tr = tracer.Tracer.install()
        out["jobs"] = [run_job(wl, job_seed(seed, 0), True, tr)]
        out["layers"] = tr.metrics()
        tr.save(WORK / f"spans-{cfg['workload']}-{job_seed(seed, 0)}.npz", job_id=0)
    elif cfg["mode"] == "run":
        # Job 0 warms caches and lazy set-up; it is checked but not timed.
        jobs = [run_job(wl, job_seed(seed, 0), True)]
        t_window = time.monotonic()
        while True:
            jobs.append(run_job(wl, job_seed(seed, len(jobs)), False))
            typical = statistics.median(j["job_s"] for j in jobs[1:])
            if time.monotonic() - t_window + typical > cfg["seconds"]:
                break
        out["jobs"] = jobs
        out["window_s"] = time.monotonic() - t_window
    Path(cfg["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
