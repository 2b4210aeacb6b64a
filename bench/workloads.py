"""The two benchmark workloads, each a user pipeline on qvmart's public API.

A workload has a ``setup`` (grid, strategy family, work directory) and a
``job`` that runs the whole pipeline on one seed and checks its outputs.
Jobs call qvmart through module attributes (``cli.main``,
``cx.utility_sweep``, ...) so that the tracer's patched functions are the
ones that run.  Why each workload exists is recorded in ``DESIGN.md``.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from qvmart import cli, simulate
from qvmart import counterexample as cx
from qvmart import strategy as st

# Sizes of one job.  TOY sizes keep every check meaningful and are used by
# the benchmark's own tests.
SIZES = {
    "drift_cli": {
        "full": {"paths": 2500, "steps": 256, "bins": 32, "state_bins": 8},
        "toy": {"paths": 600, "steps": 64, "bins": 8, "state_bins": 2},
    },
    "insider_sweep": {
        "full": {"bundles": 1000, "eps": 1e-3, "n_uniform": 256, "n_log": 512,
                 "eps_list": [1e-1, 1e-2, 1e-3]},
        "toy": {"bundles": 300, "eps": 1e-3, "n_uniform": 256, "n_log": 512,
                "eps_list": [1e-1, 1e-2, 1e-3]},
    },
}

# Closed forms the checks compare against (drifted model mu=0.1, sigma=0.2).
MU, SIGMA = 0.1, 0.2
GROWTH = MU**2 / (2 * SIGMA**2)  # 0.125
# Statistical checks use 5 standard errors: a correct program fails one with
# probability about 6e-7, whatever the seed.
Z_CHECK = 5.0


@dataclass
class JobResult:
    """Outcome of one job: work done, headline estimate, checks, and a reader
    for the job's artifacts, called after the timed region."""

    n_paths: int
    estimate: float
    stderr: float
    artifacts: Callable[[], dict[str, bytes]]
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _dump(obj) -> bytes:
    """Canonical JSON bytes; floats keep every digit via repr."""
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


class Workload:
    """A workload: ``reset`` clears what one job leaves behind, untimed."""

    def reset(self) -> None:
        pass


class DriftCli(Workload):
    """simulate -> decompose (state bins) -> optimize through ``cli.main``."""

    name = "drift_cli"
    target = 1e-3  # accuracy of the growth value that tta_s is normalised to

    def __init__(self, sizes: dict, workdir: Path):
        self.sizes = sizes
        # Relative to the checkout root (the worker's cwd), so manifests do
        # not depend on where the checkout lives.
        self.job_dir = workdir / self.name
        self.reset()

    def reset(self) -> None:
        shutil.rmtree(self.job_dir, ignore_errors=True)
        self.job_dir.mkdir(parents=True)

    def _artifacts(self) -> dict[str, bytes]:
        return {
            p.relative_to(self.job_dir).as_posix(): p.read_bytes()
            for p in sorted(self.job_dir.rglob("*")) if p.is_file()
        }

    def job(self, seed: int) -> JobResult:
        z = self.sizes
        sim, dec, opt = (str(self.job_dir / d) for d in ("simulate", "decompose", "optimize"))
        codes = [
            cli.main(["simulate", "--model", "drifted", "--mu", str(MU), "--sigma", str(SIGMA),
                      "--paths", str(z["paths"]), "--steps", str(z["steps"]),
                      "--format", "json", "--seed", str(seed), "--out", sim]),
            cli.main(["decompose", "--in", sim, "--bins", str(z["bins"]),
                      "--state-bins", str(z["state_bins"]), "--out", dec]),
            cli.main(["optimize", "--in", sim, "--bins", str(z["bins"]), "--out", opt]),
        ]
        if any(codes):
            res = JobResult(z["paths"], math.nan, math.nan, self._artifacts)
            res.check("exit_codes", False, f"cli exit codes {codes}")
            return res
        rep = json.loads((self.job_dir / "decompose/decomposition_report.json").read_bytes())
        growth = json.loads((self.job_dir / "optimize/growth_report.json").read_bytes())
        g, se = growth["growth_value"], growth["growth_stderr"]
        direct = growth["direct_utility"]["estimate"]
        res = JobResult(z["paths"], g, se, self._artifacts)
        res.check("exit_codes", True)
        res.check("reconstruction_error", rep["reconstruction_error"] <= 1e-9,
                  f"{rep['reconstruction_error']!r}")
        res.check("growth_vs_closed_form", _finite(se) and abs(g - GROWTH) <= Z_CHECK * se,
                  f"|{g!r} - {GROWTH}| vs {Z_CHECK} x {se!r}")
        res.check("direct_utility_identity",
                  _finite(direct) and abs(direct - g) <= 1e-10 * abs(g),
                  f"{direct!r} vs {g!r}")
        return res


def _tail_violator() -> st.GridRuleStrategy:
    """pi_t = 1 - t from t = 0.9 on: on the band's edge, so ruin is possible."""

    def fn(path, ctx):
        t = path.grid.points[:-1]
        return np.where(t >= 0.9, 1.0 - t, 0.0)

    return st.GridRuleStrategy("tail_violator", 1.0, fn, path_independent=True)


class InsiderSweep(Workload):
    """Insider bundles -> utility sweep + bound terms -> divergence -> ruin."""

    name = "insider_sweep"
    target = 1e-3  # accuracy of the sweep's running max

    def __init__(self, sizes: dict, workdir: Path):
        self.sizes = sizes
        self.grid = simulate.make_insider_grid(
            sizes["eps"], n_uniform=sizes["n_uniform"], n_log=sizes["n_log"])
        self.family = cx.default_sweep_family()
        self.violator = _tail_violator()
        # Left-endpoint quadrature on this grid has its own exact mean,
        # E|B1 - B_t| = sqrt(2 (1 - t) / pi) per cell.  Its gap to the
        # continuum closed form is a fixed grid bias, not noise, so the
        # closed-form check allows it on top of 5 standard errors.
        pts = self.grid.points
        t = pts[:-1]
        w = simulate.sigma_profile_vec(t) / (1.0 - t) * self.grid.dt * np.sqrt(2 * (1 - t) / np.pi)
        self.grid_bias = {}
        for eps in sizes["eps_list"]:
            k_cut = int(np.searchsorted(pts, 1.0 - eps + 1e-12, side="right")) - 1
            self.grid_bias[eps] = abs(float(w[:k_cut].sum()) - cx.drift_variation_closed_form(eps))

    def job(self, seed: int) -> JobResult:
        z = self.sizes
        bundles = simulate.gen_bundles(
            simulate.SeedStream(seed), z["bundles"], self.grid, z["eps"], 1.0)
        sweep = cx.utility_sweep(self.family, bundles, z["eps"])
        terms = cx.utility_bound_terms_family(self.family, bundles)
        rows = cx.insider_drift_divergence(bundles, z["eps_list"])
        ruin = cx.negative_wealth_probability(self.violator, bundles)
        artifacts = {"insider.json": _dump({
            "sweep": sweep.as_dict(),
            "bound_terms": [asdict(t) for t in terms],
            "divergence": [asdict(r) for r in rows],
            "ruin": asdict(ruin),
        })}
        res = JobResult(z["bundles"], sweep.running_max, sweep.running_max_stderr,
                        lambda: artifacts)
        res.check("no_ruined_strategies", sweep.n_ruined_strategies == 0,
                  f"{sweep.n_ruined_strategies} ruined")
        estimates = [r.estimate for _, r in sweep.entries]
        estimates += [v for t in terms for v in asdict(t).values()]
        res.check("estimates_finite", all(_finite(float(v)) for v in estimates))
        tv = [r.mc_tv for r in rows]
        res.check("divergence_increasing", all(a < b for a, b in zip(tv, tv[1:])), f"{tv}")
        for r in rows:
            tol = Z_CHECK * r.stderr + self.grid_bias[r.eps]
            res.check(f"divergence_closed_form_eps{r.eps:g}", abs(r.mc_tv - r.closed_form) <= tol,
                      f"|{r.mc_tv!r} - {r.closed_form!r}| vs {Z_CHECK} x {r.stderr!r}"
                      f" + grid bias {self.grid_bias[r.eps]!r}")
        res.check("violator_ruined", ruin.p_hat > 0.0, f"p_hat={ruin.p_hat!r}")
        return res


WORKLOADS = {w.name: w for w in (DriftCli, InsiderSweep)}


def make(name: str, scale: str, workdir: Path):
    """Build workload ``name`` at ``scale`` ("full" or "toy")."""
    return WORKLOADS[name](SIZES[name][scale], workdir)
