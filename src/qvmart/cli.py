"""Command-line entry point.

One binary, one subcommand per subsystem: ``simulate``, ``qv``,
``wealth``, ``decompose``, ``optimize``, ``counterexample``, ``report``,
plus ``replay`` to re-run any written manifest.  Every run writes a
manifest capturing the fully resolved configuration before any other
artifact, outputs are written atomically (temp file then rename), and
nothing in an artifact depends on anything but the configuration and
the seed, so re-running a manifest reproduces every byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, ContractViolation
from . import counterexample as cx
from .inference import (
    BinSpec,
    choose_truncation_level,
    decompose,
    estimate_alpha,
    growth_optimal_value,
    martingale_residual,
    optimality_gap,
    reconstruction_error,
)
from .path_core import (
    Ensemble,
    TimeGrid,
    _atomic_write,
    _fmt,
    load_ensemble,
    qv_matrix,
    refine_and_compare_qv,
    save_ensemble,
)
from .simulate import (
    BrownianModel,
    ModelSpec,
    SeedStream,
    _brownian_matrix,
    _check_freeze,
    _m_values,
    gen_bundles,
    gen_ensemble,
    make_insider_grid,
)
from .strategy import (
    const_strategy,
    load_strategy_file,
    pi_for_ensemble,
    sign_at_time_strategy,
    truncation_strategy,
    window_strategy,
)
from .wealth import log_utility, stoch_exp_ensemble


def _sanitize(obj):
    """Make inf/nan JSON-safe as strings, recursively."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def _write_json(target: Path, obj) -> None:
    _atomic_write(target, json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n")


def _write_csv(target: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for c in row:
            if isinstance(c, (float, np.floating)):
                cells.append(_fmt(c))
            else:
                cells.append(str(c))
        lines.append(",".join(cells))
    _atomic_write(target, "\n".join(lines) + "\n")


def _write_manifest(out: Path, command: str, config: dict) -> None:
    _write_json(out / "manifest.json", {
        "tool": "qvmart",
        "version": __version__,
        "command": command,
        "config": _sanitize(config),
    })


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    out = Path(args.out)
    spec = ModelSpec(
        variant=args.model, mu=args.mu, sigma=args.sigma, rate=args.rate, eps=args.eps
    )
    config = {
        "model": spec.as_dict(),
        "paths": args.paths,
        "steps": args.steps,
        "log_steps": args.log_steps,
        "seed": args.seed,
        "format": args.format,
    }
    _write_manifest(out, "simulate", config)
    stream = SeedStream(args.seed)
    if spec.variant in ("brownian", "drifted"):
        grid = TimeGrid.uniform(args.steps)
        ens = gen_ensemble(spec.build(), stream, args.paths, grid)
    elif spec.variant == "gaussian_m":
        grid = make_insider_grid(args.eps, n_uniform=args.steps, n_log=args.log_steps)
        _check_freeze(grid, args.eps)
        vals = _m_values(grid, _brownian_matrix(stream, grid, range(args.paths)), args.eps)
        ens = Ensemble(grid, vals, args.seed, "gaussian_m")
    else:  # counterexample: the bundle ensemble is an ensemble of the combined jump paths
        grid = make_insider_grid(args.eps, n_uniform=args.steps, n_log=args.log_steps)
        ens = gen_bundles(stream, args.paths, grid, args.eps, args.rate)
    save_ensemble(ens, out, fmt=args.format)
    return 0


def _cmd_qv(args) -> int:
    out = Path(args.out)
    if args.infile:
        config = {"in": str(args.infile)}
        _write_manifest(out, "qv", config)
        totals = qv_matrix(load_ensemble(args.infile))[:, -1]
        rows = list(enumerate(totals.tolist()))
        _write_csv(out / "qv.csv", ["path_id", "qv_total"], rows)
        return 0
    levels = [int(x) for x in args.levels.split(",")]
    config = {"model": args.model, "levels": levels, "seed": args.seed}
    _write_manifest(out, "qv", config)
    if args.model != "brownian":
        raise ConfigurationError("refinement tables are wired for the brownian model")
    rows = refine_and_compare_qv(BrownianModel(), SeedStream(args.seed), 0, levels)
    _write_csv(out / "refine.csv", ["n_steps", "qv_total"], rows)
    return 0


def _cmd_wealth(args) -> int:
    out = Path(args.out)
    config = {"in": str(args.infile), "strategy": str(args.strategy)}
    _write_manifest(out, "wealth", config)
    ens = load_ensemble(args.infile)
    strat = load_strategy_file(args.strategy)
    if isinstance(strat, list):
        raise ConfigurationError("the wealth command evaluates one strategy at a time")
    w, dead = stoch_exp_ensemble(pi_for_ensemble(strat, ens), ens)
    w1 = w[:, -1]
    _write_csv(out / "w1.csv", ["path_id", "W1", "hit_nonpositive"],
               zip(range(ens.n_paths), w1.tolist(), (dead >= 0).astype(int).tolist()))
    report = log_utility(w1)
    name = getattr(strat, "name", "")
    _write_json(out / "utility.json", {"strategy": name, **report.as_dict()})
    return 0


def _default_tests(grid: TimeGrid, stop_n: float):
    tests = [const_strategy(1.0), const_strategy(-1.0)]
    half = 0.5
    try:
        grid.index_of(half)
        tests.append(window_strategy(1.0, 0.0, half))
        tests.append(sign_at_time_strategy(half, 1.0))
    except ContractViolation:
        pass
    tests.append(truncation_strategy(stop_n))
    return tests


def _cmd_decompose(args) -> int:
    out = Path(args.out)
    config = {
        "in": str(args.infile),
        "bins": args.bins,
        "state_bins": args.state_bins,
        "min_count": args.min_count,
        "tests": None if args.tests is None else str(args.tests),
    }
    _write_manifest(out, "decompose", config)
    ens = load_ensemble(args.infile)
    qv = qv_matrix(ens)
    spec = BinSpec(time_bins=args.bins, state_bins=args.state_bins, min_count=args.min_count)
    est = estimate_alpha(ens, qv, spec)
    result = decompose(ens, est)
    stop_n = choose_truncation_level(result.s_hat, qv)
    tests = (
        load_strategy_file(args.tests) if args.tests else _default_tests(ens.grid, stop_n)
    )
    if not isinstance(tests, list):
        tests = [tests]
    diags = martingale_residual(result, tests, stop_n=stop_n)
    _write_csv(
        out / "alpha.csv",
        ["bin_start", "bin_end", "alpha", "stderr", "count"],
        [
            (r["bin_start"], r["bin_end"],
             "" if r["alpha"] is None else r["alpha"],
             "" if r["stderr"] is None else r["stderr"],
             r["count"])
            for r in est.rows()
        ],
    )
    _write_json(out / "diagnostics.json", [
        {"strategy": d.strategy, "estimate": d.estimate, "stderr": d.stderr,
         "z": d.z, "passed": d.passed}
        for d in diags
    ])
    # second moments of the recentred paths across time: reported so a
    # reviewer can see whether the fitted martingale stays square-integrable
    second_moments = np.mean(result.s_hat.values**2, axis=0)
    payload = {
        "coverage": result.coverage,
        "reconstruction_error": reconstruction_error(result, ens),
        "truncation_level": stop_n,
        "all_diagnostics_passed": all(d.passed for d in diags),
        "n_bins_estimated": int(est.estimated.sum()),
        "n_bins": int(est.estimated.size),
        "recentred_second_moment_max": float(np.max(second_moments)),
        "recentred_second_moment_final": float(second_moments[-1]),
    }
    oracle = _oracle_alpha(Path(args.infile))
    if oracle is not None:
        ok = est.estimated
        z = np.abs(est.alpha[ok] - oracle) / est.stderr[ok]
        payload["oracle_alpha"] = oracle
        payload["max_abs_z_vs_oracle"] = float(np.max(z)) if z.size else None
    _write_json(out / "decomposition_report.json", payload)
    return 0


def _oracle_alpha(in_dir: Path) -> float | None:
    """Closed-form drift density when the source manifest pins the model."""
    mf = in_dir / "manifest.json"
    if not mf.exists():
        return None
    try:
        model = json.loads(mf.read_text())["config"]["model"]
    except (KeyError, json.JSONDecodeError):
        return None
    if model.get("variant") == "drifted" and model.get("sigma"):
        return float(model["mu"]) / float(model["sigma"]) ** 2
    if model.get("variant") == "brownian":
        return 0.0
    return None


def _cmd_optimize(args) -> int:
    out = Path(args.out)
    config = {"in": str(args.infile), "bins": args.bins,
              "strategies": None if args.strategies is None else str(args.strategies)}
    _write_manifest(out, "optimize", config)
    ens = load_ensemble(args.infile)
    qv = qv_matrix(ens)
    est = estimate_alpha(ens, qv, BinSpec(time_bins=args.bins))
    growth = growth_optimal_value(est, ens, qv)
    if args.strategies:
        strategies = load_strategy_file(args.strategies)
        if not isinstance(strategies, list):
            strategies = [strategies]
    else:
        strategies = [const_strategy(c) for c in np.linspace(0.5, 4.5, 9)]
    gaps = []
    for s in strategies:
        g = optimality_gap(s, est, ens, qv)
        gaps.append({"strategy": getattr(s, "name", ""), "gap": g.gap,
                     "stderr": g.stderr, "within_noise": g.gap <= 3.0 * g.stderr})
    _write_json(out / "growth_report.json", {
        "growth_value": growth.value,
        "growth_stderr": growth.stderr,
        "direct_utility": growth.direct.as_dict(),
        "gaps": gaps,
        "all_gaps_within_noise": all(g["within_noise"] for g in gaps),
    })
    return 0


_BETAS = {
    "const+": cx.beta_const(1.0),
    "const-": cx.beta_const(-1.0),
    "switch": cx.beta_switch_at(0.5),
    "prefix-sign": cx.beta_prefix_sign(),
}


def _cmd_counterexample(args) -> int:
    out = Path(args.out)
    if args.action == "poisson-lemma":
        config = {"action": args.action, "samples": args.samples, "rate": args.rate,
                  "beta": args.beta, "eps": args.eps, "seed": args.seed}
        _write_manifest(out, "counterexample", config)
        report = cx.poisson_flip_test(
            SeedStream(args.seed), args.samples, _BETAS[args.beta], args.rate, args.eps
        )
        _write_json(out / "poisson_lemma.json", {**asdict(report), "passed": report.passed()})
        return 0

    stream = SeedStream(args.seed)
    eps_list = [float(x) for x in args.eps_list.split(",")] if args.eps_list else [args.eps]
    gen_eps = min(eps_list)
    grid = make_insider_grid(gen_eps, n_uniform=args.steps, n_log=args.log_steps)
    config = {"action": args.action, "bundles": args.bundles, "rate": args.rate,
              "seed": args.seed, "steps": args.steps, "log_steps": args.log_steps}
    if args.action == "divergence":
        config["eps_list"] = eps_list
    else:
        config["eps"] = gen_eps
    if args.action == "band":
        config["strategy"] = str(args.strategy)
    _write_manifest(out, "counterexample", config)
    strat = load_strategy_file(args.strategy) if args.action == "band" else None
    bundles = gen_bundles(stream, args.bundles, grid, gen_eps, args.rate)
    if args.action == "divergence":
        rows = cx.insider_drift_divergence(bundles, eps_list)
        _write_csv(out / "divergence.csv", ["eps", "mc_tv", "closed_form", "stderr"],
                   [(r.eps, r.mc_tv, r.closed_form, r.stderr) for r in rows])
        _write_json(out / "divergence.json", [asdict(r) for r in rows])
    elif args.action == "sweep":
        report = cx.utility_sweep(cx.default_sweep_family(), bundles, gen_eps)
        _write_json(out / "sweep.json", report.as_dict())
        _write_csv(out / "sweep.csv", ["strategy", "estimate", "stderr", "n_nonpositive"],
                   [(n, r.estimate, r.stderr, r.n_nonpositive) for n, r in report.entries])
    else:
        report = cx.negative_wealth_probability(strat, bundles)
        _write_json(out / "band_report.json", asdict(report))
    return 0


_KNOWN_ARTIFACTS = (
    "qv.csv", "refine.csv", "utility.json", "alpha.csv", "diagnostics.json",
    "decomposition_report.json", "growth_report.json", "poisson_lemma.json",
    "sweep.json", "divergence.json", "band_report.json",
)


def _cmd_report(args) -> int:
    out = Path(args.out)
    summary = {"runs": []}
    table = []
    for d in args.dirs:
        d = Path(d)
        mf = d / "manifest.json"
        if not mf.exists():
            print(f"warning: {d} has no manifest, skipped", file=sys.stderr)
            continue
        manifest = json.loads(mf.read_text())
        entry = {"dir": str(d), "command": manifest.get("command"), "artifacts": {}}
        for name in _KNOWN_ARTIFACTS:
            f = d / name
            if not f.exists():
                continue
            if name.endswith(".json"):
                entry["artifacts"][name] = json.loads(f.read_text())
            else:
                entry["artifacts"][name] = f.read_text().splitlines()[:50]
        summary["runs"].append(entry)
        verdict = _verdict(entry)
        table.append((str(d), manifest.get("command", "?"), verdict))
    _write_manifest(out, "report", {"dirs": [str(d) for d in args.dirs]})
    _write_json(out / "summary.json", summary)
    width = max([len(r[0]) for r in table] + [4])
    print(f"{'run':<{width}}  {'command':<16} verdict")
    for row in table:
        print(f"{row[0]:<{width}}  {row[1]:<16} {row[2]}")
    return 0


def _verdict(entry: dict) -> str:
    art = entry["artifacts"]
    if "decomposition_report.json" in art:
        return "pass" if art["decomposition_report.json"]["all_diagnostics_passed"] else "FAIL"
    if "growth_report.json" in art:
        return "pass" if art["growth_report.json"]["all_gaps_within_noise"] else "FAIL"
    if "poisson_lemma.json" in art:
        return "pass" if art["poisson_lemma.json"]["passed"] else "FAIL"
    if "sweep.json" in art:
        finite = art["sweep.json"]["n_ruined_strategies"] == 0
        return "pass" if finite else "FAIL"
    return "-"


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qvmart", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a seeded path ensemble")
    p.add_argument("--model", required=True,
                   choices=("brownian", "drifted", "gaussian_m", "counterexample"))
    p.add_argument("--paths", type=int, default=100)
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--log-steps", type=int, default=1024, dest="log_steps")
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("qv", help="quadratic variation of stored or refined paths")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--model", default="brownian")
    p.add_argument("--levels", default="10,14,18")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_qv)

    p = sub.add_parser("wealth", help="wealth of one strategy over an ensemble")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_wealth)

    p = sub.add_parser("decompose", help="fit the drift density and test the recentred paths")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bins", type=int, default=32)
    p.add_argument("--state-bins", type=int, default=0, dest="state_bins")
    p.add_argument("--min-count", type=int, default=50, dest="min_count")
    p.add_argument("--tests", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("optimize", help="growth-optimal value and optimality gaps")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bins", type=int, default=32)
    p.add_argument("--strategies", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("counterexample", help="insider jump model stress checks")
    p.add_argument("action", choices=("poisson-lemma", "band", "sweep", "divergence"))
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--bundles", type=int, default=10000)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--beta", choices=tuple(_BETAS), default="prefix-sign")
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--eps-list", default=None, dest="eps_list")
    p.add_argument("--steps", type=int, default=256)
    p.add_argument("--log-steps", type=int, default=512, dest="log_steps")
    p.add_argument("--strategy", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("report", help="consolidate run directories into one summary")
    p.add_argument("dirs", nargs="*")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("replay", help="re-run a written manifest")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_replay)
    return ap


def _cmd_replay(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text())
    argv = _argv_from_manifest(manifest) + ["--out", args.out]
    return main(argv)


def _argv_from_manifest(manifest: dict) -> list[str]:
    cmd = manifest["command"]
    cfg = manifest["config"]
    argv = [cmd]
    if cmd == "simulate":
        m = cfg["model"]
        argv += ["--model", m["variant"], "--paths", str(cfg["paths"]),
                 "--steps", str(cfg["steps"]), "--log-steps", str(cfg["log_steps"]),
                 "--mu", str(m["mu"]), "--sigma", str(m["sigma"]),
                 "--rate", str(m["rate"]), "--eps", str(m["eps"]),
                 "--seed", str(cfg["seed"]), "--format", cfg["format"]]
    elif cmd == "counterexample":
        argv += [cfg["action"], "--seed", str(cfg["seed"]), "--rate", str(cfg["rate"])]
        if cfg["action"] == "poisson-lemma":
            argv += ["--samples", str(cfg["samples"]), "--beta", cfg["beta"],
                     "--eps", str(cfg["eps"])]
        else:
            argv += ["--bundles", str(cfg["bundles"]), "--steps", str(cfg["steps"]),
                     "--log-steps", str(cfg["log_steps"])]
            if cfg["action"] == "divergence":
                argv += ["--eps-list", ",".join(str(e) for e in cfg["eps_list"])]
            else:
                argv += ["--eps", str(cfg["eps"])]
            if cfg["action"] == "band":
                argv += ["--strategy", cfg["strategy"]]
    elif cmd in ("decompose", "optimize", "wealth", "qv"):
        for key, flag in (("in", "--in"), ("bins", "--bins"), ("state_bins", "--state-bins"),
                          ("min_count", "--min-count"), ("tests", "--tests"),
                          ("strategies", "--strategies"), ("strategy", "--strategy"),
                          ("model", "--model"), ("seed", "--seed")):
            if cfg.get(key) is not None:
                argv += [flag, str(cfg[key])]
        if cfg.get("levels"):
            argv += ["--levels", ",".join(str(x) for x in cfg["levels"])]
    else:
        raise ConfigurationError(f"manifest command {cmd!r} cannot be replayed")
    return argv


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(json.dumps({"error": "configuration", "message": str(exc)}), file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(json.dumps({"error": "contract", "message": str(exc)}), file=sys.stderr)
        return 1
    except (OSError, KeyError, ValueError) as exc:
        # unreadable, missing or malformed input: files, manifests, list flags
        message = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"error": "input", "message": message}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
