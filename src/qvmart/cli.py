"""Command-line entry point.

One binary, one subcommand per subsystem: ``simulate``, ``qv``,
``wealth``, ``decompose``, ``optimize``, ``counterexample``, ``report``,
plus ``replay`` to re-run any written manifest.  One parameter table per
subcommand, and per counterexample action, builds its parser, the config
its manifest records and the argv that replays it.  Every run writes a
manifest capturing the fully resolved configuration before any other
artifact, and a refused run removes it again, so only a finished run
leaves one; it also removes the output directory when it made the
directory and left it empty.  Outputs are written atomically (temp file
then rename), and nothing in an artifact depends on anything but the
configuration and the seed, so re-running a manifest reproduces every
byte.
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
    estimate_lambda,
    growth_optimal_value,
    optimality_gap,
)
from .path_core import (
    TimeGrid,
    _atomic_write,
    load_ensemble,
    refine_and_compare_qv,
    save_ensemble,
)
from .simulate import BrownianModel, ModelSpec, SeedStream, freeze_cut, gen_bundles
from .simulate import make_insider_grid
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
    for row in rows:  # a float as its repr, which reads back to the same float
        lines.append(",".join(repr(float(c)) if isinstance(c, (float, np.floating)) else str(c)
                              for c in row))
    _atomic_write(target, "\n".join(lines) + "\n")


def _record(args, keys=None) -> dict:
    """Write the run's manifest and return its config.

    The config holds the counterexample action, if any, and the value of
    each of the table's keys (``keys`` only, when given) as parsed; a
    list row's comma-separated text becomes a list of its items.
    """
    config = {"action": args.action} if "action" in vars(args) else {}
    for _, key, item, _ in args.rows:
        if keys is not None and key not in keys:
            continue
        value = getattr(args, key)
        if item is not None:
            value = [item(x) for x in value.split(",")]
        head, _, tail = key.rpartition(".")
        (config.setdefault(head, {}) if head else config)[tail] = value
    _write_json(Path(args.out) / "manifest.json", {
        "tool": "qvmart",
        "version": __version__,
        "command": args.command,
        "config": config,
    })
    args.manifest_written = True
    return config


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    cfg = _record(args)
    ens = ModelSpec(**cfg["model"]).generate(SeedStream(cfg["seed"]), cfg["paths"],
                                             cfg["steps"], cfg["log_steps"])
    save_ensemble(ens, Path(args.out), fmt=cfg["format"])
    return 0


# Defaults of the flags that refine a fresh path.  Their rows default to None,
# so that a flag given with --in, which would go unread, can be refused.
_QV_REFINE = {"model": "brownian", "levels": "10,14,18", "seed": 0}


def _cmd_qv(args) -> int:
    out = Path(args.out)
    if getattr(args, "in"):  # stored paths
        given = [f"--{key}" for key in _QV_REFINE if getattr(args, key) is not None]
        if given:
            raise ConfigurationError(f"qv --in reads stored paths; {', '.join(given)} "
                                     "would go unread")
        cfg = _record(args, ("in",))
        views = load_ensemble(cfg["in"]).blocks()
        totals = np.concatenate([part.qv[:, -1] for _, part in views])
        rows = list(enumerate(totals.tolist()))
        _write_csv(out / "qv.csv", ["path_id", "qv_total"], rows)
        return 0
    for key, default in _QV_REFINE.items():
        if getattr(args, key) is None:
            setattr(args, key, default)
    cfg = _record(args, tuple(_QV_REFINE))
    rows = refine_and_compare_qv(BrownianModel(), SeedStream(cfg["seed"]), 0, cfg["levels"])
    _write_csv(out / "refine.csv", ["n_steps", "qv_total"], rows)
    return 0


def _one_strategy(path: str):
    """The one strategy a file describes; a list of them is refused."""
    strat = load_strategy_file(path)
    if isinstance(strat, list):
        raise ValueError(f"{path} lists strategies; this command evaluates one at a time")
    return strat


def _cmd_wealth(args) -> int:
    out = Path(args.out)
    cfg = _record(args)
    ens = load_ensemble(cfg["in"])
    strat = _one_strategy(cfg["strategy"])
    w1, hit = np.empty(ens.n_paths), np.empty(ens.n_paths, dtype=int)
    for rows, part in ens.blocks():  # only each view's terminal column and ruin flags are kept
        w, dead = stoch_exp_ensemble(pi_for_ensemble(strat, part), part)
        w1[rows], hit[rows] = w[:, -1], dead >= 0
    _write_csv(out / "w1.csv", ["path_id", "W1", "hit_nonpositive"],
               zip(range(ens.n_paths), w1.tolist(), hit.tolist()))
    report = log_utility(np.log(w1, out=np.full(w1.shape, -np.inf), where=~(w1 <= 0.0)))
    _write_json(out / "utility.json", {"strategy": strat.name, **report.as_dict()})
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
    cfg = _record(args)
    if cfg["state_bins"]:
        # numpy 2 first imports numpy.ma inside the state bins' np.quantile
        # (its np.unique), where the module's objects would land on top of
        # the loaded ensemble's arrays and, living as long as the process,
        # keep that heap resident after the command: import it first
        import numpy.ma  # noqa: F401
    ens = load_ensemble(cfg["in"])
    spec = BinSpec(time_bins=cfg["bins"], state_bins=cfg["state_bins"],
                   min_count=cfg["min_count"])
    est = estimate_alpha(ens, spec)
    result = decompose(ens, est)
    del ens  # every step after it reads the recentred paths alone
    stop_n = choose_truncation_level(result.s_hat)
    tests = (
        load_strategy_file(cfg["tests"]) if cfg["tests"] else
        _default_tests(result.s_hat.grid, stop_n)
    )
    if not isinstance(tests, list):
        tests = [tests]
    diags = estimate_lambda(tests, result.s_hat, stop_n)
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
        {"strategy": d.strategy, "estimate": d.value, "stderr": d.stderr,
         "z": d.z, "passed": d.passed}
        for d in diags
    ])
    # second moments of the recentred paths across time: reported so a
    # reviewer can see whether the fitted martingale stays square-integrable
    second_moments = np.mean(result.s_hat.values**2, axis=0)
    payload = {
        "coverage": result.coverage,
        "reconstruction_error": result.reconstruction_error,
        "truncation_level": stop_n,
        "all_diagnostics_passed": all(d.passed for d in diags),
        "n_bins_estimated": int(est.estimated.sum()),
        "n_bins": int(est.estimated.size),
        "recentred_second_moment_max": float(np.max(second_moments)),
        "recentred_second_moment_final": float(second_moments[-1]),
    }
    oracle = _oracle_alpha(Path(cfg["in"]))
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
    cfg = _record(args)
    ens = load_ensemble(cfg["in"])
    est = estimate_alpha(ens, BinSpec(time_bins=cfg["bins"]))
    growth = growth_optimal_value(est, ens)
    if cfg["strategies"]:
        strategies = load_strategy_file(cfg["strategies"])
        if not isinstance(strategies, list):
            strategies = [strategies]
    else:
        strategies = [const_strategy(c) for c in np.linspace(0.5, 4.5, 9)]
    gaps = [{"strategy": s.name, "gap": g.gap, "stderr": g.stderr,
             "within_noise": g.gap <= 3.0 * g.stderr}
            for s, g in zip(strategies, optimality_gap(strategies, growth, ens))]
    _write_json(out / "growth_report.json", {
        "growth_value": growth.value,
        "growth_stderr": growth.stderr,
        "direct_utility": growth.direct.as_dict(),
        "gaps": gaps,
        "all_gaps_within_noise": all(g["within_noise"] for g in gaps),
    })
    return 0


_BETAS = {
    "const+": const_strategy(1.0),
    "const-": const_strategy(-1.0),
    "switch": cx.beta_switch_at(0.5),
    "prefix-sign": cx.beta_prefix_sign(),
}


def _cmd_counterexample(args) -> int:
    out = Path(args.out)
    cfg = _record(args)
    stream = SeedStream(cfg["seed"])
    if args.action == "poisson-lemma":
        report = cx.poisson_flip_test(
            stream, cfg["samples"], _BETAS[cfg["beta"]], cfg["rate"], cfg["eps"]
        )
        _write_json(out / "poisson_lemma.json", {**asdict(report), "passed": report.passed()})
        return 0

    # divergence generates at its smallest cutoff; band and sweep at --eps
    gen_eps = min(cfg["eps_list"]) if args.action == "divergence" else cfg["eps"]
    grid = make_insider_grid(gen_eps, n_uniform=cfg["steps"], n_log=cfg["log_steps"])
    strat = _one_strategy(cfg["strategy"]) if args.action == "band" else None
    for eps in cfg["eps_list"] if args.action == "divergence" else ():
        freeze_cut(grid, eps)  # an off-grid cutoff is refused before any bundle is made
    bundles = gen_bundles(stream, cfg["bundles"], grid, gen_eps, cfg["rate"])
    if args.action == "divergence":
        rows = cx.insider_drift_divergence(bundles, cfg["eps_list"])
        _write_csv(out / "divergence.csv", ["eps", "mc_tv", "closed_form", "stderr"],
                   [(r.eps, r.mc_tv, r.closed_form, r.stderr) for r in rows])
        _write_json(out / "divergence.json", [asdict(r) for r in rows])
    elif args.action == "sweep":
        family = cx.default_sweep_family()
        report = cx.utility_sweep(family, bundles, gen_eps)
        _write_json(out / "sweep.json", report.as_dict())
        _write_csv(out / "sweep.csv", ["strategy", "estimate", "stderr", "n_nonpositive"],
                   [(n, r.estimate, r.stderr, r.n_nonpositive) for n, r in report.entries])
        if not report.n_ruined_strategies:  # bound terms need every member's wealth positive
            terms = cx.utility_bound_terms_family(family, bundles)
            _write_json(out / "bound_terms.json",
                        [{"strategy": m.name, **asdict(t)} for m, t in zip(family, terms)])
    else:
        report = cx.negative_wealth_probability(strat, bundles)
        _write_json(out / "band_report.json", asdict(report))
    return 0


_KNOWN_ARTIFACTS = (
    "qv.csv", "refine.csv", "utility.json", "alpha.csv", "diagnostics.json",
    "decomposition_report.json", "growth_report.json", "poisson_lemma.json",
    "sweep.json", "bound_terms.json", "divergence.json", "band_report.json",
)


def _cmd_report(args) -> int:
    out = Path(args.out)
    cfg = _record(args)
    summary = {"runs": []}
    table = []
    for d in cfg["dirs"]:
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


def _cmd_replay(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text())
    argv = _argv_from_manifest(manifest) + ["--out", args.out]
    return main(argv)


# ---------------------------------------------------------------------------
# Parameter tables, parser and replay
# ---------------------------------------------------------------------------

def _row(flag: str, key: str | None = None, item=None, **kwargs) -> tuple:
    """One table row: (flag, manifest key, list item type, argparse keywords).

    A flag without dashes is positional; a ``model.`` key is a field of
    simulate's model spec; ``item`` marks a comma-separated list flag.
    """
    return flag, key or flag.lstrip("-").replace("-", "_"), item, kwargs


def _level(text: str) -> int:
    """A refinement level in 0..24: 2^24 steps is 128 MiB per float64 row."""
    if not 0 <= (level := int(text)) <= 24:
        raise ValueError(f"level {level} is outside 0..24")
    return level


_SEED = _row("--seed", type=int, default=0)
_IN = _row("--in", required=True)
_BUNDLE_ROWS = (
    _row("--bundles", type=int, default=10000),
    _row("--rate", type=float, default=1.0),
    _row("--steps", type=int, default=256),
    _row("--log-steps", type=int, default=512),
    _SEED,
)
_CX_EPS = _row("--eps", type=float, default=1e-2)

# name -> (help, implementation, rows), or a dict action -> rows for counterexample
_COMMANDS = {
    "simulate": ("generate a seeded path ensemble", _cmd_simulate, (
        _row("--model", "model.variant", required=True, choices=ModelSpec.VARIANTS),
        _row("--paths", type=int, default=100),
        _row("--steps", type=int, default=1024),
        _row("--log-steps", type=int, default=1024),
        _row("--mu", "model.mu", type=float, default=0.0),
        _row("--sigma", "model.sigma", type=float, default=1.0),
        _row("--rate", "model.rate", type=float, default=1.0),
        _row("--eps", "model.eps", type=float, default=1e-3),
        _row("--format", choices=("csv", "json"), default="csv"),
        _SEED,
    )),
    "qv": ("quadratic variation of stored or refined paths", _cmd_qv, (
        _row("--in", default=None),
        _row("--model", choices=("brownian",)),
        _row("--levels", item=_level),
        _row("--seed", type=int),
    )),
    "wealth": ("wealth of one strategy over an ensemble", _cmd_wealth, (
        _IN,
        _row("--strategy", required=True),
    )),
    "decompose": ("fit the drift density and test the recentred paths", _cmd_decompose, (
        _IN,
        _row("--bins", type=int, default=32),
        _row("--state-bins", type=int, default=0),
        _row("--min-count", type=int, default=50),
        _row("--tests", default=None),
    )),
    "optimize": ("growth-optimal value and optimality gaps", _cmd_optimize, (
        _IN,
        _row("--bins", type=int, default=32),
        _row("--strategies", default=None),
    )),
    "counterexample": ("insider jump model stress checks", _cmd_counterexample, {
        "poisson-lemma": (
            _row("--samples", type=int, default=10000),
            _row("--rate", type=float, default=1.0),
            _row("--beta", choices=tuple(_BETAS), default="prefix-sign"),
            _CX_EPS,
            _SEED,
        ),
        "band": (_CX_EPS, _row("--strategy", required=True), *_BUNDLE_ROWS),
        "sweep": (_CX_EPS, *_BUNDLE_ROWS),
        "divergence": (_row("--eps-list", item=float, default="0.01"), *_BUNDLE_ROWS),
    }),
    "report": ("consolidate run directories into one summary", _cmd_report, (
        _row("dirs", nargs="*"),
    )),
}


def _add_rows(p: argparse.ArgumentParser, rows) -> None:
    for flag, key, _, kwargs in rows:
        if flag.startswith("-"):
            p.add_argument(flag, dest=key, **kwargs)
        else:
            p.add_argument(key, **kwargs)
    p.add_argument("--out", required=True)
    p.set_defaults(rows=rows)


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: divergence's --eps would otherwise be read as --eps-list
    ap = argparse.ArgumentParser(prog="qvmart", description=__doc__, allow_abbrev=False)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, fn, rows) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.set_defaults(fn=fn)
        if isinstance(rows, dict):
            actions = p.add_subparsers(dest="action", required=True)
            for action, action_rows in rows.items():
                _add_rows(actions.add_parser(action, allow_abbrev=False), action_rows)
        else:
            _add_rows(p, rows)
    p = sub.add_parser("replay", help="re-run a written manifest", allow_abbrev=False)
    p.set_defaults(fn=_cmd_replay)
    _add_rows(p, (_row("manifest"),))
    return ap


def _argv_from_manifest(manifest: dict) -> list[str]:
    """The argv that re-runs a manifest; keys the table lacks (an old
    manifest's ``threads``) are ignored, and null or missing ones defaulted."""
    cmd, cfg = manifest["command"], manifest["config"]
    if cmd not in _COMMANDS:
        raise ConfigurationError(f"manifest command {cmd!r} cannot be replayed")
    argv, rows = [cmd], _COMMANDS[cmd][2]
    if isinstance(rows, dict):
        argv.append(cfg["action"])
        rows = rows[cfg["action"]]
    for flag, key, item, _ in rows:
        head, _, tail = key.rpartition(".")
        value = (cfg.get(head, {}) if head else cfg).get(tail)
        if value is None:
            continue
        if item is not None:
            value = ",".join(str(v) for v in value)
        values = [str(v) for v in (value if isinstance(value, list) else [value])]
        argv += [flag, *values] if flag.startswith("-") else values
    return argv


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    out = Path(args.out)
    fresh = not out.exists()
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        error, code, message = "configuration", 2, str(exc)
    except ContractViolation as exc:
        error, code, message = "contract", 1, str(exc)
    except (OSError, KeyError, ValueError, MemoryError) as exc:
        # unreadable, missing, malformed or oversized input: files, manifests, list flags
        error, code, message = "input", 2, f"{type(exc).__name__}: {exc}"
    if getattr(args, "manifest_written", False):
        (out / "manifest.json").unlink(missing_ok=True)
    if fresh and out.is_dir() and not any(out.iterdir()):
        out.rmdir()
    print(json.dumps({"error": error, "message": message}), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
