"""Portfolio-proportion strategies: piecewise-constant processes whose value
on each interval is decided from the path prefix available at the interval's
start.

Every strategy is a ``GridRuleStrategy``: a rule that maps an ensemble,
with its per-path side information, to one shared per-cell row or one
row per path, with a coefficient, a bound and an optional decay margin.
``legs_strategy`` builds one from an ordered list of legs, each ending
at a grid time or at a first-hitting rule, holding a constant or the
sign of the level at the leg's decision time; the legs are compiled into
the rule once.  Every rule only reads quantities available at each
cell's left endpoint.  Evaluation produces one value per grid cell,
applying on ``(t_k, t_{k+1}]``; one path is the one-row case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .path_core import Ensemble, TimeGrid, _mean_stderr, truncation_index

__all__ = [
    "EvalContext",
    "HitRule",
    "Leg",
    "GridRuleStrategy",
    "evaluate",
    "pi_for_ensemble",
    "h2_norm",
    "NormEstimate",
    "band_check",
    "BandReport",
    "legs_strategy",
    "const_strategy",
    "window_strategy",
    "sign_at_time_strategy",
    "truncation_strategy",
    "band_fraction_strategy",
    "insider_sign_band",
    "insider_switch_band",
    "load_strategy",
    "load_strategy_file",
]


@dataclass(frozen=True)
class EvalContext:
    """Side information available to strategy rules, one row per path.

    ``insider`` holds one time-0 datum per path, shape ``(n_paths,)``
    (the revealed terminal driver value in the enlarged-information
    runs); ``driver`` the ``(n_paths, n_points)`` values of the Brownian
    paths the traded paths are built on.  Each is None when absent.  A
    rule reads the running variation from ``ensemble.qv``.  Row r of each
    array belongs to row r of the ensemble, so the context of a row view
    (``Ensemble.blocks``) is the same rows of each array.
    """

    insider: np.ndarray | None = None
    driver: np.ndarray | None = None


@dataclass(frozen=True)
class HitRule:
    """First grid time at which a path statistic exceeds a threshold.

    ``metric`` is one of ``abs_level``, ``qv``, ``level_or_qv``.  When
    the threshold is never crossed the leg ends at ``default`` (a grid
    time), or collapses to an empty interval when ``default`` is None.
    """

    metric: str
    threshold: float
    default: float | None = None

    def __post_init__(self):
        if self.metric not in ("abs_level", "qv", "level_or_qv"):
            raise ConfigurationError(f"unknown hit metric {self.metric!r}")


@dataclass(frozen=True)
class Leg:
    """One strategy interval, ending at ``until``.

    ``rule_id`` ``const`` holds ``value``; ``sign_prefix_end`` holds
    ``value`` times the sign of the path level at the leg's decision
    time (+1 at level zero).
    """

    until: float | HitRule
    value: float
    rule_id: str = "const"

    def __post_init__(self):
        if self.rule_id not in ("const", "sign_prefix_end"):
            raise ConfigurationError(f"unknown leg rule_id {self.rule_id!r}")


@dataclass(frozen=True)
class GridRuleStrategy:
    """Vectorized proportion profile: one call yields all cell values.

    ``fn(ensemble, ctx)`` evaluates a whole ensemble at once: ``ensemble``
    has ``grid``, ``n_paths`` and the ``(n_paths, n_points)`` matrices
    ``values`` and ``qv``, and ``ctx`` is its ``EvalContext``.  It returns one
    shared per-cell row or a per-path matrix.  ``path_independent``
    declares that the rule returns the shared row, and is checked.  The
    rule must be a pure function of ``(ensemble, ctx)``: callers may
    reuse what it returned for the same ensemble.  Row r of a per-path
    profile must depend only on row r of the ensemble and of ``ctx``: the
    passes over an ensemble evaluate the rule on one row view
    (``Ensemble.blocks``) at a time, and the views' rows must be those of
    the whole ensemble's profile.

    The profile is ``scale * fn(ensemble, ctx)``, so rules that differ
    only by a coefficient can share one ``fn`` (the insider bands do);
    ``bound``, positive and finite, limits the scaled profile.  A
    ``margin`` in (0, 1] declares the decay ``|pi_t| <= (1 - margin)(1 - t)``,
    and every profile is held to it.  Callers that sum over a family may
    evaluate each shared ``fn`` once and apply the coefficients afterwards.
    """

    name: str
    bound: float
    fn: Callable[[Ensemble, EvalContext], np.ndarray]
    needs_insider: bool = False
    path_independent: bool = False
    scale: float = 1.0
    margin: float | None = None

    def __post_init__(self):
        if not (self.bound > 0 and np.isfinite(self.bound)):
            raise ConfigurationError("bound must be a positive finite number")
        if self.margin is not None and not (0.0 < self.margin <= 1.0):
            raise ConfigurationError("margin must lie in (0, 1]")


def _hit_end(ensemble: Ensemble, rule: HitRule, start, default) -> np.ndarray:
    # A statistic the metric leaves out is held at zero, which moves no first
    # crossing: zero never exceeds a nonnegative threshold, and both
    # statistics exceed a negative one at the first point.
    n_points = ensemble.grid.points.size
    zero = np.zeros(n_points)
    level = zero if rule.metric == "qv" else ensemble.values
    qv = zero if rule.metric == "abs_level" else ensemble.qv
    k = truncation_index(level, qv, rule.threshold, start)
    return np.where(k == n_points, start if default is None else default, k)


def _legs_profile(legs: tuple[Leg, ...], ensemble: Ensemble, ctx: EvalContext) -> np.ndarray:
    """Compiled legs: a shared row while every leg is, else one row per path.

    Each leg starts at the previous leg's end, one index per path once a
    hitting rule has ended a leg, and fills the cells up to its own end.
    """
    grid = ensemble.grid
    # Each fixed end and hitting-rule default is looked up on the grid before
    # any row is read, so a time off the grid fails whichever rows cross.
    ends = [grid.index_of(float(l.until)) if not isinstance(l.until, HitRule)
            else None if l.until.default is None else grid.index_of(l.until.default)
            for l in legs]
    cells = np.arange(grid.n_steps)
    pi = np.zeros(grid.n_steps)
    prev = 0
    for leg, end in zip(legs, ends):
        if isinstance(leg.until, HitRule):
            end = _hit_end(ensemble, leg.until, prev, end)
        end = np.maximum(end, prev)
        value = leg.value
        if leg.rule_id == "sign_prefix_end":
            level = ensemble.values[np.arange(ensemble.n_paths), prev]
            value = (value * np.where(level >= 0, 1.0, -1.0))[:, None]
        if np.ndim(end) or np.ndim(value):
            inside = (np.reshape(prev, (-1, 1)) <= cells) & (cells < np.reshape(end, (-1, 1)))
            pi = np.where(inside, value, pi)
        else:
            pi[..., prev:end] = value
        prev = end
    return pi


def _unit_profile(rule: GridRuleStrategy, ensemble: Ensemble, ctx: EvalContext) -> np.ndarray:
    """Run a grid rule's ``fn``, before its scale, and check its shape.

    The insider datum must be there when the rule needs one, and the
    profile must be one shared row or (unless the rule is
    path-independent) one row per path.
    """
    if rule.needs_insider and ctx.insider is None:
        raise ContractViolation(f"strategy {rule.name!r} needs an insider datum")
    pi = np.asarray(rule.fn(ensemble, ctx), dtype=float)
    row = (ensemble.grid.n_steps,)
    if pi.shape != row and (rule.path_independent or pi.shape != (ensemble.n_paths, *row)):
        raise ContractViolation("rule returned a wrongly shaped profile")
    return pi


def _rule_profile(rule: GridRuleStrategy, ensemble: Ensemble, ctx: EvalContext) -> np.ndarray:
    """A grid rule's profile: its checked unit profile times its scale, with
    no value above the declared bound and, when it declares one, inside
    its margin."""
    pi = _unit_profile(rule, ensemble, ctx)
    _check_profile(rule, np.abs(pi) if pi.ndim == 1 else np.abs(pi).max(axis=0), ensemble.grid)
    return pi if rule.scale == 1.0 else rule.scale * pi


def _check_profile(rule: GridRuleStrategy, peak: np.ndarray, grid: TimeGrid) -> None:
    """Refuse a rule whose profile exceeds its bound or, when it declares
    one, leaves its margin: some ``|pi_t|`` above ``(1 - margin)(1 - t)`` at
    a cell's left endpoint.

    ``peak`` is the column peak of the unit profile, its largest ``|x|`` in
    each cell; the profile's is ``|scale|`` times it, since ``|c| max|x|``
    rounds as ``max|c x|`` does.
    """
    peak = abs(rule.scale) * peak
    if peak.max(initial=0.0) > rule.bound + 1e-12:
        raise ContractViolation(f"strategy {rule.name!r} exceeded its declared bound")
    if rule.margin is not None and np.any(
            peak > (1.0 - rule.margin) * (1.0 - grid.points[:-1]) + 1e-12):
        raise ContractViolation(
            f"strategy {rule.name!r} leaves its declared margin: "
            f"|pi_t| exceeds (1 - {rule.margin:g})(1 - t)")


def pi_for_ensemble(
    strategy: GridRuleStrategy,
    ensemble: Ensemble,
    insider: np.ndarray | None = None,
    driver: np.ndarray | None = None,
) -> np.ndarray:
    """Proportions for every ensemble path: (n_cells,) when shared, else a matrix.

    ``insider`` and ``driver`` are the ``EvalContext`` rows.
    """
    return _rule_profile(strategy, ensemble, EvalContext(insider, driver))


def evaluate(
    strategy: GridRuleStrategy,
    path: Ensemble,
    ctx: EvalContext = EvalContext(),
) -> np.ndarray:
    """Per-cell proportions of a strategy along one path, a one-row ensemble.

    The one-row case of ``pi_for_ensemble``: ``ctx`` holds this path's
    side information, a datum and a driver row (flat or one-row).
    """
    if path.n_paths != 1:
        raise ContractViolation(f"evaluate takes one path, not {path.n_paths}")
    insider = None if ctx.insider is None else np.reshape(ctx.insider, (1,))
    driver = None if ctx.driver is None else np.reshape(ctx.driver, (1, -1))
    pi = pi_for_ensemble(strategy, path, insider, driver)
    return pi.reshape(-1, path.grid.n_steps)[0]


@dataclass(frozen=True)
class NormEstimate:
    value: float
    stderr: float
    n_paths: int


def h2_norm(strategy: GridRuleStrategy, ensemble: Ensemble) -> NormEstimate:
    """Monte-Carlo estimate of E of the pathwise integral of pi^2 against
    ``d[S]`` (``Ensemble.variation_increments``, jumps included), with the
    profile built and summed one row view at a time."""
    per_path = np.empty(ensemble.n_paths)
    for rows, part in ensemble.blocks():
        pi = pi_for_ensemble(strategy, part)
        per_path[rows] = np.sum(pi * pi * part.variation_increments(), axis=1)
    return NormEstimate(*_mean_stderr(per_path), ensemble.n_paths)


@dataclass(frozen=True)
class BandReport:
    admissible: bool
    violations: tuple[tuple[float, float], ...]


def band_check(
    strategy,
    grid: TimeGrid,
    probe: Ensemble | None = None,
    ctx: EvalContext = EvalContext(),
) -> BandReport:
    """Flag every grid time where |pi_t| reaches or exceeds 1 - t.

    The band is open, so equality counts as a violation.  Proportions
    are checked at each cell's left endpoint, the time the value was
    decided.  Path-dependent strategies are probed on the rows of
    ``probe``, with side information ``ctx``; with none given, one flat
    zero path with a zero driver and insider datum 0 is used.  Each
    violation reports the value of the first probe row that violates
    the band at that time.
    """
    if probe is None:
        zero = np.zeros((1, grid.points.size))
        probe, ctx = Ensemble(grid, zero, None, "probe"), EvalContext(np.zeros(1), zero)
    pi = np.atleast_2d(pi_for_ensemble(strategy, probe, ctx.insider, ctx.driver))
    t_left = grid.points[:-1]
    bad = np.abs(pi) >= 1.0 - t_left
    cols = np.flatnonzero(bad.any(axis=0))
    first = pi[bad.argmax(axis=0)[cols], cols]
    violations = tuple(zip(t_left[cols].tolist(), first.tolist()))
    return BandReport(admissible=not violations, violations=violations)


# ---------------------------------------------------------------------------
# Built-in strategies
# ---------------------------------------------------------------------------

def legs_strategy(legs: Sequence[Leg], bound: float, name: str = "") -> GridRuleStrategy:
    """Ordered legs covering (0, 1], compiled once into a grid rule.

    There must be at least one leg, the last must end at time 1, and the
    fixed end times must not decrease.
    """
    legs = tuple(legs)
    if not legs:
        raise ConfigurationError("strategy needs at least one leg")
    last = legs[-1].until
    if isinstance(last, HitRule) or float(last) != 1.0:
        raise ConfigurationError("the final leg must end at time 1")
    fixed = [float(l.until) for l in legs if not isinstance(l.until, HitRule)]
    if any(b < a for a, b in zip(fixed, fixed[1:])):
        raise ConfigurationError("leg end times must be non-decreasing")
    return GridRuleStrategy(name, bound, partial(_legs_profile, legs))


def const_strategy(c: float, name: str | None = None) -> GridRuleStrategy:
    """pi identically c on (0, 1]."""
    return legs_strategy((Leg(until=1.0, value=float(c)),), max(abs(c), 1e-12),
                         name or f"const({c:g})")


def window_strategy(c: float, a: float, b: float, name: str | None = None) -> GridRuleStrategy:
    """pi = c on (a, b], zero elsewhere; a and b must be grid times."""
    legs = []
    if a > 0.0:
        legs.append(Leg(until=a, value=0.0))
    legs.append(Leg(until=b, value=float(c)))
    if b < 1.0:
        legs.append(Leg(until=1.0, value=0.0))
    return legs_strategy(legs, max(abs(c), 1e-12), name or f"window({c:g},{a:g},{b:g})")


def sign_at_time_strategy(t0: float, scale: float = 1.0) -> GridRuleStrategy:
    """pi = scale * sign(level at t0) on (t0, 1], zero before; +scale at level zero."""
    legs = (Leg(t0, 0.0), Leg(1.0, float(scale), "sign_prefix_end"))
    return legs_strategy(legs, max(abs(scale), 1e-12), f"sign_at({t0:g})*{scale:g}")


def truncation_strategy(n: float) -> GridRuleStrategy:
    """pi = 1 up to the first time level or variation exceeds n, then 0."""
    legs = (Leg(HitRule("level_or_qv", n, default=1.0), 1.0), Leg(1.0, 0.0))
    return legs_strategy(legs, 1.0, f"truncation({n:g})")


def _band(c: float, margin: float | None, name: str, fn, **flags) -> GridRuleStrategy:
    """A ``pi_t = c (1 - t)`` rule, up to sign: bound ``|c| < 1``, margin ``1 - |c|``.

    ``fn`` is the unit shape (``c = 1``) and ``c`` its scale.  Every
    shape is ``+-(1 - t)``; multiplying by +-1 is exact and rounding is
    symmetric in sign, so ``c * shape`` is bit for bit the profile
    written with ``c`` inside.
    """
    if not (-1.0 < c < 1.0):
        raise ConfigurationError("band fraction needs |c| < 1")
    return GridRuleStrategy(f"{name}({c:+.3g})", max(abs(c), 1e-12), fn, scale=float(c),
                            margin=margin if margin is not None else 1.0 - abs(c), **flags)


def _band_shape(ensemble: Ensemble, ctx: EvalContext) -> np.ndarray:
    return 1.0 - ensemble.grid.points[:-1]


def _sign_band_shape(ensemble: Ensemble, ctx: EvalContext) -> np.ndarray:
    s = np.where(np.asarray(ctx.insider) >= 0, 1.0, -1.0)
    return s[:, None] * (1.0 - ensemble.grid.points[:-1])


def _switch_band_shape(ensemble: Ensemble, ctx: EvalContext) -> np.ndarray:
    if ctx.driver is None:
        raise ContractViolation("switch rule needs the driver path")
    gap = np.asarray(ctx.insider)[:, None] - ctx.driver[:, :-1]
    row = 1.0 - ensemble.grid.points[:-1]
    return np.where(gap >= 0, row, -row)


def band_fraction_strategy(c: float, margin: float | None = None) -> GridRuleStrategy:
    """pi_t = c (1 - t), evaluated at each cell's left endpoint."""
    return _band(c, margin, "band", _band_shape, path_independent=True)


def insider_sign_band(c: float, margin: float | None = None) -> GridRuleStrategy:
    """pi_t = c (1 - t) sign(revealed terminal driver value)."""
    return _band(c, margin, "sign_band", _sign_band_shape, needs_insider=True)


def insider_switch_band(c: float, margin: float | None = None) -> GridRuleStrategy:
    """pi_t = c (1 - t) sign(insider datum minus current driver level).

    The comparison uses the driver level at each cell's left endpoint,
    so every cell's value is decided before the cell starts.
    """
    return _band(c, margin, "switch_band", _switch_band_shape, needs_insider=True)


# ---------------------------------------------------------------------------
# JSON description files
# ---------------------------------------------------------------------------

def _leg_from_json(obj: dict) -> Leg:
    until = obj["until"]
    if isinstance(until, dict):
        default = until.get("default")
        until = HitRule(
            metric=until.get("metric", "level_or_qv"),
            threshold=float(until["threshold"]),
            default=None if default is None else float(default),
        )
    rid = obj.get("rule_id", "const")
    params = obj.get("params", {})
    if rid == "const":
        return Leg(until, float(params.get("value", 0.0)))
    if rid == "sign_prefix_end":
        return Leg(until, float(params.get("scale", 1.0)), rid)
    raise ConfigurationError(f"unknown leg rule_id {rid!r}")


def load_strategy(obj: dict) -> GridRuleStrategy:
    """Build a strategy from its JSON description.

    Either a ``legs`` list (rule_ids ``const``, ``sign_prefix_end``) or a
    top-level ``rule_id`` shorthand (``const``, ``band_fraction``,
    ``truncation``, ``sign_prefix_end``).  An optional ``name`` replaces
    the built-in one, and an optional ``margin`` is the strategy's
    declared decay margin.
    """
    name = obj.get("name", "")
    margin = obj.get("margin")
    rid = obj.get("rule_id")
    params = obj.get("params", {})
    if "legs" in obj:
        legs = tuple(_leg_from_json(l) for l in obj["legs"])
        bound = obj.get("bound")
        if bound is None:
            # the largest value or sign scale of any leg
            bound = max((abs(l.value) for l in legs), default=1.0) or 1.0
        out = legs_strategy(legs, float(bound))
    elif rid == "const":
        out = const_strategy(float(params["value"]))
    elif rid == "band_fraction":
        out = band_fraction_strategy(float(params["c"]))
    elif rid == "truncation":
        out = truncation_strategy(float(params["n"]))
    elif rid == "sign_prefix_end":
        out = sign_at_time_strategy(float(params.get("t0", 0.5)), float(params.get("scale", 1.0)))
    else:
        raise ConfigurationError(f"strategy file needs 'legs' or a known 'rule_id', got {rid!r}")
    if name:
        out = replace(out, name=name)
    return out if margin is None else replace(out, margin=margin)


def load_strategy_file(path: str | Path):
    """Load one strategy or a list of them from a JSON file; JSON of the
    wrong shape or with values a strategy refuses raises ValueError naming
    the file."""
    obj = json.loads(Path(path).read_text())
    try:
        if isinstance(obj, list):
            return [load_strategy(o) for o in obj]
        return load_strategy(obj)
    except (AttributeError, TypeError, ConfigurationError) as exc:
        raise ValueError(f"{path} is not a strategy description: {exc}") from exc
