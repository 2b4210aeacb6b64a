"""Portfolio-proportion strategies: piecewise-constant processes whose value
on each interval is decided from the path prefix available at the interval's
start.

Two carriers are provided.  ``SimpleStrategy`` is the explicit form: an
ordered list of legs, each ending at a grid time or at a first-hitting
rule, with a constant value or a prefix callback.  ``GridRuleStrategy``
evaluates a whole proportion profile in one vectorized call; every
built-in profile rule only reads quantities available at each cell's
left endpoint, so the two carriers share the same predictability
discipline.  Evaluation produces one value per grid cell, applying on
``(t_k, t_{k+1}]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .path_core import Ensemble, QVPath, SamplePath, TimeGrid, _mean_stderr
from .path_core import quadratic_variation, truncation_index

__all__ = [
    "EvalContext",
    "PathPrefix",
    "HitRule",
    "Leg",
    "SimpleStrategy",
    "GridRuleStrategy",
    "BandStrategy",
    "evaluate",
    "pi_for_ensemble",
    "h2_norm",
    "NormEstimate",
    "band_check",
    "BandReport",
    "shares_from_proportion",
    "proportion_from_shares",
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
    """Side information available to strategy rules on one path.

    ``insider`` is a time-0 datum (the revealed terminal driver value in
    the enlarged-information runs); ``driver`` is the underlying Brownian
    path when the traded path is built on one; ``qv`` feeds hitting rules
    on the running variation.
    """

    insider: float | None = None
    driver: SamplePath | None = None
    qv: QVPath | None = None


class PathPrefix:
    """Read-only view of a path up to a decision index, handed to leg rules.

    Rules see only ``values[:end+1]`` (and the driver prefix), enforcing
    that a leg's value depends on nothing after its decision time.
    """

    def __init__(self, path: SamplePath, end: int, ctx: EvalContext):
        self._path = path
        self.end = end
        self.points = path.grid.points[: end + 1]
        self.values = path.values[: end + 1]
        self.insider = ctx.insider
        self.driver_values = None if ctx.driver is None else ctx.driver.values[: end + 1]
        self.jumps = tuple(j for j in path.jumps if j[0] <= path.grid.points[end])

    @property
    def decision_time(self) -> float:
        return float(self.points[-1])

    @property
    def last(self) -> float:
        return float(self.values[-1])


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
    """One strategy interval: ends at ``until``, holds value or rule output."""

    until: float | HitRule
    value: float | None = None
    rule: Callable[[PathPrefix], float] | None = None

    def __post_init__(self):
        if (self.value is None) == (self.rule is None):
            raise ConfigurationError("a leg needs exactly one of value / rule")


@dataclass(frozen=True)
class SimpleStrategy:
    """Ordered legs covering (0, 1]: the last leg must end at time 1."""

    legs: tuple[Leg, ...]
    bound: float
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "legs", tuple(self.legs))
        if not self.legs:
            raise ConfigurationError("strategy needs at least one leg")
        last = self.legs[-1].until
        if isinstance(last, HitRule) or float(last) != 1.0:
            raise ConfigurationError("the final leg must end at time 1")
        fixed = [float(l.until) for l in self.legs if not isinstance(l.until, HitRule)]
        if any(b < a for a, b in zip(fixed, fixed[1:])):
            raise ConfigurationError("leg end times must be non-decreasing")
        if self.bound <= 0 or not np.isfinite(self.bound):
            raise ConfigurationError("bound must be a positive finite number")


@dataclass(frozen=True)
class GridRuleStrategy:
    """Vectorized proportion profile: one call yields all cell values.

    ``fn(path, ctx)`` returns the per-cell proportions of one path.
    ``matrix_fn(ensemble, qv_vals, insider, driver)``, when present,
    evaluates a whole ensemble at once: ``ensemble`` has ``grid``,
    ``n_paths`` and the ``(n_paths, n_points)`` matrix ``values`` (an
    ``Ensemble`` or a ``BundleEnsemble``); ``qv_vals`` and ``driver`` are
    matrices of the same shape, and ``insider`` one datum per path, each
    None when the caller has none.  It returns a shared per-cell vector
    or a per-path matrix, which must equal the rows ``fn`` gives.  Both
    forms pass the same shape, bound and insider checks.
    ``path_independent`` promises one profile for every path, so it is
    evaluated once.
    """

    name: str
    bound: float
    fn: Callable[[SamplePath, EvalContext], np.ndarray]
    matrix_fn: Callable | None = None
    needs_insider: bool = False
    path_independent: bool = False


@dataclass(frozen=True)
class BandStrategy:
    """A strategy with declared decay margin: |pi_t| <= (1-margin)(1-t)."""

    strategy: SimpleStrategy | GridRuleStrategy
    margin: float

    def __post_init__(self):
        if not (0.0 < self.margin <= 1.0):
            raise ConfigurationError("margin must lie in (0, 1]")

    @property
    def name(self) -> str:
        return self.strategy.name

    @property
    def bound(self) -> float:
        return self.strategy.bound


def _first_hit(path: SamplePath, ctx: EvalContext, rule: HitRule, start: int) -> int:
    # A statistic the metric leaves out is held at zero, which moves no first
    # crossing: zero never exceeds a nonnegative threshold, and both
    # statistics exceed a negative one at the first point.
    zero = np.zeros(path.values.size)
    level = zero if rule.metric == "qv" else path.values
    if rule.metric == "abs_level":
        qv = zero
    else:
        qv = (ctx.qv if ctx.qv is not None else quadratic_variation(path)).values
    k = start + truncation_index(level[start:], qv[start:], rule.threshold)
    if k < path.values.size:
        return k
    if rule.default is None:
        return start
    return path.grid.index_of(rule.default)


def _rule_profile(
    strategy: GridRuleStrategy, has_insider: bool, rule: Callable[[], np.ndarray], shapes
) -> np.ndarray:
    """Run one of a grid rule's forms and check what it returns.

    Shared by the per-path and the matrix form: the insider datum must be
    there when the rule needs one, the profile must have one of
    ``shapes``, and no value may exceed the declared bound.
    """
    if strategy.needs_insider and not has_insider:
        raise ContractViolation(f"strategy {strategy.name!r} needs an insider datum")
    pi = np.asarray(rule(), dtype=float)
    if pi.shape not in shapes:
        raise ContractViolation("rule returned a wrongly shaped profile")
    if max(pi.max(initial=0.0), -pi.min(initial=0.0)) > strategy.bound + 1e-12:
        raise ContractViolation(f"strategy {strategy.name!r} exceeded its declared bound")
    return pi


def evaluate(
    strategy: SimpleStrategy | GridRuleStrategy | BandStrategy,
    path: SamplePath,
    ctx: EvalContext = EvalContext(),
) -> np.ndarray:
    """Per-cell proportions of a strategy along one path.

    Cell k's value applies on ``(t_k, t_{k+1}]``; leg rules receive the
    prefix up to the leg's decision time only.
    """
    if isinstance(strategy, BandStrategy):
        return evaluate(strategy.strategy, path, ctx)
    if isinstance(strategy, GridRuleStrategy):
        return _rule_profile(
            strategy, ctx.insider is not None, lambda: strategy.fn(path, ctx),
            [(path.grid.n_steps,)],
        )
    grid = path.grid
    pi = np.zeros(grid.n_steps)
    prev = 0
    for leg in strategy.legs:
        if isinstance(leg.until, HitRule):
            end = _first_hit(path, ctx, leg.until, prev)
        else:
            end = grid.index_of(float(leg.until))
        end = max(end, prev)
        if end > prev:
            k = leg.value if leg.rule is None else float(leg.rule(PathPrefix(path, prev, ctx)))
            if abs(k) > strategy.bound + 1e-12:
                raise ContractViolation(f"strategy {strategy.name!r} exceeded its declared bound")
            pi[prev:end] = k
        prev = end
    return pi


def pi_for_ensemble(
    strategy,
    ensemble: Ensemble,
    qv_vals: np.ndarray | None = None,
    insider: np.ndarray | None = None,
    driver: np.ndarray | None = None,
) -> np.ndarray:
    """Proportions for every ensemble path: (n_cells,) when shared, else a matrix.

    A grid rule with a matrix form is evaluated in one call; a
    path-independent strategy once, on path 0; anything else path by path.
    ``ensemble`` may be an ``Ensemble`` or a ``BundleEnsemble``; ``driver``
    is the matrix of driver values the paths are built on, when they are.
    """
    if isinstance(strategy, BandStrategy):
        strategy = strategy.strategy
    grid = ensemble.grid
    if isinstance(strategy, GridRuleStrategy) and strategy.matrix_fn is not None:
        return _rule_profile(
            strategy, insider is not None,
            lambda: strategy.matrix_fn(ensemble, qv_vals, insider, driver),
            [(grid.n_steps,), (ensemble.n_paths, grid.n_steps)],
        )

    def ctx(i: int) -> EvalContext:
        return EvalContext(
            insider=None if insider is None else float(insider[i]),
            driver=None if driver is None else SamplePath(grid, driver[i]),
            qv=None if qv_vals is None else QVPath(grid, qv_vals[i]),
        )

    if isinstance(strategy, GridRuleStrategy) and strategy.path_independent:
        return evaluate(strategy, ensemble.path(0), ctx(0))
    if isinstance(strategy, SimpleStrategy) and all(
        not isinstance(l.until, HitRule) and l.rule is None for l in strategy.legs
    ):
        # Path-independent legs: evaluate once on any representative path.
        return evaluate(strategy, ensemble.path(0))
    return np.stack([evaluate(strategy, ensemble.path(i), ctx(i)) for i in range(ensemble.n_paths)])


@dataclass(frozen=True)
class NormEstimate:
    value: float
    stderr: float
    n_paths: int


def h2_norm(
    strategy,
    ensemble: Ensemble,
    qv_vals: np.ndarray,
    insider: np.ndarray | None = None,
) -> NormEstimate:
    """Monte-Carlo estimate of E of the pathwise integral of pi^2 against
    the running variation (jump contributions included via the variation
    increments themselves)."""
    if ensemble.n_paths < 1:
        raise ContractViolation("empty ensemble")
    pi = pi_for_ensemble(strategy, ensemble, qv_vals, insider)
    dqv = np.diff(qv_vals, axis=1)
    per_path = np.sum(pi * pi * dqv, axis=1)
    return NormEstimate(*_mean_stderr(per_path), ensemble.n_paths)


@dataclass(frozen=True)
class BandReport:
    admissible: bool
    violations: tuple[tuple[float, float], ...]


def band_check(
    strategy,
    grid: TimeGrid,
    probe_paths: Sequence[SamplePath] = (),
    ctxs: Sequence[EvalContext] = (),
) -> BandReport:
    """Flag every grid time where |pi_t| reaches or exceeds 1 - t.

    The band is open, so equality counts as a violation.  Proportions
    are checked at each cell's left endpoint, the time the value was
    decided.  Path-dependent strategies are probed on the supplied
    paths; with none given, a flat zero path is used.
    """
    if not probe_paths:
        probe_paths = [SamplePath(grid, np.zeros(grid.points.size))]
        ctxs = [EvalContext(insider=0.0)]
    if not ctxs:
        ctxs = [EvalContext()] * len(probe_paths)
    t_left = grid.points[:-1]
    seen: dict[float, float] = {}
    for path, ctx in zip(probe_paths, ctxs):
        pi = evaluate(strategy, path, ctx)
        bad = np.abs(pi) >= 1.0 - t_left
        for k in np.nonzero(bad)[0]:
            seen.setdefault(float(t_left[k]), float(pi[k]))
    violations = tuple(sorted(seen.items()))
    return BandReport(admissible=not violations, violations=violations)


def shares_from_proportion(pi_t: float, wealth: float, price: float) -> float:
    """Share count holding proportion ``pi_t`` of ``wealth`` at ``price``."""
    if price <= 0 or wealth <= 0:
        raise ContractViolation("wealth and price must be positive")
    return pi_t * wealth / price


def proportion_from_shares(shares: float, wealth: float, price: float) -> float:
    if price <= 0 or wealth <= 0:
        raise ContractViolation("wealth and price must be positive")
    return shares * price / wealth


# ---------------------------------------------------------------------------
# Built-in strategies
# ---------------------------------------------------------------------------

def const_strategy(c: float, name: str | None = None) -> SimpleStrategy:
    """pi identically c on (0, 1]."""
    return SimpleStrategy(
        (Leg(until=1.0, value=float(c)),),
        bound=max(abs(c), 1e-12),
        name=name or f"const({c:g})",
    )


def window_strategy(c: float, a: float, b: float, name: str | None = None) -> SimpleStrategy:
    """pi = c on (a, b], zero elsewhere; a and b must be grid times."""
    legs = []
    if a > 0.0:
        legs.append(Leg(until=a, value=0.0))
    legs.append(Leg(until=b, value=float(c)))
    if b < 1.0:
        legs.append(Leg(until=1.0, value=0.0))
    return SimpleStrategy(tuple(legs), bound=max(abs(c), 1e-12), name=name or f"window({c:g},{a:g},{b:g})")


def sign_at_time_strategy(t0: float, scale: float = 1.0) -> GridRuleStrategy:
    """pi = scale * sign(level at t0) on (t0, 1], zero before."""

    def fn(path: SamplePath, ctx: EvalContext) -> np.ndarray:
        grid = path.grid
        k0 = grid.index_of(t0)
        pi = np.zeros(grid.n_steps)
        pi[k0:] = scale * np.sign(path.values[k0]) if path.values[k0] != 0 else scale
        return pi

    def matrix_fn(ensemble: Ensemble, qv_vals, insider, driver) -> np.ndarray:
        k0 = ensemble.grid.index_of(t0)
        s = np.sign(ensemble.values[:, k0])
        s[s == 0] = 1.0
        pi = np.zeros((ensemble.n_paths, ensemble.grid.n_steps))
        pi[:, k0:] = scale * s[:, None]
        return pi

    return GridRuleStrategy(f"sign_at({t0:g})*{scale:g}", abs(scale), fn, matrix_fn)


def truncation_strategy(n: float) -> GridRuleStrategy:
    """pi = 1 up to the first time level or variation exceeds n, then 0."""

    def profile(values: np.ndarray, qv_vals: np.ndarray) -> np.ndarray:
        stop = np.asarray(truncation_index(values, qv_vals, n))
        return (np.arange(values.shape[-1] - 1) < stop[..., None]).astype(float)

    def fn(path: SamplePath, ctx: EvalContext) -> np.ndarray:
        qv = ctx.qv if ctx.qv is not None else quadratic_variation(path)
        return profile(path.values, qv.values)

    def matrix_fn(ensemble: Ensemble, qv_vals, insider, driver) -> np.ndarray:
        if qv_vals is None:
            raise ContractViolation("truncation strategy needs per-path variation")
        return profile(ensemble.values, qv_vals)

    return GridRuleStrategy(f"truncation({n:g})", 1.0, fn, matrix_fn)


def _band(c: float, margin: float | None, name: str, fn, matrix_fn, **flags) -> BandStrategy:
    """A ``pi_t = c (1 - t)`` rule, up to sign: bound ``|c| < 1``, margin ``1 - |c|``."""
    if not (-1.0 < c < 1.0):
        raise ConfigurationError("band fraction needs |c| < 1")
    inner = GridRuleStrategy(f"{name}({c:+.3g})", max(abs(c), 1e-12), fn, matrix_fn, **flags)
    return BandStrategy(inner, margin if margin is not None else 1.0 - abs(c))


def band_fraction_strategy(c: float, margin: float | None = None) -> BandStrategy:
    """pi_t = c (1 - t), evaluated at each cell's left endpoint."""

    def fn(path: SamplePath, ctx: EvalContext) -> np.ndarray:
        return c * (1.0 - path.grid.points[:-1])

    def matrix_fn(ensemble: Ensemble, qv_vals, insider, driver) -> np.ndarray:
        return c * (1.0 - ensemble.grid.points[:-1])

    return _band(c, margin, "band", fn, matrix_fn, path_independent=True)


def insider_sign_band(c: float, margin: float | None = None) -> BandStrategy:
    """pi_t = c (1 - t) sign(revealed terminal driver value)."""

    def fn(path: SamplePath, ctx: EvalContext) -> np.ndarray:
        s = 1.0 if ctx.insider >= 0 else -1.0
        return c * s * (1.0 - path.grid.points[:-1])

    def matrix_fn(ensemble, qv_vals, insider, driver) -> np.ndarray:
        s = np.where(np.asarray(insider) >= 0, 1.0, -1.0)
        return (c * s)[:, None] * (1.0 - ensemble.grid.points[:-1])

    return _band(c, margin, "sign_band", fn, matrix_fn, needs_insider=True)


def insider_switch_band(c: float, margin: float | None = None) -> BandStrategy:
    """pi_t = c (1 - t) sign(insider datum minus current driver level).

    The comparison uses the driver level at each cell's left endpoint,
    so every cell's value is decided before the cell starts.
    """

    def fn(path: SamplePath, ctx: EvalContext) -> np.ndarray:
        if ctx.driver is None:
            raise ContractViolation("switch rule needs the driver path")
        gap = ctx.insider - ctx.driver.values[:-1]
        s = np.where(gap >= 0, 1.0, -1.0)
        return c * s * (1.0 - path.grid.points[:-1])

    def matrix_fn(ensemble, qv_vals, insider, driver) -> np.ndarray:
        if driver is None:
            raise ContractViolation("switch rule needs the driver path")
        gap = np.asarray(insider)[:, None] - driver[:, :-1]
        # (c * (+-1)) * x == +-(c * x) exactly, so this equals fn bit for bit
        row = c * (1.0 - ensemble.grid.points[:-1])
        return np.where(gap >= 0, row, -row)

    return _band(c, margin, "switch_band", fn, matrix_fn, needs_insider=True)


# ---------------------------------------------------------------------------
# JSON description files
# ---------------------------------------------------------------------------

def _leg_from_json(obj: dict) -> tuple[Leg, float]:
    """A leg and the largest absolute proportion it can hold."""
    until = obj["until"]
    if isinstance(until, dict):
        until = HitRule(
            metric=until.get("metric", "level_or_qv"),
            threshold=float(until["threshold"]),
            default=until.get("default"),
        )
    rid = obj.get("rule_id", "const")
    params = obj.get("params", {})
    if rid == "const":
        value = float(params.get("value", 0.0))
        return Leg(until=until, value=value), abs(value)
    if rid == "sign_prefix_end":
        scale = float(params.get("scale", 1.0))
        return Leg(until=until, rule=lambda p: scale * (1.0 if p.last >= 0 else -1.0)), abs(scale)
    raise ConfigurationError(f"unknown leg rule_id {rid!r}")


def load_strategy(obj: dict):
    """Build a strategy from its JSON description.

    Either a ``legs`` list (rule_ids ``const``, ``sign_prefix_end``) or a
    top-level ``rule_id`` shorthand (``const``, ``band_fraction``,
    ``truncation``, ``sign_prefix_end``).  An optional ``margin`` wraps
    the result as a band strategy.
    """
    name = obj.get("name", "")
    margin = obj.get("margin")
    if "legs" in obj:
        pairs = [_leg_from_json(l) for l in obj["legs"]]
        # without a declared bound: the largest value or sign scale of any leg
        bound = float(obj.get("bound") or max((size for _, size in pairs), default=1.0) or 1.0)
        out = SimpleStrategy(tuple(leg for leg, _ in pairs), bound=bound, name=name)
        return BandStrategy(out, margin) if margin is not None else out
    rid = obj.get("rule_id")
    params = obj.get("params", {})
    if rid == "const":
        out = const_strategy(float(params["value"]), name=name or None)
    elif rid == "band_fraction":
        return band_fraction_strategy(float(params["c"]), margin)
    elif rid == "truncation":
        out = truncation_strategy(float(params["n"]))
    elif rid == "sign_prefix_end":
        out = sign_at_time_strategy(float(params.get("t0", 0.5)), float(params.get("scale", 1.0)))
    else:
        raise ConfigurationError(f"strategy file needs 'legs' or a known 'rule_id', got {rid!r}")
    return BandStrategy(out, margin) if margin is not None else out


def load_strategy_file(path: str | Path):
    """Load one strategy or a list of strategies from a JSON file."""
    obj = json.loads(Path(path).read_text())
    if isinstance(obj, list):
        return [load_strategy(o) for o in obj]
    return load_strategy(obj)
