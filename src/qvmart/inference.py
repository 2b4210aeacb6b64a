"""Empirical drift decomposition and growth-optimality checks.

The estimator recovers the drift density alpha in the representation

    S_t = S_hat_t + integral of alpha d[S]

by a per-bin ratio of sums: within each (time, state) bin, alpha_hat is
the total path increment divided by the total variation increment, the
exact least-squares solution of dS ~ alpha d[S] on bin-measurable test
functions.  ``d[S]`` is ``Ensemble.variation_increments``, read one row
block at a time.  Recentring S by the fitted drift yields paths whose
simple integrals against bounded test strategies should be statistically
zero: ``estimate_lambda`` on the recentred paths gives the z-scores of
those martingale diagnostics.  The strategy family is the unit of the
drift estimators: ``estimate_lambda`` and ``optimality_gap`` take a list
of strategies and make one pass over the row views for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .path_core import Ensemble, TimeGrid, _mean_stderr, truncation_index
from .strategy import GridRuleStrategy, h2_norm, pi_for_ensemble
from .wealth import UtilityReport, log_utility
from .wealth import _continuous_sum, _moments

__all__ = [
    "BinSpec",
    "DriftEstimate",
    "LambdaEstimate",
    "DecompositionResult",
    "GrowthReport",
    "GapReport",
    "estimate_lambda",
    "choose_truncation_level",
    "estimate_alpha",
    "cell_alpha",
    "decompose",
    "growth_optimal_value",
    "optimality_gap",
    "cauchy_schwarz_bound_check",
]


@dataclass(frozen=True)
class BinSpec:
    """Binning for the drift estimator: uniform time bins, optional
    quantile state bins on the path level at each cell's left endpoint."""

    time_bins: int = 32
    state_bins: int = 0
    min_count: int = 50

    def __post_init__(self):
        if self.time_bins < 1 or self.state_bins < 0 or self.min_count < 1:
            raise ContractViolation("invalid bin specification")

    @property
    def n_bins(self) -> int:
        return self.time_bins * max(1, self.state_bins)


@dataclass(frozen=True)
class DriftEstimate:
    """Per-bin drift density with uncertainty and coverage metadata.

    Bins with fewer than ``min_count`` increments carry ``estimated[b] =
    False`` and alpha NaN; downstream consumers must treat them
    explicitly rather than as zero.
    """

    bin_spec: BinSpec
    time_edges: np.ndarray
    state_edges: np.ndarray | None
    alpha: np.ndarray
    stderr: np.ndarray
    count: np.ndarray
    estimated: np.ndarray
    mass: np.ndarray  # total variation increment per bin, for error propagation

    def rows(self) -> list[dict]:
        out = []
        nt, ns = self.bin_spec.time_bins, max(1, self.bin_spec.state_bins)
        for b in range(self.alpha.size):
            tb, sb = divmod(b, ns)
            out.append(
                {
                    "bin_start": float(self.time_edges[tb]),
                    "bin_end": float(self.time_edges[tb + 1]),
                    "state_bin": sb if self.bin_spec.state_bins else None,
                    "alpha": float(self.alpha[b]) if self.estimated[b] else None,
                    "stderr": float(self.stderr[b]) if self.estimated[b] else None,
                    "count": int(self.count[b]),
                }
            )
        return out


@dataclass(frozen=True)
class LambdaEstimate:
    """Monte-Carlo mean of the terminal simple integral of a strategy; on
    recentred paths, |z| <= 3 is the martingale diagnostic's pass condition."""

    value: float
    stderr: float
    strategy: str
    n_paths: int

    @property
    def z(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.value == 0.0 else np.inf
        return self.value / self.stderr

    @property
    def passed(self) -> bool:
        return abs(self.z) <= 3.0


@dataclass(frozen=True)
class DecompositionResult:
    """``reconstruction_error`` is the largest gap of ``S_hat + sum alpha
    d[S]`` against the original paths, NaN when a path holds a NaN."""

    alpha: DriftEstimate
    s_hat: Ensemble
    coverage: float
    reconstruction_error: float


def _require_continuous(ensemble: Ensemble) -> None:
    if ensemble.jump_path.size:
        raise ContractViolation("this estimator expects a continuous-model ensemble")


def choose_truncation_level(ensemble: Ensemble, target: float = 0.99) -> float:
    """Smallest power-of-two threshold leaving at least ``target`` of the
    paths unstopped: a path stops at ``n`` when the peak of its level and
    variation exceeds ``n`` (``fmax`` skips NaN, as the comparisons do)."""
    peak = np.empty(ensemble.n_paths)
    for rows, part in ensemble.blocks():  # each view's own qv, the rows of the whole one
        peak[rows] = np.fmax.reduce(np.fmax(np.abs(part.values), part.qv), axis=1)
    n = 1.0
    for _ in range(64):
        frac_free = 1.0 - np.count_nonzero(peak > n) / ensemble.n_paths
        if frac_free >= target:
            return n
        n *= 2.0
    raise ContractViolation("no reasonable truncation level keeps enough paths")


def estimate_lambda(
    strategies: list[GridRuleStrategy],
    ensemble: Ensemble,
    stop_n: float | None = None,
) -> list[LambdaEstimate]:
    """Mean terminal value of each strategy's simple integral against the
    paths, with its standard error, in family order.

    ``stop_n`` zeroes every increment after the path's level/variation
    truncation time, the bounded-support discipline that keeps the
    estimate finite on heavy models.  One pass over the row views builds
    each view's increments, stops and running variation once for every
    strategy, then each strategy's profile and sums on the view.
    """
    cells = np.arange(ensemble.grid.n_steps)
    per_path = np.empty((len(strategies), ensemble.n_paths))
    for rows, part in ensemble.blocks():
        ds = np.diff(part.values, axis=1)
        if stop_n is not None:
            ds *= cells < truncation_index(part.values, part.qv, stop_n)[:, None]
        for strat, out in zip(strategies, per_path):
            out[rows] = np.sum(pi_for_ensemble(strat, part) * ds, axis=1)
    return [LambdaEstimate(*_mean_stderr(p), s.name, ensemble.n_paths)
            for s, p in zip(strategies, per_path)]


def estimate_alpha(ensemble: Ensemble, bin_spec: BinSpec = BinSpec()) -> DriftEstimate:
    """Per-bin ratio-of-sums drift density alpha_hat = sum dS / sum d[S].

    Standard errors treat paths as the independent unit (cells within a
    path are summed first), which is exact for the ratio estimator under
    path-level resampling.  The per-path sums of ``dS`` and of ``d[S]``
    (``Ensemble.variation_increments``) are taken one row block at a
    time; time-only binning is the case of one state bin, to the bit.
    """
    _require_continuous(ensemble)
    grid, vals = ensemble.grid, ensemble.values
    time_edges = np.linspace(0.0, 1.0, bin_spec.time_bins + 1)
    state_edges = None
    if bin_spec.state_bins:
        qs = np.linspace(0.0, 1.0, bin_spec.state_bins + 1)[1:-1]
        state_edges = np.quantile(vals[:, :-1], qs)
    P = ensemble.n_paths
    B = bin_spec.n_bins
    num = np.empty((P, B))  # (paths, bins): per-path, per-bin sums
    den = np.empty((P, B))
    cnt = np.zeros(B)
    for rows, part in ensemble.blocks():
        n_rows = part.n_paths
        bins = np.broadcast_to(_cell_bins(bin_spec, time_edges, state_edges, grid, part.values),
                               (n_rows, grid.n_steps))
        cnt += np.bincount(bins.ravel(), minlength=B)
        # each (row, bin) of the block as one index; bincount adds its
        # weights in cell order from 0.0, as a running sum would
        keys = (bins + B * np.arange(n_rows)[:, None]).ravel()
        for out, inc in ((num, np.diff(part.values, axis=1)), (den, part.variation_increments())):
            out[rows] = np.bincount(keys, inc.ravel(), n_rows * B).reshape(n_rows, B)
    tot_num = num.sum(axis=0)
    tot_den = den.sum(axis=0)
    estimated = (cnt >= bin_spec.min_count) & (tot_den > 0.0)
    alpha = np.full(B, np.nan)
    stderr = np.full(B, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha[estimated] = tot_num[estimated] / tot_den[estimated]
    for b in np.nonzero(estimated)[0]:
        resid = num[:, b] - alpha[b] * den[:, b]
        stderr[b] = np.sqrt(np.sum(resid * resid) * P / max(P - 1, 1)) / tot_den[b]
    return DriftEstimate(
        bin_spec, time_edges, state_edges, alpha, stderr, cnt.astype(int), estimated, tot_den
    )


def _cell_bins(
    spec: BinSpec, time_edges: np.ndarray, state_edges: np.ndarray | None, grid: TimeGrid,
    values: np.ndarray,
) -> np.ndarray:
    """Bin of every grid cell, by its left endpoint's time and path level.

    A per-cell vector for time-only binning; a ``(rows, cells)`` matrix
    for the paths ``values`` when state bins are active.
    """
    t_left = grid.points[:-1]
    tb = np.clip(np.searchsorted(time_edges, t_left, side="right") - 1, 0, spec.time_bins - 1)
    if not spec.state_bins:
        return tb
    sb = np.searchsorted(state_edges, values[:, :-1], side="right")
    sb += tb * spec.state_bins
    return sb


def cell_alpha(est: DriftEstimate, ensemble: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Drift value and coverage mask for every grid cell of every path.

    Returns ``(alpha_cells, covered)`` where both broadcast against the
    increment matrices: per-cell vectors for time-only binning, per-path
    matrices when state bins are active.  Uncovered cells carry 0 in
    ``alpha_cells`` and False in ``covered``.
    """
    bins = _cell_bins(est.bin_spec, est.time_edges, est.state_edges, ensemble.grid,
                      ensemble.values)
    alpha = np.where(est.estimated, np.nan_to_num(est.alpha, nan=0.0), 0.0)
    return alpha[bins], est.estimated[bins]


def decompose(
    ensemble: Ensemble, est: DriftEstimate, max_uncovered: float = 0.05
) -> DecompositionResult:
    """Recentre every path by its fitted drift: S_hat = S - sum alpha d[S].

    One pass over the row views forms each view's ``d[S]``, each row's
    variation mass and covered mass, the drift, the recentred rows and
    their reconstruction gap.  Refuses when more than ``max_uncovered`` of the
    variation mass (summed over the rows) falls in bins without an estimate.
    """
    _require_continuous(ensemble)
    s_vals = np.empty_like(ensemble.values)
    mass = np.empty(ensemble.n_paths)
    covered = np.empty(ensemble.n_paths)
    gaps = []
    for rows, part in ensemble.blocks():
        dqv = part.variation_increments()
        alpha_cells, cov = cell_alpha(est, part)
        drift = np.zeros_like(part.values)
        np.cumsum(alpha_cells * dqv, axis=1, out=drift[:, 1:])
        np.subtract(part.values, drift, out=s_vals[rows])
        mass[rows] = np.sum(dqv, axis=1)
        covered[rows] = np.sum(np.multiply(dqv, cov, out=dqv), axis=1)
        drift += s_vals[rows]  # the rebuilt rows
        gaps.append(np.max(np.abs(np.subtract(drift, part.values, out=drift))))
    total = float(np.sum(mass))
    coverage = float(np.sum(covered)) / total if total > 0 else 1.0
    if coverage < 1.0 - max_uncovered:
        raise ContractViolation(
            f"only {coverage:.1%} of the variation mass has a drift estimate"
        )
    s_hat = Ensemble(ensemble.grid, s_vals, ensemble.master_seed,
                     ensemble.model_tag + "-recentred")
    return DecompositionResult(est, s_hat, coverage, float(np.max(gaps)))


@dataclass(frozen=True, eq=False)
class GrowthReport:
    """Half the fitted quadratic drift mass, with a direct utility cross-check.

    ``log_wealth`` holds every path's log terminal wealth under the fitted
    drift, the sample ``direct`` summarises.
    """

    value: float
    stderr: float
    direct: UtilityReport
    log_wealth: np.ndarray


def growth_optimal_value(est: DriftEstimate, ensemble: Ensemble) -> GrowthReport:
    """Expected log wealth of trading the fitted drift density itself.

    Computed as half the mean of sum alpha_hat^2 d[S], and cross-checked
    by pricing the wealth of the alpha_hat strategy directly; one kernel
    pass gives both sums.  The stderr propagates the per-bin drift
    uncertainty (the dominant term: the value is quadratic in the fitted
    alpha) on top of the per-path Monte-Carlo spread.
    """
    _require_continuous(ensemble)
    n = ensemble.n_paths
    lin, quad = _moments(ensemble, lambda rows, part: [cell_alpha(est, part)[0]])[0]
    mean, se_quad = _mean_stderr(quad)
    value = 0.5 * mean
    se_paths = 0.5 * se_quad
    ok = est.estimated
    se_alpha_sq = np.sum(
        (est.alpha[ok] * est.mass[ok] * est.stderr[ok] / n) ** 2
    )
    se = float(np.sqrt(se_paths**2 + se_alpha_sq))
    logw = _continuous_sum(lin, quad)
    return GrowthReport(value, se, log_utility(logw), logw)


@dataclass(frozen=True)
class GapReport:
    gap: float
    stderr: float
    utility_strategy: float
    utility_optimal: float


def optimality_gap(
    strategies: list[GridRuleStrategy], growth: GrowthReport, ensemble: Ensemble
) -> list[GapReport]:
    """Paired estimate of E[log W(strategy)] - E[log W(alpha_hat)] for each
    strategy, in family order.

    ``growth`` is the fitted drift's ``growth_optimal_value`` on the same
    ensemble, whose log wealths the strategies' are paired against.
    Pairing on common paths makes the standard error of the difference
    the right scale for the one-sided check gap <= 3 stderr.  One kernel
    pass builds every strategy's profile on each row view.
    """
    _require_continuous(ensemble)
    logw_a = growth.log_wealth
    if logw_a.shape != (ensemble.n_paths,):
        raise ContractViolation("the growth report belongs to another ensemble")
    moments = _moments(ensemble, lambda rows, part: [pi_for_ensemble(s, part) for s in strategies])
    utility_a, out = float(np.mean(logw_a)), []
    for a, b in moments:
        logw_pi = _continuous_sum(a, b)
        out.append(GapReport(*_mean_stderr(logw_pi - logw_a), float(np.mean(logw_pi)), utility_a))
    return out


@dataclass(frozen=True)
class BoundCheckRow:
    strategy: str
    lam: float
    lam_stderr: float
    norm: float
    bound: float
    ok: bool


def cauchy_schwarz_bound_check(
    strategies,
    ensemble: Ensemble,
    c_bound: float,
    stop_n: float | None = None,
) -> list[BoundCheckRow]:
    """Check |Lambda(pi)| <= sqrt(2C) ||pi|| + 3 combined stderr per strategy.

    ``c_bound`` is an upper bound on expected log utility over the
    family (from a utility sweep or a closed form).
    """
    if c_bound < 0:
        raise ContractViolation("the utility bound C must be non-negative")
    root = np.sqrt(2.0 * c_bound)
    rows = []
    for strat, lam in zip(strategies, estimate_lambda(strategies, ensemble, stop_n)):
        nrm = h2_norm(strat, ensemble)
        norm_val = float(np.sqrt(max(nrm.value, 0.0)))
        se_norm = nrm.stderr / (2.0 * norm_val) if norm_val > 0 else 0.0
        slack = 3.0 * float(np.hypot(lam.stderr, root * se_norm))
        bound = root * norm_val + slack
        rows.append(
            BoundCheckRow(lam.strategy, lam.value, lam.stderr, norm_val, bound, abs(lam.value) <= bound)
        )
    return rows
