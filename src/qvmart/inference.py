"""Empirical drift decomposition and growth-optimality checks.

The estimator recovers the drift density alpha in the representation

    S_t = S_hat_t + integral of alpha d[S]

by a per-bin ratio of sums: within each (time, state) bin, alpha_hat is
the total path increment divided by the total variation increment, the
exact least-squares solution of dS ~ alpha d[S] on bin-measurable test
functions.  Recentring S by the fitted drift yields paths whose simple
integrals against bounded test strategies should be statistically zero;
those z-scores are the martingale diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .path_core import Ensemble, TimeGrid, _mean_stderr, _row_blocks, truncation_index
from .strategy import GridRuleStrategy, h2_norm, pi_for_ensemble
from .wealth import UtilityReport, log_utility, terminal_log_wealth_continuous

__all__ = [
    "BinSpec",
    "DriftEstimate",
    "LambdaEstimate",
    "DecompositionResult",
    "Diagnostic",
    "GrowthReport",
    "GapReport",
    "estimate_lambda",
    "choose_truncation_level",
    "estimate_alpha",
    "cell_alpha",
    "decompose",
    "reconstruction_error",
    "martingale_residual",
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
    """Monte-Carlo mean of the terminal simple integral of a strategy."""

    value: float
    stderr: float
    strategy: str
    n_paths: int

    @property
    def z(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.value == 0.0 else np.inf
        return self.value / self.stderr


@dataclass
class DecompositionResult:
    alpha: DriftEstimate
    s_hat: Ensemble
    coverage: float
    diagnostics: list["Diagnostic"] = field(default_factory=list)


@dataclass(frozen=True)
class Diagnostic:
    strategy: str
    estimate: float
    stderr: float
    z: float

    @property
    def passed(self) -> bool:
        return abs(self.z) <= 3.0


def _require_continuous(ensemble: Ensemble) -> None:
    if ensemble.jump_path.size:
        raise ContractViolation("this estimator expects a continuous-model ensemble")


def choose_truncation_level(ensemble: Ensemble, target: float = 0.99) -> float:
    """Smallest power-of-two threshold leaving at least ``target`` of the
    paths unstopped."""
    vals, qv, width = ensemble.values, ensemble.qv, ensemble.values.shape[1]
    blocks = _row_blocks(ensemble.n_paths, ensemble.grid.n_steps)
    n = 1.0
    for _ in range(64):
        stopped = sum(np.count_nonzero(truncation_index(vals[blk], qv[blk], n) < width)
                      for blk in blocks)
        frac_free = 1.0 - stopped / ensemble.n_paths
        if frac_free >= target:
            return n
        n *= 2.0
    raise ContractViolation("no reasonable truncation level keeps enough paths")


def estimate_lambda(
    strategy: GridRuleStrategy,
    ensemble: Ensemble,
    stop_n: float | None = None,
) -> LambdaEstimate:
    """Mean terminal value of the simple integral of the strategy against
    the paths, with its standard error.

    ``stop_n`` zeroes every increment after the path's level/variation
    truncation time, the bounded-support discipline that keeps the
    estimate finite on heavy models.
    """
    if ensemble.n_paths < 1:
        raise ContractViolation("empty ensemble")
    pi = pi_for_ensemble(strategy, ensemble)
    vals, n_cells = ensemble.values, ensemble.grid.n_steps
    per_path = np.empty(ensemble.n_paths)
    for blk in _row_blocks(ensemble.n_paths, n_cells):
        ds = np.diff(vals[blk], axis=1)
        if stop_n is not None:
            stop = truncation_index(vals[blk], ensemble.qv[blk], stop_n)
            ds = ds * (np.arange(n_cells) < stop[:, None])
        per_path[blk] = np.sum((pi if pi.ndim == 1 else pi[blk]) * ds, axis=1)
    return LambdaEstimate(*_mean_stderr(per_path), strategy.name, ensemble.n_paths)


def estimate_alpha(ensemble: Ensemble, bin_spec: BinSpec = BinSpec()) -> DriftEstimate:
    """Per-bin ratio-of-sums drift density alpha_hat = sum dS / sum d[S].

    Standard errors treat paths as the independent unit (cells within a
    path are summed first), which is exact for the ratio estimator under
    path-level resampling.  With state bins the per-path sums are taken
    one row block at a time.
    """
    _require_continuous(ensemble)
    grid, vals, qv = ensemble.grid, ensemble.values, ensemble.qv
    time_edges = np.linspace(0.0, 1.0, bin_spec.time_bins + 1)
    state_edges = None
    P = ensemble.n_paths
    B = bin_spec.n_bins
    if bin_spec.state_bins:
        qs = np.linspace(0.0, 1.0, bin_spec.state_bins + 1)[1:-1]
        state_edges = np.quantile(vals[:, :-1], qs)
        num = np.empty((P, B))  # (paths, bins): per-path, per-bin sums
        den = np.empty((P, B))
        cnt = np.zeros(B)
        for blk in _row_blocks(P, grid.n_steps):
            bins = _cell_bins(bin_spec, time_edges, state_edges, grid, vals[blk])
            cnt += np.bincount(bins.ravel(), minlength=B)
            # each (row, bin) of the block as one index; bincount adds its
            # weights in cell order from 0.0, as a running sum would
            n_rows = bins.shape[0]
            bins += B * np.arange(n_rows)[:, None]
            for out, m in ((num, vals), (den, qv)):
                inc = np.diff(m[blk], axis=1).ravel()
                out[blk] = np.bincount(bins.ravel(), inc, n_rows * B).reshape(n_rows, B)
    else:
        ind = np.zeros((grid.n_steps, B))
        ind[np.arange(grid.n_steps), _cell_bins(bin_spec, time_edges, None, grid, vals)] = 1.0
        # BLAS's sum for one row depends on how many rows the product holds,
        # so both products take every row; one increment buffer serves both
        inc = np.diff(vals, axis=1)
        num = inc @ ind
        den = np.subtract(qv[:, 1:], qv[:, :-1], out=inc) @ ind
        cnt = np.full(B, float(P)) * ind.sum(axis=0)
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
    """Drift value and coverage mask for every grid cell.

    Returns ``(alpha_cells, covered)`` where both broadcast against the
    increment matrices: per-cell vectors for time-only binning, per-path
    matrices when state bins are active.  Uncovered cells carry 0 in
    ``alpha_cells`` and False in ``covered``.
    """
    return _cell_alpha(est, ensemble.grid, ensemble.values)


def _cell_alpha(
    est: DriftEstimate, grid: TimeGrid, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``cell_alpha`` for the paths ``values``, some rows of an ensemble on ``grid``."""
    bins = _cell_bins(est.bin_spec, est.time_edges, est.state_edges, grid, values)
    alpha = np.where(est.estimated, np.nan_to_num(est.alpha, nan=0.0), 0.0)
    return alpha[bins], est.estimated[bins]


def decompose(
    ensemble: Ensemble, est: DriftEstimate, max_uncovered: float = 0.05
) -> DecompositionResult:
    """Recentre every path by its fitted drift: S_hat = S - sum alpha d[S].

    Refuses when more than ``max_uncovered`` of the variation mass falls
    in bins without an estimate.
    """
    _require_continuous(ensemble)
    grid, vals, qv = ensemble.grid, ensemble.values, ensemble.qv
    blocks = _row_blocks(ensemble.n_paths, grid.n_steps)
    # each mass is one sum over the whole increment matrix, whose order of
    # addition follows its shape: the covered mass zeroes that matrix's
    # uncovered cells in place, block by block, and sums it again
    dqv = np.diff(qv, axis=1)
    mass = float(np.sum(dqv))
    if mass > 0:
        for blk in blocks:
            dqv[blk] *= _cell_alpha(est, grid, vals[blk])[1]
        coverage = float(np.sum(dqv)) / mass
    else:
        coverage = 1.0
    del dqv
    if coverage < 1.0 - max_uncovered:
        raise ContractViolation(
            f"only {coverage:.1%} of the variation mass has a drift estimate"
        )
    s_vals = np.empty_like(vals)
    for blk in blocks:
        drift = np.zeros_like(vals[blk])
        dq = np.diff(qv[blk], axis=1)
        np.cumsum(_cell_alpha(est, grid, vals[blk])[0] * dq, axis=1, out=drift[:, 1:])
        np.subtract(vals[blk], drift, out=s_vals[blk])
    s_hat = Ensemble(grid, s_vals, ensemble.master_seed, ensemble.model_tag + "-recentred")
    return DecompositionResult(est, s_hat, coverage)


def reconstruction_error(result: DecompositionResult, ensemble: Ensemble) -> float:
    """Max absolute gap of S_hat + sum alpha d[S] against the original paths."""
    vals, qv = ensemble.values, ensemble.qv
    worst = []
    for blk in _row_blocks(ensemble.n_paths, ensemble.grid.n_steps):
        alpha_cells, _ = _cell_alpha(result.alpha, ensemble.grid, vals[blk])
        rebuilt = result.s_hat.values[blk].copy()
        rebuilt[:, 1:] += np.cumsum(alpha_cells * np.diff(qv[blk], axis=1), axis=1)
        worst.append(np.max(np.abs(rebuilt - vals[blk])))
    return float(np.max(worst))


def martingale_residual(
    result: DecompositionResult,
    strategies,
    stop_n: float | None = None,
) -> list[Diagnostic]:
    """z-scores of the recentred paths' simple integrals per test strategy.

    |z| <= 3 for every bounded prefix-measurable test is the pass
    condition; the same harness run on un-recentred drifted paths is the
    negative control.
    """
    out = []
    for strat in strategies:
        lam = estimate_lambda(strat, result.s_hat, stop_n=stop_n)
        out.append(Diagnostic(lam.strategy, lam.value, lam.stderr, lam.z))
    result.diagnostics.extend(out)
    return out


@dataclass(frozen=True)
class GrowthReport:
    """Half the fitted quadratic drift mass, with a direct utility cross-check."""

    value: float
    stderr: float
    direct: UtilityReport


def growth_optimal_value(est: DriftEstimate, ensemble: Ensemble) -> GrowthReport:
    """Expected log wealth of trading the fitted drift density itself.

    Computed as half the mean of sum alpha_hat^2 d[S], and cross-checked
    by pricing the wealth of the alpha_hat strategy directly.  The
    stderr propagates the per-bin drift uncertainty (the dominant term:
    the value is quadratic in the fitted alpha) on top of the per-path
    Monte-Carlo spread.
    """
    _require_continuous(ensemble)
    alpha_cells, _ = cell_alpha(est, ensemble)
    n = ensemble.n_paths
    quad = np.empty(n)
    for blk in _row_blocks(n, ensemble.grid.n_steps):
        a = alpha_cells if alpha_cells.ndim == 1 else alpha_cells[blk]
        quad[blk] = np.sum(a * a * np.diff(ensemble.qv[blk], axis=1), axis=1)
    mean, se_quad = _mean_stderr(quad)
    value = 0.5 * mean
    se_paths = 0.5 * se_quad
    ok = est.estimated
    se_alpha_sq = np.sum(
        (est.alpha[ok] * est.mass[ok] * est.stderr[ok] / n) ** 2
    )
    se = float(np.sqrt(se_paths**2 + se_alpha_sq))
    logw = terminal_log_wealth_continuous(alpha_cells, ensemble)
    return GrowthReport(value, se, log_utility(logw))


@dataclass(frozen=True)
class GapReport:
    gap: float
    stderr: float
    utility_strategy: float
    utility_optimal: float


def optimality_gap(
    strategy: GridRuleStrategy, est: DriftEstimate, ensemble: Ensemble
) -> GapReport:
    """Paired estimate of E[log W(strategy)] - E[log W(alpha_hat)].

    Pairing on common paths makes the standard error of the difference
    the right scale for the one-sided check gap <= 3 stderr.
    """
    _require_continuous(ensemble)
    logw_pi = terminal_log_wealth_continuous(pi_for_ensemble(strategy, ensemble), ensemble)
    alpha_cells, _ = cell_alpha(est, ensemble)
    logw_a = terminal_log_wealth_continuous(alpha_cells, ensemble)
    gap, se = _mean_stderr(logw_pi - logw_a)
    return GapReport(gap, se, float(np.mean(logw_pi)), float(np.mean(logw_a)))


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
    for strat in strategies:
        lam = estimate_lambda(strat, ensemble, stop_n=stop_n)
        nrm = h2_norm(strat, ensemble)
        norm_val = float(np.sqrt(max(nrm.value, 0.0)))
        se_norm = nrm.stderr / (2.0 * norm_val) if norm_val > 0 else 0.0
        slack = 3.0 * float(np.hypot(lam.stderr, root * se_norm))
        bound = root * norm_val + slack
        rows.append(
            BoundCheckRow(lam.strategy, lam.value, lam.stderr, norm_val, bound, abs(lam.value) <= bound)
        )
    return rows
