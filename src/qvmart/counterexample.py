"""Numerical stress checks for the insider jump model.

Covers four mechanisms: routing a signed Poisson difference through a
predictable +-1 switch (a strategy profile, read in each jump's cell)
yields two fresh independent Poisson processes; any strategy stepping
outside the open band |pi_t| < 1 - t is wiped out with probability
bounded away from zero; expected log utility stays bounded over
admissible insider strategies as the singular-time truncation refines;
and the finite-variation part the insider extracts from the Gaussian
martingale grows without bound as |log eps|^(1/3), the signature that
no decomposition survives the information enlargement.

``utility_sweep`` and ``utility_bound_terms_family`` read one shared pass
per family member: its band probe and four per-bundle columns (the
continuous and jump log-wealth sums, the wipe-out mask and the
supermartingale column), computed once and kept, at 4 floats per bundle
per member, for the lifetime of the ensemble.  Every member is a
``GridRuleStrategy``; members that differ only by their ``scale`` c (the
default family is 3 shapes x 9 coefficients) share one dense pass over
their unit shape, and each member's bound and margin are checked on its
scaled shape.  The continuous sums are linear and quadratic in c, so
only the jump factors are formed per member.  Jump sums and wipe-out
masks are bit for bit those of the member's own profile; continuous sums
and supermartingale columns agree with per-member sums within 1e-12
(absolute, resp. relative).  A pass is reused only for the same
``BundleEnsemble`` object and the same strategy object; every public
entry point takes a ``BundleEnsemble`` and refuses anything else.  Reuse
relies on what the strategy protocol requires: a rule is a pure function
of ``(ensemble, ctx)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .errors import ContractViolation
from .path_core import _CHUNK_CELLS, TimeGrid, _mean_stderr
from .simulate import (
    BundleEnsemble,
    SeedStream,
    _build_bundles,
    make_insider_grid,
    sigma_profile_vec,
)
from .strategy import BandReport, EvalContext, GridRuleStrategy, Leg, band_check, legs_strategy
from .strategy import band_fraction_strategy, insider_sign_band, insider_switch_band
from .strategy import pi_for_ensemble, _check_bound, _check_margin, _unit_profile
from .wealth import UtilityReport, log_utility
from .wealth import _at_jumps, _jump_terms, _shape_moments, _terminal_log_wealth

__all__ = [
    "PoissonFlipReport",
    "poisson_flip_test",
    "beta_switch_at",
    "beta_prefix_sign",
    "NegativeWealthReport",
    "negative_wealth_probability",
    "SweepReport",
    "utility_sweep",
    "default_sweep_family",
    "BoundTerms",
    "utility_bound_terms",
    "utility_bound_terms_family",
    "DivergenceRow",
    "drift_variation_closed_form",
    "insider_drift_divergence",
]


# ---------------------------------------------------------------------------
# Predictable flips of a Poisson difference
# ---------------------------------------------------------------------------

def beta_switch_at(t0: float) -> GridRuleStrategy:
    """Deterministic switch: +1 on (0, t0], -1 afterwards; t0 must be a grid time."""
    legs = (Leg(until=t0, value=1.0), Leg(until=1.0, value=-1.0))
    return legs_strategy(legs, 1.0, f"switch_at({t0:g})")


def _prefix_sign(ensemble, ctx: EvalContext) -> np.ndarray:
    return np.where(ensemble.values[:, :-1] >= 0, 1.0, -1.0)


def beta_prefix_sign() -> GridRuleStrategy:
    """Switch by the sign of the combined path level at each cell's left end.

    A jump in cell (t_k, t_{k+1}] is routed by the level at t_k, so the
    switch never reads the jump it routes.
    """
    return GridRuleStrategy("prefix_sign", 1.0, _prefix_sign)


@dataclass(frozen=True)
class PoissonFlipReport:
    """Distributional checks on the flipped pair over many replications."""

    n_samples: int
    rate: float
    chi2_p_plus: float
    chi2_p_minus: float
    n_common_jump_times: int
    count_correlation: float
    p_exactly_one_minus: float

    def passed(self, significance: float = 0.01, pmf_tol: float = 0.015) -> bool:
        corr_tol = 3.0 / np.sqrt(self.n_samples)
        return (
            self.chi2_p_plus > significance
            and self.chi2_p_minus > significance
            and self.n_common_jump_times == 0
            and abs(self.count_correlation) <= corr_tol
            and abs(self.p_exactly_one_minus - np.exp(-self.rate) * self.rate)
            <= pmf_tol
        )


def _poisson_chi2_p(counts: np.ndarray, rate: float) -> float:
    """Goodness of fit against Poisson(rate) with bins {0, 1, 2, >=3}."""
    from scipy import stats

    probs = stats.poisson.pmf([0, 1, 2], rate)
    exp = counts.size * np.append(probs, 1.0 - probs.sum())
    obs = np.bincount(np.minimum(counts, 3).astype(int), minlength=4)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return float(stats.chi2.sf(stat, df=len(obs) - 1))


def poisson_flip_test(
    stream: SeedStream,
    n_samples: int,
    switch,
    rate: float = 1.0,
    eps: float = 1e-2,
    grid: TimeGrid | None = None,
) -> PoissonFlipReport:
    """Replicate the flip over fresh bundles and test the resulting pair.

    ``switch`` is a strategy: its profile must be +-1 in the cell of
    every raw jump.  A jump at t in (t_k, t_{k+1}] is routed by beta, the
    value of cell k, decided at t_k: an N1 jump goes to the plus process
    when beta = +1 and to the minus process otherwise, an N2 jump the
    opposite way.  Bundles are generated and profiled a chunk at a time.

    Checks: unit-interval counts of both flipped processes fit
    Poisson(rate); their jump-time sets never intersect; their counts
    are uncorrelated; and the exactly-one-down-jump frequency matches
    the Poisson mass function.
    """
    if n_samples < 1:
        raise ContractViolation("need at least one sample")
    if grid is None:
        grid = make_insider_grid(eps, n_uniform=128, n_log=192)
    plus_counts, minus_counts, common = np.empty(n_samples), np.empty(n_samples), 0
    # bundle i draws from its own substreams, generated a chunk at a time
    rows = max(1, _CHUNK_CELLS // grid.points.size)
    for lo in range(0, n_samples, rows):
        chunk = _build_bundles(stream, grid, eps, rate, range(lo, min(lo + rows, n_samples)))
        n, row, times = chunk.n_paths, chunk.poisson_row, chunk.poisson_time
        cell = np.maximum(np.searchsorted(grid.points, times) - 1, 0)
        beta = np.broadcast_to(_pi_matrix(switch, chunk), (n, grid.n_steps))[row, cell]
        # jumps are sorted by bundle, then time: a time twice must come from
        # one source, and is then routed one way, as the common-time count checks
        twice = (np.diff(row) == 0) & (np.diff(times) == 0)
        if np.any(twice & (np.diff(chunk.poisson_sign) != 0)):
            raise ContractViolation("the two jump-time lists must be disjoint")
        if np.any(bad := np.abs(beta) != 1.0):
            i = bad.argmax()
            raise ContractViolation(f"switch value at t={times[i]} is {float(beta[i])!r}, not +-1")
        plus = beta * chunk.poisson_sign > 0
        common += np.unique(row[1:][twice & np.diff(plus)]).size
        plus_counts[lo:lo + n] = np.bincount(row[plus], minlength=n)
        minus_counts[lo:lo + n] = np.bincount(row[~plus], minlength=n)
    flat = np.std(plus_counts) == 0 or np.std(minus_counts) == 0
    corr = 0.0 if flat else float(np.corrcoef(plus_counts, minus_counts)[0, 1])
    return PoissonFlipReport(n_samples, rate, _poisson_chi2_p(plus_counts, rate),
                             _poisson_chi2_p(minus_counts, rate), common, corr,
                             int(np.count_nonzero(minus_counts == 1)) / n_samples)


# ---------------------------------------------------------------------------
# Wealth over bundles
# ---------------------------------------------------------------------------
#
# The public functions below take a BundleEnsemble and nothing else.

def _bundles(ens) -> BundleEnsemble:
    """``ens`` itself; anything but a ``BundleEnsemble`` is refused."""
    if not isinstance(ens, BundleEnsemble):
        raise ContractViolation(f"expected a BundleEnsemble, got {type(ens).__name__}")
    return ens


def _pi_matrix(strategy, ens: BundleEnsemble) -> np.ndarray:
    """Profiles of every bundle: a shared row, or one row per bundle."""
    return pi_for_ensemble(strategy, ens, insider=ens.b1, driver=ens.b)


def _band_probe(strategy, ens: BundleEnsemble):
    """The band check on the first three bundles."""
    ctx = EvalContext(insider=ens.b1[:3], driver=ens.b[:3])
    return band_check(strategy, ens.grid, ens.head(3), ctx)


def _m_hat_increments(ens: BundleEnsemble) -> np.ndarray:
    """Increments of M_hat = M - A per bundle, A the insider drift of
    ``BundleEnsemble.drift_values``."""
    return np.diff(ens.m - ens.drift_values(), axis=1)


@dataclass(frozen=True, eq=False)
class _MemberPass:
    """One family member on one ensemble: its band probe and, when it is
    admissible, its four per-bundle columns.  ``member`` is held so that
    its id, the memo key, cannot be reused while the entry lives."""

    member: object
    probe: BandReport
    cont: np.ndarray | None = None
    jump: np.ndarray | None = None
    wiped: np.ndarray | None = None
    supermartingale: np.ndarray | None = None


# Each ensemble's passes, keyed by the id of the member, for the ensemble's lifetime.
_PASSES: WeakKeyDictionary = WeakKeyDictionary()


def _family_pass(family: Sequence, ens: BundleEnsemble) -> list[_MemberPass]:
    """Each member's pass on ``ens``, in family order, up to and including
    the first inadmissible member.

    A member is probed and summed once per ensemble object (the public
    entry points pass only ``BundleEnsemble`` objects): later calls with
    the same strategy object read the stored columns.  New members
    are probed in family order, then grouped by rule shape (``fn`` and
    its flags): each group's unit shape x is evaluated, shape-checked and
    summed once, and each member applies its ``scale`` c.  Bound and
    margin are checked on ``|c| max|x|``, which rounds as ``max|c x|`` does.
    """
    memo = _PASSES.setdefault(ens, {})
    passes, shapes = [], {}
    for member in family:
        entry = memo.get(id(member))
        if entry is None:
            entry = _MemberPass(member, _band_probe(member, ens))
            if entry.probe.admissible:
                key = (member.fn, member.needs_insider, member.path_independent)
                shapes.setdefault(key, []).append(entry)
            else:
                memo[id(member)] = entry
        passes.append(entry)
        if not entry.probe.admissible:
            break
    dh = _m_hat_increments(ens) if shapes else None
    for group in shapes.values():
        x = _unit_profile(group[0].member, ens, EvalContext(insider=ens.b1, driver=ens.b))
        colmax = np.abs(x) if x.ndim == 1 else np.abs(x).max(axis=0)
        a, b, ah, bh = _shape_moments(x, ens.cont_inc, ens.cont_dqv, dh)
        xj = _at_jumps(x, ens.jump_path, ens.jump_cell)
        del x
        for entry in group:
            rule = entry.member
            c = rule.scale
            _check_bound(rule, abs(c) * colmax.max(initial=0.0))
            if rule.margin is not None:
                _check_margin(rule, abs(c) * colmax, ens.grid)
            # + 0.0 turns the -0.0 that c = 0 leaves on a negative sum into +0.0
            cont = c * a - (0.5 * c * c) * b + 0.0
            sm = np.exp(2.0 * (c * ah - (c * c) * bh))
            jump, wiped = _jump_terms(c * xj, ens.jump_path, ens.jump_size, ens.n_paths)
            memo[id(rule)] = replace(entry, cont=cont, jump=jump, wiped=wiped, supermartingale=sm)
    return [memo[id(p.member)] for p in passes]


@dataclass(frozen=True)
class NegativeWealthReport:
    p_hat: float
    ci99_low: float
    ci99_high: float
    n_paths: int
    n_nonpositive: int


def negative_wealth_probability(strategy, bundles: BundleEnsemble) -> NegativeWealthReport:
    """Empirical ruin probability of a band-violating strategy.

    Errors out when the strategy is actually admissible (the probe is
    then misconfigured).  Ruin is decided by the jump factors alone, so
    no continuous sum is formed.  The interval is an exact 99% binomial
    Clopper-Pearson interval.
    """
    from scipy import stats

    ens = _bundles(bundles)
    report = _band_probe(strategy, ens)
    if report.admissible:
        raise ContractViolation("strategy respects the open band |pi_t| < 1 - t; "
                                "ruin probe is misconfigured")
    n = ens.n_paths
    pj = _at_jumps(_pi_matrix(strategy, ens), ens.jump_path, ens.jump_cell)
    _, wiped = _jump_terms(pj, ens.jump_path, ens.jump_size, n)
    k = int(wiped.sum())
    alpha = 0.01
    low = float(stats.beta.ppf(alpha / 2, k, n - k + 1)) if k > 0 else 0.0
    high = float(stats.beta.ppf(1 - alpha / 2, k + 1, n - k)) if k < n else 1.0
    return NegativeWealthReport(k / n, low, high, n, k)


@dataclass(frozen=True)
class SweepReport:
    """Per-strategy utilities with the running max over finite estimates."""

    eps: float
    entries: tuple[tuple[str, UtilityReport], ...]
    running_max: float
    running_max_stderr: float
    n_ruined_strategies: int

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "running_max": self.running_max,
            "running_max_stderr": self.running_max_stderr,
            "n_ruined_strategies": self.n_ruined_strategies,
            "entries": [{"strategy": n, **r.as_dict()} for n, r in self.entries],
        }


def default_sweep_family(
    cs: Sequence[float] = (-0.9, -0.675, -0.45, -0.225, 0.0, 0.225, 0.45, 0.675, 0.9),
    margin: float = 0.05,
) -> list[GridRuleStrategy]:
    """27 admissible strategies: decaying bands, terminal-sign bands, and
    gap-sign switching bands, across a symmetric coefficient grid."""
    family: list[GridRuleStrategy] = []
    for c in cs:
        m = max(margin, 1.0 - abs(c))
        family.append(band_fraction_strategy(c, m))
        family.append(insider_sign_band(c if c != 0 else 0.0, m))
        family.append(insider_switch_band(c, m))
    return family


def utility_sweep(
    family: Sequence[GridRuleStrategy], bundles: BundleEnsemble, eps: float
) -> SweepReport:
    """Expected log utility per admissible strategy, with the family max.

    Every member must pass the open-band check on probe paths; a
    violating member is rejected outright since its utility is -inf by
    the wipe-out mechanism, not a candidate for the supremum.
    """
    ens = _bundles(bundles)
    entries: list[tuple[str, UtilityReport]] = []
    best = -np.inf
    best_se = float("nan")
    ruined = 0
    for p in _family_pass(family, ens):
        if not p.probe.admissible:
            t, v = p.probe.violations[0]
            raise ContractViolation(
                f"sweep member {p.member.name!r} leaves the open band |pi_t| < 1 - t "
                f"(pi={v:.4g} at t={t:.4g}); inadmissible strategies are ruled out"
            )
        logw = _terminal_log_wealth(p.cont, p.jump, p.wiped)
        rep = log_utility(logw)
        entries.append((p.member.name, rep))
        if rep.estimate == -np.inf:
            ruined += 1
        elif rep.estimate > best:
            best, best_se = rep.estimate, rep.stderr
    return SweepReport(eps, tuple(entries), float(best), float(best_se), ruined)


@dataclass(frozen=True)
class BoundTerms:
    """Split of expected log wealth into a continuous exponential term and
    a jump term, plus the doubled-exponential supermartingale mean."""

    exp_term: float
    exp_stderr: float
    jump_term: float
    jump_stderr: float
    supermartingale_mean: float
    supermartingale_stderr: float
    n_paths: int

    @property
    def jump_term_within_noise(self) -> bool:
        """The jump term must be nonpositive up to Monte-Carlo noise."""
        return self.jump_term <= 3.0 * self.jump_stderr

    @property
    def supermartingale_within_noise(self) -> bool:
        return self.supermartingale_mean <= 1.0 + 3.0 * self.supermartingale_stderr


def utility_bound_terms(strategy, bundles: BundleEnsemble) -> BoundTerms:
    """Estimate the two log-wealth components of an admissible strategy.

    The jump term averages sum log(1 + pi dS) over jumps and must be
    statistically nonpositive, since each summand is dominated by the
    mean-zero compensated jump integral.  The supermartingale column
    averages exp(2 (pi . M_hat) - 2 (pi^2 . [M_hat])) against the
    insider-recentred martingale and must not exceed 1 beyond noise.
    """
    return utility_bound_terms_family([strategy], bundles)[0]


def utility_bound_terms_family(family: Sequence, bundles: BundleEnsemble) -> list[BoundTerms]:
    """Bound terms for a whole family, read from the pass ``utility_sweep``
    shares on the same ensemble."""
    ens = _bundles(bundles)
    passes = _family_pass(family, ens)
    if passes and not passes[-1].probe.admissible:
        raise ContractViolation("bound terms are defined for admissible strategies only")
    terms = []
    for p in passes:
        if p.wiped.any():
            raise ContractViolation("admissible strategy produced a nonpositive jump factor")
        sm = p.supermartingale
        terms.append(BoundTerms(*_mean_stderr(p.cont), *_mean_stderr(p.jump),
                                *_mean_stderr(sm), sm.size))
    return terms


# ---------------------------------------------------------------------------
# Insider drift-variation divergence
# ---------------------------------------------------------------------------

def drift_variation_closed_form(eps: float) -> float:
    """Expected total variation of the insider drift up to 1 - eps.

    Equals sqrt(2/pi) * 3 * (|log eps|^(1/3) - (log 2)^(1/3)); zero when
    the cutoff sits at or before the volatility switch-on time.
    """
    if eps >= 0.5:
        return 0.0
    return float(
        np.sqrt(2.0 / np.pi) * 3.0 * ((-np.log(eps)) ** (1.0 / 3.0) - np.log(2.0) ** (1.0 / 3.0))
    )


@dataclass(frozen=True)
class DivergenceRow:
    eps: float
    mc_tv: float
    stderr: float
    closed_form: float


def insider_drift_divergence(
    bundles: BundleEnsemble, eps_list: Sequence[float]
) -> list[DivergenceRow]:
    """Monte-Carlo total variation of the insider drift per cutoff.

    One row per eps, computed as nested partial sums over the same
    bundles, so the column is increasing by construction; the growth law
    against the closed form is the divergence signature.
    """
    ens = _bundles(bundles)
    if min(eps_list) < ens.eps:
        raise ContractViolation("bundles were generated with a coarser truncation")
    pts = ens.grid.points
    w = sigma_profile_vec(pts[:-1]) / (1.0 - pts[:-1]) * ens.grid.dt
    cum = np.cumsum(np.abs(ens.b1[:, None] - ens.b[:, :-1]) * w, axis=1)
    rows = []
    for eps in sorted(eps_list, reverse=True):
        k_cut = int(np.searchsorted(pts, 1.0 - eps + 1e-12, side="right")) - 1
        tv = cum[:, k_cut - 1] if k_cut >= 1 else np.zeros(ens.n_paths)
        rows.append(DivergenceRow(float(eps), *_mean_stderr(tv), drift_variation_closed_form(eps)))
    return rows
