"""Numerical stress checks for the insider jump model.

Covers four mechanisms: routing a signed Poisson difference through a
predictable +-1 switch yields two fresh independent Poisson processes;
any strategy stepping outside the open band |pi_t| < 1 - t is wiped out
with probability bounded away from zero; expected log utility stays
bounded over admissible insider strategies as the singular-time
truncation refines; and the finite-variation part the insider extracts
from the Gaussian martingale grows without bound as |log eps|^(1/3),
the signature that no decomposition survives the information
enlargement.

``utility_sweep`` and ``utility_bound_terms_family`` read one shared pass
per family member: its band probe and four per-bundle columns (the
continuous and jump log-wealth sums, the wipe-out mask and the
supermartingale column), computed once and kept, at 4 floats per bundle
per member, for the lifetime of the ensemble.  Members that differ only
by a coefficient c (the default family is 3 shapes x 9 coefficients)
share one dense pass over their unit shape: the continuous sums are
linear and quadratic in c, so only the jump factors are formed per
member.  Jump sums and wipe-out masks are bit for bit those of the
member's own profile; continuous sums and supermartingale columns agree
with per-member sums within 1e-12 (absolute, resp. relative).  A pass
is reused only for the same ``BundleEnsemble`` object and the same
strategy object; a plain sequence of bundles is stacked anew on every
call, so nothing is reused for it.  Reuse relies on what the strategy
protocol requires: a rule is a pure function of ``(ensemble, ctx)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .errors import ContractViolation
from .path_core import _CHUNK_CELLS, TimeGrid, _mean_stderr
from .simulate import (
    BundleEnsemble,
    PathBundle,
    SeedStream,
    _build_bundles,
    make_insider_grid,
    sigma_profile_vec,
)
from .strategy import BandReport, BandStrategy, EvalContext, band_check, pi_for_ensemble
from .strategy import band_fraction_strategy, insider_sign_band, insider_switch_band
from .strategy import _as_rule, _check_bound, _check_margin
from .wealth import UtilityReport, log_utility_from_terminals
from .wealth import _at_jumps, _jump_terms, _shape_moments, _terminal_log_wealth

__all__ = [
    "FlipDecomposition",
    "flip_decompose",
    "PoissonFlipReport",
    "poisson_flip_test",
    "beta_const",
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

@dataclass(frozen=True)
class FlipDecomposition:
    """Result of routing each jump of N1 - N2 through a +-1 switch.

    ``plus_times`` collects the up-jumps of the flipped process and
    ``minus_times`` the down-jumps; the two sets are disjoint and
    reconstruct the flipped integral exactly.
    """

    beta_at_jumps: tuple[tuple[float, float], ...]
    plus_times: tuple[float, ...]
    minus_times: tuple[float, ...]
    n1_times: tuple[float, ...]
    n2_times: tuple[float, ...]

    def reconstructs(self) -> bool:
        """Check plus - minus against the switch applied to the raw difference."""
        lhs = {t: +1.0 for t in self.plus_times}
        lhs.update({t: -1.0 for t in self.minus_times})
        rhs = {}
        beta = dict(self.beta_at_jumps)
        for t in self.n1_times:
            rhs[t] = beta[t] * (+1.0)
        for t in self.n2_times:
            rhs[t] = beta[t] * (-1.0)
        return lhs == rhs


def flip_decompose(
    beta: Callable[[float], float],
    n1_times: Sequence[float],
    n2_times: Sequence[float],
) -> FlipDecomposition:
    """Route each jump by the switch value at its time.

    An up-source jump goes to the plus process when beta = +1 and to the
    minus process otherwise; a down-source jump goes the opposite way.
    beta must evaluate to exactly +-1 at every jump time.
    """
    if set(n1_times) & set(n2_times):
        raise ContractViolation("the two jump-time lists must be disjoint")
    plus, minus, betas = [], [], []
    for t, sign in sorted([(t, +1) for t in n1_times] + [(t, -1) for t in n2_times]):
        b = float(beta(t))
        if b not in (-1.0, 1.0):
            raise ContractViolation(f"switch value at t={t} is {b!r}, not +-1")
        betas.append((t, b))
        (plus if b * sign > 0 else minus).append(t)
    return FlipDecomposition(
        tuple(betas), tuple(plus), tuple(minus), tuple(n1_times), tuple(n2_times)
    )


def beta_const(value: float):
    """Constant switch; value must be +-1."""

    def factory(bundle: PathBundle):
        return lambda t: value

    return factory


def beta_switch_at(t0: float):
    """Deterministic switch: +1 on [0, t0], -1 afterwards."""

    def factory(bundle: PathBundle):
        return lambda t: 1.0 if t <= t0 else -1.0

    return factory


def beta_prefix_sign():
    """Switch by the sign of the combined path level just before each jump.

    Uses the level at the last grid point strictly before t, so the
    switch never reads the jump it routes.
    """

    def factory(bundle: PathBundle):
        pts = bundle.grid.points
        vals = bundle.s.values

        def beta(t: float) -> float:
            k = int(np.searchsorted(pts, t, side="left")) - 1
            return 1.0 if vals[max(k, 0)] >= 0 else -1.0

        return beta

    return factory


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

    edges = [0, 1, 2]
    probs = [stats.poisson.pmf(k, rate) for k in edges]
    probs.append(1.0 - sum(probs))
    obs = np.array(
        [np.sum(counts == 0), np.sum(counts == 1), np.sum(counts == 2), np.sum(counts >= 3)],
        dtype=float,
    )
    exp = counts.size * np.array(probs)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return float(stats.chi2.sf(stat, df=len(obs) - 1))


def poisson_flip_test(
    stream: SeedStream,
    n_samples: int,
    beta_factory,
    rate: float = 1.0,
    eps: float = 1e-2,
    grid: TimeGrid | None = None,
) -> PoissonFlipReport:
    """Replicate the flip over fresh bundles and test the resulting pair.

    Checks: unit-interval counts of both flipped processes fit
    Poisson(rate); their jump-time sets never intersect; their counts
    are uncorrelated; and the exactly-one-down-jump frequency matches
    the Poisson mass function.
    """
    if n_samples < 1:
        raise ContractViolation("need at least one sample")
    if grid is None:
        grid = make_insider_grid(eps, n_uniform=128, n_log=192)
    plus_counts = np.empty(n_samples)
    minus_counts = np.empty(n_samples)
    exactly_one_minus = 0
    common = 0
    # bundle i is gen_counterexample(..., index=i), generated a chunk at a time
    rows = max(1, _CHUNK_CELLS // grid.points.size)
    for lo in range(0, n_samples, rows):
        chunk = _build_bundles(stream, grid, eps, rate, range(lo, min(lo + rows, n_samples)))
        for i, bundle in enumerate(chunk, lo):
            flip = flip_decompose(beta_factory(bundle), bundle.n1_times, bundle.n2_times)
            plus_counts[i] = len(flip.plus_times)
            minus_counts[i] = len(flip.minus_times)
            exactly_one_minus += len(flip.minus_times) == 1
            common += bool(set(flip.plus_times) & set(flip.minus_times))
    if np.std(plus_counts) == 0 or np.std(minus_counts) == 0:
        corr = 0.0
    else:
        corr = float(np.corrcoef(plus_counts, minus_counts)[0, 1])
    return PoissonFlipReport(
        n_samples=n_samples,
        rate=rate,
        chi2_p_plus=_poisson_chi2_p(plus_counts, rate),
        chi2_p_minus=_poisson_chi2_p(minus_counts, rate),
        n_common_jump_times=common,
        count_correlation=corr,
        p_exactly_one_minus=float(exactly_one_minus / n_samples),
    )


# ---------------------------------------------------------------------------
# Wealth over bundles
# ---------------------------------------------------------------------------
#
# The public functions below take a BundleEnsemble or any sequence of
# PathBundle; a plain sequence is stacked once on entry.

def _pi_matrix(strategy, ens: BundleEnsemble) -> np.ndarray:
    """Profiles of every bundle: a shared row, or one row per bundle."""
    return pi_for_ensemble(strategy, ens, insider=ens.b1, driver=ens.b)


def _band_probe(strategy, ens: BundleEnsemble):
    """The band check on the first three bundles."""
    ctx = EvalContext(insider=ens.b1[:3], driver=ens.b[:3])
    return band_check(strategy, ens.grid, ens.head(3), ctx)


def _m_hat_increments(ens: BundleEnsemble) -> np.ndarray:
    """Increments of M_hat = M - A per bundle, as ``insider_drift`` computes them."""
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

    A member is probed and summed once per ensemble object: later calls
    with the same strategy object read the stored columns.  New members
    are probed in family order, then grouped by rule shape (``fn`` and
    its flags): each group's unit shape x is evaluated and summed once,
    and each member applies its ``scale`` c.  Bound and margin are
    checked on ``|c| max|x|``, which rounds as ``max|c x|`` does.
    """
    memo = _PASSES.setdefault(ens, {})
    passes, shapes = [], {}
    for member in family:
        entry = memo.get(id(member))
        if entry is None:
            entry = _MemberPass(member, _band_probe(member, ens))
            if entry.probe.admissible:
                rule = _as_rule(member)
                key = (rule.fn, rule.needs_insider, rule.path_independent)
                shapes.setdefault(key, []).append((entry, rule))
            else:
                memo[id(member)] = entry
        passes.append(entry)
        if not entry.probe.admissible:
            break
    dh = _m_hat_increments(ens) if shapes else None
    for group in shapes.values():
        x = _pi_matrix(replace(group[0][1], scale=1.0, bound=np.inf), ens)
        colmax = np.abs(x) if x.ndim == 1 else np.abs(x).max(axis=0)
        a, b, ah, bh = _shape_moments(x, ens.cont_inc, ens.cont_dqv, dh)
        xj = _at_jumps(x, ens.jump_path, ens.jump_cell)
        del x
        for entry, rule in group:
            c = rule.scale
            _check_bound(rule, abs(c) * colmax.max(initial=0.0))
            if isinstance(entry.member, BandStrategy):
                _check_margin(entry.member, abs(c) * colmax, ens.grid)
            # + 0.0 turns the -0.0 that c = 0 leaves on a negative sum into +0.0
            cont = c * a - (0.5 * c * c) * b + 0.0
            sm = np.exp(2.0 * (c * ah - (c * c) * bh))
            jump, wiped = _jump_terms(c * xj, ens.jump_path, ens.jump_size, len(ens))
            memo[id(entry.member)] = replace(entry, cont=cont, jump=jump, wiped=wiped,
                                             supermartingale=sm)
    return [memo[id(p.member)] for p in passes]


@dataclass(frozen=True)
class NegativeWealthReport:
    p_hat: float
    ci99_low: float
    ci99_high: float
    n_paths: int
    n_nonpositive: int


def negative_wealth_probability(
    strategy, bundles: Sequence[PathBundle]
) -> NegativeWealthReport:
    """Empirical ruin probability of a band-violating strategy.

    Errors out when the strategy is actually admissible (the probe is
    then misconfigured).  Ruin is decided by the jump factors alone, so
    no continuous sum is formed.  The interval is an exact 99% binomial
    Clopper-Pearson interval.
    """
    from scipy import stats

    ens = BundleEnsemble.from_bundles(bundles)
    report = _band_probe(strategy, ens)
    if report.admissible:
        raise ContractViolation(
            "strategy respects the open band |pi_t| < 1 - t; ruin probe is misconfigured"
        )
    n = len(ens)
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

    @property
    def c_hat(self) -> float:
        """The empirical utility bound this family exhibits."""
        return self.running_max

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
) -> list[BandStrategy]:
    """27 admissible strategies: decaying bands, terminal-sign bands, and
    gap-sign switching bands, across a symmetric coefficient grid."""
    family: list[BandStrategy] = []
    for c in cs:
        m = max(margin, 1.0 - abs(c))
        family.append(band_fraction_strategy(c, m))
        family.append(insider_sign_band(c if c != 0 else 0.0, m))
        family.append(insider_switch_band(c, m))
    return family


def utility_sweep(
    family: Sequence[BandStrategy], bundles: Sequence[PathBundle], eps: float
) -> SweepReport:
    """Expected log utility per admissible strategy, with the family max.

    Every member must pass the open-band check on probe paths; a
    violating member is rejected outright since its utility is -inf by
    the wipe-out mechanism, not a candidate for the supremum.
    """
    ens = BundleEnsemble.from_bundles(bundles)
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
        rep = log_utility_from_terminals(logw, int(p.wiped.sum()))
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


def utility_bound_terms(strategy, bundles: Sequence[PathBundle]) -> BoundTerms:
    """Estimate the two log-wealth components of an admissible strategy.

    The jump term averages sum log(1 + pi dS) over jumps and must be
    statistically nonpositive, since each summand is dominated by the
    mean-zero compensated jump integral.  The supermartingale column
    averages exp(2 (pi . M_hat) - 2 (pi^2 . [M_hat])) against the
    insider-recentred martingale and must not exceed 1 beyond noise.
    """
    return utility_bound_terms_family([strategy], bundles)[0]


def utility_bound_terms_family(
    family: Sequence, bundles: Sequence[PathBundle]
) -> list[BoundTerms]:
    """Bound terms for a whole family, read from the pass ``utility_sweep``
    shares on the same ensemble."""
    ens = BundleEnsemble.from_bundles(bundles)
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
    bundles: Sequence[PathBundle], eps_list: Sequence[float]
) -> list[DivergenceRow]:
    """Monte-Carlo total variation of the insider drift per cutoff.

    One row per eps, computed as nested partial sums over the same
    bundles, so the column is increasing by construction; the growth law
    against the closed form is the divergence signature.
    """
    ens = BundleEnsemble.from_bundles(bundles)
    grid = ens.grid
    if min(eps_list) < ens.eps:
        raise ContractViolation("bundles were generated with a coarser truncation")
    pts = grid.points
    t_left = pts[:-1]
    w = sigma_profile_vec(t_left) / (1.0 - t_left) * grid.dt
    b_vals = ens.b
    b1 = b_vals[:, -1]
    x = np.abs(b1[:, None] - b_vals[:, :-1]) * w
    cum = np.cumsum(x, axis=1)
    n = len(ens)
    rows = []
    for eps in sorted(eps_list, reverse=True):
        k_cut = int(np.searchsorted(pts, 1.0 - eps + 1e-12, side="right")) - 1
        if k_cut < 1:
            tv = np.zeros(n)
        else:
            tv = cum[:, k_cut - 1]
        mean, se = _mean_stderr(tv)
        rows.append(DivergenceRow(float(eps), mean, se, drift_variation_closed_form(eps)))
    return rows
