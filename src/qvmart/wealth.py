"""Pathwise wealth dynamics for proportion strategies over an ensemble:
the stochastic exponential of every path (continuous paths are the case
without jumps), the left-endpoint residual of the wealth recursion
dW = W pi dS, and log-utility aggregation over log terminal wealths.

The exponential is computed in its factorized form

    W_t = exp( sum pi dS^c - 1/2 sum pi^2 d[S]^c ) * prod (1 + pi dS_jump),

algebraically identical to exponential-times-compensated-jump-products
but immune to overflow when individual jumps are huge: the raw jump
terms inside the exponent cancel exactly against the ``exp(-pi dS)``
jump compensators, so they are never materialized.  ``dS^c`` is
``Ensemble.continuous_increments`` and ``d[S]^c`` its square, for every
ensemble.

Every terminal log-wealth sum comes from one kernel: a pass over the row
views of ``Ensemble.blocks`` (``_moments``) gives each path's ``A = sum x
dS^c`` and ``B = sum x^2 d[S]^c`` for the profiles x built on each view,
and a profile ``c x`` has log terminal wealth ``c A - c^2 B / 2`` plus its
jump terms, -inf on a ruined path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation
from .path_core import Ensemble, _mean_stderr

__all__ = [
    "UtilityReport",
    "stoch_exp_ensemble",
    "dd_residual",
    "log_utility",
    "terminal_log_wealth_continuous",
    "terminal_log_wealth_jumps",
]


@dataclass(frozen=True)
class UtilityReport:
    """Monte-Carlo estimate of expected log terminal wealth.

    A single nonpositive terminal wealth sends the estimate to -inf;
    the count of such paths is reported separately.
    """

    estimate: float
    stderr: float
    n_paths: int
    n_nonpositive: int

    def as_dict(self) -> dict:
        est = self.estimate
        return {
            "estimate": "-inf" if est == -np.inf else float(est),
            "stderr": float(self.stderr),
            "n_paths": self.n_paths,
            "n_nonpositive": self.n_nonpositive,
        }


def stoch_exp_ensemble(pi: np.ndarray, ensemble: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Stochastic exponential of every path, wealth started at 1.

    The exponent sums ``pi`` against the continuous increments and their
    squares, the kernel's ``dS^c`` and ``d[S]^c``.  Nonpositive wealth is a
    flagged outcome, not an error: ruin is absorbing, so the first
    cumulative jump factor prod (1 + pi dS) <= 0 freezes the path at its
    nonpositive value.  ``pi`` is one shared per-cell row or one row per
    path.  Returns the ``(n_paths, n_points)`` wealth matrix and each
    path's first cell whose cumulative jump factor is nonpositive (-1 when
    none).
    """
    pi = np.asarray(pi, dtype=float)
    n_paths, width = ensemble.values.shape
    w = np.ones((n_paths, width))
    dead = np.full(n_paths, -1, dtype=np.intp)
    # each row's wealth is its own: one row view of every temporary at a time
    for rows, part in ensemble.blocks():
        wb, p = w[rows], (pi if pi.ndim == 1 else pi[rows])
        inc = part.continuous_increments()
        np.exp(np.cumsum(p * inc - 0.5 * p * p * (inc * inc), axis=1), out=wb[:, 1:])
        factors = np.ones(inc.shape)
        path, cell = part.jump_path, part.jump_cell
        np.multiply.at(factors, (path, cell), 1.0 + _at_jumps(p, path, cell) * part.jump_size)
        wb[:, 1:] *= np.cumprod(factors, axis=1, out=factors)
        nonpos = factors <= 0.0
        dead[rows] = d = np.where(nonpos.any(axis=1), nonpos.argmax(axis=1), -1)
        r = np.nonzero(d >= 0)[0]  # frozen from the first nonpositive factor on
        wb[r] = np.take_along_axis(wb[r], np.minimum(np.arange(width), d[r, None] + 1), axis=1)
    return w, dead


def dd_residual(pi: np.ndarray, ensemble: Ensemble, w: np.ndarray) -> np.ndarray:
    """Worst-case gap between each row of the wealth matrix ``w`` and its
    left-endpoint wealth recursion.

    Measures, per path, max over grid times of |W_t - 1 - sum W pi dS|;
    on the same realization this shrinks as the grid refines.  ``pi`` is
    one shared per-cell row or one row per path.
    """
    pi = np.asarray(pi, dtype=float)
    euler = np.cumsum(w[:, :-1] * pi * np.diff(ensemble.values, axis=1), axis=1)
    return np.max(np.abs(w[:, 1:] - 1.0 - euler), axis=1)


def log_utility(log_w1: np.ndarray) -> UtilityReport:
    """Sample mean and standard error of log terminal wealth.

    ``log_w1`` holds the log terminal wealths, -inf on a ruined path (one
    whose terminal wealth is at or below zero).  Any ruined path makes
    the whole estimate -inf, the Monte-Carlo rendering of assigning -inf
    to ruinous strategies; the ruined paths are counted.
    """
    log_w1 = np.asarray(log_w1, dtype=float)
    if not log_w1.size:
        raise ContractViolation("need at least one terminal wealth")
    n, ruined = log_w1.size, int(np.count_nonzero(log_w1 == -np.inf))
    if ruined:
        return UtilityReport(-np.inf, float("nan"), n, ruined)
    return UtilityReport(*_mean_stderr(log_w1), n, 0)


# ---------------------------------------------------------------------------
# The log-wealth kernel
# ---------------------------------------------------------------------------

def _moments(
    ensemble: Ensemble,
    profiles: Callable[[slice, Ensemble], Sequence[np.ndarray]],
    dh: Callable[[slice], np.ndarray] | None = None,
) -> np.ndarray:
    """Per-path sums ``A = sum x dS^c`` and ``B = sum x^2 d[S]^c`` of every
    profile ``x``, as a ``(n_profiles, 2, n_paths)`` array.

    ``profiles(rows, part)`` gives the profiles of one row view of
    ``ensemble.blocks()``, each one shared per-cell row or one row per
    path of ``part``, the same number for every view.  ``dS^c`` is
    ``part.continuous_increments()`` and ``d[S]^c`` its square, formed
    once per view for all the profiles.  With ``dh``, a function of a row
    slice giving those rows' recentred increments, the rows ``sum x dh``
    and ``sum x^2 dh^2`` follow (``(n_profiles, 4, n_paths)``).  A profile
    ``c x`` has the continuous log-wealth sum ``c A - c^2 B / 2``
    (``_continuous_sum``), so one pass over ``x`` serves every coefficient.
    A row's sum does not depend on the rows beside it, so the result is
    the one a single whole-matrix sum gives, bit for bit.
    """
    out = None
    for rows, part in ensemble.blocks():
        xs = profiles(rows, part)
        if out is None:
            out = np.empty((len(xs), 2 if dh is None else 4, ensemble.n_paths))
        inc = part.continuous_increments()
        cells = [inc, inc * inc]
        if dh is not None:
            h = dh(rows)
            cells += [h, h * h]
        for x, o in zip(xs, out):
            for k, (w, d) in enumerate(zip((x, x * x) * 2, cells)):
                o[k, rows] = np.sum(w * d, axis=1)
    return out


def _continuous_sum(a: np.ndarray, b: np.ndarray, c: float = 1.0) -> np.ndarray:
    """The continuous log-wealth sum ``c A - c^2 B / 2`` of a profile ``c x``."""
    # + 0.0 turns the -0.0 that c = 0 leaves on a negative sum into +0.0
    return c * a - (0.5 * c * c) * b + 0.0


def _at_jumps(pi: np.ndarray, jump_path: np.ndarray, jump_cell: np.ndarray) -> np.ndarray:
    """A shared row's or a per-path matrix's values at the flat jump entries."""
    return pi[jump_cell] if pi.ndim == 1 else pi[jump_path, jump_cell]


def _jump_terms(
    pj: np.ndarray, jump_path: np.ndarray, jump_size: np.ndarray, n_paths: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per path, the sum of ``log(1 + pj dS)`` over the jump factors that stay
    positive, and the mask of paths with a factor ``1 + pj dS <= 0``.

    ``pj`` is the proportion at each flat jump entry (``_at_jumps``).
    """
    jump = np.zeros(n_paths)
    wiped = np.zeros(n_paths, dtype=bool)
    if jump_path.size:
        f = 1.0 + pj * jump_size
        bad = f <= 0.0
        np.logical_or.at(wiped, jump_path[bad], True)
        ok = ~bad
        np.add.at(jump, jump_path[ok], np.log(f[ok]))
    return jump, wiped


def _terminal_log_wealth(cont: np.ndarray, jump: np.ndarray, wiped: np.ndarray) -> np.ndarray:
    """Per-path log terminal wealth from its two parts; -inf on wiped paths."""
    logw = cont + jump
    logw[wiped] = -np.inf
    return logw


def terminal_log_wealth_continuous(pi: np.ndarray, ensemble: Ensemble) -> np.ndarray:
    """Per-path continuous log-wealth sum ``sum(pi dS^c - pi^2 d[S]^c / 2)``:
    the log terminal wealth of a continuous ensemble.

    ``pi`` broadcasts: either one shared per-cell vector or a per-path
    matrix.
    """
    pi = np.asarray(pi, dtype=float)
    a, b = _moments(ensemble, lambda rows, part: [pi if pi.ndim == 1 else pi[rows]])[0]
    return _continuous_sum(a, b)


def terminal_log_wealth_jumps(pi: np.ndarray, ensemble: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Per-path log terminal wealth with jumps, plus the wipe-out mask.

    The continuous sum plus ``sum log(1 + pi dS)`` over the jumps; paths
    with any factor (1 + pi dS) <= 0 get -inf.  ``pi`` broadcasts like
    ``terminal_log_wealth_continuous``'s.
    """
    pi = np.asarray(pi, dtype=float)
    path = ensemble.jump_path
    jump, wiped = _jump_terms(_at_jumps(pi, path, ensemble.jump_cell), path,
                              ensemble.jump_size, ensemble.n_paths)
    return _terminal_log_wealth(terminal_log_wealth_continuous(pi, ensemble), jump, wiped), wiped
