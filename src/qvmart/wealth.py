"""Pathwise wealth dynamics for proportion strategies over an ensemble:
the stochastic exponential of every path (continuous paths are the case
without jumps), the left-endpoint residual of the wealth recursion
dW = W pi dS, and log-utility aggregation over log terminal wealths.

The exponential is computed in its factorized form

    W_t = exp( sum pi dS^c - 1/2 sum pi^2 d[S]^c ) * prod (1 + pi dS_jump),

algebraically identical to exponential-times-compensated-jump-products
but immune to overflow when individual jumps are huge: the raw jump
terms inside the exponent cancel exactly against the ``exp(-pi dS)``
jump compensators, so they are never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .path_core import Ensemble, _mean_stderr, _row_blocks

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

    The exponent sums ``pi`` against the increments and the variation of
    each path's continuous part.  Nonpositive wealth is a flagged outcome,
    not an error: ruin is absorbing, so the first cumulative jump factor
    prod (1 + pi dS) <= 0 freezes the path at its nonpositive value.
    ``pi`` is one shared per-cell row or one row per path.  Returns the
    ``(n_paths, n_points)`` wealth matrix and each path's first cell
    whose cumulative jump factor is nonpositive (-1 when none).
    """
    dqv = np.diff(ensemble.continuous_part().qv, axis=1)
    return _product_recursion(np.asarray(pi, dtype=float), ensemble.continuous_increments(), dqv,
                              ensemble.jump_path, ensemble.jump_cell, ensemble.jump_size)


def _product_recursion(pi, cont_inc, dqv_cont, jump_path, jump_cell, jump_size):
    """Wealth rows exp(sum pi dS^c - sum pi^2 d[S]^c / 2) * prod (1 + pi dS),
    each frozen from its first nonpositive cumulative factor; and the
    index of that cell per row, -1 when there is none."""
    w = np.ones((cont_inc.shape[0], cont_inc.shape[1] + 1))
    w[:, 1:] = np.exp(np.cumsum(pi * cont_inc - 0.5 * pi * pi * dqv_cont, axis=1))
    factors = np.ones(cont_inc.shape)
    pj = _at_jumps(pi, jump_path, jump_cell)
    np.multiply.at(factors, (jump_path, jump_cell), 1.0 + pj * jump_size)
    cumfac = np.cumprod(factors, axis=1)
    w[:, 1:] *= cumfac
    nonpos = cumfac <= 0.0
    dead = np.where(nonpos.any(axis=1), nonpos.argmax(axis=1), -1)
    cols = np.arange(w.shape[1])
    frozen = np.where(dead[:, None] < 0, cols, np.minimum(cols, dead[:, None] + 1))
    return np.take_along_axis(w, frozen, axis=1), dead


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
# Vectorized terminal-wealth helpers (matrix form, used by the estimators)
# ---------------------------------------------------------------------------

def _log_wealth_terms(
    pi: np.ndarray,
    cont_inc: np.ndarray,
    dqv_cont: np.ndarray,
    jump_path: np.ndarray,
    jump_cell: np.ndarray,
    jump_size: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two parts of every path's log terminal wealth, and its wipe-out mask.

    Returns ``sum(pi dS^c - pi^2 d[S]^c / 2)`` and the ``_jump_terms`` of
    the profile.  ``pi`` broadcasts: one shared per-cell vector or a
    per-path matrix.  Jump data comes flattened: parallel arrays of path
    row, cell index and jump size.

    The row sums run in row blocks; a row's sum does not depend on the
    rows beside it, so the result is the one a single whole-matrix sum
    gives, bit for bit.
    """
    n_paths, n_cells = cont_inc.shape
    cont = np.empty(n_paths)
    for blk in _row_blocks(n_paths, n_cells):
        p = pi if pi.ndim == 1 else pi[blk]
        cont[blk] = np.sum(p * cont_inc[blk] - 0.5 * p * p * dqv_cont[blk], axis=1)
    return (cont, *_jump_terms(_at_jumps(pi, jump_path, jump_cell), jump_path, jump_size, n_paths))


def _shape_moments(
    x: np.ndarray, cont_inc: np.ndarray, dqv_cont: np.ndarray, dh: np.ndarray
) -> np.ndarray:
    """Per-path sums ``x dS^c``, ``x^2 d[S]^c``, ``x dh`` and ``x^2 dh^2``, as
    the rows of a ``(4, n_paths)`` array.

    For a profile ``c x`` the continuous log-wealth sum is
    ``c A - c^2 B / 2`` and the supermartingale exponent ``c Ah - c^2 Bh``
    in these four moments ``A, B, Ah, Bh``, so one pass over ``x`` serves
    every coefficient.  ``x`` broadcasts like ``pi`` in
    ``_log_wealth_terms`` and is summed in the same row blocks.
    """
    n_paths, n_cells = cont_inc.shape
    out = np.empty((4, n_paths))
    for blk in _row_blocks(n_paths, n_cells):
        p = x if x.ndim == 1 else x[blk]
        pp, h = p * p, dh[blk]
        pairs = ((p, cont_inc[blk]), (pp, dqv_cont[blk]), (p, h), (pp, h * h))
        for k, (w, inc) in enumerate(pairs):
            out[k, blk] = np.sum(w * inc, axis=1)
    return out


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
    """Per-path log terminal wealth ``sum(pi dS - pi^2 d[S] / 2)`` for a
    continuous ensemble, summed one row block at a time.

    ``pi`` broadcasts: either one shared per-cell vector or a per-path
    matrix.
    """
    pi = np.asarray(pi, dtype=float)
    out = np.empty(ensemble.n_paths)
    for blk in _row_blocks(ensemble.n_paths, ensemble.grid.n_steps):
        p = pi if pi.ndim == 1 else pi[blk]
        ds = np.diff(ensemble.values[blk], axis=1)
        dqv = np.diff(ensemble.qv[blk], axis=1)
        out[blk] = np.sum(p * ds - 0.5 * p * p * dqv, axis=1)
    return out


def terminal_log_wealth_jumps(
    pi: np.ndarray,
    cont_inc: np.ndarray,
    dqv_cont: np.ndarray,
    jump_path: np.ndarray,
    jump_cell: np.ndarray,
    jump_size: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path log terminal wealth with jumps, plus the wipe-out mask.

    Jump data comes flattened: parallel arrays of path row, cell index,
    and jump size.  Paths with any factor (1 + pi dS) <= 0 get -inf.
    """
    cont, jump, wiped = _log_wealth_terms(pi, cont_inc, dqv_cont, jump_path, jump_cell, jump_size)
    return _terminal_log_wealth(cont, jump, wiped), wiped
