"""Wealth dynamics over ensembles: the integral sum, the stochastic
exponential with and without jumps against a row-by-row reference, the
left-endpoint recursion residual, and the -inf utility convention."""

import numpy as np
import pytest

from qvmart.errors import ContractViolation
from qvmart.path_core import _CHUNK_CELLS, Ensemble, TimeGrid, qv_matrix
from qvmart.simulate import BrownianModel, SeedStream, gen_bundles, gen_ensemble, make_insider_grid
from qvmart.wealth import (
    dd_residual,
    log_utility,
    stoch_exp_ensemble,
    terminal_log_wealth_continuous,
    terminal_log_wealth_jumps,
)
from qvmart.wealth import _log_wealth_terms, _shape_moments
from test_path_core import one_row


def brownian(seed, level):
    return BrownianModel().path_at_level(SeedStream(seed), 0, level)


def pure_jump_path(level=4, t=0.5, size=1.0):
    g = TimeGrid.dyadic(level)
    return one_row(g, np.zeros(g.points.size), [(t, size)])


def ref_wealth(pi, values, cells, sizes):
    """Wealth along one path, cell by cell, and its first ruined cell (-1 if none).

    Each cell multiplies the wealth by exp(pi dS^c - pi^2 d[S^c] / 2), the
    variation being that of the path less its jumps, and a cell with a
    jump also by (1 + pi dS).  Ruin is absorbing: from the first cell whose
    running jump factor is nonpositive the wealth stays where it is.
    """
    jump = dict(zip(np.asarray(cells).tolist(), np.asarray(sizes, dtype=float).tolist()))
    steps = np.zeros_like(values)
    steps[np.asarray(cells, dtype=int) + 1] = sizes
    inc = np.diff(values - np.cumsum(steps))
    qv = np.concatenate([[0.0], np.cumsum(inc * inc)])
    exponent, factor, logs, factors = 0.0, 1.0, [], []
    for k in range(values.size - 1):
        p, dq = pi[k], qv[k + 1] - qv[k]
        exponent += p * (values[k + 1] - values[k] - jump.get(k, 0.0)) - 0.5 * p * p * dq
        factor *= (1.0 + p * jump[k]) if k in jump else 1.0
        logs.append(exponent)
        factors.append(factor)
    w = np.concatenate([[1.0], np.exp(logs) * factors])
    dead = next((k for k, f in enumerate(factors) if f <= 0.0), -1)
    if dead >= 0:
        w[dead + 2:] = w[dead + 1]
    return w, dead


def ref_rows(pi, ens):
    """``ref_wealth`` of every row of ``ens``, ``pi`` shared or one row per path."""
    pi = np.broadcast_to(pi, (ens.n_paths, ens.grid.n_steps))
    rows = [ref_wealth(pi[i], ens.values[i], ens.jump_cell[ens.jump_path == i],
                       ens.jump_size[ens.jump_path == i]) for i in range(ens.n_paths)]
    return np.stack([w for w, _ in rows]), np.array([d for _, d in rows])


class TestSimpleIntegral:
    """The integral sum pi dS, read as the continuous log-wealth sum
    against zero variation."""

    @staticmethod
    def integral(pi, p):
        return terminal_log_wealth_continuous(pi, p.values, np.zeros_like(p.values))[0]

    def test_unit_telescopes(self):
        p = brownian(1, 8)
        out = self.integral(np.ones(p.grid.n_steps), p)
        assert out == pytest.approx(p.values[0, -1] - p.values[0, 0], abs=1e-12)

    def test_zero(self):
        p = brownian(1, 6)
        assert self.integral(np.zeros(p.grid.n_steps), p) == 0.0

    def test_deterministic_window(self):
        g = TimeGrid.uniform(100)
        p = Ensemble(g, g.points[None], None, "line")
        pi = (g.points[:-1] < 0.5).astype(float)  # 1 on (0, 1/2]
        assert self.integral(pi, p) == pytest.approx(0.5, abs=1e-12)


class TestContinuousExponential:
    def test_zero_strategy_is_flat_one(self):
        w, dead = stoch_exp_ensemble(np.zeros(256), brownian(2, 8))
        assert np.all(w == 1.0) and dead[0] == -1

    def test_unit_strategy_formula(self):
        p = brownian(3, 8)
        w, _ = stoch_exp_ensemble(np.ones(256), p)
        np.testing.assert_allclose(w, np.exp(p.values - 0.5 * qv_matrix(p)), rtol=1e-12)

    def test_exponential_martingale_mean_one(self):
        ens = gen_ensemble(BrownianModel(), SeedStream(17), 4000, TimeGrid.dyadic(8))
        w1 = stoch_exp_ensemble(np.ones(256), ens)[0][:, -1]
        se = w1.std(ddof=1) / np.sqrt(w1.size)
        assert abs(w1.mean() - 1.0) <= 3.0 * se

    def test_strict_positivity(self):
        ens = gen_ensemble(BrownianModel(), SeedStream(0), 10, TimeGrid.dyadic(6))
        w, dead = stoch_exp_ensemble(np.full(64, 3.0), ens)
        assert np.all(w > 0.0) and np.all(dead == -1)


class TestJumpExponential:
    def test_no_jumps_bit_equal_to_continuous(self):
        # without jumps the wealth is the continuous exponential, bit for bit
        p = brownian(5, 7)
        pi = np.linspace(-1, 1, 128)
        w, dead = stoch_exp_ensemble(pi, p)
        inc = np.diff(p.values[0])
        want = np.exp(np.cumsum(pi * inc - 0.5 * pi * pi * np.diff(np.cumsum(inc * inc), prepend=0.0)))
        assert w[0, 1:].tobytes() == want.tobytes() and dead[0] == -1

    def test_single_up_jump(self):
        # pure jump of +1 with full proportion: W_1 = (1 + 1) = 2
        w, dead = stoch_exp_ensemble(np.ones(16), pure_jump_path(size=1.0))
        assert w[0, -1] == pytest.approx(2.0, rel=1e-12)
        assert dead[0] == -1

    def test_wipe_out_freezes(self):
        # jump of -2 against proportion 0.5: factor (1 - 1) = 0, flagged
        p = pure_jump_path(size=-2.0)
        w, dead = stoch_exp_ensemble(np.full(16, 0.5), p)
        assert p.grid.points[dead[0] + 1] == 0.5
        k = p.grid.index_of(0.5)
        assert np.all(w[0, k:] == 0.0)
        assert np.all(w[0, :k] == 1.0)

    def test_flag_iff_some_factor_nonpositive(self):
        g = TimeGrid.uniform(10)
        p = one_row(g, np.zeros(11), [(0.3, -2.0), (0.7, -2.0)])
        # both factors negative: the product would flip back positive, but
        # ruin is absorbing, so the path stays frozen at its first death
        w, dead = stoch_exp_ensemble(np.ones(10), p)
        assert g.points[dead[0] + 1] == pytest.approx(0.3)
        w2, dead2 = stoch_exp_ensemble(np.full(10, 0.25), p)  # factors 0.5 each: no ruin
        assert dead2[0] == -1
        assert w2[0, -1] == pytest.approx(0.25, rel=1e-12)

    def test_gamma_zero_is_numeraire(self):
        w, _ = stoch_exp_ensemble(np.zeros(16), pure_jump_path(size=3.0))
        assert np.all(w == 1.0)

    def test_matrix_helper_matches_pathwise(self):
        p = pure_jump_path(size=-0.5)
        pi = np.full(16, 0.8)
        w, _ = stoch_exp_ensemble(pi, p)
        logw, wiped = terminal_log_wealth_jumps(
            pi[None, :],
            p.continuous_increments(),
            np.diff(qv_matrix(p.continuous_part()), axis=1),
            p.jump_path, p.jump_cell, p.jump_size,
        )
        assert not wiped[0]
        assert np.exp(logw[0]) == pytest.approx(w[0, -1], rel=1e-12)

    @pytest.mark.parametrize("shared", [True, False], ids=["row", "matrix"])
    def test_matches_row_by_row_reference(self, shared):
        # insider bundles: several jumps per row, some rows ruined
        grid = make_insider_grid(1e-2, n_uniform=16, n_log=24)
        ens = gen_bundles(SeedStream(7), 30, grid, 1e-2, 3.0)
        rng = np.random.default_rng(1)
        pi = rng.uniform(-1.0, 1.0, grid.n_steps if shared else (30, grid.n_steps))
        w, dead = stoch_exp_ensemble(pi, ens)
        want_w, want_dead = ref_rows(pi, ens)
        assert w.tobytes() == want_w.tobytes()
        np.testing.assert_array_equal(dead, want_dead)
        assert (dead >= 0).any() and (dead < 0).any()


class TestDDResidual:
    def test_zero_strategy(self):
        p = brownian(4, 8)
        w, _ = stoch_exp_ensemble(np.zeros(256), p)
        np.testing.assert_array_equal(dd_residual(np.zeros(256), p, w), [0.0])

    def test_deterministic_linear_path(self):
        # S_t = t: exact wealth ~ e^t, Euler error O(1/n), analyzed upfront
        g = TimeGrid.dyadic(10)
        p = Ensemble(g, g.points[None], None, "line")
        pi = np.ones(g.n_steps)
        w, _ = stoch_exp_ensemble(pi, p)
        assert dd_residual(pi, p, w)[0] <= 1e-2

    def test_brownian_residual_shrinks_under_refinement(self):
        # same realization, strong-order-1/2 shrink: median factor >= 2
        # between levels 10 and 14 (the mesh ratio is 16)
        res = {}
        for level in (10, 14):
            ens = gen_ensemble(BrownianModel(), SeedStream(99), 30, TimeGrid.dyadic(level))
            pi = np.ones(ens.grid.n_steps)
            res[level] = dd_residual(pi, ens, stoch_exp_ensemble(pi, ens)[0])
        assert np.median(res[10] / res[14]) >= 2.0

    def test_one_residual_per_row(self):
        # each row's residual is that of the row alone
        ens = gen_ensemble(BrownianModel(), SeedStream(5), 6, TimeGrid.dyadic(6))
        pi = np.linspace(-1.0, 1.0, 64)
        res = dd_residual(pi, ens, stoch_exp_ensemble(pi, ens)[0])
        for i in range(6):
            one = Ensemble(ens.grid, ens.values[i : i + 1], None, "row")
            assert dd_residual(pi, one, stoch_exp_ensemble(pi, one)[0])[0] == res[i]


class TestLogUtility:
    def test_all_unit_wealth(self):
        rep = log_utility(np.zeros(5))
        assert rep.estimate == 0.0 and rep.stderr == 0.0 and rep.n_nonpositive == 0

    def test_single_ruin_dominates(self):
        rep = log_utility(np.array([0.1, 0.2, -np.inf]))
        assert rep.estimate == -np.inf
        assert rep.n_nonpositive == 1
        # every ruined path is counted
        rep = log_utility(np.array([-np.inf, 0.3, -np.inf, np.log(0.5)]))
        assert (rep.estimate, rep.n_paths, rep.n_nonpositive) == (-np.inf, 4, 2)

    def test_driftless_constant_proportion_mean(self):
        # log W_1 = a B_1 - a^2/2 QV_1, so the mean is about -a^2/2
        a = 0.7
        ens = gen_ensemble(BrownianModel(), SeedStream(23), 4000, TimeGrid.dyadic(8))
        logs = np.log(stoch_exp_ensemble(np.full(256, a), ens)[0][:, -1])
        se = logs.std(ddof=1) / np.sqrt(logs.size)
        assert abs(logs.mean() - (-0.5 * a * a)) <= 3.0 * se

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            log_utility(np.empty(0))


class TestRowBlockedKernel:
    """The row-blocked log-wealth and moment kernels against whole-matrix sums
    written out here."""

    CELLS = 2048
    ROWS = _CHUNK_CELLS // CELLS  # rows per block

    def data(self, n_paths, shared, jumps, seed=3):
        rng = np.random.default_rng(seed)
        ci = rng.normal(0.0, 0.05, (n_paths, self.CELLS))
        dq = ci * ci
        dh = rng.normal(0.0, 0.05, (n_paths, self.CELLS))
        pi = rng.uniform(-0.9, 0.9, self.CELLS if shared else (n_paths, self.CELLS))
        if jumps:
            flat = np.sort(rng.choice(n_paths * self.CELLS, 3 * n_paths, replace=False))
            jp, jc = np.divmod(flat, self.CELLS)
            js = rng.choice([-1.0, 1.0], flat.size) * rng.uniform(0.5, 3.0, flat.size)
        else:
            jp, jc, js = np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0)
        return pi, ci, dq, jp, jc, js, dh

    @pytest.mark.parametrize("n_paths", [1, ROWS, 2 * ROWS + 1])
    @pytest.mark.parametrize("shared", [True, False], ids=["row", "matrix"])
    @pytest.mark.parametrize("jumps", [False, True], ids=["jump-free", "jumps"])
    def test_bit_equal_to_whole_matrix_sums(self, n_paths, shared, jumps):
        pi, ci, dq, jp, jc, js, dh = self.data(n_paths, shared, jumps)
        cont, jump, wiped = _log_wealth_terms(pi, ci, dq, jp, jc, js)
        assert cont.tobytes() == np.sum(pi * ci - 0.5 * pi * pi * dq, axis=1).tobytes()
        ref_jump, ref_wiped = np.zeros(n_paths), np.zeros(n_paths, dtype=bool)
        pm = np.broadcast_to(pi, ci.shape)
        for p, c, z in zip(jp, jc, js):
            f = 1.0 + pm[p, c] * z
            if f <= 0.0:
                ref_wiped[p] = True
            else:
                ref_jump[p] += np.log(f)
        assert jump.tobytes() == ref_jump.tobytes()
        assert wiped.tobytes() == ref_wiped.tobytes()
        assert ref_wiped.any() == jumps  # the mask is exercised

    @pytest.mark.parametrize("n_paths", [1, ROWS, 2 * ROWS + 1])
    @pytest.mark.parametrize("shared", [True, False], ids=["row", "matrix"])
    def test_moments_bit_equal_to_whole_matrix_sums(self, n_paths, shared):
        x, ci, dq, _, _, _, dh = self.data(n_paths, shared, False)
        moments = _shape_moments(x, ci, dq, dh)
        ref = [np.sum(x * ci, axis=1), np.sum(x * x * dq, axis=1),
               np.sum(x * dh, axis=1), np.sum(x * x * (dh * dh), axis=1)]
        assert moments.shape == (4, n_paths)
        for got, want in zip(moments, ref):
            assert got.tobytes() == want.tobytes()
