"""Wealth dynamics: simple integrals, both stochastic exponentials, the
left-endpoint recursion residual, and the -inf utility convention."""

import numpy as np
import pytest

from qvmart.errors import ContractViolation
from qvmart.path_core import _CHUNK_CELLS, QVPath, SamplePath, TimeGrid, quadratic_variation
from qvmart.simulate import BrownianModel, SeedStream
from qvmart.wealth import (
    dd_residual,
    log_utility,
    log_utility_from_terminals,
    simple_integral,
    stoch_exp_continuous,
    stoch_exp_jumps,
    terminal_log_wealth_jumps,
)
from qvmart.wealth import _log_wealth_terms, _shape_moments


def brownian(seed, level):
    return BrownianModel().path_at_level(SeedStream(seed), 0, level)


def pure_jump_path(level=4, t=0.5, size=1.0):
    g = TimeGrid.dyadic(level)
    vals = np.zeros(g.points.size)
    k = g.index_of(t)
    vals[k:] = size
    return SamplePath(g, vals, ((t, size),))


class TestSimpleIntegral:
    def test_unit_telescopes(self):
        p = brownian(1, 8)
        out = simple_integral(np.ones(p.grid.n_steps), p)
        np.testing.assert_allclose(out.values, p.values - p.values[0], atol=1e-15)

    def test_zero(self):
        p = brownian(1, 6)
        out = simple_integral(np.zeros(p.grid.n_steps), p)
        assert np.all(out.values == 0.0)

    def test_deterministic_window(self):
        g = TimeGrid.uniform(100)
        p = SamplePath(g, g.points.copy())
        pi = (g.points[:-1] < 0.5).astype(float)  # 1 on (0, 1/2]
        out = simple_integral(pi, p)
        assert out.values[-1] == pytest.approx(0.5, abs=1e-12)

    def test_jump_passes_through_scaled(self):
        p = pure_jump_path(size=2.0)
        pi = np.full(p.grid.n_steps, 0.25)
        out = simple_integral(pi, p)
        assert out.jumps == ((0.5, 0.5),)
        assert out.values[-1] == pytest.approx(0.5)


class TestContinuousExponential:
    def test_zero_strategy_is_flat_one(self):
        p = brownian(2, 8)
        w = stoch_exp_continuous(np.zeros(256), p, quadratic_variation(p))
        assert np.all(w.values == 1.0)

    def test_unit_strategy_formula(self):
        p = brownian(3, 8)
        qv = quadratic_variation(p)
        w = stoch_exp_continuous(np.ones(256), p, qv)
        np.testing.assert_allclose(
            w.values, np.exp(p.values - 0.5 * qv.values), rtol=1e-12
        )

    def test_exponential_martingale_mean_one(self):
        stream = SeedStream(17)
        model = BrownianModel()
        w1 = np.empty(4000)
        for i in range(4000):
            p = model.path_at_level(stream, i, 8)
            qv = quadratic_variation(p)
            w1[i] = stoch_exp_continuous(np.ones(256), p, qv).terminal
        se = w1.std(ddof=1) / np.sqrt(w1.size)
        assert abs(w1.mean() - 1.0) <= 3.0 * se

    def test_strict_positivity(self):
        for seed in range(10):
            p = brownian(seed, 6)
            w = stoch_exp_continuous(np.full(64, 3.0), p, quadratic_variation(p))
            assert np.all(w.values > 0.0)

    def test_rejects_jumpy_path(self):
        p = pure_jump_path()
        with pytest.raises(ContractViolation):
            stoch_exp_continuous(np.ones(16), p, quadratic_variation(p))


class TestJumpExponential:
    def test_no_jumps_bit_equal_to_continuous(self):
        p = brownian(5, 7)
        qv = quadratic_variation(p)
        pi = np.linspace(-1, 1, 128)
        a = stoch_exp_continuous(pi, p, qv)
        b = stoch_exp_jumps(pi, p, qv)
        np.testing.assert_array_equal(a.values, b.values)

    def test_single_up_jump(self):
        # pure jump of +1 with full proportion: W_1 = (1 + 1) = 2
        p = pure_jump_path(size=1.0)
        qv_cont = quadratic_variation(p.continuous_part())
        w = stoch_exp_jumps(np.ones(16), p, qv_cont)
        assert w.terminal == pytest.approx(2.0, rel=1e-12)
        assert not w.hit_nonpositive

    def test_wipe_out_freezes(self):
        # jump of -2 against proportion 0.5: factor (1 - 1) = 0, flagged
        p = pure_jump_path(size=-2.0)
        qv_cont = quadratic_variation(p.continuous_part())
        w = stoch_exp_jumps(np.full(16, 0.5), p, qv_cont)
        assert w.hit_nonpositive
        assert w.first_nonpositive_time == 0.5
        k = p.grid.index_of(0.5)
        assert np.all(w.values[k:] == 0.0)
        assert np.all(w.values[:k] == 1.0)

    def test_flag_iff_some_factor_nonpositive(self):
        g = TimeGrid.uniform(10)
        vals = np.zeros(11)
        vals[3:] += -2.0
        vals[7:] += -2.0
        p = SamplePath(g, vals, ((0.3, -2.0), (0.7, -2.0)))
        qv_cont = quadratic_variation(p.continuous_part())
        # both factors negative: the product would flip back positive, but
        # ruin is absorbing, so the path stays frozen at its first death
        w = stoch_exp_jumps(np.ones(10), p, qv_cont)
        assert w.hit_nonpositive and w.first_nonpositive_time == pytest.approx(0.3)
        pi = np.full(10, 0.25)  # factors 0.5 each: no ruin
        w2 = stoch_exp_jumps(pi, p, qv_cont)
        assert not w2.hit_nonpositive
        assert w2.terminal == pytest.approx(0.25, rel=1e-12)

    def test_gamma_zero_is_numeraire(self):
        p = pure_jump_path(size=3.0)
        w = stoch_exp_jumps(np.zeros(16), p, quadratic_variation(p.continuous_part()))
        assert np.all(w.values == 1.0)

    def test_matrix_helper_matches_pathwise(self):
        p = pure_jump_path(size=-0.5)
        qv_cont = quadratic_variation(p.continuous_part())
        pi = np.full(16, 0.8)
        w = stoch_exp_jumps(pi, p, qv_cont)
        logw, wiped = terminal_log_wealth_jumps(
            pi[None, :].repeat(1, axis=0),
            np.diff(p.continuous_part().values)[None, :],
            np.diff(qv_cont.values)[None, :],
            np.array([0]),
            np.array([p.grid.index_of(0.5) - 1]),
            np.array([-0.5]),
        )
        assert not wiped[0]
        assert np.exp(logw[0]) == pytest.approx(w.terminal, rel=1e-12)


class TestDDResidual:
    def test_zero_strategy(self):
        p = brownian(4, 8)
        w = stoch_exp_continuous(np.zeros(256), p, quadratic_variation(p))
        assert dd_residual(np.zeros(256), p, w) == 0.0

    def test_deterministic_linear_path(self):
        # S_t = t: exact wealth ~ e^t, Euler error O(1/n), analyzed upfront
        g = TimeGrid.dyadic(10)
        p = SamplePath(g, g.points.copy())
        pi = np.ones(g.n_steps)
        w = stoch_exp_continuous(pi, p, quadratic_variation(p))
        assert dd_residual(pi, p, w) <= 1e-2

    def test_brownian_residual_shrinks_under_refinement(self):
        # same realization, strong-order-1/2 shrink: median factor >= 2
        # between levels 10 and 14 (the mesh ratio is 16)
        stream = SeedStream(99)
        model = BrownianModel()
        ratios = []
        for i in range(30):
            res = {}
            for level in (10, 14):
                p = model.path_at_level(stream, i, level)
                qv = quadratic_variation(p)
                pi = np.ones(p.grid.n_steps)
                w = stoch_exp_continuous(pi, p, qv)
                res[level] = dd_residual(pi, p, w)
            ratios.append(res[10] / res[14])
        assert np.median(ratios) >= 2.0


class TestLogUtility:
    def test_all_unit_wealth(self):
        g = TimeGrid.dyadic(3)
        paths = [stoch_exp_continuous(np.zeros(8), SamplePath(g, np.zeros(9)),
                                      QVPath(g, np.zeros(9))) for _ in range(5)]
        rep = log_utility(paths)
        assert rep.estimate == 0.0 and rep.stderr == 0.0 and rep.n_nonpositive == 0

    def test_single_ruin_dominates(self):
        rep = log_utility_from_terminals(np.array([0.1, 0.2, -np.inf]), 1)
        assert rep.estimate == -np.inf
        assert rep.n_nonpositive == 1

    def test_driftless_constant_proportion_mean(self):
        # log W_1 = a B_1 - a^2/2 QV_1, so the mean is about -a^2/2
        stream = SeedStream(23)
        model = BrownianModel()
        a = 0.7
        logs = np.empty(4000)
        for i in range(4000):
            p = model.path_at_level(stream, i, 8)
            qv = quadratic_variation(p)
            logs[i] = np.log(
                stoch_exp_continuous(np.full(256, a), p, qv).terminal
            )
        se = logs.std(ddof=1) / np.sqrt(logs.size)
        assert abs(logs.mean() - (-0.5 * a * a)) <= 3.0 * se

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            log_utility([])


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
