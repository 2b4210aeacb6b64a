"""Wealth dynamics over ensembles: the integral sum, the stochastic
exponential with and without jumps against a row-by-row reference, the
left-endpoint recursion residual, the -inf utility convention, and the
row-blocked log-wealth kernel against whole-matrix sums."""

import tracemalloc

import numpy as np
import pytest

from qvmart import path_core
from qvmart.errors import ContractViolation
from qvmart.inference import BinSpec, estimate_alpha, growth_optimal_value
from qvmart.path_core import _CHUNK_CELLS, Ensemble, TimeGrid, qv_matrix
from qvmart.simulate import BrownianModel, DriftedDiffusion, SeedStream, gen_bundles, gen_ensemble
from qvmart.simulate import make_insider_grid
from qvmart.wealth import (
    dd_residual,
    log_utility,
    stoch_exp_ensemble,
    terminal_log_wealth_continuous,
    terminal_log_wealth_jumps,
)
from qvmart.wealth import _moments
from test_path_core import one_row


def brownian(seed, level):
    return BrownianModel().path_at_level(SeedStream(seed), 0, level)


def pure_jump_path(level=4, t=0.5, size=1.0):
    g = TimeGrid.dyadic(level)
    return one_row(g, np.zeros(g.points.size), [(t, size)])


def ref_wealth(pi, values, cells, sizes):
    """Wealth along one path, cell by cell, and its first ruined cell (-1 if none).

    Each cell multiplies the wealth by exp(pi dS^c - pi^2 d[S^c] / 2), with
    dS^c the increment less the cell's jump and d[S^c] its square, and a
    cell with a jump also by (1 + pi dS).  Ruin is absorbing: from the
    first cell whose running jump factor is nonpositive the wealth stays
    where it is.
    """
    jump = dict(zip(np.asarray(cells).tolist(), np.asarray(sizes, dtype=float).tolist()))
    exponent, factor, logs, factors = 0.0, 1.0, [], []
    for k in range(values.size - 1):
        p, inc = pi[k], values[k + 1] - values[k] - jump.get(k, 0.0)
        exponent += p * inc - 0.5 * p * p * (inc * inc)
        factor *= (1.0 + p * jump[k]) if k in jump else 1.0
        logs.append(exponent)
        factors.append(factor)
    w = np.concatenate([[1.0], np.exp(logs) * factors])
    dead = next((k for k, f in enumerate(factors) if f <= 0.0), -1)
    if dead >= 0:
        w[dead + 2:] = w[dead + 1]
    return w, dead


def whole(*xs):
    """``_moments``' profiles for whole profiles: each view's rows of each."""
    return lambda rows, part: [x if x.ndim == 1 else x[rows] for x in xs]


def ref_rows(pi, ens):
    """``ref_wealth`` of every row of ``ens``, ``pi`` shared or one row per path."""
    pi = np.broadcast_to(pi, (ens.n_paths, ens.grid.n_steps))
    rows = [ref_wealth(pi[i], ens.values[i], ens.jump_cell[ens.jump_path == i],
                       ens.jump_size[ens.jump_path == i]) for i in range(ens.n_paths)]
    return np.stack([w for w, _ in rows]), np.array([d for _, d in rows])


class TestSimpleIntegral:
    """The integral sum pi dS, read as the kernel's linear moment."""

    @staticmethod
    def integral(pi, p):
        return _moments(p, whole(np.asarray(pi, dtype=float)))[0, 0, 0]

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

    def test_log_wealth_subtracts_half_the_ensembles_variation(self):
        p = brownian(3, 8)
        pi = np.ones(p.grid.n_steps)
        got = terminal_log_wealth_continuous(pi, p)[0]
        assert got == pytest.approx(self.integral(pi, p) - 0.5 * qv_matrix(p)[0, -1], abs=1e-12)


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
        want = np.exp(np.cumsum(pi * inc - 0.5 * pi * pi * (inc * inc)))
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
        logw, wiped = terminal_log_wealth_jumps(pi[None, :], p)
        assert not wiped[0]
        assert np.exp(logw[0]) == pytest.approx(w[0, -1], rel=1e-12)

    @pytest.mark.parametrize("shared", [True, False], ids=["row", "matrix"])
    def test_matches_row_by_row_reference(self, shared, monkeypatch):
        # insider bundles: several jumps per row, some rows ruined, in one
        # row block and in blocks of 1 and 7 rows
        grid = make_insider_grid(1e-2, n_uniform=16, n_log=24)
        ens = gen_bundles(SeedStream(7), 30, grid, 1e-2, 3.0)
        rng = np.random.default_rng(1)
        pi = rng.uniform(-1.0, 1.0, grid.n_steps if shared else (30, grid.n_steps))
        want_w, want_dead = ref_rows(pi, ens)
        for rows in (None, 1, 7):
            if rows:
                monkeypatch.setattr(path_core, "_CHUNK_CELLS", rows * grid.n_steps)
            w, dead = stoch_exp_ensemble(pi, ens)
            assert w.tobytes() == want_w.tobytes(), rows
            np.testing.assert_array_equal(dead, want_dead)
        assert (dead >= 0).any() and (dead < 0).any()

    def test_working_set_is_bounded(self):
        # the wealth matrix (1x) and one row block of temporaries, against
        # 6x with whole-matrix temporaries
        vals = np.cumsum(np.random.default_rng(2).normal(0.0, 0.06, (10_000, 257)), axis=1)
        ens = Ensemble(TimeGrid.uniform(256), vals, 2, "x")
        tracemalloc.start()
        try:
            stoch_exp_ensemble(np.full(256, 0.5), ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * vals.nbytes


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
    """The row-blocked moment kernel and the terminal log wealths built on
    it, against whole-matrix sums written out here."""

    CELLS = 2048
    ROWS = _CHUNK_CELLS // CELLS  # rows per block
    # one row, whole blocks, and whole blocks and one row: 128 is a whole
    # number of blocks for any power-of-two block of at most 2^18 cells
    N_PATHS = [1, 128, 257]

    def data(self, n_paths, shared, jumps=True, seed=3):
        """An ensemble, a profile, recentred increments and the continuous
        increments written out over the whole matrix."""
        rng = np.random.default_rng(seed)
        values = np.cumsum(rng.normal(0.0, 0.05, (n_paths, self.CELLS + 1)), axis=1)
        if jumps:
            flat = np.sort(rng.choice(n_paths * self.CELLS, 8 * n_paths, replace=False))
            jp, jc = np.divmod(flat, self.CELLS)
            js = rng.choice([-1.0, 1.0], flat.size) * rng.uniform(0.5, 3.0, flat.size)
        else:
            jp, jc, js = np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0)
        ens = Ensemble(TimeGrid.uniform(self.CELLS), values, None, "kernel", jp, jc, js)
        pi = rng.uniform(-0.9, 0.9, self.CELLS if shared else (n_paths, self.CELLS))
        dh = rng.normal(0.0, 0.05, (n_paths, self.CELLS))
        inc = np.diff(values, axis=1)
        inc[jp, jc] -= js
        return ens, pi, dh, inc

    @pytest.mark.parametrize("n_paths", N_PATHS)
    @pytest.mark.parametrize("shared", [True, False], ids=["row", "matrix"])
    @pytest.mark.parametrize("jumps", [False, True], ids=["jump-free", "jumps"])
    def test_bit_equal_to_whole_matrix_sums(self, n_paths, shared, jumps):
        ens, pi, _, inc = self.data(n_paths, shared, jumps)
        cont = np.sum(pi * inc, axis=1) - 0.5 * np.sum(pi * pi * (inc * inc), axis=1)
        assert terminal_log_wealth_continuous(pi, ens).tobytes() == cont.tobytes()
        ref_jump, ref_wiped = np.zeros(n_paths), np.zeros(n_paths, dtype=bool)
        pm = np.broadcast_to(pi, inc.shape)
        for p, c, z in zip(ens.jump_path, ens.jump_cell, ens.jump_size):
            f = 1.0 + pm[p, c] * z
            if f <= 0.0:
                ref_wiped[p] = True
            else:
                ref_jump[p] += np.log(f)
        logw, wiped = terminal_log_wealth_jumps(pi, ens)
        assert wiped.tobytes() == ref_wiped.tobytes()
        assert ref_wiped.any() == jumps  # the mask is exercised
        assert logw.tobytes() == np.where(ref_wiped, -np.inf, cont + ref_jump).tobytes()

    @pytest.mark.parametrize("n_paths", N_PATHS)
    @pytest.mark.parametrize("shared", [True, False], ids=["row", "matrix"])
    def test_moments_bit_equal_to_whole_matrix_sums(self, n_paths, shared):
        ens, x, dh, inc = self.data(n_paths, shared)
        want = [np.sum(x * inc, axis=1), np.sum(x * x * (inc * inc), axis=1),
                np.sum(x * dh, axis=1), np.sum(x * x * (dh * dh), axis=1)]
        without, with_dh = _moments(ens, whole(x))[0], _moments(ens, whole(x), lambda r: dh[r])[0]
        assert without.shape == (2, n_paths) and with_dh.shape == (4, n_paths)
        for got in (without, with_dh):
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("recentred", [False, True], ids=["no-dh", "dh"])
    def test_several_profiles_equal_one_call_each(self, recentred):
        ens, x, dh, _ = self.data(self.ROWS + 3, False)
        xs = [x, x[0], np.abs(x), np.zeros(self.CELLS)]
        f = (lambda rows: dh[rows]) if recentred else None
        got = _moments(ens, whole(*xs), f)
        for g, one in zip(got, xs):
            assert g.tobytes() == _moments(ens, whole(one), f)[0].tobytes()

    @pytest.mark.parametrize("state_bins", [0, 4])
    def test_growth_direct_matches_value(self, state_bins):
        # the fitted drift's log wealth A - B/2 and half its quadratic mass
        # B / 2 come from one pass; in-sample their means agree
        ens = gen_ensemble(DriftedDiffusion(0.1, 0.2), SeedStream(8), 2000, TimeGrid.uniform(64))
        growth = growth_optimal_value(estimate_alpha(ens, BinSpec(8, state_bins)), ens)
        assert growth.direct.estimate == pytest.approx(growth.value, rel=1e-12)
