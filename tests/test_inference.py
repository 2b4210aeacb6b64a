"""Drift recovery, martingale diagnostics, and growth-optimality checks on
a drifted diffusion with known closed forms (mu = 0.1, sigma = 0.2 gives
alpha = mu/sigma^2 = 2.5 and optimal log utility mu^2/(2 sigma^2) = 0.125)."""

import tracemalloc

import numpy as np
import pytest

from qvmart import path_core
from qvmart.errors import ContractViolation
from qvmart.inference import (
    BinSpec,
    cauchy_schwarz_bound_check,
    cell_alpha,
    choose_truncation_level,
    decompose,
    estimate_alpha,
    estimate_lambda,
    growth_optimal_value,
    optimality_gap,
)
from qvmart.path_core import Ensemble, TimeGrid, truncation_index
from qvmart.simulate import BrownianModel, DriftedDiffusion, SeedStream, gen_ensemble
from qvmart.strategy import (
    HitRule,
    Leg,
    const_strategy,
    h2_norm,
    legs_strategy,
    sign_at_time_strategy,
    truncation_strategy,
    window_strategy,
)

MU, SIGMA = 0.1, 0.2
ALPHA = MU / SIGMA**2
GRID = TimeGrid.uniform(256)
GRID_32 = TimeGrid.uniform(32)


@pytest.fixture(scope="module")
def bs():
    ens = gen_ensemble(DriftedDiffusion(MU, SIGMA), SeedStream(314), 20_000, GRID)
    return ens


@pytest.fixture(scope="module")
def driftless():
    ens = gen_ensemble(BrownianModel(), SeedStream(42), 8000, TimeGrid.dyadic(8))
    return ens


@pytest.fixture(scope="module")
def bs_alpha(bs):
    return estimate_alpha(bs, BinSpec(32))


@pytest.fixture(scope="module")
def bs_growth(bs, bs_alpha):
    return growth_optimal_value(bs_alpha, bs)


class TestEstimateLambda:
    def test_zero_strategy_exact(self, driftless):
        ens = driftless
        [lam] = estimate_lambda([const_strategy(0.0)], ens)
        assert lam.value == 0.0 and lam.stderr == 0.0

    def test_driftless_within_noise(self, driftless):
        ens = driftless
        [lam] = estimate_lambda([const_strategy(1.0)], ens, stop_n=4.0)
        assert abs(lam.z) <= 3.0

    def test_drift_recovered(self, bs):
        ens = bs
        [lam] = estimate_lambda([const_strategy(1.0)], ens)
        assert abs(lam.value - MU) <= 3.0 * lam.stderr

    def test_linearity_per_path(self, driftless):
        ens = driftless
        a, b = 2.0, -3.0
        # a * 1 + b * window rendered as explicit leg values
        lam1, lam2, combo = estimate_lambda(
            [const_strategy(1.0), window_strategy(1.0, 0.0, 0.5), _combo(a, b)], ens)
        assert combo.value == pytest.approx(a * lam1.value + b * lam2.value, rel=1e-10)


def _combo(a, b):
    # a on (1/2, 1], a + b on (0, 1/2]
    from qvmart.strategy import Leg, legs_strategy

    return legs_strategy(
        legs=(Leg(until=0.5, value=a + b), Leg(until=1.0, value=a)),
        bound=abs(a) + abs(b),
        name="combo",
    )


class TestEstimateAlpha:
    def test_constant_drift_all_bins(self, bs_alpha):
        est = bs_alpha
        assert est.estimated.all()
        z = (est.alpha - ALPHA) / est.stderr
        assert np.max(np.abs(z)) <= 3.0

    def test_driftless_all_bins_near_zero(self, driftless):
        ens = driftless
        est = estimate_alpha(ens, BinSpec(16))
        z = est.alpha / est.stderr
        assert np.max(np.abs(z)) <= 3.0

    def test_time_dependent_drift_localized(self):
        model = DriftedDiffusion(lambda t, s: 1.0 if t > 0.5 else 0.0, lambda t, s: 1.0)
        ens = gen_ensemble(model, SeedStream(11), 8000, TimeGrid.uniform(128))
        est = estimate_alpha(ens, BinSpec(8))
        early = est.alpha[:4] / est.stderr[:4]
        late = (est.alpha[4:] - 1.0) / est.stderr[4:]
        # the switch-on cell bleeds one left-endpoint increment into bin 4
        assert np.max(np.abs(early)) <= 3.0
        assert np.max(np.abs(late)) <= 3.5

    def test_min_count_marks_no_estimate(self, driftless):
        ens = driftless
        est = estimate_alpha(ens, BinSpec(16, min_count=10**9))
        assert not est.estimated.any()
        assert np.isnan(est.alpha).all()

    def test_state_bins_shape(self, driftless):
        ens = driftless
        est = estimate_alpha(ens, BinSpec(4, state_bins=3, min_count=10))
        assert est.alpha.size == 12
        assert est.estimated.any()
        a_cells, covered = cell_alpha(est, ens)
        assert a_cells.shape == (ens.n_paths, ens.grid.n_steps)

    @pytest.mark.parametrize("n_rows", [1, 50])
    @pytest.mark.parametrize("k", [1, 2, 4, 32])
    def test_time_bins_are_one_state_bin(self, k, n_rows):
        # time-only binning is the one-state-bin case, to the bit, whatever
        # the bin count and however few rows
        ens = gen_ensemble(DriftedDiffusion(MU, SIGMA), SeedStream(5), n_rows, GRID)
        time_only = estimate_alpha(ens, BinSpec(k, min_count=1))
        one_state = estimate_alpha(ens, BinSpec(k, state_bins=1, min_count=1))
        assert time_only.estimated.all()
        for name in ("alpha", "stderr", "count", "mass"):
            assert getattr(time_only, name).tobytes() == getattr(one_state, name).tobytes(), name


class TestDecompose:
    def test_zero_alpha_identity(self, driftless):
        ens = driftless
        est = estimate_alpha(ens, BinSpec(4))
        zeroed = type(est)(
            est.bin_spec, est.time_edges, est.state_edges,
            np.zeros_like(est.alpha), est.stderr, est.count, est.estimated, est.mass,
        )
        res = decompose(ens, zeroed)
        np.testing.assert_array_equal(res.s_hat.values, ens.values)

    def test_reconstruction_identity(self, bs, bs_alpha):
        ens = bs
        res = decompose(ens, bs_alpha)
        scale = max(1.0, float(np.max(np.abs(ens.values))))
        assert res.reconstruction_error / scale <= 1e-10

    @pytest.mark.parametrize("state_bins", [0, 3])
    def test_reconstruction_error_is_the_whole_matrix_rebuild(self, state_bins, monkeypatch):
        # S_hat + sum alpha d[S] against S, over the whole matrix at once,
        # equals the field decompose fills one row block at a time
        ens = gen_ensemble(DriftedDiffusion(MU, SIGMA), SeedStream(12), 50, GRID_32)
        est = estimate_alpha(ens, BinSpec(8, state_bins=state_bins, min_count=20))
        monkeypatch.setattr(path_core, "_CHUNK_CELLS", 7 * GRID_32.n_steps)
        res = decompose(ens, est, max_uncovered=1.0)
        alpha_cells, covered = cell_alpha(est, ens)
        dqv = ens.variation_increments()
        drift = np.zeros_like(ens.values)
        drift[:, 1:] = np.cumsum(alpha_cells * dqv, axis=1)
        assert res.s_hat.values.tobytes() == (ens.values - drift).tobytes()
        want = np.max(np.abs(res.s_hat.values + drift - ens.values))
        assert res.reconstruction_error == want
        masses = np.sum(dqv, axis=1), np.sum(dqv * covered, axis=1)
        assert res.coverage == float(np.sum(masses[1])) / float(np.sum(masses[0]))

    def test_nan_path_gives_nan_reconstruction_error(self):
        vals = gen_ensemble(DriftedDiffusion(MU, SIGMA), SeedStream(12), 50, GRID_32).values.copy()
        vals[7, 20] = np.nan
        ens = Ensemble(GRID_32, vals, 12, "x")
        est = estimate_alpha(Ensemble(GRID_32, np.delete(vals, 7, axis=0), 12, "x"),
                             BinSpec(8, min_count=20))
        assert np.isnan(decompose(ens, est).reconstruction_error)

    def test_refuses_thin_coverage(self, driftless):
        ens = driftless
        est = estimate_alpha(ens, BinSpec(16, min_count=10**9))
        with pytest.raises(ContractViolation):
            decompose(ens, est)


class TestMartingaleResidual:
    def test_recentred_paths_pass_and_raw_fail(self, bs, bs_alpha):
        ens = bs
        res = decompose(ens, bs_alpha)
        stop_n = choose_truncation_level(res.s_hat)
        tests = [
            const_strategy(1.0),
            const_strategy(-1.0),
            window_strategy(1.0, 0.0, 0.5),
            sign_at_time_strategy(0.5, 1.0),
            truncation_strategy(stop_n),
        ]
        diags = estimate_lambda(tests, res.s_hat, stop_n)
        assert len(diags) == 5
        assert all(d.passed for d in diags)
        # negative control: the raw drifted paths are loudly non-martingale
        [raw] = estimate_lambda([const_strategy(1.0)], ens, stop_n=stop_n)
        assert abs(raw.z) > 3.0

    def test_oracle_alpha_also_passes(self, bs, bs_alpha):
        # inject the closed-form drift instead of the fitted one
        ens = bs
        est = bs_alpha
        oracle = type(est)(
            est.bin_spec, est.time_edges, est.state_edges,
            np.full_like(est.alpha, ALPHA), est.stderr, est.count, est.estimated,
            est.mass,
        )
        res = decompose(ens, oracle)
        diags = estimate_lambda([const_strategy(1.0), sign_at_time_strategy(0.5)], res.s_hat)
        assert all(d.passed for d in diags)


class TestGrowthOptimal:
    def test_zero_alpha_gives_zero(self, driftless):
        ens = driftless
        est = estimate_alpha(ens, BinSpec(4))
        zeroed = type(est)(
            est.bin_spec, est.time_edges, est.state_edges,
            np.zeros_like(est.alpha), est.stderr, est.count, est.estimated, est.mass,
        )
        rep = growth_optimal_value(zeroed, ens)
        assert rep.value == 0.0

    def test_matches_closed_form(self, bs, bs_alpha):
        ens = bs
        rep = growth_optimal_value(bs_alpha, ens)
        target = MU**2 / (2.0 * SIGMA**2)
        assert abs(rep.value - target) <= 3.0 * rep.stderr
        # direct wealth pricing agrees (identical in-sample by construction)
        assert rep.direct.estimate == pytest.approx(rep.value, rel=1e-10)

    def test_quadrupling_with_doubled_drift(self):
        ens = gen_ensemble(DriftedDiffusion(2 * MU, SIGMA), SeedStream(5), 20_000, GRID)
        est = estimate_alpha(ens, BinSpec(32))
        rep = growth_optimal_value(est, ens)
        assert abs(rep.value - 4.0 * 0.125) <= 3.0 * rep.stderr


class TestOptimalityGap:
    def test_fitted_drift_gap_is_zero(self, bs, bs_alpha, bs_growth):
        ens = bs
        # representing alpha_hat itself: reuse cell_alpha through a plain matrix
        a_cells, _ = cell_alpha(bs_alpha, ens)
        from qvmart.strategy import GridRuleStrategy

        strat = GridRuleStrategy("alpha_hat", 10.0, lambda e, ctx: a_cells)
        [g] = optimality_gap([strat], bs_growth, ens)
        assert g.gap == pytest.approx(0.0, abs=1e-14)
        assert g.stderr == pytest.approx(0.0, abs=1e-14)

    def test_constant_optimum_matches_fit(self, bs, bs_growth):
        ens = bs
        [g] = optimality_gap([const_strategy(ALPHA)], bs_growth, ens)
        assert g.gap <= 3.0 * g.stderr
        assert abs(g.gap) <= 3.0 * g.stderr + 1e-3  # near-zero both ways

    def test_doubled_proportion_quadratic_penalty(self, bs, bs_growth):
        # pi = 2 alpha loses (pi - alpha)^2 sigma^2 / 2 = 0.125 of log utility
        ens = bs
        [g] = optimality_gap([const_strategy(2 * ALPHA)], bs_growth, ens)
        assert g.gap == pytest.approx(-0.125, abs=3.0 * g.stderr + 0.005)

    def test_gap_never_significantly_positive(self, bs, bs_growth):
        ens = bs
        for g in optimality_gap([const_strategy(c) for c in np.linspace(0.5, 4.5, 9)] + [
            window_strategy(2.5, 0.0, 0.5),
            sign_at_time_strategy(0.5, 2.5),
            truncation_strategy(1.0),
        ], bs_growth, ens):
            assert g.gap <= 3.0 * g.stderr

    def test_growth_of_another_ensemble_refused(self, bs, bs_alpha):
        # one path's log wealth would broadcast against every path's
        growth = growth_optimal_value(bs_alpha, bs.head(1))
        with pytest.raises(ContractViolation, match="another ensemble"):
            optimality_gap([const_strategy(ALPHA)], growth, bs)


class TestRieszIdentity:
    def test_bin_measurable_exact(self, bs, bs_alpha):
        # test strategy constant on the estimator's own bins: equality is
        # an algebraic identity up to accumulation rounding
        ens = bs
        pi_strategy = window_strategy(1.0, 0.0, 0.25)  # 0.25 is a bin edge of 32
        [lam] = estimate_lambda([pi_strategy], ens)
        a_cells, _ = cell_alpha(bs_alpha, ens)
        dqv = ens.variation_increments()  # the fit's own d[S]
        from qvmart.strategy import pi_for_ensemble

        pi = pi_for_ensemble(pi_strategy, ens)
        rhs = float(np.mean(np.sum(pi * a_cells * dqv, axis=1)))
        assert lam.value == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_off_bin_within_noise(self, bs, bs_alpha):
        # half-bin window straddles a bin: only statistical agreement holds
        ens = bs
        pi_strategy = window_strategy(1.0, 0.25 / 2.0 ** 5, 0.25)  # starts mid-bin
        [lam] = estimate_lambda([pi_strategy], ens)
        a_cells, _ = cell_alpha(bs_alpha, ens)
        dqv = ens.variation_increments()  # the fit's own d[S]
        from qvmart.strategy import pi_for_ensemble

        pi = pi_for_ensemble(pi_strategy, ens)
        per_path = np.sum(pi * a_cells * dqv, axis=1)
        rhs = float(np.mean(per_path))
        se = float(np.std(per_path, ddof=1) / np.sqrt(ens.n_paths))
        assert abs(lam.value - rhs) <= 3.0 * np.hypot(lam.stderr, se)


class TestCauchySchwarzBound:
    def test_constant_family(self, bs):
        # closed form: C = mu^2/(2 sigma^2), Lambda(pi) = pi mu, norm = |pi| sigma,
        # so the bound holds with near equality for constants
        ens = bs
        rows = cauchy_schwarz_bound_check(
            [const_strategy(c) for c in (-2.0, -1.0, 0.0, 1.0, 2.0)],
            ens, c_bound=0.125,
        )
        assert all(r.ok for r in rows)

    def test_scaling_preserves_inequality(self, bs):
        ens = bs
        rows = cauchy_schwarz_bound_check(
            [const_strategy(1.0), const_strategy(4.0)], ens, c_bound=0.125
        )
        assert rows[1].lam == pytest.approx(4.0 * rows[0].lam, rel=1e-10)
        assert rows[1].norm == pytest.approx(4.0 * rows[0].norm, rel=1e-10)
        assert all(r.ok for r in rows)

    def test_negative_c_rejected(self, bs):
        ens = bs
        with pytest.raises(ContractViolation):
            cauchy_schwarz_bound_check([const_strategy(1.0)], ens, c_bound=-1.0)


class TestTruncationDiscipline:
    def test_choose_level_keeps_paths(self, bs):
        ens = bs
        n = choose_truncation_level(ens, target=0.99)
        hit = (np.abs(ens.values) > n) | (ens.qv > n)
        assert 1.0 - hit.any(axis=1).mean() >= 0.99

    def test_one_pass_level_is_the_multi_pass_level(self):
        # the level counted afresh at each power of two with truncation_index
        def multi_pass(ens, target):
            n, width = 1.0, ens.values.shape[1]
            for _ in range(64):
                stopped = np.count_nonzero(truncation_index(ens.values, ens.qv, n) < width)
                if 1.0 - stopped / ens.n_paths >= target:
                    return n
                n *= 2.0

        rng = np.random.default_rng(6)
        vals = np.cumsum(rng.normal(0.0, 1.0, (40, 33)) * rng.uniform(0.05, 8.0, (40, 1)), axis=1)
        vals[0] = 1.5 * (-1.0) ** np.arange(33)  # |S| = 1.5, [S] = 45 by t = 5/32 ...
        vals[0, 6:] = np.nan  # ... and NaN from there on
        vals[1, 0] = np.nan  # a NaN variation throughout, finite levels after t = 0
        vals[2] = np.nan
        ens = Ensemble(TimeGrid.uniform(32), vals, 6, "x")
        assert truncation_index(vals[0], ens.qv[0], 32.0) == 4
        assert truncation_index(vals[0], ens.qv[0], 64.0) == 33
        for target in (0.25, 0.5, 0.8, 0.95, 1.0):
            assert choose_truncation_level(ens, target) == multi_pass(ens, target), target

    def test_crossing_at_last_point_is_a_stop(self):
        vals = np.zeros((4, 4))
        vals[0, 1:] = [0.5, 0.9, 1.5]  # above n = 1 only at t = 1; variation 0.77 < 1
        ens = Ensemble(TimeGrid.uniform(3), vals, 0, "flat")
        assert choose_truncation_level(ens, target=1.0) == 2.0


class TestRowBlocks:
    """Each per-path sum is its own, so the estimators give the same bits
    whatever rows a block holds, and the blocks bound the working set."""

    @staticmethod
    def outputs(values: np.ndarray) -> list[bytes]:
        ens = Ensemble(GRID_32, values, 7, "x")  # a fresh one: its variation is not cached
        est = estimate_alpha(ens, BinSpec(8, state_bins=3, min_count=60))
        res = decompose(ens, est, max_uncovered=1.0)
        assert 0.0 < res.coverage < 1.0  # some bins have no estimate
        stop_n = choose_truncation_level(res.s_hat)
        est_t = estimate_alpha(ens, BinSpec(8))
        growth = growth_optimal_value(est_t, ens)
        [gap] = optimality_gap([sign_at_time_strategy(0.5, 0.8)], growth, ens)
        lams = estimate_lambda([const_strategy(1.0), truncation_strategy(0.25)], res.s_hat,
                               stop_n=0.25)
        norm = h2_norm(truncation_strategy(0.25), res.s_hat)  # reads each view's own qv
        nums = [res.coverage, res.reconstruction_error, stop_n, growth.value,
                growth.stderr, growth.direct.estimate, gap.gap, gap.stderr,
                *(x for lam in lams for x in (lam.value, lam.stderr)), norm.value, norm.stderr]
        arrays = [est.alpha, est.stderr, est.count, est.mass, est_t.alpha, est_t.stderr,
                  res.s_hat.values, res.s_hat.qv]
        return [np.asarray(nums).tobytes(), *(a.tobytes() for a in arrays)]

    def test_same_bits_in_blocks_of_any_size(self, monkeypatch):
        values = gen_ensemble(DriftedDiffusion(MU, SIGMA), SeedStream(9), 50, GRID_32).values
        whole = self.outputs(values)
        for rows in (1, 3, 49):
            monkeypatch.setattr(path_core, "_CHUNK_CELLS", rows * GRID_32.n_steps)
            assert self.outputs(values) == whole, rows

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_family_entries_are_singleton_calls(self, rows, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(path_core, "_CHUNK_CELLS", rows * GRID_32.n_steps)
        ens = gen_ensemble(DriftedDiffusion(MU, SIGMA), SeedStream(9), 50, GRID_32)
        growth = growth_optimal_value(estimate_alpha(ens, BinSpec(8)), ens)
        hit = legs_strategy((Leg(HitRule("level_or_qv", 0.15, default=0.5), 0.5),
                             Leg(1.0, 0.8, "sign_prefix_end")), 0.8)
        family = [const_strategy(1.0), hit, sign_at_time_strategy(0.5, 0.8),
                  truncation_strategy(0.2), window_strategy(2.0, 0.25, 0.75)]

        def lam_bits(lams):
            return np.asarray([(lam.value, lam.stderr) for lam in lams]).tobytes()

        def gap_bits(gaps):
            return np.asarray([(g.gap, g.stderr, g.utility_strategy, g.utility_optimal)
                               for g in gaps]).tobytes()

        for stop_n in (None, 0.2):  # 28 of the 50 paths stop
            lams = estimate_lambda(family, ens, stop_n)
            assert [lam.strategy for lam in lams] == [s.name for s in family]
            singles = [estimate_lambda([s], ens, stop_n)[0] for s in family]
            assert lam_bits(lams) == lam_bits(singles), stop_n
        singles = [optimality_gap([s], growth, ens)[0] for s in family]
        assert gap_bits(optimality_gap(family, growth, ens)) == gap_bits(singles)

    def test_state_bin_fit_and_rebuild_stay_bounded(self):
        # num and den at 256 bins (1x each), the recentred values (1x) and a
        # row block's temporaries, against 7x and more with whole-matrix passes
        vals = np.cumsum(np.random.default_rng(3).normal(0.0, 0.06, (2000, 257)), axis=1)
        ens = Ensemble(TimeGrid.uniform(256), vals, 3, "x")
        tracemalloc.start()
        try:
            est = estimate_alpha(ens, BinSpec(32, state_bins=8, min_count=20))
            decompose(ens, est)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * vals.nbytes

    def test_decompose_holds_only_the_recentred_values(self):
        # the recentred values (1x) and a row block's temporaries: no
        # variation matrix of the source paths, cached or transient
        vals = np.cumsum(np.random.default_rng(5).normal(0.0, 0.06, (10_000, 257)), axis=1)
        est = estimate_alpha(Ensemble(TimeGrid.uniform(256), vals, 5, "x"),
                             BinSpec(32, state_bins=8, min_count=20))
        ens = Ensemble(TimeGrid.uniform(256), vals, 5, "x")  # nothing cached on it
        tracemalloc.start()
        try:
            decompose(ens, est)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * vals.nbytes

    @staticmethod
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def recentred(self):
        vals = np.cumsum(np.random.default_rng(6).normal(0.0, 0.06, (10_000, 257)), axis=1)
        ens = Ensemble(TimeGrid.uniform(256), vals, 6, "x")
        return decompose(ens, estimate_alpha(ens, BinSpec(32, state_bins=8, min_count=20)))

    def test_martingale_residual_stays_bounded(self, recentred):
        # every test profile, stop and variation is one row view's: against
        # 3.1x with the whole profile and the whole cached variation
        s_hat = recentred.s_hat
        stop_n = choose_truncation_level(s_hat)
        tests = [const_strategy(1.0), const_strategy(-1.0), window_strategy(1.0, 0.0, 0.5),
                 sign_at_time_strategy(0.5, 1.0), truncation_strategy(stop_n)]
        peak = self.peak(lambda: estimate_lambda(tests, s_hat, stop_n))
        assert peak <= 1 * s_hat.values.nbytes

    def test_hitting_rule_norm_stays_bounded(self, recentred):
        # the truncation rule's profile reads each view's own variation: 3.1x
        # with a whole profile and the whole variation
        s_hat = Ensemble(recentred.s_hat.grid, recentred.s_hat.values, 6, "y")  # nothing cached
        assert self.peak(lambda: h2_norm(truncation_strategy(4), s_hat)) <= 1 * s_hat.values.nbytes

    def test_truncation_level_stays_bounded(self, recentred):
        # one view's variation at a time: 1.2x with the whole variation
        s_hat = Ensemble(recentred.s_hat.grid, recentred.s_hat.values, 6, "y")  # nothing cached
        assert self.peak(lambda: choose_truncation_level(s_hat)) <= 1 * s_hat.values.nbytes

    def test_time_only_fit_stays_bounded(self):
        # num and den at 32 bins (1/8x each) and a row block's temporaries,
        # against an increment matrix and more with whole-matrix passes
        vals = np.cumsum(np.random.default_rng(4).normal(0.0, 0.06, (20_000, 257)), axis=1)
        ens = Ensemble(TimeGrid.uniform(256), vals, 4, "x")
        tracemalloc.start()
        try:
            estimate_alpha(ens, BinSpec(32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * vals.nbytes
