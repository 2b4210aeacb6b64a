"""Strategy evaluation semantics: predictability, the open admissibility
band, the Hilbert norm, and the JSON description format."""

import json
from dataclasses import replace

import numpy as np
import pytest

from qvmart.errors import ConfigurationError, ContractViolation
from qvmart.path_core import Ensemble, TimeGrid
from qvmart.simulate import BrownianModel, SeedStream, gen_ensemble
from qvmart.strategy import (
    EvalContext,
    GridRuleStrategy,
    HitRule,
    Leg,
    band_check,
    band_fraction_strategy,
    const_strategy,
    evaluate,
    h2_norm,
    insider_sign_band,
    insider_switch_band,
    legs_strategy,
    load_strategy,
    load_strategy_file,
    pi_for_ensemble,
    sign_at_time_strategy,
    truncation_strategy,
    window_strategy,
)
from test_path_core import one_row


def linear_path(level=4, slope=1.0):
    g = TimeGrid.dyadic(level)
    return one_row(g, slope * g.points)


class TestEvaluate:
    def test_constant(self):
        pi = evaluate(const_strategy(0.7), linear_path())
        np.testing.assert_array_equal(pi, np.full(16, 0.7))

    def test_reduction_strategy(self):
        # 1 up to the first |S| > n crossing, 0 afterwards
        strat = legs_strategy(
            legs=(
                Leg(until=HitRule("abs_level", 5.0, default=1.0), value=1.0),
                Leg(until=1.0, value=0.0),
            ),
            bound=1.0,
            name="reduce",
        )
        g = TimeGrid.uniform(100)
        p = one_row(g, 10.0 * g.points)
        pi = evaluate(strat, p)
        # S > 5 first at t = 0.51 (index 51): proportion held on cells 0..50
        assert np.all(pi[:51] == 1.0) and np.all(pi[51:] == 0.0)

    def test_hit_never_triggers_with_default(self):
        strat = legs_strategy(
            legs=(
                Leg(until=HitRule("abs_level", 99.0, default=1.0), value=1.0),
                Leg(until=1.0, value=0.0),
            ),
            bound=1.0,
        )
        pi = evaluate(strat, linear_path())
        assert np.all(pi == 1.0)

    def test_hit_never_triggers_without_default_empties_leg(self):
        strat = legs_strategy(
            legs=(
                Leg(until=HitRule("abs_level", 99.0), value=1.0),
                Leg(until=1.0, value=0.5),
            ),
            bound=1.0,
        )
        pi = evaluate(strat, linear_path())
        assert np.all(pi == 0.5)

    def test_rule_sees_only_prefix(self):
        # the sign leg decides at t = 0.5 (index 8) from the level there, -0.5,
        # though the path turns positive right after
        strat = legs_strategy(
            legs=(Leg(until=0.5, value=0.0), Leg(until=1.0, value=1.0, rule_id="sign_prefix_end")),
            bound=1.0,
        )
        g = TimeGrid.dyadic(4)
        pi = evaluate(strat, one_row(g, np.where(g.points <= 0.5, -g.points, 1.0)))
        np.testing.assert_array_equal(pi, [0.0] * 8 + [-1.0] * 8)

    def test_predictability_under_suffix_perturbation(self):
        strat = legs_strategy(
            legs=(Leg(until=0.5, value=0.0), Leg(until=1.0, value=1.0, rule_id="sign_prefix_end")),
            bound=1.0,
        )
        p = linear_path(4)
        pi_before = evaluate(strat, p)
        bumped = p.values[0].copy()
        bumped[9:] += 100.0  # strictly after the decision time
        pi_after = evaluate(strat, one_row(p.grid, bumped))
        np.testing.assert_array_equal(pi_before, pi_after)

    def test_piecewise_constant_with_at_most_n_values(self):
        strat = legs_strategy(
            legs=(Leg(until=0.25, value=1.0), Leg(until=0.75, value=-2.0), Leg(until=1.0, value=0.5)),
            bound=2.0,
        )
        pi = evaluate(strat, linear_path(6))
        assert len(np.unique(pi)) <= 3

    def test_bound_enforced(self):
        strat = legs_strategy(legs=(Leg(until=1.0, value=7.0, rule_id="sign_prefix_end"),),
                               bound=1.0)
        with pytest.raises(ContractViolation):
            evaluate(strat, linear_path())

    @pytest.mark.parametrize("bound", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bound_must_be_positive_and_finite(self, bound):
        with pytest.raises(ConfigurationError, match="bound must be a positive finite number"):
            GridRuleStrategy("bad", bound, lambda e, ctx: np.zeros(e.grid.n_steps))

    @pytest.mark.parametrize("margin", [np.nan, 0.0, -0.5, 1.5])
    def test_margin_must_lie_in_unit_interval(self, margin):
        with pytest.raises(ConfigurationError, match="margin must lie in"):
            GridRuleStrategy("bad", 1.0, lambda e, ctx: np.zeros(e.grid.n_steps), margin=margin)

    def test_zero_scale_sign_rule_is_a_zero_profile(self):
        # the 1e-12 floor keeps the bound positive, as const_strategy(0) does
        for strat in (sign_at_time_strategy(0.5, 0.0), const_strategy(0.0)):
            assert strat.bound == 1e-12
            np.testing.assert_array_equal(evaluate(strat, linear_path()), np.zeros(16))
        with pytest.raises(ConfigurationError):
            sign_at_time_strategy(0.5, np.nan)

    def test_final_leg_must_reach_horizon(self):
        with pytest.raises(ConfigurationError):
            legs_strategy(legs=(Leg(until=0.5, value=1.0),), bound=1.0)

    def test_unknown_leg_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            Leg(until=1.0, value=1.0, rule_id="mystery")

    def test_takes_one_row(self):
        g = TimeGrid.dyadic(2)
        with pytest.raises(ContractViolation, match="one path, not 2"):
            evaluate(const_strategy(0.5), Ensemble(g, np.zeros((2, 5)), None, "two"))

    def test_matrix_and_per_path_agree(self):
        # every row of an ensemble profile equals the one-row profile of that
        # path alone, bit for bit, ties included: B1 == 0 (rows 0 and 2) and
        # gap == 0 (rows 1 and 2)
        stream = SeedStream(42)
        grid = TimeGrid.dyadic(6)
        ens = gen_ensemble(BrownianModel(), stream, 16, grid)
        driver = gen_ensemble(BrownianModel(), SeedStream(43), 16, grid).values.copy()
        driver[2] = 0.0
        insider = driver[:, -1].copy()
        insider[[0, 2]] = 0.0
        insider[1] = driver[1, 10]
        strategies = [
            const_strategy(1.5),
            window_strategy(1.0, 0.25, 0.75),
            sign_at_time_strategy(0.5, 2.0),
            truncation_strategy(0.5),
            load_strategy({"legs": [
                {"until": {"metric": "level_or_qv", "threshold": 0.4}, "params": {"value": 0.5}},
                {"until": {"metric": "abs_level", "threshold": 0.9, "default": 0.75},
                 "rule_id": "sign_prefix_end"},
                {"until": 1.0, "rule_id": "sign_prefix_end", "params": {"scale": -0.3}},
            ]}),
        ]
        for c in (-0.7, 0.0, 0.45):
            strategies += [band_fraction_strategy(c), insider_sign_band(c), insider_switch_band(c)]
        for strat in strategies:
            pim = pi_for_ensemble(strat, ens, insider, driver)
            rows = [one_row(grid, ens.values[i]) for i in range(ens.n_paths)]
            ref = np.stack([
                evaluate(strat, row, EvalContext(insider=insider[i], driver=driver[i]))
                for i, row in enumerate(rows)
            ])
            assert np.broadcast_to(pim, ref.shape).tobytes() == ref.tobytes(), strat.name

    def test_matrix_form_passes_the_same_checks(self):
        from qvmart.simulate import gen_bundles, make_insider_grid
        ens = gen_ensemble(BrownianModel(), SeedStream(1), 4, TimeGrid.dyadic(4))
        bundles = gen_bundles(SeedStream(1), 4, make_insider_grid(1e-2, 16, 32), 1e-2, 1.0)

        def rule(name, matrix_value, **kw):
            def fn(e, ctx):
                return np.full((e.n_paths, e.grid.n_steps), matrix_value)

            return GridRuleStrategy(name, 1.0, fn, **kw)

        over = rule("over", 2.0)
        for target in (ens, bundles):
            with pytest.raises(ContractViolation, match="declared bound"):
                pi_for_ensemble(over, target)
        wrong_shape = GridRuleStrategy("shape", 1.0, lambda e, ctx: np.zeros(3))
        with pytest.raises(ContractViolation, match="wrongly shaped"):
            pi_for_ensemble(wrong_shape, ens)
        # a path-independent rule must return the shared row
        with pytest.raises(ContractViolation, match="wrongly shaped"):
            pi_for_ensemble(rule("shared", 0.5, path_independent=True), ens)
        needs = rule("needs", 0.5, needs_insider=True)
        with pytest.raises(ContractViolation, match="insider datum"):
            pi_for_ensemble(needs, bundles)
        pi = pi_for_ensemble(needs, bundles, insider=bundles.b1, driver=bundles.b)
        assert pi.shape == (bundles.n_paths, bundles.grid.n_steps)


def rows(*values):
    """An ensemble on the uniform 8-step grid with the given value rows."""
    return Ensemble(TimeGrid.uniform(8), np.array(values, dtype=float), None, "test")


class TestCompiledLegs:
    """Leg profiles on small ensembles, against profiles written out by hand."""

    def test_hit_leg_after_hit_leg(self):
        # the second leg starts where each row's first leg ended: cells 2, 5, 1
        strat = legs_strategy((
            Leg(HitRule("abs_level", 1.0), 1.0),
            Leg(HitRule("abs_level", 2.0, default=1.0), -0.5),
            Leg(1.0, 0.25),
        ), bound=1.0)
        ens = rows(
            [0, 0.5, 1.5, 1.5, 2.5, 2.5, 2.5, 2.5, 2.5],
            [0, 0, 0, 0, 0, 1.5, 1.5, 3, 3],
            [0, -3, -3, -3, -3, -3, -3, -3, -3],
        )
        expected = [
            [1, 1, -0.5, -0.5, 0.25, 0.25, 0.25, 0.25],
            [1, 1, 1, 1, 1, -0.5, -0.5, 0.25],
            [1, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25],
        ]
        np.testing.assert_array_equal(pi_for_ensemble(strat, ens), expected)

    def test_sign_leg_after_hit_leg(self):
        # the sign is read at each row's own decision index, not later
        strat = legs_strategy((
            Leg(HitRule("abs_level", 1.0, default=1.0), 0.0),
            Leg(1.0, 0.5, "sign_prefix_end"),
        ), bound=0.5)
        ens = rows(
            [0, 0.5, 1.5, -2, -2, -2, -2, -2, -2],
            [0, -0.5, -0.5, -1.5, 3, 3, 3, 3, 3],
            [0, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2],
        )
        expected = [
            [0, 0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
            [0, 0, 0, -0.5, -0.5, -0.5, -0.5, -0.5],
            [0, 0, 0, 0, 0, 0, 0, 0],
        ]
        np.testing.assert_array_equal(pi_for_ensemble(strat, ens), expected)

    @pytest.mark.parametrize("metric", ["abs_level", "qv", "level_or_qv"])
    def test_negative_threshold_ends_the_leg_at_once(self, metric):
        strat = legs_strategy((
            Leg(0.25, 0.5),
            Leg(HitRule(metric, -1.0, default=0.75), 1.0),
            Leg(1.0, -0.5),
        ), bound=1.0)
        ens = rows([0, 1, 2, 3, 4, 5, 6, 7, 8], [0] * 9)
        expected = [0.5, 0.5, -0.5, -0.5, -0.5, -0.5, -0.5, -0.5]
        np.testing.assert_array_equal(pi_for_ensemble(strat, ens), [expected, expected])

    def test_never_crossed(self):
        # without a default the leg is empty; with one it ends there
        strat = legs_strategy((
            Leg(HitRule("abs_level", 99.0), 1.0),
            Leg(HitRule("level_or_qv", 99.0, default=0.5), 0.7),
            Leg(1.0, -0.2),
        ), bound=1.0)
        ens = rows([0, 1, -1, 1, -1, 1, -1, 1, -1], [0] * 9)
        expected = [0.7, 0.7, 0.7, 0.7, -0.2, -0.2, -0.2, -0.2]
        np.testing.assert_array_equal(pi_for_ensemble(strat, ens), [expected, expected])

    def test_fixed_legs_give_a_shared_row(self):
        pi = pi_for_ensemble(window_strategy(2.0, 0.25, 0.5), rows([0] * 9, [1] * 9))
        np.testing.assert_array_equal(pi, [0, 0, 2, 2, 0, 0, 0, 0])

    @pytest.mark.parametrize("t0, row, expected", [
        (0.5, [0, 1, 2, 3, -1, 5, 6, 7, 8], [0] * 4 + [-0.5] * 4),
        (0.5, [0, -1, -2, -3, 0.0, -5, -6, -7, -8], [0] * 4 + [0.5] * 4),  # level zero
        (0.5, [0, -1, -2, -3, -0.0, -5, -6, -7, -8], [0] * 4 + [0.5] * 4),  # and its negative
        (0.0, [-1, 1, 1, 1, 1, 1, 1, 1, 1], [-0.5] * 8),
        (1.0, [0, -1, -2, -3, -4, -5, -6, -7, -8], [0] * 8),
    ], ids=["negative", "zero", "minus-zero", "at-start", "at-end"])
    def test_sign_at_time(self, t0, row, expected):
        pi = pi_for_ensemble(sign_at_time_strategy(t0, 0.5), rows(row))
        np.testing.assert_array_equal(pi, [expected])

    @pytest.mark.parametrize("row, expected", [
        ([0, 0.5, 0.5, 1.5, 0, 0, 0, 0, 0], [1] * 3 + [0] * 5),
        ([2, 2, 2, 2, 2, 2, 2, 2, 2], [0] * 8),  # crossing at the first point
        ([0, 0, 0, 0, 0, 0, 0, 0, 2], [1] * 8),  # at the last point
        ([0.1] * 9, [1] * 8),  # no crossing
    ], ids=["middle", "first-point", "last-point", "never"])
    def test_truncation(self, row, expected):
        pi = pi_for_ensemble(truncation_strategy(1.0), rows(row))
        np.testing.assert_array_equal(pi, [expected])

    @pytest.mark.parametrize("threshold", [-1.0, 99.0])  # every row crosses; none does
    def test_default_off_the_grid_rejected_whatever_the_rows(self, threshold):
        strat = legs_strategy((
            Leg(HitRule("level_or_qv", threshold, default=0.3), 1.0),
            Leg(1.0, -0.5),
        ), bound=1.0)
        with pytest.raises(ContractViolation, match="grid point"):
            pi_for_ensemble(strat, rows([0, 1, 2, 3, 4, 5, 6, 7, 8], [0] * 9))


@pytest.fixture(scope="module")
def brownian():
    return gen_ensemble(BrownianModel(), SeedStream(7), 4000, TimeGrid.dyadic(9))


class TestH2Norm:
    def test_zero_strategy(self, brownian):
        ens = brownian
        assert h2_norm(const_strategy(0.0), ens).value == 0.0

    def test_unit_strategy_estimates_expected_variation(self, brownian):
        ens = brownian
        est = h2_norm(const_strategy(1.0), ens)
        assert abs(est.value - 1.0) <= 3.0 * est.stderr

    def test_quadratic_scaling(self, brownian):
        ens = brownian
        base = h2_norm(const_strategy(1.0), ens).value
        scaled = h2_norm(const_strategy(2.5), ens).value
        assert scaled == pytest.approx(2.5**2 * base, rel=1e-12)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ContractViolation):
            Ensemble(TimeGrid.dyadic(2), np.zeros((0, 5)), 0, "x")


class TestBandCheck:
    def test_half_band_admissible(self):
        rep = band_check(band_fraction_strategy(0.5), TimeGrid.uniform(64))
        assert rep.admissible

    def test_constant_violates_past_threshold(self):
        rep = band_check(const_strategy(0.6), TimeGrid.uniform(100))
        assert not rep.admissible
        first_t = rep.violations[0][0]
        assert first_t == pytest.approx(0.4, abs=1e-12)

    def test_exact_band_edge_is_out(self):
        # the band is open: pi_t = 1 - t sits on the boundary everywhere
        def fn(path, ctx):
            return 1.0 - path.grid.points[:-1]

        strat = GridRuleStrategy("edge", 1.0, fn)
        rep = band_check(strat, TimeGrid.uniform(32))
        assert not rep.admissible
        assert len(rep.violations) == 32

    def test_insider_rules_admissible(self):
        grid = TimeGrid.uniform(64)
        probe = np.linspace(0, -1, 65)[None]
        ctx = EvalContext(insider=np.array([-0.3]), driver=probe)
        for strat in (insider_sign_band(0.8), insider_switch_band(-0.8)):
            rep = band_check(strat, grid, Ensemble(grid, probe, None, "probe"), ctx)
            assert rep.admissible

    def test_default_probe_has_a_driver(self):
        # the default probe is a flat zero path with a zero driver row
        assert band_check(insider_switch_band(0.5), TimeGrid.uniform(16)).admissible
        assert band_check(insider_sign_band(-0.5), TimeGrid.uniform(16)).admissible

    def test_violation_reports_first_violating_row(self):
        # a sign leg from each row's first |S| > 0.5: row 0 never starts it,
        # row 2 holds -0.8 from t = 1/4 and row 1 +0.8 from t = 1/2, so the
        # report takes row 2's value at 1/4 and row 1's from then on
        grid = TimeGrid.uniform(4)
        vals = np.array([[0.0] * 5, [0.0, 0.1, 0.7, 0.7, 0.7], [0.0, -0.9, 0.0, 0.0, 0.0]])
        strat = legs_strategy((Leg(HitRule("abs_level", 0.5, default=1.0), 0.0),
                                Leg(1.0, 0.8, "sign_prefix_end")), bound=0.8)
        rep = band_check(strat, grid, Ensemble(grid, vals, None, "probe"))
        assert rep.violations == ((0.25, -0.8), (0.5, 0.8), (0.75, 0.8))

    def test_switch_rule_reads_only_driver_prefix(self):
        # the gap-sign switch decides each cell at its left endpoint, so
        # perturbing the driver strictly after t_k leaves cells <= k alone
        grid = TimeGrid.uniform(32)
        rng = np.random.default_rng(3)
        driver = np.concatenate([[0.0], rng.standard_normal(32).cumsum()])
        path = one_row(grid, np.zeros(33))
        strat = insider_switch_band(0.5)
        k = 20
        base = evaluate(strat, path, EvalContext(insider=0.2, driver=driver))
        bumped = driver.copy()
        bumped[k + 1 :] += 50.0
        after = evaluate(strat, path, EvalContext(insider=0.2, driver=bumped))
        np.testing.assert_array_equal(base[: k + 1], after[: k + 1])


class TestBandProfiles:
    """The band rules are ``scale * unit shape``; their profiles are byte for
    byte the closed forms with ``c`` inside, written out here."""

    CS = (-0.9, -0.675, -0.45, -0.225, 0.0, 0.225, 0.45, 0.675, 0.9)

    @staticmethod
    def data():
        from qvmart.simulate import gen_bundles, make_insider_grid

        ens = gen_bundles(SeedStream(4), 6, make_insider_grid(1e-2, 32, 64), 1e-2, 1.0)
        insider = ens.b1.copy()
        driver = ens.b.copy()
        insider[1] = 0.0  # a tie b1 == 0
        driver[2, 10:20] = insider[2]  # ties gap == 0
        return ens, insider, driver

    @pytest.mark.parametrize("c", CS)
    def test_scaled_shapes_equal_closed_forms(self, c):
        ens, insider, driver = self.data()
        one_minus_t = 1.0 - ens.grid.points[:-1]
        s = np.where(insider >= 0, 1.0, -1.0)
        row = c * one_minus_t
        closed = {
            band_fraction_strategy: c * one_minus_t,
            insider_sign_band: (c * s)[:, None] * one_minus_t,
            insider_switch_band: np.where(insider[:, None] - driver[:, :-1] >= 0, row, -row),
        }
        for build, want in closed.items():
            strat = build(c)
            assert strat.scale == c
            got = pi_for_ensemble(strat, ens, insider=insider, driver=driver)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), strat.name

    def test_coefficients_share_one_shape(self):
        for build in (band_fraction_strategy, insider_sign_band, insider_switch_band):
            assert len({build(c).fn for c in self.CS}) == 1


class TestMargin:
    """A band strategy's profile is held to ``(1 - margin)(1 - t)``."""

    def test_margin_violation_rejected(self):
        strat = load_strategy({"rule_id": "band_fraction", "params": {"c": 0.5}, "margin": 0.9})
        with pytest.raises(ContractViolation, match="margin"):
            evaluate(strat, linear_path())

    def test_margin_at_its_edge_accepted(self):
        # (1 - margin)(1 - t) == c (1 - t) up to rounding, inside the 1e-12 slack
        for c in (-0.9, -0.675, 0.225, 0.45):
            evaluate(band_fraction_strategy(c, 1.0 - abs(c)), linear_path())

    def test_margin_checked_on_every_row(self):
        def fn(ens, ctx):
            return np.where(np.arange(ens.n_paths)[:, None] == 1, 0.5, 0.0) * (
                1.0 - ens.grid.points[:-1])

        g = TimeGrid.dyadic(3)
        strat = GridRuleStrategy("row1", 0.5, fn, margin=0.9)
        ens = Ensemble(g, np.zeros((2, g.points.size)), None, "x")
        with pytest.raises(ContractViolation, match="margin"):
            pi_for_ensemble(strat, ens)
        pi_for_ensemble(replace(strat, margin=0.5), ens)


class TestStrategyFiles:
    def test_const_shorthand(self):
        strat = load_strategy({"name": "c", "rule_id": "const", "params": {"value": 2.0}})
        np.testing.assert_array_equal(evaluate(strat, linear_path()), np.full(16, 2.0))

    def test_legs_with_hit_rule(self):
        obj = {
            "name": "reduce",
            "bound": 1.0,
            "legs": [
                {"until": {"metric": "abs_level", "threshold": 5.0, "default": 1.0},
                 "rule_id": "const", "params": {"value": 1.0}},
                {"until": 1.0, "rule_id": "const", "params": {"value": 0.0}},
            ],
        }
        strat = load_strategy(obj)
        g = TimeGrid.uniform(100)
        pi = evaluate(strat, one_row(g, 10.0 * g.points))
        assert np.all(pi[:51] == 1.0) and np.all(pi[51:] == 0.0)

    def test_truncation_shorthand_matches_builder(self):
        strat = load_strategy({"rule_id": "truncation", "params": {"n": 0.5}})
        p = BrownianModel().path_at_level(SeedStream(3), 0, 8)
        ref = evaluate(truncation_strategy(0.5), p)
        np.testing.assert_array_equal(evaluate(strat, p), ref)

    @pytest.mark.parametrize("obj, builtin", [
        ({"rule_id": "const", "params": {"value": 0.5}}, "const(0.5)"),
        ({"rule_id": "band_fraction", "params": {"c": 0.5}}, "band(+0.5)"),
        ({"rule_id": "truncation", "params": {"n": 2.0}}, "truncation(2)"),
        ({"rule_id": "sign_prefix_end", "params": {"t0": 0.5}}, "sign_at(0.5)*1"),
        ({"bound": 1.0, "legs": [{"until": 1.0, "rule_id": "const", "params": {"value": 0.5}}]},
         ""),
    ], ids=["const", "band_fraction", "truncation", "sign_prefix_end", "legs"])
    def test_name_honoured_for_every_form(self, obj, builtin):
        named = load_strategy({"name": "x", **obj})
        plain = load_strategy(obj)
        assert named.name == "x" and plain.name == builtin

    def test_band_fraction_with_margin(self):
        strat = load_strategy(
            {"rule_id": "band_fraction", "params": {"c": 0.5}, "margin": 0.5}
        )
        assert isinstance(strat, GridRuleStrategy)
        assert strat.margin == 0.5

    def test_legs_with_margin(self):
        # the margin is checked on the legs form too: 0.2 up to t = 1/2 and 0.1
        # up to t = 7/8 lie inside (1 - 0.1)(1 - t); a sign leg held to t = 1 does not
        legs = [{"until": 0.5, "params": {"value": 0.2}},
                {"until": 0.875, "rule_id": "sign_prefix_end", "params": {"scale": 0.1}},
                {"until": 1.0, "params": {"value": 0.0}}]
        strat = load_strategy({"name": "m", "margin": 0.1, "legs": legs})
        assert isinstance(strat, GridRuleStrategy) and strat.margin == 0.1
        pi = evaluate(strat, linear_path(4, slope=-2.0))
        np.testing.assert_array_equal(pi, [0.2] * 8 + [-0.1] * 6 + [0.0] * 2)
        late = load_strategy({"name": "m", "margin": 0.1, "legs": legs[:1] + [
            {"until": 1.0, "rule_id": "sign_prefix_end", "params": {"scale": 0.1}}]})
        with pytest.raises(ContractViolation, match="margin"):
            evaluate(late, linear_path(4, slope=-2.0))

    def test_sign_prefix_leg(self):
        obj = {
            "bound": 1.0,
            "legs": [
                {"until": 0.5, "rule_id": "const", "params": {"value": 0.0}},
                {"until": 1.0, "rule_id": "sign_prefix_end", "params": {"scale": 1.0}},
            ],
        }
        strat = load_strategy(obj)
        pi = evaluate(strat, linear_path(4, slope=-2.0))
        assert np.all(pi[8:] == -1.0)

    def test_default_bound_covers_sign_scale(self):
        # without "bound", a sign leg's scale counts like a const leg's value
        obj = {
            "legs": [
                {"until": 0.5, "rule_id": "const", "params": {"value": 0.5}},
                {"until": 1.0, "rule_id": "sign_prefix_end", "params": {}},
            ],
        }
        strat = load_strategy(obj)
        assert strat.bound == 1.0
        pi = evaluate(strat, linear_path(4, slope=-2.0))
        assert np.all(pi[:8] == 0.5) and np.all(pi[8:] == -1.0)
        obj["legs"][1]["params"]["scale"] = -3.0
        assert load_strategy(obj).bound == 3.0

    def test_explicit_bound_below_a_leg_is_enforced(self):
        obj = {
            "bound": 0.5,
            "legs": [
                {"until": 0.5, "rule_id": "const", "params": {"value": 0.5}},
                {"until": 1.0, "rule_id": "sign_prefix_end", "params": {"scale": 1.0}},
            ],
        }
        with pytest.raises(ContractViolation):
            evaluate(load_strategy(obj), linear_path(4, slope=-2.0))

    def test_file_with_list(self, tmp_path):
        f = tmp_path / "strategies.json"
        f.write_text(json.dumps([
            {"rule_id": "const", "params": {"value": 1.0}},
            {"rule_id": "band_fraction", "params": {"c": 0.25}},
        ]))
        out = load_strategy_file(f)
        assert len(out) == 2

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            load_strategy({"rule_id": "mystery"})
