"""Insider jump model checks: the flip of a Poisson difference through a
predictable switch, the ruin mechanism outside the admissibility band, bounded
log utility over insider strategies, and the drift-variation divergence."""

import json
import re
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qvmart import counterexample as cx
from qvmart import path_core
from qvmart.counterexample import (
    beta_prefix_sign,
    beta_switch_at,
    default_sweep_family,
    drift_variation_closed_form,
    insider_drift_divergence,
    negative_wealth_probability,
    poisson_flip_test,
    utility_bound_terms_family,
    utility_sweep,
)
from qvmart.errors import ContractViolation
from qvmart.simulate import (
    ModelSpec,
    SeedStream,
    _late_burst,
    gen_bundles,
    make_insider_grid,
    sigma_profile_vec,
)
from qvmart.strategy import GridRuleStrategy, band_fraction_strategy, const_strategy
from qvmart.strategy import sign_at_time_strategy
from qvmart.strategy import pi_for_ensemble
from qvmart.wealth import _at_jumps, _jump_terms


@pytest.fixture(scope="module")
def bundles():
    grid = make_insider_grid(1e-2, n_uniform=256, n_log=512)
    return gen_bundles(SeedStream(11), 4000, grid, 1e-2, 1.0)


def profile_strategy(name, fn):
    return GridRuleStrategy(name, 1.0, lambda p, c: fn(p.grid.points[:-1]),
                            path_independent=True)


def flip_decompose(beta, n1_times, n2_times):
    """Reference routing of one bundle's jumps of N1 - N2 through a +-1 switch.

    An N1 jump goes to the plus process when beta = +1 at its time and to
    the minus process otherwise; an N2 jump goes the opposite way.
    Returns the plus and the minus times, each in time order.
    """
    if set(n1_times) & set(n2_times):
        raise ContractViolation("the two jump-time lists must be disjoint")
    plus, minus = [], []
    for t, sign in sorted([(t, +1) for t in n1_times] + [(t, -1) for t in n2_times]):
        b = float(beta(t))
        if b not in (-1.0, 1.0):
            raise ContractViolation(f"switch value at t={t} is {b!r}, not +-1")
        (plus if b * sign > 0 else minus).append(t)
    return tuple(plus), tuple(minus)


class TestFlipDecompose:
    """The routing reference that ``TestPoissonFlip`` holds the flip test to."""

    N1 = (0.2, 0.7)
    N2 = (0.4, 0.9)

    def test_identity_routing(self):
        assert flip_decompose(lambda t: 1.0, self.N1, self.N2) == (self.N1, self.N2)

    def test_swap_routing(self):
        assert flip_decompose(lambda t: -1.0, self.N1, self.N2) == (self.N2, self.N1)

    def test_switch_routing(self):
        # up-source jump at 0.7 under beta = -1 lands in the minus process
        plus, minus = flip_decompose(lambda t: 1.0 if t <= 0.5 else -1.0, self.N1, self.N2)
        assert 0.7 in minus
        assert 0.9 in plus

    def test_zero_switch_rejected(self):
        with pytest.raises(ContractViolation):
            flip_decompose(lambda t: 0.0, self.N1, self.N2)

    def test_disjointness_required(self):
        with pytest.raises(ContractViolation):
            flip_decompose(lambda t: 1.0, (0.5,), (0.5,))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_property(self, seed):
        rng = np.random.default_rng(seed)
        n1 = tuple(sorted(rng.uniform(0, 1, rng.integers(0, 5))))
        n2 = tuple(sorted(set(rng.uniform(0, 1, rng.integers(0, 5))) - set(n1)))
        cut = rng.uniform(0, 1)

        def beta(t):
            return 1.0 if t < cut else -1.0

        plus, minus = flip_decompose(beta, n1, n2)
        # plus - minus is the switch applied to the raw difference N1 - N2
        routed = {**{t: 1.0 for t in plus}, **{t: -1.0 for t in minus}}
        assert routed == {**{t: beta(t) for t in n1}, **{t: -beta(t) for t in n2}}
        assert not set(plus) & set(minus)


class TestPoissonFlip:
    @pytest.mark.parametrize(
        "switch", [const_strategy(1.0), beta_switch_at(0.5), beta_prefix_sign()],
        ids=["const", "switch", "prefix-sign"],
    )
    def test_flipped_pair_is_fresh_poisson(self, switch):
        rep = poisson_flip_test(SeedStream(11), 4000, switch, rate=1.0, eps=1e-2)
        assert rep.chi2_p_plus > 0.01
        assert rep.chi2_p_minus > 0.01
        assert abs(rep.count_correlation) <= 3.0 / np.sqrt(4000)
        assert abs(rep.p_exactly_one_minus - np.exp(-1.0)) <= 0.015
        assert rep.passed()

    @staticmethod
    def reference_report(closure, n, rate, eps):
        """The report routed per bundle through ``flip_decompose``, with a
        closure over each bundle's grid and S values as the switch."""
        from scipy import stats

        def chi2_p(counts):
            probs = [stats.poisson.pmf(k, rate) for k in (0, 1, 2)]
            probs.append(1.0 - sum(probs))
            obs = np.array([np.sum(counts == 0), np.sum(counts == 1), np.sum(counts == 2),
                            np.sum(counts >= 3)], dtype=float)
            exp = counts.size * np.array(probs)
            return float(stats.chi2.sf(float(np.sum((obs - exp) ** 2 / exp)), df=3))

        grid = make_insider_grid(eps, n_uniform=128, n_log=192)
        ens = gen_bundles(SeedStream(7), n, grid, eps, rate)
        plus, minus = np.empty(n), np.empty(n)
        for i in range(n):
            mine = ens.jump_path == i
            t, sign = ens.poisson_time[mine].tolist(), np.sign(ens.jump_size[mine])
            n1 = tuple(x for x, s in zip(t, sign) if s > 0)
            n2 = tuple(x for x, s in zip(t, sign) if s < 0)
            p, m = flip_decompose(closure(grid.points, ens.values[i]), n1, n2)
            plus[i], minus[i] = len(p), len(m)
            assert not set(p) & set(m)
        return cx.PoissonFlipReport(
            n, rate, chi2_p(plus), chi2_p(minus),
            float(np.corrcoef(plus, minus)[0, 1]), int(np.sum(minus == 1)) / n)

    @staticmethod
    def prefix_sign_closure(pts, vals):
        def beta(t):
            k = int(np.searchsorted(pts, t, side="left")) - 1
            return 1.0 if vals[max(k, 0)] >= 0 else -1.0

        return beta

    @pytest.mark.parametrize("beta", ["const+", "const-", "switch", "prefix-sign"])
    def test_matches_per_bundle_reference(self, beta):
        # 1000 samples cross the first chunk boundary of the default grid
        from qvmart.cli import _BETAS

        closures = {
            "const+": lambda pts, vals: lambda t: 1.0,
            "const-": lambda pts, vals: lambda t: -1.0,
            "switch": lambda pts, vals: lambda t: 1.0 if t <= 0.5 else -1.0,
            "prefix-sign": self.prefix_sign_closure,
        }
        got = poisson_flip_test(SeedStream(7), 1000, _BETAS[beta], rate=3.0, eps=1e-2)
        assert got == self.reference_report(closures[beta], 1000, 3.0, 1e-2)

    @pytest.mark.parametrize("switch, match", [
        (const_strategy(0.5), "not \\+-1"),
        (beta_switch_at(0.77), "not a grid point"),
    ], ids=["not-plus-minus-one", "switch-time-off-grid"])
    def test_bad_switch_rejected(self, switch, match):
        with pytest.raises(ContractViolation, match=match):
            poisson_flip_test(SeedStream(7), 50, switch, rate=3.0)


class TestNegativeWealth:
    def test_admissible_strategy_rejected(self, bundles):
        with pytest.raises(ContractViolation):
            negative_wealth_probability(band_fraction_strategy(0.5), bundles)

    def test_everywhere_violating_strategy(self, bundles):
        # pi = 1 - t/2 keeps pi/(1-t) >= 1 on all of (0,1): every down jump
        # is lethal, so ruin happens whenever the minus process jumps at all
        strat = profile_strategy("overband", lambda t: 1.0 - t / 2.0)
        rep = negative_wealth_probability(strat, bundles)
        assert rep.p_hat > 0.2
        assert rep.ci99_low > 0.2
        binom_se = np.sqrt(rep.p_hat * (1 - rep.p_hat) / rep.n_paths)
        assert rep.p_hat >= (1.0 - np.exp(-1.0)) - 3.0 * binom_se

    def test_tail_window_violation(self, bundles):
        # pi/(1-t) >= 1 only on (0.9, 1): ruin needs a down jump there,
        # Poisson mass 1 - e^{-0.1}, bounded below by the one-jump term
        strat = profile_strategy("tail", lambda t: np.where(t >= 0.9, 1.0 - t, 0.0))
        rep = negative_wealth_probability(strat, bundles)
        binom_se = np.sqrt(max(rep.p_hat * (1 - rep.p_hat), 1e-9) / rep.n_paths)
        assert rep.p_hat >= 0.1 * np.exp(-0.1) - 3.0 * binom_se

    @pytest.mark.parametrize("n", [50, 4000])
    @pytest.mark.parametrize("tail", [0.0, 0.9])
    def test_interval_is_clopper_pearson(self, bundles, n, tail):
        # the exact 99% interval, against scipy.stats' beta quantiles
        from scipy import stats

        if n != bundles.n_paths:
            bundles = gen_bundles(SeedStream(3), n, make_insider_grid(1e-2, 32, 64), 1e-2, 1.0)
        strat = profile_strategy("over", lambda t: np.where(t >= tail, 1.0 - t / 2.0, 0.0))
        rep = negative_wealth_probability(strat, bundles)
        k = rep.n_nonpositive
        assert 0 < k < n and rep.n_paths == n
        assert rep.ci99_low == float(stats.beta.ppf(0.005, k, n - k + 1))
        assert rep.ci99_high == float(stats.beta.ppf(0.995, k + 1, n - k))

    def test_zero_strategy_never_ruins(self, bundles):
        # pi = 0 is admissible, so the probe refuses it; wealth stays at 1
        with pytest.raises(ContractViolation):
            negative_wealth_probability(const_strategy(0.0), bundles)


class TestUtilitySweep:
    def test_family_all_finite_with_zero_floor(self, bundles):
        family = default_sweep_family()
        assert len(family) >= 25
        rep = utility_sweep(family, bundles, eps=1e-2)
        assert rep.n_ruined_strategies == 0
        assert all(r.n_nonpositive == 0 for _, r in rep.entries)
        zero_entry = [r for n, r in rep.entries if n == "band(+0)"][0]
        assert zero_entry.estimate == 0.0
        assert rep.running_max >= 0.0
        assert np.isfinite(rep.running_max)

    def test_inadmissible_member_rejected(self, bundles):
        bad = profile_strategy("edge", lambda t: 1.0 - t)
        with pytest.raises(ContractViolation):
            utility_sweep([bad], bundles, eps=1e-2)

    def test_negative_control_detects_unbounded_drift(self, bundles):
        # replace the Gaussian leg by mu t + sigma B: band strategies then
        # harvest roughly mu c/2 - c^2 sigma^2/6, so the sweep max must
        # grow with mu; this confirms the sweep can see unboundedness
        from dataclasses import replace

        family = default_sweep_family()
        maxes = {}
        head = gen_bundles(SeedStream(11), 2000, bundles.grid, 1e-2, 1.0)
        for mu in (1.0, 4.0):
            m_vals = mu * head.grid.points + 0.5 * head.b
            drifted = replace(head, values=m_vals + (head.values - head.m_values()))
            maxes[mu] = utility_sweep(family, drifted, eps=1e-2).running_max
        # measured +0.06 at mu=1 vs +0.73 at mu=4: the jump penalty caps the
        # harvest per unit drift, but the growth is unmistakable
        assert maxes[1.0] > 0.0
        assert maxes[4.0] > maxes[1.0] + 0.3


class TestBoundTerms:
    def test_zero_strategy_terms_vanish(self, bundles):
        bt = utility_bound_terms_family([const_strategy(0.0)], bundles)[0]
        assert bt.exp_term == 0.0 and bt.jump_term == 0.0
        assert bt.supermartingale_mean == pytest.approx(1.0)

    def test_band_strategy_terms(self, bundles):
        bt = utility_bound_terms_family([band_fraction_strategy(0.5)], bundles)[0]
        assert bt.jump_term_within_noise
        assert bt.supermartingale_within_noise

    def test_family_batch_matches_single(self, bundles):
        fam = [band_fraction_strategy(0.3), band_fraction_strategy(-0.6)]
        head = gen_bundles(SeedStream(11), 500, bundles.grid, 1e-2, 1.0)
        batch = utility_bound_terms_family(fam, head)
        singles = [utility_bound_terms_family([s], head)[0] for s in fam]
        for a, b in zip(batch, singles):
            assert a == b


class TestOrdinaryInformationControl:
    def test_continuous_part_is_martingale_without_insider_datum(self, bundles):
        # with the terminal-value information removed, the Gaussian leg of
        # the jump model has no drift: simple integrals of prefix-adapted
        # strategies against it are statistically zero
        from qvmart.path_core import Ensemble
        from qvmart.inference import estimate_lambda
        from qvmart.strategy import sign_at_time_strategy, window_strategy

        ens = Ensemble(bundles.grid, bundles.m_values(), 11, "insider-model-continuous-part")
        for lam in estimate_lambda([
            const_strategy(1.0),
            window_strategy(1.0, 0.0, 0.5),
            sign_at_time_strategy(0.9, 1.0),  # 1 - 1e-1 is a grid checkpoint
        ], ens):
            assert abs(lam.z) <= 3.0


class TestDriftVariationDivergence:
    def test_closed_form_against_quadrature(self):
        # oracle: sqrt(2/pi) * integral of sigma(u)/sqrt(1-u), checked at 1e-2
        target, err = quad(lambda u: float(sigma_profile_vec(u)) / np.sqrt(1 - u), 0.5, 0.99,
                           limit=200)
        assert err < 1e-9
        got = drift_variation_closed_form(1e-2)
        assert got == pytest.approx(np.sqrt(2 / np.pi) * target, abs=1e-8)
        assert got == pytest.approx(1.864008267794, abs=1e-9)

    def test_half_cutoff_is_exactly_zero(self):
        assert drift_variation_closed_form(0.5) == 0.0

    def test_divergence_table(self):
        grid = make_insider_grid(1e-4, n_uniform=192, n_log=1536)
        bundles = gen_bundles(SeedStream(101), 2500, grid, 1e-4, 1.0)
        rows = insider_drift_divergence(bundles, [0.5, 1e-1, 1e-2, 1e-3, 1e-4])
        assert rows[0].mc_tv == 0.0  # sigma vanishes before the switch-on
        for r in rows[1:]:
            assert abs(r.mc_tv - r.closed_form) <= 3.0 * r.stderr
        vals = [r.mc_tv for r in rows[1:]]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        # growth ratios track the |log eps|^(1/3) law within 5 percent
        for i, j in ((1, 2), (2, 3), (3, 4)):
            r_mc = rows[j].mc_tv / rows[i].mc_tv
            r_cf = rows[j].closed_form / rows[i].closed_form
            assert abs(r_mc / r_cf - 1.0) <= 0.05

    def test_coarser_bundles_rejected(self, bundles):
        with pytest.raises(ContractViolation):
            insider_drift_divergence(bundles, [1e-3])

    def test_off_grid_cutoff_refused(self, bundles):
        # 1 - 0.3 lies between two grid points: refused, not cut at the earlier
        # one (t = 0.6978) and compared with the closed form at 0.7
        with pytest.raises(ContractViolation, match="not a grid point"):
            insider_drift_divergence(bundles, [0.3, 1e-2])


def own_jump_terms(pi, ens):
    """The jump sums and wipe-out mask of one member's own profile."""
    return _jump_terms(_at_jumps(pi, ens.jump_path, ens.jump_cell), ens.jump_path,
                       ens.jump_size, ens.n_paths)


class TestSharedFamilyPass:
    """utility_sweep and utility_bound_terms_family share one pass per member
    and ensemble object."""

    GRID = make_insider_grid(1e-2, n_uniform=64, n_log=128)

    def fresh(self, n=300):
        return gen_bundles(SeedStream(5), n, self.GRID, 1e-2, 1.0)

    @staticmethod
    def dump(sweep, terms):
        return json.dumps([sweep.as_dict(), [asdict(t) for t in terms]], sort_keys=True)

    @staticmethod
    def past_the_probe(ens):
        """Rows whose B1 lies above that of the three probe bundles: a mask
        of row r's own insider value, as the row contract asks, False on
        the probe rows of this seeded fixture."""
        top = ens.b1[:3].max()
        return lambda ctx: ctx.insider[:, None] > top

    def test_shared_pass_matches_fresh_ensembles(self, monkeypatch):
        family = default_sweep_family()
        ens = self.fresh()
        views = len(list(ens.blocks()))
        assert views > 1
        calls, profile = [], cx._unit_profile
        monkeypatch.setattr(cx, "_unit_profile",
                            lambda *a, **k: calls.append(1) or profile(*a, **k))
        sweep = utility_sweep(family, ens, 1e-2)
        # one unit shape per rule shape and row view, not one per member
        assert len(calls) == 3 * views
        terms = utility_bound_terms_family(family, ens)
        assert len(calls) == 3 * views  # the second call builds no profile
        alone = (utility_sweep(family, self.fresh(), 1e-2),
                 utility_bound_terms_family(family, self.fresh()))
        assert self.dump(sweep, terms) == self.dump(*alone)

    def test_factored_pass_matches_per_member_sums(self):
        # the reference sums each member's own profile cell by cell
        family = default_sweep_family()
        ens = self.fresh(400)
        # M - A over the whole matrix, not through the bundle's row-view methods
        m, a = _late_burst(ens.grid, ens.b), _late_burst(ens.grid, ens.b, ens.b1)
        inc, dh = ens.continuous_increments(), np.diff(m - a, axis=1)
        passes = cx._family_pass(family, ens)
        assert len(passes) == len(family)
        wiped_any = False
        for member, p in zip(family, passes):
            pi = pi_for_ensemble(member, ens, insider=ens.b1, driver=ens.b)
            cont = np.sum(pi * inc - 0.5 * pi * pi * (inc * inc), axis=1)
            sm = np.exp(2.0 * np.sum(pi * dh - pi * pi * dh * dh, axis=1))
            jump, wiped = own_jump_terms(pi, ens)
            np.testing.assert_allclose(p.cont, cont, rtol=0, atol=1e-12, err_msg=member.name)
            np.testing.assert_allclose(p.supermartingale, sm, rtol=1e-12, atol=0,
                                       err_msg=member.name)
            assert p.jump.tobytes() == jump.tobytes(), member.name
            assert p.wiped.tobytes() == wiped.tobytes(), member.name
            wiped_any |= bool(wiped.any())
        assert not wiped_any  # admissible members are never wiped out

    def test_factored_jump_terms_match_on_wiped_paths(self, monkeypatch):
        # a scaled shape outside the band: jump sums and masks, ruined paths
        # included, are bit for bit those of the member's own profile
        ens = self.fresh()
        past = self.past_the_probe(ens)

        def fn(ens, ctx):
            return np.where(past(ctx), 1.0, 0.0) * np.ones(ens.grid.n_steps)

        for rows in (None, 7):  # the default row blocks, then 7 rows a block
            if rows:
                monkeypatch.setattr(path_core, "_CHUNK_CELLS", rows * self.GRID.n_steps)
            # new members: nothing is memoised for them on ``ens``
            family = [GridRuleStrategy(f"late{c:+g}", 2.0, fn, needs_insider=True, scale=c)
                      for c in (-2.0, 1.5, 0.5)]
            for member, p in zip(family, cx._family_pass(family, ens)):
                jump, wiped = own_jump_terms(pi_for_ensemble(member, ens, ens.b1, ens.b), ens)
                assert p.jump.tobytes() == jump.tobytes() and p.wiped.tobytes() == wiped.tobytes()
            assert cx._family_pass(family, ens)[0].wiped.any()

    def test_zero_coefficient_reports_positive_zero(self, tmp_path):
        from qvmart.cli import main

        out = tmp_path / "sweep"
        assert main(["counterexample", "sweep", "--bundles", "60", "--eps", "0.01",
                     "--steps", "32", "--log-steps", "64", "--seed", "2",
                     "--out", str(out)]) == 0
        entries = json.loads((out / "sweep.json").read_text())["entries"]
        terms = json.loads((out / "bound_terms.json").read_text())
        zero = [e for e in entries if e["strategy"].endswith("(+0)")]
        assert len(zero) == 3
        for e in zero:
            assert repr(e["estimate"]) == "0.0" and repr(e["stderr"]) == "0.0"
        zero_terms = [t for t in terms if t["strategy"].endswith("(+0)")]
        assert len(zero_terms) == 3
        for t in zero_terms:
            for k in ("exp_term", "exp_stderr", "jump_term", "jump_stderr"):
                assert repr(t[k]) == "0.0", (t["strategy"], k)
            assert t["supermartingale_mean"] == 1.0
        for name in ("sweep.json", "bound_terms.json"):
            assert not re.search(r"-0\.0(?![0-9e])", (out / name).read_text()), name
        # and per bundle, before any averaging
        family = default_sweep_family()
        zero_members = [m for m in family if m.name.endswith("(+0)")]
        for p in cx._family_pass(zero_members, self.fresh(40)):
            assert not np.signbit(p.cont).any() and not np.signbit(p.jump).any(), p.member.name
            assert (p.supermartingale == 1.0).all()

    def test_bound_and_margin_checked_past_the_probe_rows(self):
        # zero on the probe rows, 0.5 (1 - t) on rows past them: inside the
        # band, but outside a bound of 0.4 and outside the margin (1 - 0.9)(1 - t)
        ens = self.fresh(50)
        past = self.past_the_probe(ens)

        def fn(ens, ctx):
            return np.where(past(ctx), 1.0 - ens.grid.points[:-1], 0.0)

        with pytest.raises(ContractViolation, match="declared bound"):
            utility_sweep([GridRuleStrategy("late", 0.4, fn, needs_insider=True, scale=0.5)],
                          ens, 1e-2)
        late = GridRuleStrategy("late", 0.5, fn, needs_insider=True, scale=0.5, margin=0.9)
        with pytest.raises(ContractViolation, match="margin"):
            utility_sweep([late], ens, 1e-2)
        ok = replace(late, margin=0.5)
        assert utility_sweep([ok], ens, 1e-2).n_ruined_strategies == 0

    def test_same_name_different_rule_not_shared(self):
        ens = self.fresh()
        a = profile_strategy("twin", lambda t: 0.4 * (1.0 - t))
        b = profile_strategy("twin", lambda t: -0.4 * (1.0 - t))
        sweeps = [utility_sweep([s], ens, 1e-2).as_dict() for s in (a, b)]
        assert sweeps[0] != sweeps[1]
        assert sweeps == [utility_sweep([s], self.fresh(), 1e-2).as_dict() for s in (a, b)]

    def test_wipe_out_past_the_probe_rows(self):
        # zero on the three probe rows, -2 on the rows past them: each such
        # up-jump of size >= 1 has factor 1 - 2 dS <= -1
        ens = self.fresh()
        past = self.past_the_probe(ens)

        def fn(ens, ctx):
            return np.where(past(ctx), -2.0, 0.0) * np.ones(ens.grid.n_steps)

        late = GridRuleStrategy("late", 2.0, fn, needs_insider=True)
        sweep = utility_sweep([late], ens, 1e-2)
        (name, rep), = sweep.entries
        assert sweep.n_ruined_strategies == 1 and rep.n_nonpositive > 0
        with pytest.raises(ContractViolation, match="nonpositive jump factor"):
            utility_bound_terms_family([late], ens)

    def test_inadmissible_member_stops_both_readers(self):
        ens = self.fresh(50)
        family = [band_fraction_strategy(0.3), profile_strategy("edge", lambda t: 1.0 - t)]
        with pytest.raises(ContractViolation, match="sweep member 'edge'"):
            utility_sweep(family, ens, 1e-2)
        with pytest.raises(ContractViolation, match="admissible strategies only"):
            utility_bound_terms_family(family, ens)

    @pytest.mark.parametrize("call", [
        lambda b: utility_sweep(default_sweep_family()[:3], b, 1e-2),
        lambda b: utility_bound_terms_family([band_fraction_strategy(0.3)], b)[0],
        lambda b: utility_bound_terms_family(default_sweep_family()[:3], b),
        lambda b: negative_wealth_probability(const_strategy(0.99), b),
        lambda b: insider_drift_divergence(b, [1e-2]),
    ], ids=["sweep", "bound-terms", "bound-terms-family", "ruin", "divergence"])
    def test_only_an_ensemble_is_taken(self, call):
        ens = self.fresh(20)
        call(ens)
        for other in ([ens.head(1), ens.head(2)], ens.head(20), ens.values):
            with pytest.raises(ContractViolation, match="expected a BundleEnsemble"):
                call(other)


class TestRowViews:
    """Generation fills its rows one row block at a time, and the family
    pass and the ruin probe build every profile one row view at a time:
    any number of rows per block gives the bytes of one block."""

    GRID = make_insider_grid(1e-2, n_uniform=64, n_log=128)

    @staticmethod
    def half_band_until_qv(ens, ctx):
        """Half the band while the running variation stays below 1, then 0."""
        return np.where(ens.qv[:, :-1] < 1.0, 0.5, 0.0) * (1.0 - ens.grid.points[:-1])

    def outputs(self) -> list[bytes]:
        ens = gen_bundles(SeedStream(23), 60, self.GRID, 1e-2, 1.0)  # nothing memoised on it
        generated = [a.tobytes() for a in (ens.values, ens.b, ens.b1, ens.jump_path,
                                           ens.jump_cell, ens.jump_size, ens.poisson_time)]
        gaussian_m = ModelSpec("gaussian_m", eps=1e-2).generate(SeedStream(23), 60, 64, 128)
        assert gaussian_m.grid.points.tobytes() == self.GRID.points.tobytes()
        generated.append(gaussian_m.values.tobytes())
        # the default family reads B1 and the driver; the last member reads
        # each view's own running variation
        family = [*default_sweep_family(),
                  GridRuleStrategy("half_band_until_qv", 0.5, self.half_band_until_qv)]
        sweep = utility_sweep(family, ens, 1e-2)
        terms = utility_bound_terms_family(family, ens)
        columns = [a.tobytes() for p in cx._family_pass(family, ens)
                   for a in (p.cont, p.jump, p.wiped, p.supermartingale)]
        ruin = negative_wealth_probability(sign_at_time_strategy(0.5, 0.99), ens)
        assert 0 < ruin.n_nonpositive < ens.n_paths
        return [self.dump(sweep, terms, ruin).encode(), *columns, *generated]

    @staticmethod
    def dump(sweep, terms, ruin):
        return repr([sweep.as_dict(), [asdict(t) for t in terms], asdict(ruin)])

    @pytest.mark.parametrize("rows", [1, 3, 49])
    def test_same_bytes_in_blocks_of_any_size(self, rows, monkeypatch):
        whole = self.outputs()
        monkeypatch.setattr(path_core, "_CHUNK_CELLS", rows * self.GRID.n_steps)
        assert len(list(gen_bundles(SeedStream(23), 60, self.GRID, 1e-2, 1.0).blocks())) > 1
        assert self.outputs() == whole


class TestInsiderMemory:
    """Traced heap peaks of the insider passes on 3000 bundles of the A8 grid
    (eps 1e-3, 256 + 512 steps), against the bundles' 8-byte value matrix:
    every ``(bundles, cells)`` temporary is one row view's, so no pass holds
    a matrix the size of the bundles'."""

    EPS = (1e-1, 1e-2, 1e-3)

    @pytest.fixture(scope="class")
    def big(self):
        grid = make_insider_grid(1e-3, n_uniform=256, n_log=512)
        return gen_bundles(SeedStream(808), 3000, grid, 1e-3, 1.0)

    @staticmethod
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_divergence(self, big):
        assert self.peak(lambda: insider_drift_divergence(big, self.EPS)) <= big.values.nbytes // 4

    def test_bundle_generation(self, big):
        # S and B are stored; M is written into S's buffer one row block at a time
        def generate():
            gen_bundles(SeedStream(808), 3000, big.grid, 1e-3, 1.0)

        assert self.peak(generate) <= 2.3 * big.values.nbytes

    def test_gaussian_m_generation(self, big):
        # M overwrites its driver's buffer one row block at a time
        def generate():
            ModelSpec("gaussian_m", eps=1e-3).generate(SeedStream(808), 3000, 256, 512)

        assert self.peak(generate) <= 1.2 * big.values.nbytes

    def test_sweep(self, big):
        # a fresh family: nothing is memoised for its members on ``big``
        family = default_sweep_family()
        assert self.peak(lambda: utility_sweep(family, big, 1e-3)) <= big.values.nbytes // 2

    @pytest.mark.parametrize("rows", [1, 7, 3000], ids=["1-row", "7-rows", "one-block"])
    def test_divergence_rows_in_blocks_of_any_size(self, big, rows, monkeypatch):
        default = insider_drift_divergence(big, self.EPS)
        assert len(list(big.blocks())) > 1
        monkeypatch.setattr(path_core, "_CHUNK_CELLS", rows * big.grid.n_steps)
        assert repr(insider_drift_divergence(big, self.EPS)) == repr(default)
