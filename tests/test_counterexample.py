"""Insider jump model checks: the flip of a Poisson difference through a
predictable switch, the ruin mechanism outside the admissibility band, bounded
log utility over insider strategies, and the drift-variation divergence."""

import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qvmart import counterexample as cx
from qvmart.counterexample import (
    beta_prefix_sign,
    beta_switch_at,
    default_sweep_family,
    drift_variation_closed_form,
    insider_drift_divergence,
    negative_wealth_probability,
    poisson_flip_test,
    utility_bound_terms,
    utility_bound_terms_family,
    utility_sweep,
)
from qvmart.errors import ContractViolation
from qvmart.simulate import (
    SeedStream,
    gen_bundles,
    make_insider_grid,
    sigma_profile,
)
from qvmart.strategy import GridRuleStrategy, band_fraction_strategy, const_strategy
from qvmart.strategy import pi_for_ensemble
from qvmart.wealth import _log_wealth_terms


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
        assert rep.n_common_jump_times == 0
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
        plus, minus, common = np.empty(n), np.empty(n), 0
        for i in range(n):
            mine = ens.poisson_row == i
            t, sign = ens.poisson_time[mine].tolist(), ens.poisson_sign[mine]
            n1 = tuple(x for x, s in zip(t, sign) if s > 0)
            n2 = tuple(x for x, s in zip(t, sign) if s < 0)
            p, m = flip_decompose(closure(grid.points, ens.values[i]), n1, n2)
            plus[i], minus[i] = len(p), len(m)
            common += bool(set(p) & set(m))
        return cx.PoissonFlipReport(
            n, rate, chi2_p(plus), chi2_p(minus), common,
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
            drifted = replace(head, values=m_vals + (head.values - head.m), m=m_vals)
            maxes[mu] = utility_sweep(family, drifted, eps=1e-2).running_max
        # measured +0.06 at mu=1 vs +0.73 at mu=4: the jump penalty caps the
        # harvest per unit drift, but the growth is unmistakable
        assert maxes[1.0] > 0.0
        assert maxes[4.0] > maxes[1.0] + 0.3


class TestBoundTerms:
    def test_zero_strategy_terms_vanish(self, bundles):
        bt = utility_bound_terms(const_strategy(0.0), bundles)
        assert bt.exp_term == 0.0 and bt.jump_term == 0.0
        assert bt.supermartingale_mean == pytest.approx(1.0)

    def test_band_strategy_terms(self, bundles):
        bt = utility_bound_terms(band_fraction_strategy(0.5), bundles)
        assert bt.jump_term_within_noise
        assert bt.supermartingale_within_noise

    def test_family_batch_matches_single(self, bundles):
        fam = [band_fraction_strategy(0.3), band_fraction_strategy(-0.6)]
        head = gen_bundles(SeedStream(11), 500, bundles.grid, 1e-2, 1.0)
        batch = utility_bound_terms_family(fam, head)
        singles = [utility_bound_terms(s, head) for s in fam]
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

        ens = Ensemble(bundles.grid, bundles.m, 11, "insider-model-continuous-part")
        for strat in (
            const_strategy(1.0),
            window_strategy(1.0, 0.0, 0.5),
            sign_at_time_strategy(0.9, 1.0),  # 1 - 1e-1 is a grid checkpoint
        ):
            lam = estimate_lambda(strat, ens)
            assert abs(lam.z) <= 3.0


class TestDriftVariationDivergence:
    def test_closed_form_against_quadrature(self):
        # oracle: sqrt(2/pi) * integral of sigma(u)/sqrt(1-u), checked at 1e-2
        target, err = quad(lambda u: sigma_profile(u) / np.sqrt(1 - u), 0.5, 0.99,
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


class TestSharedFamilyPass:
    """utility_sweep and utility_bound_terms_family share one pass per member
    and ensemble object."""

    GRID = make_insider_grid(1e-2, n_uniform=64, n_log=128)

    def fresh(self, n=300):
        return gen_bundles(SeedStream(5), n, self.GRID, 1e-2, 1.0)

    @staticmethod
    def dump(sweep, terms):
        return json.dumps([sweep.as_dict(), [asdict(t) for t in terms]], sort_keys=True)

    def test_shared_pass_matches_fresh_ensembles(self, monkeypatch):
        family = default_sweep_family()
        ens = self.fresh()
        calls, profile = [], cx._unit_profile
        monkeypatch.setattr(cx, "_unit_profile",
                            lambda *a, **k: calls.append(1) or profile(*a, **k))
        sweep = utility_sweep(family, ens, 1e-2)
        assert len(calls) == 3  # one unit shape per rule shape, not one per member
        terms = utility_bound_terms_family(family, ens)
        assert len(calls) == 3  # the second call builds no profile
        alone = (utility_sweep(family, self.fresh(), 1e-2),
                 utility_bound_terms_family(family, self.fresh()))
        assert self.dump(sweep, terms) == self.dump(*alone)

    def test_factored_pass_matches_per_member_sums(self):
        # the reference sums each member's own profile cell by cell
        family = default_sweep_family()
        ens = self.fresh(400)
        dh = cx._m_hat_increments(ens)
        passes = cx._family_pass(family, ens)
        assert len(passes) == len(family)
        wiped_any = False
        for member, p in zip(family, passes):
            pi = pi_for_ensemble(member, ens, insider=ens.b1, driver=ens.b)
            cont = np.sum(pi * ens.cont_inc - 0.5 * pi * pi * ens.cont_dqv, axis=1)
            sm = np.exp(2.0 * np.sum(pi * dh - pi * pi * dh * dh, axis=1))
            _, jump, wiped = _log_wealth_terms(pi, ens.cont_inc, ens.cont_dqv, ens.jump_path,
                                               ens.jump_cell, ens.jump_size)
            np.testing.assert_allclose(p.cont, cont, rtol=0, atol=1e-12, err_msg=member.name)
            np.testing.assert_allclose(p.supermartingale, sm, rtol=1e-12, atol=0,
                                       err_msg=member.name)
            assert p.jump.tobytes() == jump.tobytes(), member.name
            assert p.wiped.tobytes() == wiped.tobytes(), member.name
            wiped_any |= bool(wiped.any())
        assert not wiped_any  # admissible members are never wiped out

    def test_factored_jump_terms_match_on_wiped_paths(self):
        # a scaled shape outside the band: jump sums and masks, ruined paths
        # included, are bit for bit those of the member's own profile
        def fn(ens, ctx):
            return np.where(np.arange(ens.n_paths)[:, None] >= 3, 1.0, 0.0) * np.ones(
                ens.grid.n_steps)

        ens = self.fresh()
        family = [GridRuleStrategy(f"late{c:+g}", 2.0, fn, scale=c) for c in (-2.0, 1.5, 0.5)]
        for member, p in zip(family, cx._family_pass(family, ens)):
            pi = pi_for_ensemble(member, ens)
            _, jump, wiped = _log_wealth_terms(pi, ens.cont_inc, ens.cont_dqv, ens.jump_path,
                                               ens.jump_cell, ens.jump_size)
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
        # zero on the probe rows, 0.5 (1 - t) later: inside the band, but
        # outside a bound of 0.4 and outside the margin (1 - 0.9)(1 - t)
        def fn(ens, ctx):
            rows = np.arange(ens.n_paths)[:, None] >= 3
            return np.where(rows, 1.0 - ens.grid.points[:-1], 0.0)

        ens = self.fresh(50)
        with pytest.raises(ContractViolation, match="declared bound"):
            utility_sweep([GridRuleStrategy("late", 0.4, fn, scale=0.5)], ens, 1e-2)
        late = GridRuleStrategy("late", 0.5, fn, scale=0.5, margin=0.9)
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
        # zero on the three probe rows, -2 on every later one: each later
        # up-jump of size >= 1 has factor 1 - 2 dS <= -1
        def fn(ens, ctx):
            rows = np.arange(ens.n_paths)[:, None] >= 3
            return np.where(rows, -2.0, 0.0) * np.ones(ens.grid.n_steps)

        late = GridRuleStrategy("late", 2.0, fn)
        ens = self.fresh()
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
        lambda b: utility_bound_terms(band_fraction_strategy(0.3), b),
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
