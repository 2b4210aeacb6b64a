"""Generators: seeding discipline, Brownian statistics, the late-burst
martingale and its closed-form variance, Poisson pairs, and the joint
insider bundle."""

import json
import os
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.integrate import quad

from qvmart.counterexample import insider_drift_divergence
from qvmart.errors import ConfigurationError, ContractViolation
from qvmart.path_core import Ensemble, TimeGrid, qv_matrix
from qvmart.simulate import (
    BrownianModel,
    DriftedDiffusion,
    ModelSpec,
    SeedStream,
    _brownian_matrix,
    _build_bundles,
    _late_burst,
    _snap_jumps,
    gen_bundles,
    gen_ensemble,
    m_variance,
    make_insider_grid,
    sigma_profile_vec,
)
from test_path_core import continuous_part


class TestSeedStream:
    def test_identical_keys_identical_draws(self):
        s = SeedStream(99)
        a = s.substream(3, "x").standard_normal(5)
        b = s.substream(3, "x").standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_tags_differ(self):
        s = SeedStream(99)
        a = s.substream(3, "x").standard_normal(5)
        b = s.substream(3, "y").standard_normal(5)
        assert not np.array_equal(a, b)

    def test_negative_key_rejected(self):
        with pytest.raises(ContractViolation):
            SeedStream(1).substream(-1)


class TestBrownian:
    def test_starts_at_zero(self):
        b = gen_ensemble(BrownianModel(), SeedStream(0), 3, TimeGrid.dyadic(8))
        assert np.all(b.values[:, 0] == 0.0)

    def test_terminal_moments(self):
        # CLT / chi-square oracle at 10^4 paths
        stream = SeedStream(101)
        model = BrownianModel()
        b1 = np.array(
            [model.path_at_level(stream, i, 10).values[0, -1] for i in range(10_000)]
        )
        assert abs(b1.mean()) <= 3.0 / np.sqrt(10_000)
        assert 0.94 <= b1.var(ddof=1) <= 1.06

    def test_refinement_consistency(self):
        stream = SeedStream(5)
        model = BrownianModel()
        coarse = model.path_at_level(stream, 0, 10)
        fine = model.path_at_level(stream, 0, 11)
        np.testing.assert_array_equal(coarse.values, fine.values[:, ::2])

    def test_nonuniform_grid_variance(self):
        pts = np.concatenate([np.linspace(0, 0.5, 101), np.linspace(0.52, 1.0, 25)])
        grid = TimeGrid(pts)
        stream = SeedStream(77)
        b1 = gen_ensemble(BrownianModel(), stream, 4000, grid).values[:, -1]
        assert 0.9 <= b1.var(ddof=1) <= 1.1


class TestDriftedDiffusion:
    def test_constant_coefficients_exact(self):
        grid = TimeGrid.dyadic(8)
        stream = SeedStream(12)
        b = gen_ensemble(BrownianModel(), stream, 2, grid)
        s = gen_ensemble(DriftedDiffusion(0.1, 0.2), stream, 2, grid)
        np.testing.assert_allclose(s.values, 0.1 * grid.points + 0.2 * b.values)

    def test_time_dependent_drift_euler(self):
        grid = TimeGrid.dyadic(8)
        model = DriftedDiffusion(lambda t, s: 1.0 if t > 0.5 else 0.0, lambda t, s: 0.2)
        stream = SeedStream(12)
        s = gen_ensemble(model, stream, 2, grid)
        b = gen_ensemble(BrownianModel(), stream, 2, grid)
        # left-endpoint evaluation: a cell picks up drift only when its
        # LEFT endpoint is past 0.5, so accumulation starts one cell late
        dt = 1.0 / grid.n_steps
        drift = np.concatenate([[0.0], np.cumsum((grid.points[:-1] > 0.5) * dt)])
        np.testing.assert_allclose(s.values, drift + 0.2 * b.values, atol=1e-12)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            DriftedDiffusion(0.0, -1.0)

    def test_tag_is_deterministic(self):
        # a callable is tagged by module, qualified name and, when nested,
        # first line, not by its address
        def make():
            def mu(t, s):
                return 0.1 * s
            return mu

        a, b = make(), make()  # the same function, at two addresses
        tags = {DriftedDiffusion(a, 0.2).tag, DriftedDiffusion(b, 0.2).tag}
        line = a.__code__.co_firstlineno
        assert tags == {f"drifted(mu={__name__}.{a.__qualname__}:{line},sigma=0.2)"}
        assert "0x" not in DriftedDiffusion(lambda t, s: 0.0, a).tag
        assert DriftedDiffusion(0.1, 0.2).tag == "drifted(mu=0.1,sigma=0.2)"
        assert DriftedDiffusion(0, 1).tag == "drifted(mu=0.0,sigma=1.0)"

    def test_tag_tells_lambdas_and_partials_apart(self, tmp_path):
        # two lambdas in one scope, and partials of one function with other
        # arguments, once all shared one tag; each tag is the same in every run
        script = tmp_path / "tags.py"
        script.write_text(
            "import json\n"
            "from functools import partial\n"
            "from qvmart.simulate import _coef_tag\n"
            "f = lambda t, s: 0.1\n"
            "g = lambda t, s: 0.2\n"
            "def h(t, s, c=0.0):\n"
            "    return c\n"
            "print(json.dumps([_coef_tag(x) for x in (f, g, partial(h, c=0.1), partial(h, c=0.2),\n"
            "                                          partial(h, 1, c=f), 0.3)]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        runs = [subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                               env=env, check=True, timeout=60).stdout for _ in range(2)]
        assert runs[0] == runs[1]
        tags = json.loads(runs[0])
        assert len(set(tags)) == len(tags)
        assert tags[0] == "__main__.<lambda>:4" and tags[1] == "__main__.<lambda>:5"
        assert tags[2] == "partial(__main__.h,c=0.1)"
        assert tags[4] == "partial(__main__.h,1,c=__main__.<lambda>:4)"
        assert tags[5] == "0.3"


class TestSigmaProfile:
    def test_vanishes_up_to_half(self):
        # the switch-on at 1/2 is strict
        np.testing.assert_array_equal(sigma_profile_vec([0.0, 0.25, 0.5]), 0.0)

    def test_value_at_three_quarters(self):
        # 2 (ln 4)^(-2/3), evaluated at 30 digits beforehand
        assert sigma_profile_vec(0.75) == pytest.approx(1.6086430656187621, rel=1e-14)

    def test_singularity_rejected(self):
        with pytest.raises(ContractViolation):
            sigma_profile_vec([0.75, 1.0])


class TestMVariance:
    def test_empty_interval(self):
        assert m_variance(0.7, 0.7) == 0.0

    def test_total_remaining_variance(self):
        # 3 (ln 2)^(-1/3)
        assert m_variance(0.5, 1.0) == pytest.approx(3.3898418290121702, rel=1e-14)

    def test_against_quadrature(self):
        # independent oracle: numerical quadrature of sigma^2
        for s, t in [(0.5, 0.9), (0.6, 0.99), (0.75, 0.999)]:
            target, err = quad(lambda u: float(sigma_profile_vec(u)) ** 2, s, t, limit=200)
            assert err < 1e-8
            assert m_variance(s, t) == pytest.approx(target, abs=1e-8)

    def test_preconditions(self):
        with pytest.raises(ContractViolation):
            m_variance(0.4, 0.9)
        with pytest.raises(ContractViolation):
            m_variance(0.9, 0.8)


class TestGaussianMartingale:
    def test_flat_before_half_and_after_freeze(self):
        eps = 1e-2
        grid = make_insider_grid(eps, n_uniform=64, n_log=128)
        m = gen_bundles(SeedStream(3), 1, grid, eps, 1.0).m_values()[0]
        half = grid.index_of(0.5)
        assert np.all(m[: half + 1] == 0.0)
        assert m[-1] == m[-2]  # frozen through the last cell

    def test_variance_matches_closed_form(self):
        eps = 1e-3
        grid = make_insider_grid(eps, n_uniform=256, n_log=512)
        stream = SeedStream(2026)
        n = 4000
        m1 = gen_bundles(stream, n, grid, eps, 1.0).m_values()[:, -1]
        target = m_variance(0.5, 1.0 - eps)
        se = target * np.sqrt(2.0 / n)  # chi-square spread of a variance estimate
        assert abs(m1.var(ddof=1) - target) <= 3.0 * se
        assert abs(m1.mean()) <= 3.0 * np.sqrt(target / n)

    def test_rebuild_from_driver_is_exact(self):
        eps = 1e-2
        grid = make_insider_grid(eps, n_uniform=64, n_log=128)
        ens = gen_bundles(SeedStream(8), 40, grid, eps, 1.0)
        np.testing.assert_array_equal(ens.m_values()[0], _late_burst(grid, ens.b[:1])[0])
        # S is written as M and then its jumps added: a row without jumps is M
        smooth = np.setdiff1d(np.arange(ens.n_paths), ens.jump_path)
        assert smooth.size and ens.values[smooth].tobytes() == ens.m_values()[smooth].tobytes()

    def test_zero_eps_refused(self):
        grid = make_insider_grid(1e-2, n_uniform=16, n_log=32)
        with pytest.raises(ConfigurationError):
            gen_bundles(SeedStream(0), 1, grid, 0.0, 1.0)

    def test_grid_beyond_freeze_refused(self):
        grid = make_insider_grid(1e-3, n_uniform=16, n_log=32)
        with pytest.raises(ConfigurationError):
            gen_bundles(SeedStream(0), 1, grid, 1e-2, 1.0)  # interior points past 1 - eps


class TestInsiderGrid:
    def test_checkpoints_present(self):
        grid = make_insider_grid(1e-4, n_uniform=64, n_log=256)
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            grid.index_of(1.0 - eps)

    def test_eps_range_validated(self):
        with pytest.raises(ConfigurationError):
            make_insider_grid(0.7)


class TestPoissonPair:
    def test_statistics(self):
        n = 10_000
        grid = make_insider_grid(1e-2, n_uniform=8, n_log=16)
        ens = gen_bundles(SeedStream(55), n, grid, 1e-2, 1.0)
        row, size = ens.jump_path, ens.jump_size  # N1 jumps up, N2 jumps down
        c1 = np.bincount(row[size > 0], minlength=n)
        c2 = np.bincount(row[size < 0], minlength=n)
        assert abs(c1.mean() - 1.0) <= 0.03
        assert abs(np.mean(c1 == 0) - np.exp(-1)) <= 0.015
        assert abs(np.corrcoef(c1, c2)[0, 1]) <= 0.03

    def test_rate_validated(self):
        grid = make_insider_grid(1e-2, n_uniform=8, n_log=16)
        for rate in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ContractViolation, match="positive and finite"):
                gen_bundles(SeedStream(0), 1, grid, 1e-2, rate)


@pytest.fixture(scope="module")
def bundle():
    """Bundle 4 alone, as a one-row ensemble."""
    grid = make_insider_grid(1e-2, n_uniform=128, n_log=256)
    return _build_bundles(SeedStream(21), grid, 1e-2, 2.0, [4])


class TestCounterexampleBundle:
    def test_jump_count(self, bundle):
        assert bundle.jump_size.size == bundle.poisson_time.size > 0
        # entry for entry: no jump is capped or pushed, so each sits in its raw time's cell
        assert not bundle.late_jump_capped[0] and not bundle.snap_collision[0]
        cell = np.searchsorted(bundle.grid.points, bundle.poisson_time) - 1
        np.testing.assert_array_equal(bundle.jump_cell, cell)

    def test_continuous_part_is_m(self, bundle):
        np.testing.assert_allclose(continuous_part(bundle).values, bundle.m_values(), atol=1e-12)

    def test_qv_splits_into_m_and_jumps(self, bundle):
        total = qv_matrix(bundle)[0, -1]
        m_part = qv_matrix(Ensemble(bundle.grid, bundle.m_values(), None, "m"))[0, -1]
        jump_part = np.sum(bundle.jump_size**2)
        assert total == pytest.approx(m_part + jump_part, rel=1e-12)

    def test_jump_sizes_are_reciprocal_gaps(self, bundle):
        t = bundle.grid.points[bundle.jump_cell + 1]
        np.testing.assert_allclose(np.abs(bundle.jump_size), 1.0 / (1.0 - t), rtol=1e-12)

    def test_terminal_driver_recorded(self, bundle):
        assert bundle.b1[0] == bundle.b[0, -1]

    def test_bundles_deterministic(self):
        grid = make_insider_grid(1e-2, n_uniform=32, n_log=64)
        a = gen_bundles(SeedStream(9), 8, grid, 1e-2, 1.0)
        per_row = ("values", "b", "b1", "late_jump_capped", "snap_collision")
        flat = ("jump_cell", "jump_size", "poisson_time")
        # each row is bundle i as generated alone
        for i in range(a.n_paths):
            one = _build_bundles(SeedStream(9), grid, 1e-2, 1.0, [i])
            for name in per_row:
                assert getattr(a, name)[i].tobytes() == getattr(one, name)[0].tobytes()
            assert a.m_values()[i].tobytes() == one.m_values()[0].tobytes()
            mine = a.jump_path == i
            for name in flat:
                assert getattr(a, name)[mine].tobytes() == getattr(one, name).tobytes()
        assert np.all(np.diff(a.jump_path) >= 0)
        for name in per_row + flat + ("jump_path",):
            assert not getattr(a, name).flags.writeable


def loop_snap_row(grid: TimeGrid, raw_times, idx_cap: int):
    """The per-row snapping loop the vectorised rule replaced, kept as its
    reference: round up, push ties forward, right-align past the cap."""
    idxs = [max(min(int(np.searchsorted(grid.points, t, side="left")), idx_cap), 1)
            for t in raw_times]
    collision = False
    for i in range(1, len(idxs)):
        if idxs[i] <= idxs[i - 1]:
            idxs[i] = idxs[i - 1] + 1
            collision = True
    if idxs and idxs[-1] > idx_cap:
        idxs[-1] = idx_cap
        for i in range(len(idxs) - 2, -1, -1):
            if idxs[i] >= idxs[i + 1]:
                idxs[i] = idxs[i + 1] - 1
    if idxs and (idxs[0] < 1 or any(b <= a for a, b in zip(idxs, idxs[1:]))):
        raise ContractViolation("jump snapping could not produce distinct grid slots")
    return idxs, collision


def snap_row(grid: TimeGrid, times):
    """``_snap_jumps`` on a one-row ensemble: its indices and collision flag."""
    idx, _, collision = _snap_jumps(grid, np.zeros(len(times), dtype=np.intp),
                                    np.asarray(times, dtype=float), 1)
    return idx.tolist(), bool(collision[0])


class TestJumpSnapping:
    def test_round_up_to_next_grid_point(self):
        grid = TimeGrid.uniform(10)
        idxs, collision = snap_row(grid, [0.21, 0.79])
        assert idxs == [3, 8]
        assert not collision

    def test_collision_pushes_later_jump_forward(self):
        grid = TimeGrid.uniform(10)
        idxs, collision = snap_row(grid, [0.31, 0.39])
        assert idxs == [4, 5]
        assert collision

    def test_late_jumps_right_align_below_cap(self):
        grid = TimeGrid.uniform(9)
        # the cap is index 8 (t = 8/9), the last point before 1: both tail
        # jumps must land at 7 and 8
        idxs, collision = snap_row(grid, [0.85, 0.95])
        assert idxs == [7, 8]
        assert collision

    def test_snap_keeps_strictly_increasing_order(self):
        grid = TimeGrid.uniform(20)
        rng = np.random.default_rng(0)
        for _ in range(200):
            raw = sorted(rng.uniform(0.01, 1.0, rng.integers(1, 8)))
            idxs, _ = snap_row(grid, raw)
            assert all(b > a for a, b in zip(idxs, idxs[1:]))
            assert idxs[0] >= 1 and idxs[-1] <= 19

    def test_bundle_flags_recorded(self):
        # a wide freeze window forces frequent late jumps: they cap at the
        # last grid point before 1 and the bundle is flagged
        grid = make_insider_grid(0.4, n_uniform=16, n_log=16)
        ens = gen_bundles(SeedStream(77), 50, grid, 0.4, 2.0)
        assert ens.late_jump_capped.sum() > 0
        assert np.all(grid.points[ens.jump_cell + 1] <= 1.0 - 0.4 + 1e-12)
        late = np.unique(ens.jump_path[ens.poisson_time > 1.0 - 0.4])
        np.testing.assert_array_equal(np.flatnonzero(ens.late_jump_capped), late)

    def test_more_jumps_than_slots_is_a_contract_error(self):
        grid = TimeGrid.uniform(4)
        with pytest.raises(ContractViolation):
            snap_row(grid, [0.5, 0.6, 0.7, 0.8, 0.9])

    @staticmethod
    def loop_snap(grid, row, time, n):
        """Every row through the reference loop, with its capped flag."""
        cap = grid.points.size - 2
        idx, capped, collision = [], np.zeros(n, bool), np.zeros(n, bool)
        for r in range(n):
            times = time[row == r]
            idxs, collision[r] = loop_snap_row(grid, times, cap)
            capped[r] = np.any(np.searchsorted(grid.points, times) > cap)
            idx += idxs
        return np.array(idx, dtype=np.intp), capped, collision

    @pytest.mark.parametrize("grid", [TimeGrid.uniform(12),
                                      make_insider_grid(0.4, n_uniform=4, n_log=6)],
                             ids=["uniform", "insider"])
    def test_equals_the_per_row_loop(self, grid):
        # up to cap jumps a row, often several in one cell or past the cap;
        # row 0 has none
        rng = np.random.default_rng(3)
        cap, n = grid.points.size - 2, 400
        counts = rng.integers(0, cap + 1, n)
        counts[0] = 0
        row = np.repeat(np.arange(n), counts)
        time = np.concatenate([np.sort(rng.uniform(0.0, 1.0, c) ** rng.uniform(0.2, 1.0))
                               for c in counts])
        empty = np.zeros(0, dtype=np.intp), np.zeros(0), 5  # an ensemble without jumps
        for args in (empty, (row, time, n)):
            got, want = _snap_jumps(grid, *args), self.loop_snap(grid, *args)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert all(flags.any() for flags in want[1:])  # capped and pushed rows both occur
        # a further row with more jumps than slots: both refuse the ensemble
        row = np.append(row, np.full(cap + 1, n))
        time = np.append(time, np.linspace(0.1, 0.9, cap + 1))
        for snap in (_snap_jumps, self.loop_snap):
            with pytest.raises(ContractViolation, match="distinct grid slots"):
                snap(grid, row, time, n + 1)


class TestInsiderDrift:
    def test_zero_driver_gives_zero_drift(self):
        grid = make_insider_grid(1e-2, n_uniform=32, n_log=64)
        bundle = gen_bundles(SeedStream(1), 2, grid, 1e-2, 1.0)
        flat = replace(bundle, b=np.zeros_like(bundle.b), b1=np.zeros(2))
        assert np.all(flat.drift_values() == 0.0)

    def test_recentred_martingale_mean_zero(self):
        eps = 1e-3
        grid = make_insider_grid(eps, n_uniform=128, n_log=384)
        n = 4000
        bundles = gen_bundles(SeedStream(31), n, grid, eps, 1.0)
        vals = bundles.m_values()[:, -1] - bundles.drift_values()[:, -1]
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean()) <= 3.0 * se

    def test_coarser_cutoff_than_generation_rejected(self):
        grid = make_insider_grid(1e-2, n_uniform=32, n_log=64)
        bundles = gen_bundles(SeedStream(1), 2, grid, 1e-2, 1.0)
        with pytest.raises(ContractViolation, match="coarser truncation"):
            insider_drift_divergence(bundles, [1e-3])


class TestModelSpec:
    def test_valid_roundtrip(self):
        spec = ModelSpec("drifted", mu=0.1, sigma=0.2)
        assert ModelSpec(**asdict(spec)) == spec
        assert spec.generate(SeedStream(0), 1, 4, 4).model_tag.startswith("drifted")

    @staticmethod
    def reference(spec, stream, n, steps, log_steps):
        """The variant built from its generator and grid, each named outright."""
        if spec.variant == "brownian":
            return gen_ensemble(BrownianModel(), stream, n, TimeGrid.uniform(steps))
        if spec.variant == "drifted":
            return gen_ensemble(DriftedDiffusion(spec.mu, spec.sigma), stream, n,
                                TimeGrid.uniform(steps))
        grid = make_insider_grid(spec.eps, n_uniform=steps, n_log=log_steps)
        if spec.variant == "counterexample":
            return gen_bundles(stream, n, grid, spec.eps, spec.rate)
        vals = _late_burst(grid, _brownian_matrix(stream, grid, range(n)))
        return Ensemble(grid, vals, stream.master_seed, "gaussian_m")

    @pytest.mark.parametrize("variant", ModelSpec.VARIANTS)
    def test_generate_matches_reference(self, variant):
        spec = ModelSpec(variant, mu=0.3, sigma=0.7, rate=2.0, eps=1e-2)
        got = spec.generate(SeedStream(5), 6, 16, 32)
        want = self.reference(spec, SeedStream(5), 6, 16, 32)
        assert type(got) is type(want)
        assert (got.model_tag, got.master_seed) == (want.model_tag, 5)
        for name in ("values", "jump_path", "jump_cell", "jump_size"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.grid.points.tobytes() == want.grid.points.tobytes()
        assert (got.jump_size.size > 0) == (variant == "counterexample")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"variant": "nope"},
            {"variant": "drifted", "sigma": 0.0},
            {"variant": "gaussian_m", "eps": 0.0},
            {"variant": "counterexample", "rate": -1.0},
            {"variant": "counterexample", "rate": float("nan")},
            {"variant": "counterexample", "rate": float("inf")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ModelSpec(**{"mu": 0.0, "sigma": 1.0, "rate": 1.0, "eps": 1e-3, **kwargs})
