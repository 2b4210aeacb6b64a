"""Grid, path, quadratic variation, and truncation-time behavior."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvmart.errors import ConfigurationError, ContractViolation
from qvmart.path_core import (
    Ensemble,
    QVPath,
    SamplePath,
    TimeGrid,
    load_ensemble,
    path_from_csv,
    path_to_csv,
    qv_matrix,
    quadratic_variation,
    refine_and_compare_qv,
    save_ensemble,
    truncation_index,
)
from qvmart.simulate import (
    BrownianModel,
    DeterministicModel,
    PureJumpModel,
    SeedStream,
    gen_bundles,
    gen_ensemble,
    make_insider_grid,
)


def brownian_path(seed: int, level: int) -> SamplePath:
    return BrownianModel().path_at_level(SeedStream(seed), 0, level)


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(4)
        assert g.n_steps == 4
        np.testing.assert_allclose(g.points, [0, 0.25, 0.5, 0.75, 1.0])

    def test_degenerate_two_point_grid_accepted(self):
        g = TimeGrid(np.array([0.0, 1.0]))
        assert g.n_steps == 1

    @pytest.mark.parametrize(
        "pts", [[0.0], [0.1, 0.5, 1.0], [0.0, 0.5, 0.9], [0.0, 0.5, 0.5, 1.0]]
    )
    def test_bad_grids_rejected(self, pts):
        with pytest.raises(ContractViolation):
            TimeGrid(np.array(pts))

    def test_index_of(self):
        g = TimeGrid.uniform(10)
        assert g.index_of(0.3) == 3
        with pytest.raises(ContractViolation):
            g.index_of(0.33)

    def test_dyadic_detection(self):
        assert TimeGrid.dyadic(5).is_dyadic_uniform()
        assert not TimeGrid.uniform(10).is_dyadic_uniform()


class TestSamplePath:
    def test_jump_must_sit_on_grid(self):
        g = TimeGrid.uniform(4)
        with pytest.raises(ContractViolation):
            SamplePath(g, np.zeros(5), ((0.3, 1.0),))

    def test_continuous_part_removes_jumps(self):
        g = TimeGrid.uniform(4)
        vals = np.array([0.0, 1.0, 3.0, 3.0, 3.0])  # jump of 2 at t=0.5
        p = SamplePath(g, vals, ((0.5, 2.0),))
        cont = p.continuous_part()
        np.testing.assert_allclose(cont.values, [0.0, 1.0, 1.0, 1.0, 1.0])
        assert cont.jumps == ()

    def test_immutable(self):
        p = SamplePath(TimeGrid.uniform(2), np.zeros(3))
        with pytest.raises(ValueError):
            p.values[0] = 1.0


class TestQuadraticVariation:
    def test_constant_path_is_zero(self):
        p = SamplePath(TimeGrid.uniform(8), np.full(9, 5.0))
        assert quadratic_variation(p).total == 0.0

    def test_single_jump(self):
        # flat path, one jump of size 2 at t = 0.5: QV jumps to 4 there
        g = TimeGrid.uniform(4)
        vals = np.array([0.0, 0.0, 2.0, 2.0, 2.0])
        qv = quadratic_variation(SamplePath(g, vals, ((0.5, 2.0),)))
        np.testing.assert_allclose(qv.values, [0.0, 0.0, 4.0, 4.0, 4.0])

    def test_brownian_concentration(self):
        # chi-square oracle: QV_1 ~ 1 with sd sqrt(2/n); at n = 2^14 the
        # band +-0.04 is roughly +-3.6 sd, so at least 95 of 100 paths pass
        ok = 0
        for seed in range(100):
            qv = quadratic_variation(brownian_path(seed, 14)).total
            ok += abs(qv - 1.0) <= 0.04
        assert ok >= 95

    @pytest.mark.parametrize("source", ["pure_jump", "bundles"])
    def test_qv_matrix_matches_per_path(self, source):
        # the flat-array jump handling is byte-identical to the per-path sum
        if source == "pure_jump":
            model = PureJumpModel([(0.3, 1.5), (0.5, -2.0), (0.52, 0.25)])
            ens = gen_ensemble(model, SeedStream(0), 4, TimeGrid.uniform(16))
        else:
            grid = make_insider_grid(1e-2, n_uniform=16, n_log=24)
            ens = gen_bundles(SeedStream(5), 12, grid, 1e-2, 3.0)
        assert ens.jump_path.size
        want = np.stack([quadratic_variation(p).values for p in ens.paths()])
        assert qv_matrix(ens).tobytes() == want.tobytes()

    def test_monotone_and_starts_at_zero(self):
        qv = quadratic_variation(brownian_path(3, 10))
        assert qv.values[0] == 0.0
        assert np.all(np.diff(qv.values) >= 0)

    @given(st.integers(0, 2**31), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_jump_isolation(self, seed, level):
        # removing all jumps lowers QV_1 by exactly the sum of squared sizes
        rng = np.random.default_rng(seed)
        g = TimeGrid.dyadic(level)
        base = rng.standard_normal(g.points.size).cumsum()
        k = rng.integers(1, g.points.size)
        size = float(rng.standard_normal()) or 1.0
        vals = base.copy()
        vals[k:] += size
        p = SamplePath(g, vals, ((float(g.points[k]), size),))
        with_jumps = quadratic_variation(p).total
        without = quadratic_variation(p.continuous_part()).total
        assert with_jumps - without == pytest.approx(size**2, rel=1e-12)

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_additivity_along_the_grid(self, seed):
        # running QV at t equals the recomputed increment sums up to t
        p = brownian_path(seed % 1000, 6)
        qv = quadratic_variation(p)
        inc = np.diff(p.values)
        for k in (1, 17, 33, 64):
            assert qv.values[k] == pytest.approx(float(np.sum(inc[:k] ** 2)), rel=1e-12)


class TestRefinement:
    def test_brownian_cauchy_decrease(self):
        # same realization on nested grids: successive differences shrink
        model = BrownianModel()
        stream = SeedStream(7)
        d1s, d2s, finals = [], [], []
        for i in range(30):
            rows = refine_and_compare_qv(model, stream, i, [10, 14, 18])
            vals = [qv for _, qv in rows]
            d1s.append(abs(vals[1] - vals[0]))
            d2s.append(abs(vals[2] - vals[1]))
            finals.append(vals[2])
        assert np.median(d2s) < np.median(d1s)
        assert abs(np.median(finals) - 1.0) < 0.02

    def test_smooth_path_vanishes_like_one_over_n(self):
        model = DeterministicModel(np.sin, tag="sin")
        rows = refine_and_compare_qv(model, SeedStream(0), 0, [10, 14, 18])
        for n, qv in rows:
            assert qv <= 1.0 / n  # sum of (cos(x)/n)^2 over n cells
        assert rows[-1][1] < rows[0][1]

    def test_pure_jump_mesh_independent(self):
        model = PureJumpModel([(0.5, 3.0)])
        rows = refine_and_compare_qv(model, SeedStream(0), 0, [10, 14, 18])
        assert all(qv == 9.0 for _, qv in rows)

    def test_non_refinable_model_rejected(self):
        class NoRefine:
            tag = "fixed"
            refinable = False

        with pytest.raises(ConfigurationError):
            refine_and_compare_qv(NoRefine(), SeedStream(0), 0, [10])


class TestTruncationTime:
    def test_no_threshold_crossed(self):
        g = TimeGrid.uniform(10)
        p = SamplePath(g, np.full(11, 2.0))
        qv = QVPath(g, np.linspace(0, 0.5, 11))
        assert truncation_index(p.values, qv.values, 3.0) == 11  # one past the last point

    def test_deterministic_crossing(self):
        # S_t = 10 t on 100 steps crosses 5 strictly after t = 0.5
        g = TimeGrid.uniform(100)
        p = SamplePath(g, 10.0 * g.points)
        qv = QVPath(g, np.zeros(101))
        assert g.points[truncation_index(p.values, qv.values, 5.0)] == pytest.approx(0.51)

    def test_index_per_row(self):
        # a matrix gives one index per row; a row that never crosses gets one
        # past its last point, a crossing at the last point its own index
        vals = np.array([[0.0, 0.5, 2.0, 0.0], [0.0, 0.1, 0.2, 3.0], [0.0, 0.1, 0.2, 0.3]])
        qv = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.5, 1.5, 1.5]])
        np.testing.assert_array_equal(truncation_index(vals, qv, 1.0), [2, 3, 2])
        np.testing.assert_array_equal(truncation_index(vals, qv, 4.0), [4, 4, 4])
        assert truncation_index(vals[1], qv[1], 1.0) == 3
        assert truncation_index(vals[1], qv[1], 4.0) == 4

    def test_brownian_rarely_stopped_at_three(self):
        # reflection-principle oracle: P(sup |B| > 3) = 4 Phi(-3) - ... ~ 0.0054,
        # and the grid supremum is smaller still
        stream = SeedStream(123)
        rng = stream.substream(0, "batch")
        n, steps = 10_000, 1024
        b = np.cumsum(rng.standard_normal((n, steps)) * np.sqrt(1.0 / steps), axis=1)
        frac_stopped = np.mean(np.abs(b).max(axis=1) > 3.0)
        assert 1.0 - frac_stopped >= 0.99

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_threshold(self, seed):
        p = brownian_path(seed, 8)
        qv = quadratic_variation(p)
        stops = [truncation_index(p.values, qv.values, n) for n in (0.05, 0.1, 0.5, 1.0, 2.0)]
        assert stops == sorted(stops)


class TestSerialization:
    def test_csv_round_trip(self):
        p = brownian_path(5, 6)
        vals = p.values.copy()
        vals[10:] += 0.125
        p = SamplePath(p.grid, vals, ((float(p.grid.points[10]), 0.125),))
        body, jumps = path_to_csv(p)
        q = path_from_csv(body, jumps)
        np.testing.assert_array_equal(p.values, q.values)
        np.testing.assert_array_equal(p.grid.points, q.grid.points)
        assert p.jumps == q.jumps

    def test_json_round_trip(self, tmp_path):
        p = brownian_path(6, 5)
        save_ensemble(Ensemble(p.grid, p.values[None], 6, "brownian"), tmp_path, fmt="json")
        q = load_ensemble(tmp_path).path(0)
        np.testing.assert_array_equal(p.values, q.values)
        np.testing.assert_array_equal(p.grid.points, q.grid.points)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_ensemble_round_trip(self, tmp_path, fmt):
        g = TimeGrid.uniform(8)
        vals = np.arange(27, dtype=float).reshape(3, 9) / 7.0
        ens = Ensemble(g, vals, master_seed=9, model_tag="demo")
        save_ensemble(ens, tmp_path, fmt=fmt)
        back = load_ensemble(tmp_path)
        np.testing.assert_array_equal(back.values, ens.values)
        assert back.master_seed == 9 and back.model_tag == "demo"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_jumpy_ensemble_round_trip(self, tmp_path, fmt):
        g = TimeGrid.uniform(8)
        vals = np.zeros((2, 9))
        vals[0, 4:] = 1.5
        ens = Ensemble(g, vals, master_seed=3, model_tag="jumpy",
                       jump_path=[0], jump_cell=[3], jump_size=[1.5])
        assert ens.path(0).jumps == ((0.5, 1.5),) and ens.path(1).jumps == ()
        save_ensemble(ens, tmp_path, fmt=fmt)
        back = load_ensemble(tmp_path)
        np.testing.assert_array_equal(back.values, ens.values)
        for name in ("jump_path", "jump_cell", "jump_size"):
            np.testing.assert_array_equal(getattr(back, name), getattr(ens, name))

    @pytest.mark.parametrize("path,cell,size", [
        ([0, 0], [3, 3], [1.0, 2.0]),  # two jumps in one cell
        ([1, 0], [3, 3], [1.0, 2.0]),  # not sorted by path
        ([2], [3], [1.0]),  # no such path
        ([0], [8], [1.0]),  # no such cell
        ([0], [3], [1.0, 2.0]),  # lengths differ
    ])
    def test_malformed_jump_arrays_rejected(self, path, cell, size):
        with pytest.raises(ContractViolation):
            Ensemble(TimeGrid.uniform(8), np.zeros((2, 9)), 0, "x",
                     jump_path=path, jump_cell=cell, jump_size=size)

    def test_json_bytes_match_per_element_conversion(self, tmp_path):
        # the writers convert whole rows with tolist(); the bytes must equal
        # those of the element-by-element float() payload they replaced
        grid = make_insider_grid(1e-2, n_uniform=16, n_log=24)
        ens = gen_bundles(SeedStream(4), 6, grid, 1e-2, 2.0)
        jumps = [ens.path(i).jumps for i in range(ens.n_paths)]
        assert any(jumps)
        save_ensemble(ens, tmp_path, fmt="json")
        manifest = json.loads((tmp_path / "ensemble_manifest.json").read_text())
        assert manifest["master_seed"] == 4 and manifest["model_tag"] == "counterexample"
        old = {
            "manifest": manifest,
            "points": [float(t) for t in grid.points],
            "paths": [
                {"values": [float(v) for v in ens.values[i]],
                 "jumps": [[t, s] for t, s in jumps[i]]}
                for i in range(ens.n_paths)
            ],
        }
        assert (tmp_path / "ensemble.json").read_bytes() == (json.dumps(old) + "\n").encode()
