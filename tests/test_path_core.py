"""Grid, path, quadratic variation, and truncation-time behavior.

A path is a one-row ``Ensemble``; ``one_row`` builds one from samples
and a jump list."""

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvmart import path_core
from qvmart.errors import ConfigurationError, ContractViolation
from qvmart.path_core import (
    Ensemble,
    TimeGrid,
    load_ensemble,
    qv_matrix,
    refine_and_compare_qv,
    save_ensemble,
    truncation_index,
)
from qvmart.simulate import (
    BrownianModel,
    SeedStream,
    gen_bundles,
    make_insider_grid,
)


def brownian_path(seed: int, level: int) -> Ensemble:
    return BrownianModel().path_at_level(SeedStream(seed), 0, level)


def one_row(grid: TimeGrid, base, jumps=()) -> Ensemble:
    """A one-row ensemble: ``base`` plus a jump of each ``(time, size)``, times on the grid."""
    vals = np.array(base, dtype=float)
    cells = []
    for t, z in jumps:
        k = grid.index_of(t)
        vals[k:] += z
        cells.append(k - 1)
    return Ensemble(grid, vals[None], None, "test", jump_path=[0] * len(cells),
                    jump_cell=cells, jump_size=[z for _, z in jumps])


def ref_qv(ens: Ensemble) -> np.ndarray:
    """Running variation row by row: squared continuous increments, then
    each jump's squared size added in its cell."""
    out = np.zeros_like(ens.values)
    for i, row in enumerate(ens.values):
        mine = ens.jump_path == i
        cells, sizes = ens.jump_cell[mine], ens.jump_size[mine]
        inc = np.diff(row)
        for c, z in zip(cells, sizes):
            inc[c] -= z
        sq = inc * inc
        for c, z in zip(cells, sizes):
            sq[c] += z * z
        out[i, 1:] = np.cumsum(sq)
    return out


class FixedPath:
    """A refinable model whose one path is ``fn`` plus fixed jumps on every
    dyadic grid, each jump time rounded up to the next grid point."""

    refinable = True
    tag = "fixed"

    def __init__(self, fn, jumps=()):
        self.fn, self.jumps = fn, jumps

    def path_at_level(self, stream, index, level):
        grid = TimeGrid.dyadic(level)
        pts = grid.points
        snapped = [(pts[np.searchsorted(pts, t)], z) for t, z in self.jumps]
        return one_row(grid, self.fn(pts), snapped)


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
    """One path: a one-row ``Ensemble``."""

    def test_jump_must_sit_on_grid(self, tmp_path):
        # a stored jump at a time that is no grid point in (0, 1] is refused
        save_ensemble(one_row(TimeGrid.uniform(4), np.zeros(5), [(0.5, 1.0)]), tmp_path)
        for t in ("0.3", "0.0", "nan"):
            (tmp_path / "path_00000.jumps.csv").write_text(f"t,jump_size\n{t},1.0\n")
            with pytest.raises(ValueError, match="jump times must be grid points"):
                load_ensemble(tmp_path)

    def test_continuous_part_removes_jumps(self):
        g = TimeGrid.uniform(4)
        p = one_row(g, [0.0, 1.0, 1.0, 1.0, 1.0], [(0.5, 2.0)])
        np.testing.assert_array_equal(p.values, [[0.0, 1.0, 3.0, 3.0, 3.0]])
        cont = p.continuous_part()
        np.testing.assert_allclose(cont.values, [[0.0, 1.0, 1.0, 1.0, 1.0]])
        assert cont.jump_path.size == 0

    def test_immutable(self):
        p = one_row(TimeGrid.uniform(2), np.zeros(3))
        with pytest.raises(ValueError):
            p.values[0, 0] = 1.0


class TestQuadraticVariation:
    def test_constant_path_is_zero(self):
        p = one_row(TimeGrid.uniform(8), np.full(9, 5.0))
        assert qv_matrix(p)[0, -1] == 0.0

    def test_single_jump(self):
        # flat path, one jump of size 2 at t = 0.5: QV jumps to 4 there
        qv = qv_matrix(one_row(TimeGrid.uniform(4), np.zeros(5), [(0.5, 2.0)]))
        np.testing.assert_allclose(qv, [[0.0, 0.0, 4.0, 4.0, 4.0]])

    def test_brownian_concentration(self):
        # chi-square oracle: QV_1 ~ 1 with sd sqrt(2/n); at n = 2^14 the
        # band +-0.04 is roughly +-3.6 sd, so at least 95 of 100 paths pass
        ok = 0
        for seed in range(100):
            qv = qv_matrix(brownian_path(seed, 14))[0, -1]
            ok += abs(qv - 1.0) <= 0.04
        assert ok >= 95

    @pytest.mark.parametrize("source", ["pure_jump", "bundles"])
    def test_qv_matrix_matches_per_path(self, source, monkeypatch):
        # the flat-array jump handling, in row blocks of any size, is
        # byte-identical to the row-by-row sum
        if source == "pure_jump":
            grid = TimeGrid.uniform(16)
            jumps = [(0.3125, 1.5), (0.5, -2.0), (0.5625, 0.25)]
            rows = [one_row(grid, np.zeros(17), jumps[:k]) for k in (3, 0, 1, 3)]
            ens = Ensemble(grid, np.concatenate([r.values for r in rows]), 0, "pure_jump",
                           jump_path=[i for i, r in enumerate(rows) for _ in r.jump_path],
                           jump_cell=np.concatenate([r.jump_cell for r in rows]),
                           jump_size=np.concatenate([r.jump_size for r in rows]))
        else:
            grid = make_insider_grid(1e-2, n_uniform=16, n_log=24)
            ens = gen_bundles(SeedStream(5), 12, grid, 1e-2, 3.0)
        assert ens.jump_path.size
        assert qv_matrix(ens).tobytes() == ref_qv(ens).tobytes()
        for rows_per_block in (1, 3):
            monkeypatch.setattr(path_core, "_CHUNK_CELLS", rows_per_block * grid.n_steps)
            assert qv_matrix(ens).tobytes() == ref_qv(ens).tobytes()

    def test_ensemble_qv_is_qv_matrix_once_and_read_only(self, qv_calls):
        ens = gen_bundles(SeedStream(5), 6, make_insider_grid(1e-2, n_uniform=16, n_log=24),
                          1e-2, 3.0)
        qv = ens.qv
        assert ens.qv is qv and qv_calls == [ens]
        assert qv.tobytes() == path_core.qv_matrix(ens).tobytes()
        assert not qv.flags.writeable
        with pytest.raises(ValueError):
            qv[0, -1] = 0.0

    def test_head_and_continuous_part_compute_their_own(self, qv_calls):
        ens = gen_bundles(SeedStream(5), 6, make_insider_grid(1e-2, n_uniform=16, n_log=24),
                          1e-2, 3.0)
        assert ens.jump_path.size
        qv = ens.qv
        head, cont = ens.head(3), ens.continuous_part()
        assert head.qv.tobytes() == qv[:3].tobytes()
        assert cont.qv.tobytes() == ref_qv(cont).tobytes()
        assert np.all(cont.qv[:, -1] < qv[:, -1])
        assert qv_calls == [ens, head, cont]

    def test_monotone_and_starts_at_zero(self):
        qv = qv_matrix(brownian_path(3, 10))[0]
        assert qv[0] == 0.0
        assert np.all(np.diff(qv) >= 0)

    @given(st.integers(0, 2**31), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_jump_isolation(self, seed, level):
        # removing all jumps lowers QV_1 by exactly the sum of squared sizes
        rng = np.random.default_rng(seed)
        g = TimeGrid.dyadic(level)
        base = rng.standard_normal(g.points.size).cumsum()
        k = rng.integers(1, g.points.size)
        size = float(rng.standard_normal()) or 1.0
        p = one_row(g, base, [(float(g.points[k]), size)])
        with_jumps = qv_matrix(p)[0, -1]
        without = qv_matrix(p.continuous_part())[0, -1]
        assert with_jumps - without == pytest.approx(size**2, rel=1e-12)

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_additivity_along_the_grid(self, seed):
        # running QV at t equals the recomputed increment sums up to t
        p = brownian_path(seed % 1000, 6)
        qv = qv_matrix(p)[0]
        inc = np.diff(p.values[0])
        for k in (1, 17, 33, 64):
            assert qv[k] == pytest.approx(float(np.sum(inc[:k] ** 2)), rel=1e-12)


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
        model = FixedPath(np.sin)
        rows = refine_and_compare_qv(model, SeedStream(0), 0, [10, 14, 18])
        for n, qv in rows:
            assert qv <= 1.0 / n  # sum of (cos(x)/n)^2 over n cells
        assert rows[-1][1] < rows[0][1]

    def test_pure_jump_mesh_independent(self):
        # a jump of 3 at t = 1/2: its variation is exact whatever the mesh
        model = FixedPath(np.zeros_like, [(0.5, 3.0)])
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
        assert truncation_index(np.full(11, 2.0), np.linspace(0, 0.5, 11), 3.0) == 11  # one past the end

    def test_deterministic_crossing(self):
        # S_t = 10 t on 100 steps crosses 5 strictly after t = 0.5
        g = TimeGrid.uniform(100)
        assert g.points[truncation_index(10.0 * g.points, np.zeros(101), 5.0)] == pytest.approx(0.51)

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
        qv = qv_matrix(p)[0]
        stops = [truncation_index(p.values[0], qv, n) for n in (0.05, 0.1, 0.5, 1.0, 2.0)]
        assert stops == sorted(stops)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        # one "t,value" line per grid point and one "t,jump_size" line per
        # jump, each float its repr; read back bit for bit
        b = brownian_path(5, 6)
        p = one_row(b.grid, b.values[0], [(float(b.grid.points[10]), 0.125)])
        save_ensemble(p, tmp_path)
        lines = [f"{t!r},{v!r}" for t, v in zip(p.grid.points.tolist(), p.values[0].tolist())]
        assert (tmp_path / "path_00000.csv").read_text() == "\n".join(["t,value", *lines]) + "\n"
        assert (tmp_path / "path_00000.jumps.csv").read_text() == "t,jump_size\n0.15625,0.125\n"
        q = load_ensemble(tmp_path)
        assert q.values.tobytes() == p.values.tobytes()
        np.testing.assert_array_equal(p.grid.points, q.grid.points)
        for name in ("jump_path", "jump_cell", "jump_size"):
            np.testing.assert_array_equal(getattr(q, name), getattr(p, name))

    def test_json_round_trip(self, tmp_path):
        p = brownian_path(6, 5)
        save_ensemble(p, tmp_path, fmt="json")
        q = load_ensemble(tmp_path)
        np.testing.assert_array_equal(p.values, q.values)
        np.testing.assert_array_equal(p.grid.points, q.grid.points)

    @pytest.mark.parametrize("name,text", [
        ("path_00001.csv", "t,value\n0.0,0.0\n0.25\n0.5,0.0\n0.75,0.0\n1.0,0.0\n"),
        ("path_00001.csv", "t,value\n0.0,0.0\n0.25,x\n0.5,0.0\n0.75,0.0\n1.0,0.0\n"),
        ("path_00000.jumps.csv", "t,jump_size\n0.5\n"),
        ("path_00000.jumps.csv", "t,jump_size,extra\n0.5,1.0,2.0\n"),
    ], ids=["short-row", "not-numeric", "short-jump-row", "three-columns"])
    def test_malformed_csv_refused(self, tmp_path, name, text):
        save_ensemble(Ensemble(TimeGrid.uniform(4), np.zeros((2, 5)), 1, "flat"), tmp_path)
        (tmp_path / name).write_text(text)
        with pytest.raises(ValueError, match=f"{tmp_path} holds a malformed ensemble: {name}"):
            load_ensemble(tmp_path)

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
        save_ensemble(ens, tmp_path, fmt=fmt)
        if fmt == "csv":  # a sidecar only for the path with a jump
            assert (tmp_path / "path_00000.jumps.csv").read_text() == "t,jump_size\n0.5,1.5\n"
            assert not (tmp_path / "path_00001.jumps.csv").exists()
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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_binary_copy_is_read_instead_of_the_text(self, tmp_path, fmt, monkeypatch):
        # the copy is written after the text, bytes stable across saves,
        # and a load with it parses no text
        ens = gen_bundles(SeedStream(4), 6, make_insider_grid(1e-2, n_uniform=16, n_log=24),
                          1e-2, 2.0)
        save_ensemble(ens, tmp_path / "a", fmt=fmt)
        save_ensemble(ens, tmp_path / "b", fmt=fmt)
        copy = (tmp_path / "a" / "ensemble.npy").read_bytes()
        assert copy == (tmp_path / "b" / "ensemble.npy").read_bytes()
        last = max((tmp_path / "a").iterdir(), key=lambda f: f.stat().st_mtime_ns)
        assert last.stat().st_mtime_ns == (tmp_path / "a" / "ensemble.npy").stat().st_mtime_ns
        for parser in ("_parse_json", "_read_csv_paths"):
            monkeypatch.setattr(path_core, parser, None)  # calling it would raise TypeError
        back = load_ensemble(tmp_path / "a")
        for name in ("values", "jump_path", "jump_cell", "jump_size"):
            np.testing.assert_array_equal(getattr(back, name), getattr(ens, name))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_binary_copy_holds_what_the_text_reads_back(self, tmp_path, fmt):
        # the text keeps -0.0 and infinities but writes every NaN as "nan",
        # so a NaN with its sign bit set reads back as the plain NaN
        vals = np.array([[0.0, -0.0, np.inf, -np.inf, 1.0], [0.0, 0.5, 0.5, -np.nan, np.nan]])
        ens = Ensemble(TimeGrid.uniform(4), vals, 1, "x", [1], [1], [-np.nan])
        save_ensemble(ens, tmp_path, fmt=fmt)
        cached = load_ensemble(tmp_path)
        (tmp_path / "ensemble.npy").unlink()
        parsed = load_ensemble(tmp_path)
        for name in ("values", "jump_size"):
            assert np.array_equal(getattr(cached, name).view(np.int64),
                                  getattr(parsed, name).view(np.int64)), name
        assert np.signbit(parsed.values[0, 1]) and not np.signbit(parsed.values[1, 3])

    @pytest.mark.parametrize("damage", ["truncated", "not-npy", "bad-header", "wrong-dtype",
                                        "wrong-shape", "stale-digest", "text-digit",
                                        "text-appended"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bad_binary_copy_falls_back_to_the_text(self, tmp_path, fmt, damage, monkeypatch):
        ens = gen_bundles(SeedStream(5), 3, make_insider_grid(1e-2, n_uniform=16, n_log=24),
                          1e-2, 2.0)
        save_ensemble(ens, tmp_path, fmt=fmt)
        cache = tmp_path / "ensemble.npy"
        good = cache.read_bytes()
        if damage.startswith("text-"):  # the copy is sound, the text beside it edited
            text = tmp_path / ("ensemble.json" if fmt == "json" else "path_00000.csv")
            data = text.read_bytes()
            if damage == "text-digit":  # the same length: the last number's first decimal moves
                k = data.rfind(b".") + 1
                data = data[:k] + b"%d" % ((int(data[k:k + 1]) + 1) % 10) + data[k + 1:]
            else:
                data += b"\n"
            text.write_bytes(data)
        cache.unlink()
        parsed = load_ensemble(tmp_path)
        rec = np.load(io.BytesIO(good))
        rec["values"] += 1.0  # what the copy would wrongly give, were it read
        if damage.startswith("text-"):
            cache.write_bytes(good)
            parser = "_parse_json" if fmt == "json" else "_read_csv_paths"
            calls = []
            real = getattr(path_core, parser)
            monkeypatch.setattr(path_core, parser, lambda *a: calls.append(a) or real(*a))
        elif damage == "truncated":
            cache.write_bytes(good[:-8])
        elif damage == "not-npy":
            cache.write_bytes(b"not an npy file\n")
        elif damage == "bad-header":  # numpy's header parser raises tokenize.TokenError
            cache.write_bytes(good.replace(b"}", b" ", 1))
        elif damage == "wrong-dtype":
            np.save(cache, rec["values"].astype(np.float32))
        elif damage == "wrong-shape":  # a record one path short of the manifest
            short = Ensemble(ens.grid, rec["values"][:-1], 5, "x")
            path_core._write_cache(cache, rec["digest"].tobytes(), short)
        else:
            rec["digest"][0] ^= 1
            np.save(cache, rec)
        back = load_ensemble(tmp_path)
        for name in ("values", "jump_path", "jump_cell", "jump_size"):
            assert getattr(back, name).tobytes() == getattr(parsed, name).tobytes()
        if damage.startswith("text-"):
            assert len(calls) == 1  # the copy was refused and the text parsed
            same = all(np.array_equal(getattr(parsed, n), getattr(ens, n), equal_nan=True)
                       for n in ("values", "jump_size"))
            assert same == (damage == "text-appended")

    def test_no_binary_copy_when_no_record_can_hold_it(self, tmp_path, monkeypatch):
        # numpy 1.x refuses a record past 2 GiB; the save then drops its copy
        save_ensemble(Ensemble(TimeGrid.uniform(4), np.ones((2, 5)), 1, "x"), tmp_path)
        assert (tmp_path / "ensemble.npy").exists()

        def too_large(*shape):
            raise ValueError("dtype size in bytes must fit into a C int")

        monkeypatch.setattr(path_core, "_cache_dtype", too_large)
        save_ensemble(Ensemble(TimeGrid.uniform(4), np.zeros((2, 5)), 1, "x"), tmp_path)
        assert not (tmp_path / "ensemble.npy").exists()
        np.testing.assert_array_equal(load_ensemble(tmp_path).values, np.zeros((2, 5)))

    def test_json_bytes_match_per_element_conversion(self, tmp_path):
        # the writer encodes one path at a time from tolist(); the bytes must
        # equal those of the whole element-by-element float() payload
        grid = make_insider_grid(1e-2, n_uniform=16, n_log=24)
        ens = gen_bundles(SeedStream(4), 6, grid, 1e-2, 2.0)
        vals = ens.values.copy()
        vals[1, 3:7] = [np.nan, np.inf, -np.inf, -0.0]
        ens = Ensemble(grid, vals, 4, "counterexample", ens.jump_path, ens.jump_cell,
                       ens.jump_size)
        times = grid.points[ens.jump_cell + 1]
        jumps = [[(float(t), float(z)) for p, t, z in zip(ens.jump_path, times, ens.jump_size)
                  if p == i] for i in range(ens.n_paths)]
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

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        # a save that raises mid-stream leaves the stored text as it was
        ens = Ensemble(TimeGrid.uniform(4), np.arange(15.0).reshape(3, 5), 1, "x")
        save_ensemble(ens, tmp_path, fmt="json")
        before = (tmp_path / "ensemble.json").read_bytes()
        real, calls = json.dumps, []

        def failing(obj, **kw):
            calls.append(obj)
            if len(calls) == 3:  # the head, the first path, then this
                raise OSError("disk full")
            return real(obj, **kw)

        monkeypatch.setattr(path_core.json, "dumps", failing)
        with pytest.raises(OSError, match="disk full"):
            save_ensemble(Ensemble(ens.grid, -ens.values, 1, "x"), tmp_path, fmt="json")
        monkeypatch.undo()
        assert not (tmp_path / "ensemble.json.tmp").exists()
        assert (tmp_path / "ensemble.json").read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))


class TestStorageMemory:
    """Traced heap peaks of storage on a 2000 x 257 ensemble, against the
    8-byte value matrix: the text is written and read back in pieces, so
    neither a save nor a load holds it whole."""

    @pytest.fixture(scope="class")
    def big(self):
        vals = np.cumsum(np.random.default_rng(3).normal(0.0, 0.06, (2000, 257)), axis=1)
        return Ensemble(TimeGrid.uniform(256), vals, 3, "x")

    @staticmethod
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_json_save(self, big, tmp_path):
        assert self.peak(lambda: save_ensemble(big, tmp_path, fmt="json")) <= 2 * big.values.nbytes

    def test_cached_json_load(self, big, tmp_path):
        save_ensemble(big, tmp_path, fmt="json")
        assert self.peak(lambda: load_ensemble(tmp_path)) <= 2 * big.values.nbytes
        assert load_ensemble(tmp_path).values.tobytes() == big.values.tobytes()
