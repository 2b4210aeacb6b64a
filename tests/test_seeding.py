"""Batch substream derivation against numpy's SeedSequence, and the matrix
generators against the per-path construction they replaced.

numpy is the oracle: every substream must be the stream of
``default_rng(SeedSequence(entropy=master_seed, spawn_key=key))``, and
every generated row must equal, byte for byte, the row the per-path
loop (one SeedSequence-built generator per bridge stage) produces.
"""

import math

import numpy as np
import pytest

from qvmart import path_core, simulate
from qvmart.errors import ContractViolation
from qvmart.path_core import TimeGrid
from qvmart.simulate import (
    BrownianModel,
    DriftedDiffusion,
    SeedStream,
    _late_burst,
    gen_bundles,
    gen_ensemble,
    make_insider_grid,
)

SEEDS = (0, 1, 2**32, 2**40 + 7, 2**130 + 3)


# ---------------------------------------------------------------------------
# The reference: one numpy SeedSequence per substream, one path at a time
# ---------------------------------------------------------------------------

def ref_rng(seed: int, *key) -> np.random.Generator:
    spawn = tuple(int.from_bytes(p.encode(), "big") if isinstance(p, str) else int(p) for p in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn))


def ref_bridge_values(seed: int, index: int, level: int) -> np.ndarray:
    vals = np.zeros(2**level + 1)
    vals[-1] = ref_rng(seed, index, "bridge", 0).standard_normal()
    for stage in range(1, level + 1):
        z = ref_rng(seed, index, "bridge", stage).standard_normal(2 ** (stage - 1))
        half = 2 ** (level - stage)
        step = 2 * half
        sd = 2.0 ** (-(stage + 1) / 2.0)
        vals[half::step] = 0.5 * (vals[0:-1:step] + vals[step::step]) + sd * z
    return vals


def ref_sequential_values(seed: int, index: int, grid: TimeGrid) -> np.ndarray:
    z = ref_rng(seed, index, "seq").standard_normal(grid.n_steps)
    vals = np.empty(grid.points.size)
    vals[0] = 0.0
    np.cumsum(z * np.sqrt(grid.dt), out=vals[1:])
    return vals


def ref_brownian_values(seed: int, grid: TimeGrid, index: int) -> np.ndarray:
    if grid.dyadic_uniform:
        return ref_bridge_values(seed, index, int(round(math.log2(grid.n_steps))))
    return ref_sequential_values(seed, index, grid)


def ref_poisson(seed: int, index: int, tag: str, rate: float) -> tuple[float, ...]:
    rng = ref_rng(seed, index, tag)
    times = []
    t = rng.exponential(1.0 / rate)
    while t <= 1.0:
        times.append(float(t))
        t += rng.exponential(1.0 / rate)
    return tuple(times)


def ref_model_rows(model, seed: int, n_paths: int, grid: TimeGrid) -> np.ndarray:
    rows = [ref_brownian_values(seed, grid, i) for i in range(n_paths)]
    if isinstance(model, DriftedDiffusion):
        rows = [model.s0 + float(model.mu) * grid.points + float(model.sigma) * b for b in rows]
    return np.stack(rows)


def ref_euler(mu_fn, sig_fn, s0: float, b: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """One path of the left-endpoint Euler scheme, driven by Brownian values ``b``."""
    db = np.diff(b)
    vals = np.empty(grid.points.size)
    vals[0] = s = s0
    for k in range(grid.n_steps):
        t = grid.points[k]
        s = s + mu_fn(t, s) * grid.dt[k] + sig_fn(t, s) * db[k]
        vals[k + 1] = s
    return vals


# ---------------------------------------------------------------------------
# The batch derivation against numpy
# ---------------------------------------------------------------------------

KEYS = [
    (),
    (0,),
    (2**40,),
    (7, 2**70 + 5, "bridge", 3),
    (12, "poisson-1"),
    (0, "bridge", 0),
]


class TestSubstreamStates:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("key", KEYS, ids=repr)
    def test_scalar_key_matches_numpy(self, seed, key):
        want = np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=tuple(
                int.from_bytes(p.encode(), "big") if isinstance(p, str) else p for p in key))
        ).state["state"]
        assert simulate._substream_states(seed, *key) == [(want["state"], want["inc"])]
        stream = SeedStream(seed)
        assert stream.substream(*key).standard_normal() == ref_rng(seed, *key).standard_normal()
        assert stream.substream(*key).exponential() == ref_rng(seed, *key).exponential()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_vector_columns_match_numpy(self, seed):
        index = np.repeat(np.array([0, 1, 5, 2**32 - 1, 77]), 4)
        stage = np.tile(np.arange(4), 5)
        keys = [(int(i), "bridge", int(s)) for i, s in zip(index, stage)]
        normals = [rng.standard_normal() for rng in simulate._row_rngs(seed, index, "bridge", stage)]
        expos = [rng.exponential() for rng in simulate._row_rngs(seed, index, "bridge", stage)]
        assert normals == [ref_rng(seed, *k).standard_normal() for k in keys]
        assert expos == [ref_rng(seed, *k).exponential() for k in keys]
        tagged = [rng.exponential() for rng in simulate._row_rngs(seed, index, "poisson-1")]
        assert tagged == [ref_rng(seed, int(i), "poisson-1").exponential() for i in index]

    def test_constant_column_is_a_scalar_part(self):
        # a column whose rows agree may exceed 2**32: it is one shared key part
        col = np.full(3, 2**40 + 1)
        states = simulate._substream_states(5, col, "seq")
        assert states == simulate._substream_states(5, 2**40 + 1, "seq") * 3

    def test_refusals(self):
        with pytest.raises(ValueError):
            SeedStream(-1).substream(0)
        with pytest.raises(ValueError):
            simulate._substream_states(-5, np.arange(3))
        with pytest.raises(ContractViolation):
            SeedStream(1).substream(-1)
        with pytest.raises(ContractViolation):
            simulate._substream_states(1, np.array([3, -1, 2]))
        with pytest.raises(ContractViolation):
            simulate._substream_states(1, np.array([0.5, 1.5]))
        with pytest.raises(ContractViolation):
            simulate._substream_states(1, np.array([1, 2**32]))
        with pytest.raises(ContractViolation):
            simulate._substream_states(1, np.arange(3), np.arange(4))
        with pytest.raises(ContractViolation):
            SeedStream(1).substream(1.5)

    def test_empty_column_gives_no_rows(self):
        assert simulate._substream_states(3, np.arange(0), "seq") == []


# ---------------------------------------------------------------------------
# Matrix generators against the per-path loop
# ---------------------------------------------------------------------------

GRIDS = {
    "dyadic-0": TimeGrid.dyadic(0),
    "dyadic-6": TimeGrid.dyadic(6),
    "uniform-37": TimeGrid.uniform(37),
    "insider": make_insider_grid(1e-2, n_uniform=16, n_log=24),
}
MODELS = {
    "brownian": BrownianModel(),
    "drifted": DriftedDiffusion(0.1, 0.3, s0=1.5),
}


class TestMatrixMatchesPerPath:
    @pytest.mark.parametrize("seed", (0, 2**40 + 7))
    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    def test_gen_ensemble_rows(self, seed, grid, model):
        ens = gen_ensemble(model, SeedStream(seed), 9, grid)
        assert ens.values.tobytes() == ref_model_rows(model, seed, 9, grid).tobytes()
        assert ens.jump_path.size == 0

    @pytest.mark.parametrize("grid", [TimeGrid.dyadic(12), TimeGrid.uniform(3000)],
                             ids=["dyadic", "sequential"])
    def test_rows_straddling_the_chunk(self, grid):
        per_chunk = path_core._CHUNK_CELLS // grid.n_steps
        n = per_chunk + 2
        ens = gen_ensemble(BrownianModel(), SeedStream(8), n, grid)
        for i in (0, per_chunk - 1, per_chunk, n - 1):
            assert ens.values[i].tobytes() == ref_brownian_values(8, grid, i).tobytes()

    def test_row_does_not_depend_on_n_paths(self):
        grid = TimeGrid.dyadic(5)
        big = gen_ensemble(BrownianModel(), SeedStream(3), 40, grid).values
        for n in (1, 7, 39):
            assert gen_ensemble(BrownianModel(), SeedStream(3), n, grid).values.tobytes() \
                == big[:n].tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_path_at_level(self, seed):
        for index, level in ((0, 0), (3, 7), (2**33, 4)):
            got = BrownianModel().path_at_level(SeedStream(seed), index, level)
            assert got.values.tobytes() == ref_bridge_values(seed, index, level).tobytes()

    def test_generate_is_one_row(self):
        # generating path 6 alone gives row 6 of an ensemble
        for grid in (TimeGrid.uniform(16), TimeGrid.dyadic(4)):
            for model in MODELS.values():
                got = model._matrix(SeedStream(4), grid, [6])
                assert got.tobytes() == ref_model_rows(model, 4, 7, grid)[6].tobytes()
        got = MODELS["drifted"].path_at_level(SeedStream(4), 6, 4)
        assert got.n_paths == 1 and got.grid is TimeGrid.dyadic(4)
        assert got.values.tobytes() == ref_model_rows(MODELS["drifted"], 4, 7, got.grid)[6].tobytes()

    @pytest.mark.parametrize("grid", [TimeGrid.uniform(100), TimeGrid.dyadic(7)],
                             ids=["uniform", "dyadic"])
    def test_callable_coefficients_step_every_row(self, grid):
        # one Euler column over all rows is the per-path scheme, bit for bit,
        # with a time switch in the drift and a state-dependent sigma
        def mu(t, s):
            return 1.0 if t > 0.5 else -0.25

        def sigma(t, s):
            return 0.2 + 0.1 * np.sin(s) ** 2 + 0.05 * t

        ens = gen_ensemble(DriftedDiffusion(mu, sigma, s0=0.5), SeedStream(5), 50, grid)
        for i in range(50):
            want = ref_euler(mu, sigma, 0.5, ref_brownian_values(5, grid, i), grid)
            assert ens.values[i].tobytes() == want.tobytes()

    def test_nonpositive_sigma_refused(self):
        model = DriftedDiffusion(0.0, lambda t, s: 1.0 - 1.5 * t)  # negative from t = 2/3 on
        gen_ensemble(model, SeedStream(1), 3, TimeGrid.uniform(2))  # read at t = 0 and 1/2 only
        with pytest.raises(ContractViolation, match="sigma function must stay positive"):
            gen_ensemble(model, SeedStream(1), 3, TimeGrid.uniform(4))

    @pytest.mark.parametrize("seed", (2, 2**130 + 3))
    def test_gen_bundles_rows(self, seed):
        grid = make_insider_grid(1e-2, n_uniform=32, n_log=48)
        rate = 2.0
        bundles = gen_bundles(SeedStream(seed), 12, grid, 1e-2, rate)

        def times_of(ens, row, sign):
            mine = (ens.jump_path == row) & (np.sign(ens.jump_size) == sign)
            return tuple(ens.poisson_time[mine].tolist())

        for i in range(12):
            b = ref_brownian_values(seed, grid, i)
            assert bundles.b[i].tobytes() == b.tobytes()
            assert bundles.b1[i] == b[-1]
            assert bundles.m_values()[i].tobytes() == _late_burst(grid, b[None])[0].tobytes()
            assert times_of(bundles, i, 1.0) == ref_poisson(seed, i, "poisson-1", rate)
            assert times_of(bundles, i, -1.0) == ref_poisson(seed, i, "poisson-2", rate)
        # a block of one exponential: every row with a jump is drawn again
        row, times = simulate._poisson_times(seed, np.arange(12), "poisson-1", rate, 1)
        assert np.all(np.diff(row) >= 0) and row.size > 12
        for i in range(12):
            assert tuple(times[row == i].tolist()) == ref_poisson(seed, i, "poisson-1", rate)
        one = simulate._build_bundles(SeedStream(seed), grid, 1e-2, rate, [2**35])
        assert one.b[0].tobytes() == ref_brownian_values(seed, grid, 2**35).tobytes()
        assert times_of(one, 0, -1.0) == ref_poisson(seed, 2**35, "poisson-2", rate)
