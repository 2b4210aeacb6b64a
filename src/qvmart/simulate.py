"""Seeded process generators: Brownian motion, drifted diffusions, the
late-burst Gaussian martingale, Poisson jump pairs, and the joint insider
bundle combining all of them.

Randomness discipline: every path draws from a substream derived from
``(master_seed, path_index, purpose_tag)`` via ``numpy``'s SeedSequence
counter mixing, so path i's realization is bit-reproducible and
independent of how many paths are generated or in what order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .path_core import Ensemble, SamplePath, TimeGrid

__all__ = [
    "SeedStream",
    "ModelSpec",
    "PathBundle",
    "BundleEnsemble",
    "BrownianModel",
    "DriftedDiffusion",
    "DeterministicModel",
    "PureJumpModel",
    "gen_brownian",
    "sigma_profile",
    "sigma_profile_vec",
    "m_variance",
    "make_insider_grid",
    "gen_M",
    "m_from_b",
    "gen_poisson_pair",
    "gen_counterexample",
    "gen_bundles",
    "insider_drift",
    "gen_ensemble",
]

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def _mix_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ContractViolation("substream key parts must be non-negative")
        return int(part)
    if isinstance(part, str):
        return int.from_bytes(part.encode("utf-8"), "big")
    raise ContractViolation(f"unsupported substream key part {part!r}")


@dataclass(frozen=True)
class SeedStream:
    """Counter-based derivation of independent substreams from one master seed."""

    master_seed: int

    def substream(self, *key) -> np.random.Generator:
        """Generator for ``(master_seed, *key)``; identical key, identical stream."""
        spawn = tuple(_mix_part(p) for p in key)
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.master_seed, spawn_key=spawn)
        )


# ---------------------------------------------------------------------------
# Brownian motion
# ---------------------------------------------------------------------------

def _bridge_values(stream: SeedStream, index: int, level: int) -> np.ndarray:
    """Brownian values on the dyadic grid of 2**level steps.

    Built by midpoint insertion with one substream per refinement stage,
    so coarser levels are exact prefixes of finer ones: shared grid
    points carry identical values for any two levels.
    """
    vals = np.zeros(2**level + 1)
    vals[-1] = stream.substream(index, "bridge", 0).standard_normal()
    for stage in range(1, level + 1):
        z = stream.substream(index, "bridge", stage).standard_normal(2 ** (stage - 1))
        half = 2 ** (level - stage)
        step = 2 * half
        sd = 2.0 ** (-(stage + 1) / 2.0)  # sqrt(parent_len)/2 with parent_len = 2^{1-stage}
        vals[half::step] = 0.5 * (vals[0:-1:step] + vals[step::step]) + sd * z
    return vals


def _sequential_values(stream: SeedStream, index: int, grid: TimeGrid) -> np.ndarray:
    rng = stream.substream(index, "seq")
    z = rng.standard_normal(grid.n_steps)
    vals = np.empty(grid.points.size)
    vals[0] = 0.0
    np.cumsum(z * np.sqrt(grid.dt), out=vals[1:])
    return vals


def _brownian_values(stream: SeedStream, grid: TimeGrid, index: int) -> np.ndarray:
    if grid.is_dyadic_uniform():
        level = int(round(math.log2(grid.n_steps)))
        return _bridge_values(stream, index, level)
    return _sequential_values(stream, index, grid)


def gen_brownian(stream: SeedStream, grid: TimeGrid, index: int = 0) -> SamplePath:
    """Standard Brownian path on ``grid``, started at 0.

    Dyadic uniform grids use the bridge construction and are therefore
    refinement-consistent across levels; other grids use sequential
    Gaussian increments with variance equal to the cell width.
    """
    return SamplePath(grid, _brownian_values(stream, grid, index))


class BrownianModel:
    """Driftless Brownian motion; supports nested dyadic refinement."""

    tag = "brownian"
    refinable = True

    def generate(self, stream: SeedStream, index: int, grid: TimeGrid) -> SamplePath:
        return gen_brownian(stream, grid, index)

    def path_at_level(self, stream: SeedStream, index: int, level: int) -> SamplePath:
        return SamplePath(TimeGrid.dyadic(level), _bridge_values(stream, index, level))


class DriftedDiffusion:
    """dS = mu dt + sigma dB with constant or (t, s)-dependent coefficients.

    Constant coefficients give the exact solution S = s0 + mu t + sigma B
    driven by the bridge construction (hence refinable); callable
    coefficients fall back to a left-endpoint Euler scheme on the target
    grid.
    """

    def __init__(self, mu, sigma, s0: float = 0.0):
        self.mu = mu
        self.sigma = sigma
        self.s0 = float(s0)
        self._const = not callable(mu) and not callable(sigma)
        if self._const and sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        self.tag = f"drifted(mu={mu!r},sigma={sigma!r})" if not self._const else (
            f"drifted(mu={float(mu)!r},sigma={float(sigma)!r})"
        )

    @property
    def refinable(self) -> bool:
        return self._const

    def generate(self, stream: SeedStream, index: int, grid: TimeGrid) -> SamplePath:
        b = gen_brownian(stream, grid, index)
        if self._const:
            vals = self.s0 + float(self.mu) * grid.points + float(self.sigma) * b.values
            return SamplePath(grid, vals)
        mu_fn = self.mu if callable(self.mu) else (lambda t, s: self.mu)
        sig_fn = self.sigma if callable(self.sigma) else (lambda t, s: self.sigma)
        db = np.diff(b.values)
        dt = grid.dt
        vals = np.empty(grid.points.size)
        vals[0] = self.s0
        s = self.s0
        for k in range(grid.n_steps):
            t = grid.points[k]
            sig = sig_fn(t, s)
            if sig <= 0:
                raise ContractViolation("sigma function must stay positive")
            s = s + mu_fn(t, s) * dt[k] + sig * db[k]
            vals[k + 1] = s
        return SamplePath(grid, vals)

    def path_at_level(self, stream: SeedStream, index: int, level: int) -> SamplePath:
        if not self._const:
            raise ConfigurationError("state-dependent coefficients are not refinable")
        return self.generate(stream, index, TimeGrid.dyadic(level))


class DeterministicModel:
    """Deterministic path S_t = f(t); useful as a zero-QV control."""

    refinable = True

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], tag: str = "deterministic"):
        self.fn = fn
        self.tag = tag

    def generate(self, stream: SeedStream, index: int, grid: TimeGrid) -> SamplePath:
        return SamplePath(grid, np.asarray(self.fn(grid.points), dtype=float))

    def path_at_level(self, stream: SeedStream, index: int, level: int) -> SamplePath:
        return self.generate(stream, index, TimeGrid.dyadic(level))


class PureJumpModel:
    """Piecewise-constant path with fixed jumps at fixed dyadic times."""

    refinable = True
    tag = "pure_jump"

    def __init__(self, jumps: Sequence[tuple[float, float]]):
        self.raw_jumps = tuple(jumps)

    def generate(self, stream: SeedStream, index: int, grid: TimeGrid) -> SamplePath:
        vals = np.zeros(grid.points.size)
        snapped = []
        for t, s in self.raw_jumps:
            k = int(np.searchsorted(grid.points, t, side="left"))
            snapped.append((float(grid.points[k]), float(s)))
            vals[k:] += s
        return SamplePath(grid, vals, tuple(snapped))

    def path_at_level(self, stream: SeedStream, index: int, level: int) -> SamplePath:
        return self.generate(stream, index, TimeGrid.dyadic(level))


# ---------------------------------------------------------------------------
# The late-burst Gaussian martingale
# ---------------------------------------------------------------------------

def sigma_profile(t: float) -> float:
    """Volatility |log(1-t)|^(-2/3) / sqrt(1-t), switched on only for t in (1/2, 1).

    The profile vanishes on [0, 1/2], is strictly positive on (1/2, 1),
    and blows up at t = 1 while keeping a finite total variance.
    """
    if t >= 1.0 or t < 0.0:
        raise ContractViolation("sigma_profile is defined on [0, 1)")
    if t <= 0.5:
        return 0.0
    one_minus = 1.0 - t
    return abs(math.log(one_minus)) ** (-2.0 / 3.0) / math.sqrt(one_minus)


def sigma_profile_vec(t: np.ndarray) -> np.ndarray:
    """Vectorized volatility profile for arrays of times in [0, 1)."""
    t = np.asarray(t, dtype=float)
    if np.any(t >= 1.0) or np.any(t < 0.0):
        raise ContractViolation("sigma_profile is defined on [0, 1)")
    out = np.zeros_like(t)
    on = t > 0.5
    one_minus = 1.0 - t[on]
    out[on] = np.abs(np.log(one_minus)) ** (-2.0 / 3.0) / np.sqrt(one_minus)
    return out


def m_variance(s: float, t: float) -> float:
    """Variance accumulated by the late-burst martingale over (s, t].

    Closed form 3(|log(1-s)|^(-1/3) - |log(1-t)|^(-1/3)) for
    1/2 <= s <= t < 1, obtained from the substitution v = -log(1-u);
    t = 1 is allowed as a limit and returns the full remaining variance.
    """
    if not (0.5 <= s <= t <= 1.0):
        raise ContractViolation("need 1/2 <= s <= t <= 1")
    if s == t:
        return 0.0
    a = (-math.log(1.0 - s)) ** (-1.0 / 3.0)
    b = 0.0 if t >= 1.0 else (-math.log(1.0 - t)) ** (-1.0 / 3.0)
    return 3.0 * (a - b)


_DECADES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def make_insider_grid(
    eps: float,
    n_uniform: int = 512,
    n_log: int = 1024,
    checkpoints: Sequence[float] | None = None,
) -> TimeGrid:
    """Grid for models that are singular at t = 1.

    Uniform on [0, 1/2]; uniform in v = -log(1-t) on (1/2, 1-eps], which
    flattens the volatility burst; a single closing cell (1-eps, 1].
    Decade cutoffs 1 - 10^-k larger than eps are forced onto the grid so
    truncation sweeps land on exact grid points.
    """
    if not (0.0 < eps < 0.5):
        raise ConfigurationError("eps must lie in (0, 1/2)")
    if checkpoints is None:
        checkpoints = _DECADES
    cps = sorted({float(c) for c in checkpoints if eps < c < 0.5}, reverse=True)
    knots_eps = cps + [eps]  # descending eps values, i.e. increasing times
    v_knots = [LOG2] + [-math.log(c) for c in knots_eps]
    t_knots = [0.5] + [1.0 - c for c in knots_eps]
    total_v = v_knots[-1] - v_knots[0]
    pts = [np.linspace(0.0, 0.5, n_uniform + 1)]
    for (v0, v1), (t0, t1) in zip(zip(v_knots, v_knots[1:]), zip(t_knots, t_knots[1:])):
        m = max(1, int(round(n_log * (v1 - v0) / total_v)))
        v = np.linspace(v0, v1, m + 1)[1:]
        seg = 1.0 - np.exp(-v)
        seg[-1] = t1  # knot times exact, not round-tripped through exp/log
        pts.append(seg)
    pts.append(np.array([1.0]))
    return TimeGrid(np.concatenate(pts))


def _m_values(grid: TimeGrid, b_vals: np.ndarray, eps: float) -> np.ndarray:
    """Late-burst martingale values from driver values (one path, or one per row)."""
    sig = sigma_profile_vec(grid.points[:-1])
    active = grid.points[1:] <= 1.0 - eps + 1e-15
    inc = sig * np.diff(b_vals, axis=-1) * active
    vals = np.empty_like(b_vals)
    vals[..., 0] = 0.0
    np.cumsum(inc, axis=-1, out=vals[..., 1:])
    return vals


def m_from_b(b: SamplePath, eps: float) -> SamplePath:
    """The late-burst martingale rebuilt from a Brownian path's increments.

    Increment per cell is sigma(left endpoint) times the Brownian
    increment, accumulated only over cells contained in [0, 1-eps]; the
    path is frozen on (1-eps, 1].
    """
    return SamplePath(b.grid, _m_values(b.grid, b.values, eps))


def _check_freeze(grid: TimeGrid, eps: float) -> None:
    if eps <= 0.0:
        raise ConfigurationError("eps = 0 would integrate through the singularity")
    interior = grid.points[(grid.points > 1.0 - eps + 1e-15) & (grid.points < 1.0)]
    if interior.size:
        raise ConfigurationError("grid has interior points beyond the 1-eps freeze time")


def gen_M(
    stream: SeedStream, grid: TimeGrid, eps: float, index: int = 0
) -> tuple[SamplePath, SamplePath]:
    """Jointly generated (M, B): the late-burst martingale and its driver.

    M uses the same Brownian increments as the returned B path, so the
    joint law is preserved; generation is truncated at 1-eps and M is
    frozen afterward.
    """
    _check_freeze(grid, eps)
    b = gen_brownian(stream, grid, index)
    return m_from_b(b, eps), b


# ---------------------------------------------------------------------------
# Poisson machinery and the insider bundle
# ---------------------------------------------------------------------------

def gen_poisson_pair(
    stream: SeedStream, rate: float, index: int = 0
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Two independent unit-horizon Poisson jump-time lists.

    Exponential inter-arrival sampling, exact for a constant rate; each
    process draws from its own substream.
    """
    if rate <= 0:
        raise ContractViolation("rate must be positive")

    def one(tag: str) -> tuple[float, ...]:
        rng = stream.substream(index, tag)
        times = []
        t = rng.exponential(1.0 / rate)
        while t <= 1.0:
            times.append(float(t))
            t += rng.exponential(1.0 / rate)
        return tuple(times)

    return one("poisson-1"), one("poisson-2")


@dataclass(frozen=True)
class PathBundle:
    """One joint realization of the insider construction.

    Carries the Brownian driver B, the late-burst martingale M, the raw
    Poisson jump times, the combined jump process S = M + sum of
    +-1/(1-u) jumps, and the terminal Brownian value revealed to the
    insider at time 0.
    """

    grid: TimeGrid
    b: SamplePath
    m: SamplePath
    s: SamplePath
    n1_times: tuple[float, ...]
    n2_times: tuple[float, ...]
    b1: float
    eps: float
    rate: float
    late_jump_capped: bool = False
    snap_collision: bool = False


def _snap_jump_indices(grid: TimeGrid, raw_times: Sequence[float], idx_cap: int):
    """Snap raw jump times to grid indices in [1, idx_cap].

    Each time is rounded up to the next grid point; times beyond the cap
    are pulled back to it.  Ties (two jumps landing on one grid point)
    are resolved by pushing the later jump to the next free index, and a
    group overflowing the cap is right-aligned at the cap and cascaded
    backward, preserving relative order.
    """
    idxs: list[int] = []
    capped = False
    for t in raw_times:
        k = int(np.searchsorted(grid.points, t, side="left"))
        if k > idx_cap:
            k = idx_cap
            capped = True
        idxs.append(max(k, 1))
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
    return idxs, capped, collision


def _drift_values(grid: TimeGrid, b_vals: np.ndarray, b1, eps: float) -> np.ndarray:
    """Insider drift A from driver values and B1 (one path, or one per row)."""
    t_left = grid.points[:-1]
    sig = sigma_profile_vec(t_left)
    active = grid.points[1:] <= 1.0 - eps + 1e-15
    integrand = sig * (np.expand_dims(b1, -1) - b_vals[..., :-1]) / (1.0 - t_left)
    inc = integrand * grid.dt * active
    a_vals = np.empty_like(b_vals)
    a_vals[..., 0] = 0.0
    np.cumsum(inc, axis=-1, out=a_vals[..., 1:])
    return a_vals


@dataclass(frozen=True, eq=False)
class BundleEnsemble(Sequence):
    """Insider bundles stored matrix-first, one row per bundle.

    ``b``, ``m`` and ``s`` are read-only ``(n_paths, n_points)`` value
    matrices of the driver B, the late-burst martingale M and the combined
    jump path S; ``b1`` holds each row's terminal driver value.  The jumps
    of S are flat parallel arrays (row, cell, size), sorted by row and
    then time; cell ``k`` is a jump at ``grid.points[k + 1]``.  The raw
    Poisson times and the two snapping flags are kept per row.

    The ensemble is a sequence of ``PathBundle``: indexing builds the
    bundle of one row, whose paths are read-only views into the matrices.
    ``values``, ``n_paths`` and ``path(i)`` read it as an ensemble of the
    S paths, as ``strategy.pi_for_ensemble`` expects.
    """

    grid: TimeGrid
    eps: float
    rate: float
    b: np.ndarray
    m: np.ndarray
    s: np.ndarray
    b1: np.ndarray
    jump_path: np.ndarray
    jump_cell: np.ndarray
    jump_size: np.ndarray
    n1_times: tuple[tuple[float, ...], ...]
    n2_times: tuple[tuple[float, ...], ...]
    late_jump_capped: np.ndarray
    snap_collision: np.ndarray

    def __post_init__(self):
        for a in (self.b, self.m, self.s, self.b1, self.jump_path, self.jump_cell,
                  self.jump_size, self.late_jump_capped, self.snap_collision):
            a.setflags(write=False)

    @classmethod
    def from_bundles(cls, bundles: Sequence[PathBundle]) -> "BundleEnsemble":
        """``bundles`` itself when it is an ensemble, else its bundles stacked once."""
        if isinstance(bundles, cls):
            return bundles
        if not bundles:
            raise ContractViolation("need at least one bundle")
        first = bundles[0]
        grid = first.grid
        for x in bundles:
            if x.grid is not grid and not np.array_equal(x.grid.points, grid.points):
                raise ContractViolation("bundles must share one grid")
            if x.eps != first.eps or x.rate != first.rate:
                raise ContractViolation("bundles must share one eps and one rate")
        jumps = [
            (i, int(np.searchsorted(grid.points, t)) - 1, size)
            for i, x in enumerate(bundles)
            for t, size in x.s.jumps
        ]
        return cls(
            grid, first.eps, first.rate,
            np.stack([x.b.values for x in bundles]),
            np.stack([x.m.values for x in bundles]),
            np.stack([x.s.values for x in bundles]),
            np.array([x.b1 for x in bundles], dtype=float),
            np.array([j[0] for j in jumps], dtype=int),
            np.array([j[1] for j in jumps], dtype=int),
            np.array([j[2] for j in jumps], dtype=float),
            tuple(x.n1_times for x in bundles),
            tuple(x.n2_times for x in bundles),
            np.array([x.late_jump_capped for x in bundles], dtype=bool),
            np.array([x.snap_collision for x in bundles], dtype=bool),
        )

    def __len__(self) -> int:
        return self.b.shape[0]

    @property
    def n_paths(self) -> int:
        return len(self)

    @property
    def values(self) -> np.ndarray:
        return self.s

    def jumps_of(self, i: int) -> tuple[tuple[float, float], ...]:
        """Row ``i``'s jumps of S as ``(time, size)`` pairs."""
        lo, hi = np.searchsorted(self.jump_path, (i, i + 1))
        pts = self.grid.points
        return tuple(
            (float(pts[c + 1]), float(z))
            for c, z in zip(self.jump_cell[lo:hi], self.jump_size[lo:hi])
        )

    def path(self, i: int) -> SamplePath:
        """Row ``i``'s combined jump path S."""
        return SamplePath(self.grid, self.s[i], self.jumps_of(i))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        i = range(len(self))[i]
        grid = self.grid
        return PathBundle(
            grid=grid,
            b=SamplePath(grid, self.b[i]),
            m=SamplePath(grid, self.m[i]),
            s=self.path(i),
            n1_times=self.n1_times[i],
            n2_times=self.n2_times[i],
            b1=float(self.b1[i]),
            eps=self.eps,
            rate=self.rate,
            late_jump_capped=bool(self.late_jump_capped[i]),
            snap_collision=bool(self.snap_collision[i]),
        )

    @cached_property
    def cont_inc(self) -> np.ndarray:
        """Per-cell increments of M, the continuous part of S."""
        return np.diff(self.m, axis=1)

    @cached_property
    def cont_dqv(self) -> np.ndarray:
        """Per-cell continuous variation increments of S."""
        return self.cont_inc * self.cont_inc

    def drift_values(self) -> np.ndarray:
        """The insider drift A of every row, as ``insider_drift`` computes it."""
        return _drift_values(self.grid, self.b, self.b1, self.eps)


def _draw_bundle(stream: SeedStream, grid: TimeGrid, rate: float, index: int):
    """Bundle ``index``'s random inputs: driver values, Poisson times, snapped jumps."""
    b = _brownian_values(stream, grid, index)
    n1, n2 = gen_poisson_pair(stream, rate, index)
    idx_cap = grid.points.size - 2  # last grid point before 1
    merged = sorted([(t, +1.0) for t in n1] + [(t, -1.0) for t in n2])
    idxs, capped, collision = _snap_jump_indices(grid, [t for t, _ in merged], idx_cap)
    sizes = [sign / (1.0 - float(grid.points[k])) for k, (_, sign) in zip(idxs, merged)]
    return b, n1, n2, idxs, sizes, capped, collision


def _build_bundles(
    stream: SeedStream,
    grid: TimeGrid,
    eps: float,
    rate: float,
    indices: Sequence[int],
) -> BundleEnsemble:
    _check_freeze(grid, eps)
    draws = (_draw_bundle(stream, grid, rate, i) for i in indices)
    b = np.empty((len(indices), grid.points.size))
    n1s, n2s, capped, collision = [], [], [], []
    jp, jc, js = [], [], []
    for row, (b_row, n1, n2, idxs, sizes, cap, col) in enumerate(draws):
        b[row] = b_row
        n1s.append(n1)
        n2s.append(n2)
        capped.append(cap)
        collision.append(col)
        jp += [row] * len(idxs)
        jc += [k - 1 for k in idxs]
        js += sizes
    m = _m_values(grid, b, eps)
    s = m.copy()
    for row, cell, size in zip(jp, jc, js):
        s[row, cell + 1 :] += size
    return BundleEnsemble(
        grid, eps, rate, b, m, s, b[:, -1].copy(),
        np.array(jp, dtype=int), np.array(jc, dtype=int), np.array(js, dtype=float),
        tuple(n1s), tuple(n2s), np.array(capped, dtype=bool), np.array(collision, dtype=bool),
    )


def gen_counterexample(
    stream: SeedStream, grid: TimeGrid, eps: float, rate: float, index: int = 0
) -> PathBundle:
    """Joint (B, M, N1, N2, S, B1) realization on a singular-time grid.

    Jump sizes are the exact reciprocal gap 1/(1-u) at the snapped time
    u; jumps past the freeze time keep their Poisson law but are capped
    at the last grid point before 1 and flagged.
    """
    return _build_bundles(stream, grid, eps, rate, [index])[0]


def gen_bundles(
    stream: SeedStream,
    n_paths: int,
    grid: TimeGrid,
    eps: float,
    rate: float,
) -> BundleEnsemble:
    """Bundles 0 .. n_paths-1 as one ``BundleEnsemble``.

    Row i is bit-identical to ``gen_counterexample(..., index=i)``: each
    bundle draws from its own substreams.
    """
    if n_paths < 1:
        raise ContractViolation("need at least one path")
    return _build_bundles(stream, grid, eps, rate, range(n_paths))


def insider_drift(bundle: PathBundle, eps: float | None = None) -> tuple[SamplePath, SamplePath]:
    """Finite-variation part the insider sees in M, and the recentred martingale.

    Returns (A, M_hat) where A accumulates sigma(u) (B1 - B_u)/(1 - u) du
    by left-endpoint quadrature up to 1-eps, and M_hat = M - A.  With
    left-endpoint evaluation the discrete M_hat increments have exactly
    zero conditional mean given (path prefix, B1).
    """
    if eps is None:
        eps = bundle.eps
    if eps < bundle.eps:
        raise ContractViolation("bundle was generated with a coarser truncation")
    a_vals = _drift_values(bundle.grid, bundle.b.values, bundle.b1, eps)
    return SamplePath(bundle.grid, a_vals), SamplePath(bundle.grid, bundle.m.values - a_vals)


# ---------------------------------------------------------------------------
# Ensembles and the CLI-facing model description
# ---------------------------------------------------------------------------

def gen_ensemble(
    model,
    stream: SeedStream,
    n_paths: int,
    grid: TimeGrid,
) -> Ensemble:
    """Materialize ``n_paths`` model paths into one value matrix."""
    if n_paths < 1:
        raise ContractViolation("need at least one path")
    paths = [model.generate(stream, i, grid) for i in range(n_paths)]
    values = np.stack([p.values for p in paths])
    jump_lists = tuple(p.jumps for p in paths)
    jumps = None if all(len(j) == 0 for j in jump_lists) else jump_lists
    return Ensemble(grid, values, stream.master_seed, model.tag, jumps)


@dataclass(frozen=True)
class ModelSpec:
    """Validated, serializable description of a generatable model."""

    variant: str
    mu: float = 0.0
    sigma: float = 1.0
    rate: float = 1.0
    eps: float = 1e-3

    VARIANTS = ("brownian", "drifted", "gaussian_m", "counterexample")

    def __post_init__(self):
        if self.variant not in self.VARIANTS:
            raise ConfigurationError(f"unknown model variant {self.variant!r}")
        if self.variant in ("gaussian_m", "counterexample") and not (0.0 < self.eps < 0.5):
            raise ConfigurationError("eps must lie in (0, 1/2) for singular models")
        if self.variant == "drifted" and self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        if self.variant == "counterexample" and self.rate <= 0:
            raise ConfigurationError("rate must be positive")

    def build(self):
        if self.variant == "brownian":
            return BrownianModel()
        if self.variant == "drifted":
            return DriftedDiffusion(self.mu, self.sigma)
        raise ConfigurationError(
            f"variant {self.variant!r} generates joint bundles; use gen_M/gen_bundles"
        )

    def as_dict(self) -> dict:
        return {
            "variant": self.variant,
            "mu": self.mu,
            "sigma": self.sigma,
            "rate": self.rate,
            "eps": self.eps,
        }
