"""Seeded process generators: Brownian motion, drifted diffusions, the
late-burst Gaussian martingale, and the joint insider bundle combining
it with a pair of Poisson processes.

Randomness discipline: every path draws from a substream derived from
``(master_seed, path_index, purpose_tag)`` via ``numpy``'s SeedSequence
counter mixing, so path i's realization is bit-reproducible and
independent of how many paths are generated or in what order.  The
substreams of many paths (and of every bridge stage) are derived in one
vectorised pass that replays SeedSequence's mixing and PCG64's seeding;
a test holds each derived stream equal to numpy's own
``default_rng(SeedSequence(entropy=master_seed, spawn_key=key))``.
Brownian ensembles are then built as one matrix, stage by stage.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .path_core import Ensemble, TimeGrid, _row_blocks

__all__ = [
    "SeedStream",
    "ModelSpec",
    "BundleEnsemble",
    "BrownianModel",
    "DriftedDiffusion",
    "sigma_profile_vec",
    "m_variance",
    "make_insider_grid",
    "gen_bundles",
    "gen_ensemble",
]

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------
#
# ``SeedSequence(entropy=master_seed, spawn_key=key)`` followed by PCG64
# seeding is a fixed hash of the key.  ``_substream_states`` replays it for
# many keys at once: the entropy mixing runs in wrapping uint32 arithmetic,
# on Python ints for words shared by every row and on uint32 arrays for
# words that vary, and the 128-bit PCG64 seeding runs on Python ints.  A
# test holds the result equal to numpy's own derivation.

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence's hashmix constants
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # ... and those of generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _mix_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ContractViolation("substream key parts must be non-negative")
        return int(part)
    if isinstance(part, str):
        return int.from_bytes(part.encode("utf-8"), "big")
    raise ContractViolation(f"unsupported substream key part {part!r}")


def _int_words(n: int) -> list[int]:
    """``n`` as SeedSequence splits an int: uint32 words, low word first."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _part_words(part) -> list:
    """Entropy words of one key part; a varying int array is one uint32 column."""
    if not isinstance(part, np.ndarray):
        return _int_words(_mix_part(part))
    if part.dtype.kind not in "iu":
        raise ContractViolation(f"unsupported substream key part of dtype {part.dtype}")
    lo, hi = int(part.min()), int(part.max())
    if lo < 0:
        raise ContractViolation("substream key parts must be non-negative")
    if lo == hi:
        return _int_words(lo)
    if hi > _MASK32:
        raise ContractViolation("varying substream key parts must be below 2**32")
    return [part.astype(np.uint32)]


# Every step below wraps modulo 2**32 on Python ints and uint32 arrays alike.

def _hash(value, hash_const: int, mult: int):
    """SeedSequence's hashing step: the hashed value and the next hash constant."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _absorb(pool, hash_const: int, word) -> tuple[list, int]:
    """Mix ``hashmix(word)`` into every pool word in turn, as SeedSequence does.

    ``_hash`` is written out here: this loop runs four times per key
    word, and on scalar keys the call overhead would be most of its cost.
    """
    out = []
    for x in pool:
        h = word ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        h = h * hash_const & _MASK32
        h = h ^ h >> 16
        r = ((x * _MIX_MULT_L & _MASK32) - (h * _MIX_MULT_R & _MASK32)) & _MASK32
        out.append(r ^ r >> 16)
    return out, hash_const


@lru_cache(maxsize=64)
def _seed_pool(master_seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's entropy pool and hash constant once the master seed is mixed in.

    Under a spawn key SeedSequence pads the seed's words with zeros to the
    pool size; without one it hashes zeros for the missing words, which
    is the same.
    """
    entropy = _int_words(master_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        h, hash_const = _hash(word, hash_const, _MULT_A)
        pool.append(h)
    for src in range(_POOL_SIZE):  # each pool word into every other one
        others, hash_const = _absorb(pool[:src] + pool[src + 1 :], hash_const, pool[src])
        pool = others[:src] + [pool[src]] + others[src:]
    for word in entropy[_POOL_SIZE:]:
        pool, hash_const = _absorb(pool, hash_const, word)
    return tuple(pool), hash_const


def _substream_states(master_seed: int, *key) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(SeedSequence(master_seed, spawn_key=key))``.

    Any key part may be an int array, one key per row; scalar parts are
    shared by every row.  Returns one pair per row.
    """
    if not isinstance(master_seed, (int, np.integer)):
        raise TypeError(f"master seed must be an int, not {master_seed!r}")
    if master_seed < 0:
        raise ValueError("expected non-negative integer")
    sizes = {p.size for p in key if isinstance(p, np.ndarray)}
    if len(sizes) > 1:
        raise ContractViolation("array key parts must have one length")
    rows = sizes.pop() if sizes else 1
    if rows == 0:
        return []
    pool, hash_const = _seed_pool(int(master_seed))
    for part in key:
        for word in _part_words(part):
            pool, hash_const = _absorb(pool, hash_const, word)

    # generate_state(4, uint64): eight words cycled from the pool, paired low first.
    words = []
    hash_const = _INIT_B
    for i in range(8):
        value, hash_const = _hash(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        words.append(value.astype(np.uint64) if isinstance(value, np.ndarray) else value)
    seed_hi, seed_lo, seq_hi, seq_lo = (
        u.tolist() if isinstance(u, np.ndarray) else [u] * rows
        for u in (lo | hi << 32 for lo, hi in zip(words[0::2], words[1::2]))
    )

    # pcg64_set_seed: inc = 2 * initseq + 1; two LCG steps around adding initstate.
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        inc = ((q_hi << 65) | (q_lo << 1) | 1) & _MASK128
        state = ((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _row_rngs(master_seed: int, *key):
    """Yield a generator at the start of each row's substream, in row order.

    One generator is reused: it is re-seated for every row, so draw
    from it before advancing.
    """
    bit_gen = np.random.PCG64(0)  # a placeholder state, replaced before each row
    rng = np.random.Generator(bit_gen)
    for state, inc in _substream_states(master_seed, *key):
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


@dataclass(frozen=True)
class SeedStream:
    """Counter-based derivation of independent substreams from one master seed."""

    master_seed: int

    def substream(self, *key) -> np.random.Generator:
        """Generator for ``(master_seed, *key)``; identical key, identical stream.

        The stream is numpy's ``default_rng(SeedSequence(entropy=master_seed,
        spawn_key=key))``, string parts read as big-endian integers.
        """
        return next(_row_rngs(self.master_seed, *key))


# ---------------------------------------------------------------------------
# Brownian motion
# ---------------------------------------------------------------------------

def _fill_bridge(stream: SeedStream, indices: np.ndarray, level: int, vals: np.ndarray) -> None:
    """Bridge rows on the dyadic grid of 2**level steps, one per index.

    Midpoint insertion with one substream per refinement stage, so
    coarser levels are exact prefixes of finer ones: shared grid points
    carry identical values for any two levels.  Row r's normals sit in
    ``z[r]``: stage 0's single draw in column 0, stage s's 2**(s-1)
    draws in columns [2**(s-1), 2**s).
    """
    stages = level + 1
    z = np.empty((indices.size, 2**level))
    rngs = _row_rngs(stream.master_seed, np.repeat(indices, stages), "bridge",
                     np.tile(np.arange(stages), indices.size))
    for k, rng in enumerate(rngs):
        row, stage = divmod(k, stages)
        rng.standard_normal(out=z[row, (1 << stage) >> 1 : 1 << stage])
    vals[:, 0] = 0.0
    vals[:, -1] = z[:, 0]
    for stage in range(1, stages):
        half = 2 ** (level - stage)
        step = 2 * half
        sd = 2.0 ** (-(stage + 1) / 2.0)  # sqrt(parent_len)/2 with parent_len = 2^{1-stage}
        zs = z[:, 1 << (stage - 1) : 1 << stage]
        vals[:, half::step] = 0.5 * (vals[:, 0:-1:step] + vals[:, step::step]) + sd * zs


def _fill_sequential(stream: SeedStream, indices: np.ndarray, grid: TimeGrid, vals: np.ndarray) -> None:
    """Rows of cumulated Gaussian increments with variance equal to the cell width."""
    z = np.empty((indices.size, grid.n_steps))
    for row, rng in enumerate(_row_rngs(stream.master_seed, indices, "seq")):
        rng.standard_normal(out=z[row])
    z *= np.sqrt(grid.dt)
    vals[:, 0] = 0.0
    np.cumsum(z, axis=1, out=vals[:, 1:])


def _brownian_matrix(stream: SeedStream, grid: TimeGrid, indices) -> np.ndarray:
    """Brownian values of paths ``indices`` on ``grid``, one row per path.

    Row r depends only on ``indices[r]``.  Rows are generated one row
    block at a time.
    """
    indices = np.asarray(indices)
    vals = np.empty((indices.size, grid.points.size))
    if grid.dyadic_uniform:
        fill, shape = _fill_bridge, int(round(math.log2(grid.n_steps)))
    else:
        fill, shape = _fill_sequential, grid
    for blk in _row_blocks(indices.size, grid.n_steps):
        fill(stream, indices[blk], shape, vals[blk])
    return vals


class BrownianModel:
    """Driftless Brownian motion; supports nested dyadic refinement.

    Dyadic uniform grids use the bridge construction and are therefore
    refinement-consistent across levels; other grids use sequential
    Gaussian increments with variance equal to the cell width.
    """

    tag = "brownian"
    refinable = True

    def _matrix(self, stream: SeedStream, grid: TimeGrid, indices) -> np.ndarray:
        return _brownian_matrix(stream, grid, indices)

    def path_at_level(self, stream: SeedStream, index: int, level: int) -> Ensemble:
        """Path ``index`` on the dyadic grid of 2**level steps, as a one-row ensemble."""
        grid = TimeGrid.dyadic(level)
        return Ensemble(grid, self._matrix(stream, grid, [index]), stream.master_seed, self.tag)


def _coef_tag(coef) -> str:
    """A coefficient as a model tag records it, the same in every run (a
    repr's address is not): a constant by its repr; a function by its
    module and qualified name, and a lambda or nested function, whose
    qualified name others share, by its first line too; a
    ``functools.partial`` by its function's tag and its arguments' tags;
    any other callable by its class.  Two lambdas on one line, a method
    bound to two objects, or two callable objects of one class still
    share a tag."""
    if isinstance(coef, partial):
        kw = (f"{k}={_coef_tag(v)}" for k, v in coef.keywords.items())
        return f"partial({','.join([_coef_tag(coef.func), *map(_coef_tag, coef.args), *kw])})"
    if not callable(coef):
        return repr(coef)
    kind = coef if hasattr(coef, "__qualname__") else type(coef)
    tag = f"{kind.__module__}.{kind.__qualname__}"
    code = getattr(kind, "__code__", None)
    return f"{tag}:{code.co_firstlineno}" if code and "<" in kind.__qualname__ else tag


class DriftedDiffusion:
    """dS = mu dt + sigma dB with constant or (t, s)-dependent coefficients.

    Constant coefficients give the exact solution S = s0 + mu t + sigma B
    driven by the bridge construction (hence refinable).  Callable
    coefficients take a time and the array of every row's state at that
    time, and drive a left-endpoint Euler scheme on the target grid, one
    column at a time over all rows.
    """

    def __init__(self, mu, sigma, s0: float = 0.0):
        self.mu = mu
        self.sigma = sigma
        self.s0 = float(s0)
        self._const = not callable(mu) and not callable(sigma)
        if self._const and sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        if self._const:
            mu, sigma = float(mu), float(sigma)
        self.tag = f"drifted(mu={_coef_tag(mu)},sigma={_coef_tag(sigma)})"

    @property
    def refinable(self) -> bool:
        return self._const

    def _matrix(self, stream: SeedStream, grid: TimeGrid, indices) -> np.ndarray:
        """Rows of the exact solution, or of the Euler scheme for callable coefficients."""
        vals = _brownian_matrix(stream, grid, indices)
        if self._const:
            vals *= float(self.sigma)
            vals += self.s0 + float(self.mu) * grid.points
            return vals
        mu_fn = self.mu if callable(self.mu) else (lambda t, s: self.mu)
        sig_fn = self.sigma if callable(self.sigma) else (lambda t, s: self.sigma)
        db = np.diff(vals, axis=1)
        vals[:, 0] = self.s0
        for k, (t, dt) in enumerate(zip(grid.points[:-1], grid.dt)):
            s = vals[:, k]
            sig = sig_fn(t, s)
            if np.any(sig <= 0):
                raise ContractViolation("sigma function must stay positive")
            vals[:, k + 1] = s + mu_fn(t, s) * dt + sig * db[:, k]
        return vals

    def path_at_level(self, stream: SeedStream, index: int, level: int) -> Ensemble:
        if not self._const:
            raise ConfigurationError("state-dependent coefficients are not refinable")
        grid = TimeGrid.dyadic(level)
        return Ensemble(grid, self._matrix(stream, grid, [index]), stream.master_seed, self.tag)


# ---------------------------------------------------------------------------
# The late-burst Gaussian martingale
# ---------------------------------------------------------------------------

def sigma_profile_vec(t: np.ndarray) -> np.ndarray:
    """Volatility |log(1-t)|^(-2/3) / sqrt(1-t) at each of an array of times
    t in [0, 1), switched on only for t in (1/2, 1).

    The profile vanishes on [0, 1/2], is strictly positive on (1/2, 1),
    and blows up at t = 1 while keeping a finite total variance.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t >= 1.0) or np.any(t < 0.0):
        raise ContractViolation("the volatility profile is defined on [0, 1)")
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
) -> TimeGrid:
    """Grid for models that are singular at t = 1.

    Uniform on [0, 1/2]; uniform in v = -log(1-t) on (1/2, 1-eps], which
    flattens the volatility burst; a single closing cell (1-eps, 1].
    The decade cutoffs 1 - 10^-k (k = 1..6) larger than eps are forced
    onto the grid so truncation sweeps land on exact grid points.
    """
    if not (0.0 < eps < 0.5):
        raise ConfigurationError("eps must lie in (0, 1/2)")
    knots_eps = [c for c in _DECADES if c > eps] + [eps]  # descending, i.e. increasing times
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


def _freeze_cut(grid: TimeGrid, eps: float) -> int:
    """Index of the grid point 1 - eps, the truncation at eps; refused if none."""
    return grid.index_of(1.0 - eps)


def _late_burst(grid: TimeGrid, b: np.ndarray, b1=None, out=None) -> np.ndarray:
    """The running left-endpoint integral against the late burst sigma of
    each row of driver values ``b``, frozen in the closing cell: M, or with
    ``b1`` the insider drift A (``BundleEnsemble.m_values``, ``drift_values``),
    written one row block at a time into ``out`` (``b`` allowed) or a new matrix."""
    t, sig = grid.points[:-1], sigma_profile_vec(grid.points[:-1])
    out = np.empty_like(b) if out is None else out
    for blk in _row_blocks(b.shape[0], grid.n_steps):
        if b1 is None:
            inc = sig * np.diff(b[blk], axis=1)
        else:
            inc = sig * (b1[blk, None] - b[blk, :-1])
            inc /= 1.0 - t
            inc *= grid.dt
        inc[:, -1] *= 0.0  # the closing cell adds nothing
        out[blk, 0] = 0.0
        np.cumsum(inc, axis=1, out=out[blk, 1:])
    return out


# ---------------------------------------------------------------------------
# Poisson machinery and the insider bundle
# ---------------------------------------------------------------------------

def _poisson_times(
    master_seed: int, indices: np.ndarray, tag: str, rate: float, block: int
) -> tuple[np.ndarray, np.ndarray]:
    """Jump times in [0, 1] of one Poisson process per index, as flat
    ``(row, time)`` arrays sorted by row, then time.

    Row r's inter-arrival times are exponentials of scale 1/rate, drawn
    from the start of its substream ``(indices[r], tag)`` and summed left
    to right: the times of a scalar draw-and-add loop, bit for bit.  Each
    row draws ``block`` of them; a row whose block ends at or before t = 1
    is drawn again from the start with twice the block.
    """
    e = np.empty((indices.size, block))
    for r, rng in enumerate(_row_rngs(master_seed, indices, tag)):
        rng.standard_exponential(out=e[r])
    e *= 1.0 / rate
    t = np.cumsum(e, axis=1)
    short = t[:, -1] <= 1.0
    t[short] = np.inf
    row, col = np.nonzero(t <= 1.0)
    times = t[row, col]
    if short.any():
        redo = np.flatnonzero(short)
        more_row, more_times = _poisson_times(master_seed, indices[redo], tag, rate, 2 * block)
        row = np.concatenate([row, redo[more_row]])
        times = np.concatenate([times, more_times])
        order = np.argsort(row, kind="stable")
        row, times = row[order], times[order]
    return row, times


def _snap_jump_indices(grid: TimeGrid, raw_times: Sequence[float], idx_cap: int):
    """Snap raw jump times to grid indices in [1, idx_cap].

    Each time is rounded up to the next grid point; times beyond the cap
    are pulled back to it.  Ties (two jumps landing on one grid point)
    are resolved by pushing the later jump to the next free index, and a
    group overflowing the cap is right-aligned at the cap and cascaded
    backward, preserving relative order.  Returns the indices and whether
    any tie was pushed.
    """
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


@dataclass(frozen=True, eq=False, kw_only=True)
class BundleEnsemble(Ensemble):
    """Insider bundles stored matrix-first, one row per bundle.

    An ``Ensemble`` of the combined jump paths S: ``values`` and the flat
    jump arrays are S's.  ``b`` is the read-only ``(n_paths, n_points)``
    value matrix of the driver B and ``b1`` each row's terminal value; the
    late-burst martingale M (S without its jumps) and the insider drift A
    are derived from them per row view by ``m_values`` and ``drift_values``.  Each
    jump of S is one raw jump of the Poisson pair N1, N2 snapped to the
    grid: ``poisson_time``, a flat read-only array, holds the raw times
    and matches S's jump arrays entry for entry, so jump j is in row
    ``jump_path[j]`` and comes from N1 when ``jump_size[j] > 0``, from N2
    otherwise.  Jumps are sorted by row, then raw time, then source (N2
    first).  The two snapping flags are kept per row.
    """

    eps: float
    rate: float
    b: np.ndarray
    b1: np.ndarray
    poisson_time: np.ndarray
    late_jump_capped: np.ndarray
    snap_collision: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        for a in (self.b, self.b1, self.poisson_time, self.late_jump_capped,
                  self.snap_collision):
            a.setflags(write=False)

    def m_values(self, rows: slice = slice(None)) -> np.ndarray:
        """The late-burst martingale M of the rows ``rows`` (all by default):
        sigma(u) dB_u accumulated by left-endpoint quadrature up to 1 - eps."""
        return _late_burst(self.grid, self.b[rows])

    def drift_values(self, rows: slice = slice(None)) -> np.ndarray:
        """The insider drift A of the rows ``rows`` (all by default).

        A accumulates sigma(u) (B1 - B_u)/(1 - u) du by left-endpoint
        quadrature up to 1 - eps.  With left-endpoint evaluation the
        increments of the recentred martingale M - A have exactly zero
        conditional mean given (path prefix, B1).
        """
        return _late_burst(self.grid, self.b[rows], self.b1[rows])


def _build_bundles(
    stream: SeedStream,
    grid: TimeGrid,
    eps: float,
    rate: float,
    indices: Sequence[int],
) -> BundleEnsemble:
    """Joint (B, N1, N2, S, B1) realizations of bundles ``indices``, one row each.

    Jump sizes are the exact reciprocal gap +-1/(1-u) at the snapped time
    u; jumps past the freeze time keep their Poisson law but are capped
    at the last grid point before 1 and flagged.
    """
    if eps <= 0.0 or _freeze_cut(grid, eps) != grid.n_steps - 1:
        raise ConfigurationError("the grid's closing cell must start at 1 - eps, with eps > 0")
    if not 0.0 < rate < math.inf:
        raise ContractViolation(f"rate must be positive and finite, not {rate!r}")
    indices = np.asarray(indices)
    n = indices.size
    b = _brownian_matrix(stream, grid, indices)
    block = int(rate + 4.0 * math.sqrt(rate)) + 8  # a redraw is rare
    (row1, t1), (row2, t2) = (_poisson_times(stream.master_seed, indices, tag, rate, block)
                              for tag in ("poisson-1", "poisson-2"))
    row, time = np.concatenate([row1, row2]), np.concatenate([t1, t2])
    sign = np.concatenate([np.ones(row1.size), -np.ones(row2.size)])
    order = np.lexsort((sign, time, row))
    row, time, sign = row[order], time[order], sign[order]

    idx_cap = grid.points.size - 2  # last grid point before 1
    raw = np.searchsorted(grid.points, time, side="left")
    k = np.clip(raw, 1, idx_cap)
    capped = np.bincount(row[raw > idx_cap], minlength=n) > 0
    collision = np.zeros(n, dtype=bool)
    clash = (np.diff(row) == 0) & (np.diff(k) == 0)
    for r in np.unique(row[1:][clash]):  # the rare rows with two jumps on one grid point
        lo, hi = np.searchsorted(row, (r, r + 1))
        k[lo:hi], collision[r] = _snap_jump_indices(grid, time[lo:hi], idx_cap)
    size = sign / (1.0 - grid.points[k])

    s = _late_burst(grid, b)  # M, then its jumps added
    for r, cell, z in zip(row.tolist(), (k - 1).tolist(), size.tolist()):
        s[r, cell + 1 :] += z
    return BundleEnsemble(
        grid, s, stream.master_seed, "counterexample", row, k - 1, size,
        eps=eps, rate=rate, b=b, b1=b[:, -1].copy(), poisson_time=time,
        late_jump_capped=capped, snap_collision=collision,
    )


def gen_bundles(
    stream: SeedStream,
    n_paths: int,
    grid: TimeGrid,
    eps: float,
    rate: float,
) -> BundleEnsemble:
    """Bundles 0 .. n_paths-1 as one ``BundleEnsemble``.

    Each bundle draws from its own substreams, so row i does not depend
    on ``n_paths``.
    """
    if n_paths < 1:
        raise ContractViolation("need at least one path")
    return _build_bundles(stream, grid, eps, rate, range(n_paths))


# ---------------------------------------------------------------------------
# Ensembles and the CLI-facing model description
# ---------------------------------------------------------------------------

def gen_ensemble(
    model,
    stream: SeedStream,
    n_paths: int,
    grid: TimeGrid,
) -> Ensemble:
    """Materialize ``n_paths`` model paths into one value matrix.

    The model's ``_matrix(stream, grid, indices)`` fills one row per path
    index; row i depends only on i.
    """
    if n_paths < 1:
        raise ContractViolation("need at least one path")
    return Ensemble(grid, model._matrix(stream, grid, range(n_paths)), stream.master_seed, model.tag)


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
        if self.variant == "counterexample" and not 0.0 < self.rate < math.inf:
            raise ConfigurationError(f"rate must be positive and finite, not {self.rate!r}")

    def generate(self, stream: SeedStream, n_paths: int, steps: int, log_steps: int) -> Ensemble:
        """Paths 0 .. n_paths-1 of the variant, one row each.

        Brownian and drifted paths lie on the uniform grid of ``steps``
        cells; the late-burst martingale and the insider bundles (a
        ``BundleEnsemble``) on ``make_insider_grid(eps, steps, log_steps)``,
        which has no point inside the frozen cell (1 - eps, 1).
        """
        if self.variant in ("brownian", "drifted"):
            model = (BrownianModel() if self.variant == "brownian"
                     else DriftedDiffusion(self.mu, self.sigma))
            return gen_ensemble(model, stream, n_paths, TimeGrid.uniform(steps))
        grid = make_insider_grid(self.eps, n_uniform=steps, n_log=log_steps)
        if self.variant == "counterexample":
            return gen_bundles(stream, n_paths, grid, self.eps, self.rate)
        vals = _brownian_matrix(stream, grid, range(n_paths))
        return Ensemble(grid, _late_burst(grid, vals, out=vals), stream.master_seed, self.variant)
