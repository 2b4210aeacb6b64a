"""Time grids, path ensembles, pathwise quadratic variation, and
level/variation truncation times.

Paths live on the unit horizon [0, 1].  Every path is a row of an
``Ensemble``: a piecewise-linear continuous interpolant through its
samples at the grid points, plus its jumps, kept in flat arrays apart
from the samples.  Storing jumps apart from the continuous samples
keeps their squared contribution to the quadratic variation exact
rather than mesh-dependent.  One path is a one-row ensemble.

Conventions used throughout the package:

* ``values[k]`` is the path level immediately AFTER any jump at
  ``points[k]``.
* a jump at grid point ``points[k]`` (k >= 1) belongs to the grid cell
  ``(points[k-1], points[k]]`` and is indexed by cell ``k - 1``.
* a step function on the grid (a strategy, an integrand) is an array of
  length ``n_steps`` whose entry ``k`` applies on ``(points[k], points[k+1]]``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation

__all__ = [
    "TimeGrid",
    "Ensemble",
    "qv_matrix",
    "refine_and_compare_qv",
    "truncation_index",
    "save_ensemble",
    "load_ensemble",
]


# Cells a row-blocked matrix pass holds at once: 2^15 cells, 256 KiB per
# float64 temporary.  Path generation, the variation, the log-wealth kernel,
# the drift estimators and the insider passes work in row blocks of this
# many cells.  A block's few temporaries stay resident in a core's L2 cache,
# well below the 2 MiB temporaries of 2^18-cell blocks, with which a pass in
# a fresh process ran about 1.3x slower than after a large array was freed
# (pages faulted in anew on every pass, most likely).  Of 2^14, 2^15 and
# 2^16, 2^15 was as fast as 2^16 per pass, and as small as 2^14 in the
# insider pipeline's peak memory.
_CHUNK_CELLS = 1 << 15


def _row_blocks(n_rows: int, n_cells: int) -> list[slice]:
    """Slices of consecutive rows, each at most ``_CHUNK_CELLS`` cells of
    ``n_cells`` per row (one row at least)."""
    rows = max(1, _CHUNK_CELLS // n_cells)
    return [slice(lo, lo + rows) for lo in range(0, n_rows, rows)]


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid of times with first point 0 and last point 1."""

    points: np.ndarray

    def __post_init__(self):
        pts = _readonly(self.points)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ContractViolation("grid needs at least two points")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ContractViolation("grid must start at 0 and end at 1")
        if not np.all(np.diff(pts) > 0):
            raise ContractViolation("grid points must be strictly increasing")

    @property
    def n_steps(self) -> int:
        return self.points.size - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.points)

    @classmethod
    def uniform(cls, n_steps: int) -> "TimeGrid":
        if n_steps < 1:
            raise ContractViolation("n_steps must be >= 1")
        return cls(np.linspace(0.0, 1.0, n_steps + 1))

    @classmethod
    @lru_cache(maxsize=8)
    def dyadic(cls, level: int) -> "TimeGrid":
        """The uniform grid of 2**level steps; grids are immutable, so one per level is kept."""
        return cls.uniform(2**level)

    def index_of(self, t: float) -> int:
        """Index of the grid point within 1e-12 of t (representation noise)."""
        k = int(np.searchsorted(self.points, t))
        for j in (k, k - 1, k + 1):
            if 0 <= j < self.points.size and abs(self.points[j] - t) <= 1e-12:
                return j
        raise ContractViolation(f"t={t!r} is not a grid point")

    @cached_property
    def dyadic_uniform(self) -> bool:
        """Whether the points are ``linspace(0, 1, 2**k + 1)``; computed once per grid."""
        n = self.n_steps
        return not n & (n - 1) and bool(np.array_equal(self.points, np.linspace(0.0, 1.0, n + 1)))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A set of paths sharing one grid, stored as a (n_paths, n_points) matrix.

    The jumps of every path are flat parallel arrays (path, cell, size),
    sorted by path and then time; cell ``k`` is a jump at
    ``grid.points[k + 1]``.  Empty arrays mean a continuous model.
    """

    grid: TimeGrid
    values: np.ndarray
    master_seed: int | None
    model_tag: str
    jump_path: np.ndarray = ()
    jump_cell: np.ndarray = ()
    jump_size: np.ndarray = ()

    def __post_init__(self):
        vals = _readonly(self.values)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2 or vals.shape[1] != self.grid.points.size:
            raise ContractViolation("values must be (n_paths, n_points)")
        if vals.shape[0] < 1:
            raise ContractViolation("ensemble needs at least one path")
        for name, dtype in (("jump_path", np.intp), ("jump_cell", np.intp), ("jump_size", float)):
            object.__setattr__(self, name, _readonly(getattr(self, name), dtype))
        path, cell, n = self.jump_path, self.jump_cell, self.grid.n_steps
        if not (path.shape == cell.shape == self.jump_size.shape == (path.size,)
                and np.all(np.diff(path * n + cell) > 0)
                and (not path.size or (0 <= path[0] and path[-1] < vals.shape[0]
                                       and 0 <= cell.min() and cell.max() < n))):
            raise ContractViolation(
                "jumps must be flat arrays of one length, naming cells of the "
                "ensemble's paths, sorted by path and strictly by time")

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @cached_property
    def qv(self) -> np.ndarray:
        """The running quadratic variation of every path (``qv_matrix``),
        computed once per ensemble and read-only."""
        return _readonly(qv_matrix(self))

    def blocks(self):
        """The row blocks of the ensemble, as ``(rows, part)`` pairs in row
        order: ``rows`` is the block's slice and ``part`` a plain
        ``Ensemble`` view of those rows' values and their jumps, with the
        jumps' rows counted from the block's first.  Every per-row pass
        over an ensemble reads these views; a row's results do not depend
        on the rows beside it, so they are bit for bit the whole matrix's."""
        for rows in _row_blocks(self.n_paths, self.grid.n_steps):
            yield rows, self._view(rows)

    def head(self, n: int) -> "Ensemble":
        """The first ``n`` paths with their jumps, as a plain ``Ensemble`` view."""
        return self._view(slice(0, n))

    def _view(self, rows: slice) -> "Ensemble":
        """The paths in ``rows`` and their jumps, rows counted from the first."""
        lo, hi = rows.indices(self.n_paths)[:2]
        j = slice(*np.searchsorted(self.jump_path, (lo, hi)))
        return Ensemble(self.grid, self.values[lo:hi], self.master_seed, self.model_tag,
                        self.jump_path[j] - lo, self.jump_cell[j], self.jump_size[j])

    def continuous_increments(self) -> np.ndarray:
        """Per-cell increments of every path, jump sizes taken out."""
        inc = np.diff(self.values, axis=1)
        np.subtract.at(inc, (self.jump_path, self.jump_cell), self.jump_size)
        return inc

    def variation_increments(self) -> np.ndarray:
        """Per-cell quadratic variation ``d[S]`` of every path: the squared
        continuous increment, plus the squared size of a jump in that cell,
        so the jump term is exact whatever the mesh."""
        inc = self.continuous_increments()
        np.add.at(np.square(inc, out=inc), (self.jump_path, self.jump_cell),
                  np.square(self.jump_size))
        return inc


# ---------------------------------------------------------------------------
# Quadratic variation
# ---------------------------------------------------------------------------

def qv_matrix(ensemble: Ensemble) -> np.ndarray:
    """Quadratic variation of every path, as a (n_paths, n_points) matrix:
    the running sum of ``Ensemble.variation_increments``, one row view at a time."""
    out = np.zeros_like(ensemble.values)
    for rows, part in ensemble.blocks():
        np.cumsum(part.variation_increments(), axis=1, out=out[rows, 1:])
    return out


def refine_and_compare_qv(
    model,
    stream,
    index: int,
    levels: Sequence[int],
) -> list[tuple[int, float]]:
    """Terminal quadratic variation of ONE realization on nested dyadic grids.

    ``model`` must expose ``refinable`` and ``path_at_level(stream, index,
    level)`` evaluating the same realization, as a one-row ``Ensemble``, on
    finer grids; the returned
    rows ``(n_steps, qv_total)`` stabilize when the realization has a
    mesh-robust quadratic variation, and the jump contribution is
    identical at every mesh by construction.
    """
    if not getattr(model, "refinable", False):
        raise ConfigurationError(
            f"model {getattr(model, 'tag', model)!r} does not support consistent refinement"
        )
    rows = []
    for level in levels:
        path = model.path_at_level(stream, index, level)
        rows.append((path.grid.n_steps, float(path.qv[0, -1])))
    return rows


# ---------------------------------------------------------------------------
# Truncation times
# ---------------------------------------------------------------------------

def truncation_index(
    values: np.ndarray, qv_values: np.ndarray, n: float, start: int | np.ndarray = 0
) -> int | np.ndarray:
    """Grid index of the first point where |level| > n or variation > n.

    ``values`` and ``qv_values`` hold one path, or one path per row; the
    result is an int, or one index per row.  Points before ``start`` (one
    index, or one per row) are skipped.  A path that never crosses
    gets ``values.shape[-1]``, one past its last grid index, so a
    crossing at the last point still counts as a stop and
    ``index < n_cells`` selects the cells before the stop.
    """
    hit = (np.abs(values) > n) | (qv_values > n)
    if np.any(start):
        hit &= np.arange(hit.shape[-1]) >= np.expand_dims(start, -1)
    stop = np.where(hit.any(axis=-1), np.argmax(hit, axis=-1), values.shape[-1])
    return int(stop) if stop.ndim == 0 else stop


# ---------------------------------------------------------------------------
# Monte-Carlo summaries
# ---------------------------------------------------------------------------

def _mean_stderr(x: np.ndarray) -> tuple[float, float]:
    """Sample mean of ``x`` and its standard error (0 for a single sample)."""
    n = x.size
    return float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(n)) if n > 1 else 0.0


# ---------------------------------------------------------------------------
# Serialization (round-trip-safe decimal: repr of the float)
# ---------------------------------------------------------------------------

# The binary copy of a stored ensemble's arrays, written beside its text.
_CACHE = "ensemble.npy"
# Bytes the digest reads from a stored file at a time.
_DIGEST_PIECE = 1 << 20


def save_ensemble(ensemble: Ensemble, out_dir: str | Path, fmt: str = "csv") -> None:
    """Write an ensemble to a directory with a replayable manifest.

    The text (``ensemble.json``, or one CSV file per path and one per
    path with jumps) is the stored ensemble, encoded and written one row
    view at a time; a CSV save removes the directory's other ``path_*``
    files.  After it comes ``ensemble.npy``: the same arrays in binary,
    bound by its SHA-256 to the text as written, which ``load_ensemble``
    reads instead of parsing the text.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "kind": "ensemble",
        "model_tag": ensemble.model_tag,
        "master_seed": ensemble.master_seed,
        "n_paths": ensemble.n_paths,
        "n_steps": ensemble.grid.n_steps,
        "format": fmt,
    }
    _atomic_write(out / "ensemble_manifest.json", json.dumps(manifest, indent=2) + "\n")
    if fmt == "json":
        names = ["ensemble.json"]
        _atomic_write(out / names[0], _json_pieces(ensemble, manifest))
    elif fmt == "csv":
        names = []
        for name, data in _csv_files(ensemble):
            _atomic_write(out / name, data)
            names.append(name)
        for stale in {f.name for f in out.glob("path_*.csv")}.difference(names):
            (out / stale).unlink(missing_ok=True)
    else:
        raise ConfigurationError(f"unknown format {fmt!r}")
    _write_cache(out / _CACHE, _digest(out, names), ensemble)


def _json_pieces(ensemble: Ensemble, manifest: dict):
    """The bytes of ``json.dumps({"manifest": ..., "points": ..., "paths":
    [...]}) + "\\n"``, one row view at a time after the head."""
    head = json.dumps({"manifest": manifest, "points": ensemble.grid.points.tolist()})
    yield (head[:-1] + ', "paths": [').encode()
    times = _float_tokens(ensemble.grid.points)
    for rows, part in ensemble.blocks():
        yield from _json_rows(part, times, b", " if rows.start else b"")
    yield b"]}\n"


def _json_rows(part: Ensemble, times: list[bytes], lead: bytes):
    """The ``{"values": [...], "jumps": [[t, size], ...]}`` object of each
    path of a row view, the first led by ``lead`` and the others by ``", "``."""
    buf, frames, length = _float_text(part.values, json_flavour=True, sep=b", ")
    ends = np.cumsum(length.reshape(part.n_paths, -1).sum(axis=1)).tolist()
    del frames, length
    text = buf.translate(None, b"\0")
    del buf
    for lo, hi, row in zip([0, *ends], ends, _row_jumps(part, times, json_flavour=True)):
        jumps = b", ".join(b"[%s, %s]" % pair for pair in row)
        yield b'%s{"values": [%s], "jumps": [%s]}' % (lead, text[lo:hi - 2], jumps)
        lead = b", "


def _csv_files(ensemble: Ensemble):
    """Name and bytes of each path's CSV file, each followed by its jumps
    file if it has jumps, encoded one row view at a time."""
    t_buf, t_frames, t_length = _float_text(ensemble.grid.points, sep=b",")  # "t,"
    times = bytes(t_buf.translate(None, b"\0")).split(b",")[:-1]
    for rows, part in ensemble.blocks():
        buf, lines, length = _float_text(part.values, sep=b"\n", lead=1)
        lines.reshape(*part.values.shape, 2, _FRAME)[:, :, 0] = t_frames[:, 0]
        ends = np.cumsum(length.reshape(part.n_paths, -1).sum(axis=1) + t_length.sum()).tolist()
        del lines, length
        text = buf.translate(None, b"\0")
        del buf
        for i, lo, hi, row_jumps in zip(range(rows.start, rows.stop), [0, *ends], ends,
                                        _row_jumps(part, times)):
            yield f"path_{i:05d}.csv", b"t,value\n" + text[lo:hi]
            if row_jumps:
                yield f"path_{i:05d}.jumps.csv", b"t,jump_size\n" + b"".join(
                    b"%s,%s\n" % pair for pair in row_jumps)


def _row_jumps(part: Ensemble, times: list[bytes], json_flavour: bool = False) -> list[list]:
    """Each path's jumps in a row view, as ``(time, size)`` text pairs."""
    if not part.jump_size.size:
        return [[] for _ in range(part.n_paths)]
    sizes = _float_tokens(part.jump_size, json_flavour)
    pairs = [(times[c + 1], z) for c, z in zip(part.jump_cell.tolist(), sizes)]
    bounds = np.searchsorted(part.jump_path, np.arange(part.n_paths + 1)).tolist()
    return [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# Float text: the text repr gives each float, for a whole array at once
# ---------------------------------------------------------------------------
#
# A float x of 1e-4 <= |x| < 1e16, which repr writes without an exponent,
# is scaled exactly: x 10^k = n + f, with n a 17-digit integer and
# 0 <= f < 1, by Dekker's two-product (10^k is a float for k <= 22).  The
# decimals that read back to x are those within h, half the gap to its
# neighbours scaled alike (exact too: a power of two times 10^k), and repr
# writes the shortest of them, the nearest to x among those.  Within
# h < 11.2 of n + f there is at most one multiple of 100, so the nearest
# multiples of 1, 10 and 100 decide it: the coarsest of them within h, its
# trailing zeros stripped.  A cell is certified only when every distance is
# clearly off h (by 2^-30 of it) and the chosen multiple is not a tie; the
# others (zero, subnormals, non-finite values, |x| out of range, powers of
# two, whose lower neighbour is nearer, and the rare cell on the edge) take
# the scalar path, so the text is repr's by construction.
#
# Each text is laid out in a frame of _FRAME bytes, NUL where it has none:
# sign at byte 3, 16 integer digits at 4-19, the point at 20, up to 3 zeros
# after it at 21-23, 17 fraction digits at 24-40, the separator at 41-43.
# Deleting the NULs of a buffer of frames leaves the texts in order.

_MARGIN = 2.0 ** -30
_FRAME = 44
_SPLIT = 134217729.0  # 2^27 + 1


@lru_cache(maxsize=None)
def _text_tables() -> tuple[np.ndarray, ...]:
    """ASCII digits of 0..9999 as little-endian 4-byte words; the powers of
    ten 10^0..10^22 as floats (all exact) and split in halves for the
    two-product; 10^0..10^18 as int64."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    pow10 = np.array([float(10**i) for i in range(23)])
    hi = pow10 * _SPLIT
    hi -= hi - pow10
    return (digits.astype(np.uint8).view("<u4").ravel(), pow10, hi, pow10 - hi,
            np.array([10**i for i in range(19)], dtype=np.int64))


@lru_cache(maxsize=None)
def _frame_words(sep: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frame's constant bytes as 11 words, each word's kept bytes for
    every class ``((point + 3) * 17 + m - 1) * 2 + negative`` (``point`` in
    -3..16, ``m`` fraction digits in 1..17) as ``(11, classes)`` words, and
    each class's text length."""
    point, m, neg = (a.ravel() for a in np.meshgrid(np.arange(-3, 17), np.arange(1, 18),
                                                     np.arange(2), indexing="ij"))
    keep = np.zeros((point.size, _FRAME), np.uint8)
    keep[:, 3] = neg
    keep[:, 4:20] = np.arange(16, 0, -1) <= np.maximum(point, 1)[:, None]
    keep[:, 20] = 1
    keep[:, 21:24] = np.arange(3) < -np.minimum(point, 0)[:, None]
    keep[:, 24:41] = np.arange(17) < m[:, None]
    keep[:, 41:41 + len(sep)] = 1
    const = np.frombuffer(b"   -" + bytes(16) + b".000" + bytes(16) + b"0" + sep.ljust(3, b"\0"),
                          np.uint8)
    return (const.view("<u4"), np.ascontiguousarray((keep * 255).view("<u4").T),
            np.count_nonzero(keep, axis=1))


def _nearest(n: np.ndarray, f: np.ndarray, s: int) -> tuple:
    """Of the multiples of 10^s, the nearest to ``n + f`` (as its quotient),
    its distance, and how much farther the one on the other side is."""
    step = 10**s
    q = n // step
    down = n - q * step + f
    q += down > step / 2
    gap = np.abs(step - 2 * down)
    return q, np.minimum(down, step - down, out=down), gap


def _shortest_digits(x: np.ndarray) -> tuple:
    """``(ok, q, point, n_digits)``: where ``ok``, repr writes ``x`` with the
    ``n_digits`` digits of ``q``, its decimal point ``point`` digits after
    the first (before it, if negative)."""
    _, pow10, pow10_hi, pow10_lo, ipow10 = _text_tables()
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e16) & (x.view(np.int64) & ((1 << 52) - 1) != 0)
    a[~ok] = 1.5  # any certifiable value: these cells take the scalar path
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    p = a * pow10[k]
    k += p < 1e16
    k -= p >= 1e17
    np.multiply(a, pow10[k], out=p)
    ok &= (p >= 1e16) & (p < 1e17)
    # the exact error of p = a 10^k: Dekker's two-product, each half-product exact
    hi = a * _SPLIT
    hi -= hi - a
    lo = a - hi
    err = hi * pow10_hi[k]
    err -= p
    err += hi * pow10_lo[k]
    del hi
    err += lo * pow10_hi[k]
    err += lo * pow10_lo[k]
    del lo
    n = np.floor(err)
    f = err - n
    del err
    n = n.astype(np.int64)
    n += p.astype(np.int64)
    del p
    h = ((a.view(np.int64) & 0x7FF0000000000000) - (53 << 52)).view(float) * pow10[k]
    del a
    q, near, gap = _nearest(n, f, 0)
    ok &= near < h * (1 - _MARGIN)
    tie = gap <= h * _MARGIN
    level = np.zeros(x.size, np.int8)
    for s in (1, 2):
        del near, gap
        qs, near, gap = _nearest(n, f, s)
        inside = near < h * (1 - _MARGIN)
        ok &= inside | (near > h * (1 + _MARGIN))
        np.copyto(q, qs, where=inside)
        np.copyto(tie, gap <= h * _MARGIN, where=inside)
        level += inside
    ok &= ~tie
    del n, f, h, qs, near, gap, tie, inside
    v = q * ipow10[level]
    ok &= (v >= ipow10[16]) & (v < ipow10[17])  # 17 digits, like n: the point is n's
    del v
    j = np.flatnonzero(level == 2)  # the only multiple of 100 within h: strip its zeros
    while j.size:
        tenth = q[j] // 10
        j = j[tenth * 10 == q[j]]
        q[j] //= 10
        level[j] += 1
    return ok, q, 17 - k, 17 - level


def _float_text(x: np.ndarray, json_flavour: bool = False, sep: bytes = b"",
                lead: int = 0) -> tuple[bytearray, np.ndarray, np.ndarray]:
    """Each float of ``x``, in row-major order, as the text ``repr`` writes
    (``json.dumps``'s with ``json_flavour``: ``NaN`` and ``Infinity``)
    followed by ``sep``.  Returns a buffer of one row per float, ``lead``
    zeroed frames for the caller to fill and then the float's; its
    ``(x.size, lead + 1, _FRAME)`` byte view; and each text's length.  The
    texts are the buffer with its NULs deleted."""
    x = np.ravel(x)
    words, *_, ipow10 = _text_tables()
    const, masks, lengths = _frame_words(sep)
    ok, q, point, n_digits = _shortest_digits(x)
    after = n_digits - np.maximum(point, 0)  # digits after the point (< 0: zeros before it)
    m = np.maximum(after, 1)
    key = ((point + 3) * 17 + m - 1) * 2 + (x < 0)
    key[~ok] = 0
    div = ipow10[m * (after > 0)]
    whole = q // div
    frac = (q - whole * div) * ipow10[17 - m]  # left-aligned in 17 digits
    whole *= ipow10[np.maximum(-after, 0)]
    del q, point, n_digits, after, m, div
    buf = bytearray(x.size * (lead + 1) * _FRAME)
    frames = np.frombuffer(buf, np.uint8).reshape(x.size, lead + 1, _FRAME)
    word = frames[:, lead].view("<u4")
    word[:, 0], word[:, 5] = const[0], const[5]
    v = frac // 10
    word[:, 10] = frac - v * 10 + const[10]
    del frac
    for col in (9, 8, 7, 6, 4, 3, 2, 1):  # four digits at a time, from the last
        if col == 4:
            v = whole  # the fraction's first 16 digits are written: now the integer's
            del whole
        hi = v // 10000
        word[:, col] = words.take(v - hi * 10000, mode="clip")
        v = hi
    del v, hi
    for col in range(11):
        word[:, col] &= masks[col].take(key)
    length = lengths.take(key)
    rest = np.flatnonzero(~ok)
    if rest.size:  # the scalar path, once per distinct float
        dump = json.dumps if json_flavour else repr
        index, texts, which = {}, [], []
        for v, bits in zip(x[rest].tolist(), x.view(np.int64)[rest].tolist()):
            if bits not in index:
                index[bits] = len(texts)
                texts.append(dump(v).encode() + sep)
            which.append(index[bits])
        padded = np.frombuffer(b"".join(t.ljust(_FRAME, b"\0") for t in texts), np.uint8)
        frames[rest, lead] = padded.reshape(-1, _FRAME)[which]
        length[rest] = np.array([len(t) for t in texts])[which]
    return buf, frames, length


def _float_tokens(x: np.ndarray, json_flavour: bool = False) -> list[bytes]:
    """The text of each float of ``x``, as ``_float_text`` writes it."""
    buf, frames, _ = _float_text(x, json_flavour, sep=b",")
    del frames
    return bytes(buf.translate(None, b"\0")).split(b",")[:-1]


def _digest(src: Path, names) -> bytes:
    """SHA-256 over the name, length and bytes of each named file in
    ``src`` in turn, each read back from disk in ``_DIGEST_PIECE`` pieces."""
    h = hashlib.sha256()
    for name in names:
        with open(src / name, "rb") as f:
            h.update(b"%s %d\n" % (name.encode(), os.fstat(f.fileno()).st_size))
            while piece := f.read(_DIGEST_PIECE):
                h.update(piece)
    return h.digest()


def _cache_dtype(n_paths: int, n_steps: int, n_jumps: int) -> np.dtype:
    """One record: the text's digest, the grid, the value matrix and the flat jumps."""
    return np.dtype([("digest", "u1", (32,)), ("points", "<f8", (n_steps + 1,)),
                     ("values", "<f8", (n_paths, n_steps + 1)), ("jump_path", "<i8", (n_jumps,)),
                     ("jump_time", "<f8", (n_jumps,)), ("jump_size", "<f8", (n_jumps,))])


def _write_cache(target: Path, digest: bytes, ensemble: Ensemble) -> None:
    """Write the binary copy of ``ensemble``'s arrays, as the text reads them
    back: the bytes ``np.save`` gives one ``_cache_dtype`` record, with the
    value matrix written one row view at a time."""
    try:
        dtype = _cache_dtype(ensemble.n_paths, ensemble.grid.n_steps, ensemble.jump_size.size)
    except ValueError:  # too large for one record (numpy 1.x caps it at 2 GiB): no copy
        target.unlink(missing_ok=True)
        return
    _atomic_write(target, _cache_pieces(dtype, digest, ensemble))


def _cache_pieces(dtype: np.dtype, digest: bytes, ensemble: Ensemble):
    """The bytes of ``np.save`` of one ``dtype`` record, field by field."""
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(head, {
        "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": ()})
    yield head.getvalue()
    yield digest
    yield ensemble.grid.points.astype("<f8").tobytes()
    for _, part in ensemble.blocks():
        yield _plain_nan(part.values)
    yield ensemble.jump_path.astype("<i8").tobytes()
    yield ensemble.grid.points[ensemble.jump_cell + 1].astype("<f8").tobytes()
    yield _plain_nan(ensemble.jump_size)


def _plain_nan(a: np.ndarray) -> bytes:
    """The little-endian bytes of ``a``, every NaN the plain one: the text
    writes every NaN as ``nan``."""
    a = a.astype("<f8")
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def _read_cache(src: Path, manifest: dict, names) -> tuple | None:
    """The arrays in ``ensemble.npy``, or None unless it loads cleanly, fits
    the manifest's shape and holds the digest of the text files ``names``."""
    try:
        rec = np.load(src / _CACHE, mmap_mode="r", allow_pickle=False)
        want = _cache_dtype(manifest["n_paths"], manifest["n_steps"],
                            rec.dtype["jump_size"].shape[0])
        if rec.shape != () or rec.dtype != want or rec["digest"].tobytes() != _digest(src, names):
            return None
        return tuple(np.array(rec[name]) for name in want.names[1:])
    except Exception:  # a bad copy is never an error: the text is parsed instead
        # (numpy's header parser alone raises ValueError, EOFError or
        # tokenize.TokenError, and the manifest may hold values of any type)
        return None


def load_ensemble(in_dir: str | Path) -> Ensemble:
    """Read an ensemble that ``save_ensemble`` wrote.

    The arrays come from ``ensemble.npy`` when its digest matches the
    text, else from parsing the text; either way they pass the same
    checks.  Malformed stored data raises ValueError naming the
    directory: a manifest listing no paths, paths off one grid, a grid
    not spanning [0, 1], a jump off the grid, or a CSV row that is short
    or not numeric.
    """
    src = Path(in_dir)
    manifest = json.loads((src / "ensemble_manifest.json").read_text())
    try:
        if manifest.get("format") == "json":
            arrays = (_read_cache(src, manifest, ["ensemble.json"])
                      or _parse_json((src / "ensemble.json").read_bytes()))
        else:
            n_paths = manifest["n_paths"]
            arrays = (_read_cache(src, manifest, _stored_csv_names(src, n_paths))
                      or _read_csv_paths(src, n_paths))
        points, values, path, time, size = arrays
        grid = TimeGrid(points)
        return Ensemble(grid, values, manifest["master_seed"], manifest["model_tag"],
                        path.astype(np.intp), _cells_of(grid, time), size)
    except (ContractViolation, TypeError, ValueError) as exc:
        raise ValueError(f"{src} holds a malformed ensemble: {exc}") from exc


def _flat_jumps(jumps: list) -> np.ndarray:
    """``(path, time, size)`` triples as three float arrays."""
    return np.array(jumps, dtype=float).reshape(-1, 3).T


def _parse_json(text: bytes) -> tuple:
    """Grid points, value matrix and flat jumps of ``ensemble.json``'s bytes."""
    payload = json.loads(text.decode())
    points = np.array(payload["points"], dtype=float)
    values = np.array([p["values"] for p in payload["paths"]], dtype=float)
    jumps = [(i, t, z) for i, p in enumerate(payload["paths"]) for t, z in p["jumps"]]
    return points, values, *_flat_jumps(jumps)


def _stored_csv_names(src: Path, n_paths: int):
    """Name of each stored path file, each followed by its jumps file's if it has one."""
    for i in range(n_paths):
        yield f"path_{i:05d}.csv"
        if (src / (name := f"path_{i:05d}.jumps.csv")).exists():
            yield name


def _read_csv_paths(src: Path, n_paths: int) -> tuple:
    """Grid points, value matrix and flat jumps of a CSV ensemble."""
    if n_paths < 1:
        raise ValueError("the manifest lists no paths")
    cols = [_csv_columns(src / f"path_{i:05d}.csv") for i in range(n_paths)]
    points = cols[0][0]
    for i, (t, _) in enumerate(cols):
        if not np.array_equal(t, points):
            raise ValueError(f"path_{i:05d}.csv is not on the grid of path_00000.csv")
    jumps = [(i, t, z) for i in range(n_paths)
             if (jfile := src / f"path_{i:05d}.jumps.csv").exists()
             for t, z in zip(*_csv_columns(jfile))]
    return points, np.stack([v for _, v in cols]), *_flat_jumps(jumps)


def _csv_columns(file: Path) -> np.ndarray:
    """The two float columns below a CSV file's header, as a ``(2, rows)`` array."""
    lines = file.read_text().splitlines()[1:]
    try:
        cols = np.loadtxt(lines, delimiter=",", ndmin=2) if lines else np.empty((0, 2))
    except ValueError as exc:
        raise ValueError(f"{file.name}: {exc}") from exc
    if cols.shape[1] != 2:
        raise ValueError(f"{file.name} does not hold two columns")
    return cols.T


def _cells_of(grid: TimeGrid, times: np.ndarray) -> np.ndarray:
    """The cell of each jump time: the index of the grid point it names, less one."""
    pts = grid.points
    k = np.clip(np.searchsorted(pts, times), 1, pts.size - 1)
    k -= (times - pts[k - 1] < pts[k] - times) & (k > 1)  # the nearer point
    if not np.all(np.abs(pts[k] - times) <= 1e-12):
        raise ContractViolation("jump times must be grid points in (0, 1]")
    return k - 1


def _atomic_write(target: Path, data: str | bytes | Iterable[bytes]) -> None:
    """Write text, bytes or byte pieces in turn to a temporary sibling, then
    rename it onto ``target``.  A write that fails removes the sibling and
    leaves ``target`` as it was."""
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    try:
        if isinstance(data, str):
            tmp.write_text(data)
        else:
            with open(tmp, "wb") as f:
                f.writelines([data] if isinstance(data, bytes) else data)
        tmp.replace(target)
    except BaseException:  # an interrupt too: no partial file is left behind
        tmp.unlink(missing_ok=True)
        raise
