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


# Cells a row-blocked matrix pass holds at once (2 MiB of float64): path
# generation, the variation, the log-wealth kernel and the drift estimators
# work in row blocks of this many cells.
_CHUNK_CELLS = 1 << 18


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

    def index_of(self, t: float, tol: float = 1e-12) -> int:
        """Index of the grid point equal to t, up to representation noise."""
        k = int(np.searchsorted(self.points, t))
        for j in (k, k - 1, k + 1):
            if 0 <= j < self.points.size and abs(self.points[j] - t) <= tol:
                return j
        raise ContractViolation(f"t={t!r} is not a grid point")

    def is_dyadic_uniform(self) -> bool:
        """Whether the points are ``linspace(0, 1, 2**k + 1)``; computed once per grid."""
        return self._dyadic_uniform

    @cached_property
    def _dyadic_uniform(self) -> bool:
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

    def head(self, n: int) -> "Ensemble":
        """The first ``n`` paths with their jumps, as a plain ``Ensemble``."""
        k = int(np.searchsorted(self.jump_path, n))
        return Ensemble(self.grid, self.values[:n], self.master_seed, self.model_tag,
                        self.jump_path[:k], self.jump_cell[:k], self.jump_size[:k])

    def continuous_part(self) -> "Ensemble":
        """The paths with all jumps removed: each path less its cumulative jump sizes."""
        steps = np.zeros_like(self.values)
        steps[self.jump_path, self.jump_cell + 1] = self.jump_size
        return Ensemble(self.grid, self.values - np.cumsum(steps, axis=1), self.master_seed,
                        self.model_tag)

    def continuous_increments(self, rows: slice = slice(None)) -> np.ndarray:
        """Per-cell increments of the paths in ``rows`` (all by default), jump sizes taken out."""
        inc = np.diff(self.values[rows], axis=1)
        j, lo = self._jumps_in(rows), rows.start or 0
        np.subtract.at(inc, (self.jump_path[j] - lo, self.jump_cell[j]), self.jump_size[j])
        return inc

    def _jumps_in(self, rows: slice) -> slice:
        """The span of the flat jump arrays that belongs to the paths in ``rows``."""
        return slice(*np.searchsorted(self.jump_path, rows.indices(self.n_paths)[:2]))


# ---------------------------------------------------------------------------
# Quadratic variation
# ---------------------------------------------------------------------------

def qv_matrix(ensemble: Ensemble) -> np.ndarray:
    """Quadratic variation of every path, as a (n_paths, n_points) matrix.

    Per cell: the squared continuous increment, plus the squared size of
    a jump in that cell, so the jump term is exact whatever the mesh.
    Each row's sum is its own, so the rows are summed in row blocks.
    """
    out = np.zeros_like(ensemble.values)
    for blk in _row_blocks(ensemble.n_paths, ensemble.grid.n_steps):
        inc = ensemble.continuous_increments(blk)
        cell = np.multiply(inc, inc, out=inc)
        j = ensemble._jumps_in(blk)
        size = ensemble.jump_size[j]
        np.add.at(cell, (ensemble.jump_path[j] - blk.start, ensemble.jump_cell[j]), size * size)
        np.cumsum(cell, axis=1, out=out[blk, 1:])
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


def _fmt(x: float) -> str:
    return repr(float(x))


def save_ensemble(ensemble: Ensemble, out_dir: str | Path, fmt: str = "csv") -> None:
    """Write an ensemble to a directory with a replayable manifest.

    The text (``ensemble.json``, or one CSV file per path and one per
    path with jumps) is the stored ensemble, encoded and written one path
    at a time.  After it comes ``ensemble.npy``: the same arrays in
    binary, bound by its SHA-256 to the text as written, which
    ``load_ensemble`` reads instead of parsing the text.
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
    else:
        raise ConfigurationError(f"unknown format {fmt!r}")
    _write_cache(out / _CACHE, _digest(out, names), ensemble)


def _text_rows(ensemble: Ensemble):
    """Each path's values, jump times and jump sizes as float lists, one path at a time."""
    times = ensemble.grid.points[ensemble.jump_cell + 1].tolist()
    sizes = ensemble.jump_size.tolist()
    bounds = np.searchsorted(ensemble.jump_path, np.arange(ensemble.n_paths + 1)).tolist()
    for row, lo, hi in zip(ensemble.values, bounds, bounds[1:]):
        yield row.tolist(), times[lo:hi], sizes[lo:hi]


def _json_pieces(ensemble: Ensemble, manifest: dict):
    """The bytes of ``json.dumps({"manifest": ..., "points": ..., "paths":
    [...]}) + "\\n"``, one path at a time after the head."""
    head = json.dumps({"manifest": manifest, "points": ensemble.grid.points.tolist()})
    yield (head[:-1] + ', "paths": [').encode()
    sep = ""
    for row, times, sizes in _text_rows(ensemble):
        jumps = [[t, z] for t, z in zip(times, sizes)]
        yield (sep + json.dumps({"values": row, "jumps": jumps})).encode()
        sep = ", "
    yield b"]}\n"


def _csv_files(ensemble: Ensemble):
    """Name and bytes of each path's CSV file, each followed by its jumps file if it has jumps."""
    points = ensemble.grid.points.tolist()
    for i, (row, times, sizes) in enumerate(_text_rows(ensemble)):
        yield f"path_{i:05d}.csv", _csv("t,value", points, row)
        if times:
            yield f"path_{i:05d}.jumps.csv", _csv("t,jump_size", times, sizes)


def _csv(header: str, col0: list[float], col1: list[float]) -> bytes:
    """A two-column CSV, each float the shortest text that parses back to it."""
    return "".join([header + "\n", *(f"{a!r},{b!r}\n" for a, b in zip(col0, col1))]).encode()


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
    """Write the binary copy of ``ensemble``'s arrays, as the text reads them back."""
    try:
        rec = np.zeros((), _cache_dtype(ensemble.n_paths, ensemble.grid.n_steps,
                                        ensemble.jump_size.size))
    except ValueError:  # too large for one record (numpy 1.x caps it at 2 GiB): no copy
        target.unlink(missing_ok=True)
        return
    rec["digest"] = np.frombuffer(digest, np.uint8)
    rec["points"] = ensemble.grid.points
    rec["jump_path"] = ensemble.jump_path
    rec["jump_time"] = ensemble.grid.points[ensemble.jump_cell + 1]
    for name, a in (("values", ensemble.values), ("jump_size", ensemble.jump_size)):
        rec[name] = a
        rec[name][np.isnan(a)] = np.nan  # the text writes every NaN as "nan"
    _atomic_write(target, rec)


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


def _atomic_write(target: Path, data: str | bytes | Iterable[bytes] | np.ndarray) -> None:
    """Write text, bytes, byte pieces in turn or an array (as ``.npy``) to a
    temporary sibling, then rename it onto ``target``.  A write that fails
    removes the sibling and leaves ``target`` as it was."""
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    try:
        if isinstance(data, str):
            tmp.write_text(data)
        else:
            with open(tmp, "wb") as f:
                if isinstance(data, np.ndarray):
                    np.save(f, data, allow_pickle=False)
                else:
                    f.writelines([data] if isinstance(data, bytes) else data)
        tmp.replace(target)
    except BaseException:  # an interrupt too: no partial file is left behind
        tmp.unlink(missing_ok=True)
        raise
