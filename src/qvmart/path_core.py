"""Time grids, cadlag sample paths, pathwise quadratic variation, and
level/variation truncation times.

Paths live on the unit horizon [0, 1].  A path is a piecewise-linear
continuous interpolant through per-grid-point samples plus an explicit,
separately stored jump list; storing jumps apart from the continuous
samples keeps their squared contribution to the quadratic variation
exact rather than mesh-dependent.

Conventions used throughout the package:

* ``values[k]`` is the path level immediately AFTER any jump at
  ``points[k]``.
* a jump at grid point ``points[k]`` (k >= 1) belongs to the grid cell
  ``(points[k-1], points[k]]`` and is indexed by cell ``k - 1``.
* a step function on the grid (a strategy, an integrand) is an array of
  length ``n_steps`` whose entry ``k`` applies on ``(points[k], points[k+1]]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation

__all__ = [
    "TimeGrid",
    "SamplePath",
    "QVPath",
    "Ensemble",
    "quadratic_variation",
    "qv_matrix",
    "refine_and_compare_qv",
    "truncation_index",
    "path_to_csv",
    "path_from_csv",
    "save_ensemble",
    "load_ensemble",
]


# Cells a row-blocked matrix pass holds at once (2 MiB of float64): path
# generation and the log-wealth kernel work in row blocks of this many cells.
_CHUNK_CELLS = 1 << 18


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


@dataclass(frozen=True)
class SamplePath:
    """Grid-aligned cadlag path: continuous samples plus an explicit jump list.

    ``jumps`` is a sequence of ``(time, size)`` with strictly increasing
    times, each time a member of ``grid.points`` and strictly positive.
    """

    grid: TimeGrid
    values: np.ndarray
    jumps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        vals = _readonly(self.values)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "jumps", tuple((float(t), float(s)) for t, s in self.jumps))
        if vals.shape != self.grid.points.shape:
            raise ContractViolation("values must align with grid points")
        times = [t for t, _ in self.jumps]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ContractViolation("jump times must be strictly increasing")
        for t in times:
            if t <= 0.0:
                raise ContractViolation("jumps must occur in (0, 1]")
            self.grid.index_of(t)  # raises if not on the grid

    @property
    def jump_indices(self) -> np.ndarray:
        """Grid-point index of each jump."""
        return np.array([self.grid.index_of(t) for t, _ in self.jumps], dtype=int)

    @property
    def jump_sizes(self) -> np.ndarray:
        return np.array([s for _, s in self.jumps], dtype=float)

    def continuous_part(self) -> "SamplePath":
        """The path with all jumps removed (cumulative jump sizes subtracted)."""
        steps = np.zeros_like(self.values)
        steps[self.jump_indices] = self.jump_sizes
        return SamplePath(self.grid, self.values - np.cumsum(steps))

    def increments(self) -> np.ndarray:
        """Total increment per grid cell, jumps included."""
        return np.diff(self.values)

    def continuous_increments(self) -> np.ndarray:
        """Per-cell increment of the continuous part."""
        inc = np.diff(self.values)
        inc[self.jump_indices - 1] -= self.jump_sizes
        return inc


@dataclass(frozen=True)
class QVPath:
    """Running quadratic variation along a grid: non-decreasing, starts at 0."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _readonly(self.values)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.points.shape:
            raise ContractViolation("values must align with grid points")
        if vals[0] != 0.0:
            raise ContractViolation("quadratic variation starts at 0")
        if np.any(np.diff(vals) < 0):
            raise ContractViolation("quadratic variation must be non-decreasing")

    @property
    def total(self) -> float:
        return float(self.values[-1])


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

    def path(self, i: int) -> SamplePath:
        lo, hi = np.searchsorted(self.jump_path, (i, i + 1))
        pts = self.grid.points
        jumps = [(pts[c + 1], z) for c, z in zip(self.jump_cell[lo:hi], self.jump_size[lo:hi])]
        return SamplePath(self.grid, self.values[i], jumps)

    def paths(self) -> Iterable[SamplePath]:
        return (self.path(i) for i in range(self.n_paths))

    def head(self, n: int) -> "Ensemble":
        """The first ``n`` paths with their jumps, as a plain ``Ensemble``."""
        k = int(np.searchsorted(self.jump_path, n))
        return Ensemble(self.grid, self.values[:n], self.master_seed, self.model_tag,
                        self.jump_path[:k], self.jump_cell[:k], self.jump_size[:k])

    def continuous_part(self) -> "Ensemble":
        """The paths with all jumps removed, as ``SamplePath.continuous_part`` removes them."""
        steps = np.zeros_like(self.values)
        steps[self.jump_path, self.jump_cell + 1] = self.jump_size
        return Ensemble(self.grid, self.values - np.cumsum(steps, axis=1), self.master_seed,
                        self.model_tag)

    def continuous_increments(self) -> np.ndarray:
        """Per-cell increments of every path, jump sizes taken out."""
        inc = np.diff(self.values, axis=1)
        np.subtract.at(inc, (self.jump_path, self.jump_cell), self.jump_size)
        return inc


def _flat_jumps(grid: TimeGrid, jump_lists: Iterable[Iterable[tuple[float, float]]]) -> dict:
    """``Ensemble`` jump arrays of per-path ``(time, size)`` lists, times on ``grid``."""
    rows = [(i, grid.index_of(float(t)) - 1, float(z))
            for i, jumps in enumerate(jump_lists) for t, z in jumps]
    path, cell, size = zip(*rows) if rows else ((), (), ())
    return {"jump_path": path, "jump_cell": cell, "jump_size": size}


# ---------------------------------------------------------------------------
# Quadratic variation
# ---------------------------------------------------------------------------

def quadratic_variation(path: SamplePath) -> QVPath:
    """Running sum of squared continuous increments plus squared jump sizes.

    The continuous contribution per cell is the squared increment of the
    continuous interpolant; each jump adds its squared size exactly at
    the jump time, independent of the mesh.
    """
    inc = path.continuous_increments()
    cell = inc * inc
    cell[path.jump_indices - 1] += path.jump_sizes * path.jump_sizes
    out = np.empty_like(path.values)
    out[0] = 0.0
    np.cumsum(cell, out=out[1:])
    return QVPath(path.grid, out)


def qv_matrix(ensemble: Ensemble) -> np.ndarray:
    """Quadratic variation of every path, as a (n_paths, n_points) matrix.

    Per cell: the squared continuous increment, plus the squared size of
    a jump in that cell, exactly as ``quadratic_variation`` sums one path.
    """
    inc = ensemble.continuous_increments()
    cell = inc * inc
    np.add.at(cell, (ensemble.jump_path, ensemble.jump_cell), ensemble.jump_size * ensemble.jump_size)
    out = np.zeros_like(ensemble.values)
    np.cumsum(cell, axis=1, out=out[:, 1:])
    return out


def refine_and_compare_qv(
    model,
    stream,
    index: int,
    levels: Sequence[int],
) -> list[tuple[int, float]]:
    """Terminal quadratic variation of ONE realization on nested dyadic grids.

    ``model`` must expose ``refinable`` and ``path_at_level(stream, index,
    level)`` evaluating the same realization on finer grids; the returned
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
        rows.append((path.grid.n_steps, quadratic_variation(path).total))
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

def _fmt(x: float) -> str:
    return repr(float(x))


def path_to_csv(path: SamplePath) -> tuple[str, str | None]:
    """Render a path as a ``t,value`` CSV plus a ``t,jump_size`` sidecar.

    The sidecar is None when the path has no jumps.  Floats are written
    with the shortest representation that parses back to the same value.
    """
    lines = ["t,value"]
    lines += [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(path.grid.points, path.values)]
    body = "\n".join(lines) + "\n"
    if not path.jumps:
        return body, None
    jlines = ["t,jump_size"]
    jlines += [f"{_fmt(t)},{_fmt(s)}" for t, s in path.jumps]
    return body, "\n".join(jlines) + "\n"


def path_from_csv(body: str, jumps_body: str | None = None) -> SamplePath:
    rows = [ln for ln in body.strip().splitlines()[1:] if ln]
    pts = np.array([float(r.split(",")[0]) for r in rows])
    vals = np.array([float(r.split(",")[1]) for r in rows])
    jumps: tuple[tuple[float, float], ...] = ()
    if jumps_body:
        jrows = [ln for ln in jumps_body.strip().splitlines()[1:] if ln]
        jumps = tuple((float(r.split(",")[0]), float(r.split(",")[1])) for r in jrows)
    return SamplePath(TimeGrid(pts), vals, jumps)


def save_ensemble(ensemble: Ensemble, out_dir: str | Path, fmt: str = "csv") -> None:
    """Write an ensemble to a directory with a replayable manifest."""
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
        jumps: list[list[list[float]]] = [[] for _ in range(ensemble.n_paths)]
        times = ensemble.grid.points[ensemble.jump_cell + 1]
        for i, t, z in zip(ensemble.jump_path.tolist(), times.tolist(), ensemble.jump_size.tolist()):
            jumps[i].append([t, z])
        payload = {
            "manifest": manifest,
            "points": ensemble.grid.points.tolist(),
            "paths": [
                {"values": ensemble.values[i].tolist(), "jumps": jumps[i]}
                for i in range(ensemble.n_paths)
            ],
        }
        _atomic_write(out / "ensemble.json", json.dumps(payload) + "\n")
        return
    if fmt != "csv":
        raise ConfigurationError(f"unknown format {fmt!r}")
    for i in range(ensemble.n_paths):
        body, jumps_body = path_to_csv(ensemble.path(i))
        _atomic_write(out / f"path_{i:05d}.csv", body)
        if jumps_body is not None:
            _atomic_write(out / f"path_{i:05d}.jumps.csv", jumps_body)


def load_ensemble(in_dir: str | Path) -> Ensemble:
    """Read an ensemble that ``save_ensemble`` wrote.

    Malformed stored data raises ValueError naming the directory: a
    manifest listing no paths, paths off one grid, a grid not spanning
    [0, 1], or a jump off the grid.
    """
    src = Path(in_dir)
    manifest = json.loads((src / "ensemble_manifest.json").read_text())
    try:
        if manifest.get("format") == "json":
            payload = json.loads((src / "ensemble.json").read_text())
            grid = TimeGrid(np.array(payload["points"], dtype=float))
            values = np.array([p["values"] for p in payload["paths"]], dtype=float)
            jump_lists = [p["jumps"] for p in payload["paths"]]
        else:
            if manifest["n_paths"] < 1:
                raise ValueError(f"{src} lists no paths")
            paths = []
            for i in range(manifest["n_paths"]):
                body = (src / f"path_{i:05d}.csv").read_text()
                jfile = src / f"path_{i:05d}.jumps.csv"
                jbody = jfile.read_text() if jfile.exists() else None
                paths.append(path_from_csv(body, jbody))
                if not np.array_equal(paths[i].grid.points, paths[0].grid.points):
                    raise ValueError(f"path_{i:05d}.csv is not on the grid of path_00000.csv")
            grid = paths[0].grid
            values = np.stack([p.values for p in paths])
            jump_lists = [p.jumps for p in paths]
        return Ensemble(grid, values, manifest["master_seed"], manifest["model_tag"],
                        **_flat_jumps(grid, jump_lists))
    except ContractViolation as exc:
        raise ValueError(f"{src} holds a malformed ensemble: {exc}") from exc


def _atomic_write(target: Path, text: str) -> None:
    """Write ``text`` to a temporary sibling, then rename it onto ``target``."""
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(target)
