"""Uniform grids, gridded functions, and axis-aligned regions.

The computational domain is the box [-L, L]^dim sampled at N nodes per
axis, x_i = -L + i*h with h = 2L/N.  All functions live on the flat node
array; 2d arrays are flattened in C order with the second coordinate
varying fastest.

Only this module turns regions into nodes.  A region is a set of flat
[start, stop) node runs: one in 1D, one per grid row in 2D.  Nodes are read
two ways: window_sums adds, or takes the minimum of, node arrays run by run
over a whole family, which is how the statistics made of window sums and a
window minimum (masses, L^p sums, level masses, the A_p characteristic) are
computed; and batch_table evaluates a nonlinear statistic (Luxemburg norm,
weak L^p, mean oscillation) on node values gathered once per batch of
node_batches, many regions at once, or on the regions of a mask alone.
band_masses adds node masses per band of a node labelling in one pass over
the batches.  A statistic on one region is a batch_table over a family of
one (region_statistic), and spread_max puts the largest value of the
regions holding a node on it.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, EmptyRegionWarning

__all__ = [
    "Grid",
    "DiscreteFunction",
    "Region",
    "RegionFamily",
    "region_family",
    "covering_region",
    "sample",
    "write_function_csv",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform node grid on [-L, L]^dim.

    points_per_axis must be a power of two so that refinement stays exact
    and dyadic radii land on node boundaries.
    """

    dim: int = 1
    half_width: float = 4.0
    points_per_axis: int = 4096

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        if not 0 < self.half_width < np.inf:
            raise ConfigurationError("half_width must be positive and finite")
        if not _is_power_of_two(self.points_per_axis) or self.points_per_axis < 8:
            raise ConfigurationError(
                "points_per_axis must be a power of two >= 8, "
                f"got {self.points_per_axis}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def n_nodes(self) -> int:
        return self.points_per_axis**self.dim

    @cached_property
    def axis(self) -> np.ndarray:
        # exact dyadic nodes when half_width is a power of two
        ax = -self.half_width + np.arange(self.points_per_axis) * self.spacing
        ax.flags.writeable = False
        return ax

    @cached_property
    def coords(self) -> np.ndarray:
        """Node coordinates, shape (n_nodes, dim)."""
        mesh = np.meshgrid(*[self.axis] * self.dim, indexing="ij")
        out = np.stack([m.ravel() for m in mesh], axis=-1)
        out.flags.writeable = False
        return out

    def node_index(self, point: Sequence[float]):
        """Flat index of the node nearest to a point, or of each point of an [m, dim] array."""
        ij = np.rint((np.asarray(point, dtype=np.float64) + self.half_width) / self.spacing)
        ij = np.clip(ij, 0, self.points_per_axis - 1).astype(np.intp)
        return np.ravel_multi_index(tuple(ij.T), (self.points_per_axis,) * self.dim)


@dataclass(frozen=True)
class DiscreteFunction:
    """A real-valued function sampled on the nodes of a grid.

    Values are stored as a read-only float64 array of length n_nodes and
    must be finite.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True).ravel()
        if vals.shape != (self.grid.n_nodes,):
            raise ConfigurationError(
                f"expected {self.grid.n_nodes} values, got {vals.shape[0]}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("function values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def _slide(j: np.ndarray, step: int, move) -> np.ndarray:
    """Step each entry of j while move(j) holds there."""
    while True:
        go = move(j)
        if not go.any():
            return j
        j = j + step * go


def _runs(shape: str, centers: np.ndarray, size: float, grid: Grid):
    """Flat node runs (owner, start, stop) of the regions of one size.

    centers is [center, dim]; owner is the center index of each run
    [start, stop), in center then row order.  Membership is strict: per axis
    by searchsorted for intervals and cubes, by dx**2 + dy**2 < size**2 for
    balls, a contiguous set of columns on each row since it is monotone in |dy|.
    """
    ax = grid.axis
    n = grid.points_per_axis
    if grid.dim == 1 or shape == "cube":
        lo = np.searchsorted(ax, centers - size, side="right")
        hi = np.maximum(np.searchsorted(ax, centers + size, side="left"), lo)
        if grid.dim == 1:
            owner = np.flatnonzero(hi[:, 0] > lo[:, 0])
            return owner, lo[owner, 0], hi[owner, 0]
        rows = np.arange(n)
        owner, row = np.nonzero((rows >= lo[:, :1]) & (rows < hi[:, :1]) & (hi[:, 1:] > lo[:, 1:]))
        return owner, row * n + lo[owner, 1], row * n + hi[owner, 1]
    dx2 = (ax - centers[:, :1]) ** 2
    dy2 = (ax - centers[:, 1:]) ** 2
    s2 = size**2
    # a row holds nodes iff its nearest column passes the test
    near = np.argmin(dy2, axis=1)
    owner, row = np.nonzero(dx2 + dy2[np.arange(len(centers)), near][:, None] < s2)
    near, row_dx2 = near[owner], dx2[owner, row]

    def inside(j):
        hit = row_dx2 + dy2[owner, np.clip(j, 0, n - 1)] < s2
        return hit & (j >= 0) & (j < n)

    # the ends estimated from sqrt(size**2 - dx**2) are off by rounding only;
    # slide them onto the exact test, never past the nearest column
    cy = centers[owner, 1]
    reach = np.sqrt(s2 - row_dx2)
    start = np.minimum(np.searchsorted(ax, cy - reach, side="right"), near)
    stop = np.maximum(np.searchsorted(ax, cy + reach, side="left"), near + 1)
    start = _slide(_slide(start, -1, lambda j: inside(j - 1)), 1, lambda j: ~inside(j))
    stop = _slide(_slide(stop, 1, inside), -1, lambda j: ~inside(j - 1))
    return owner, row * n + start, row * n + stop


def _run_nodes(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The node indices of the runs [start, stop), concatenated in order."""
    length = stop - start
    offsets = np.repeat(start - np.cumsum(length) + length, length)
    return np.arange(length.sum(), dtype=np.intp) + offsets


def _check_regions(shape: str, centers, sizes) -> None:
    """The region rules: a ball or a cube, sizes > 0, centers all of 1 or all of 2 coordinates."""
    if shape not in ("ball", "cube"):
        raise ConfigurationError(f"shape must be 'ball' or 'cube', got {shape!r}")
    if not sizes or not all(s > 0 for s in sizes):
        raise ConfigurationError("need a region size, and every region size positive")
    if {len(c) for c in centers} not in ({1}, {2}):
        raise ConfigurationError("need a center, and all centers of 1 or all of 2 coordinates")


@dataclass(frozen=True)
class Region:
    """A ball or cube, membership by strict inequality.

    size is the radius of a ball or the half side of a cube.  In one
    dimension the two shapes coincide.
    """

    shape: str
    center: tuple
    size: float

    def __post_init__(self):
        _check_regions(self.shape, (self.center,), (self.size,))
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def dilate(self, factor: float) -> "Region":
        return Region(self.shape, self.center, self.size * factor)

    def as_family(self) -> "RegionFamily":
        """The family of one that holds this region."""
        return RegionFamily(self.shape, (self.center,), (self.size,))

    def node_indices(self, grid: Grid) -> np.ndarray:
        if len(self.center) != grid.dim:
            raise ConfigurationError("region and grid dimensions do not match")
        _, start, stop = _runs(self.shape, np.array([self.center]), self.size, grid)
        return _run_nodes(start, stop)

    def fits_box(self, grid: Grid) -> bool:
        """True when the region does not spill past the box (touching is fine)."""
        return bool(_inside_box(max(abs(c) for c in self.center), self.size, grid))


def _inside_box(reach, size, grid: Grid):
    """reach + size <= L up to rounding, reach being the largest |center coordinate|."""
    return reach + size <= grid.half_width + 1e-12 * max(grid.half_width, 1.0)


@dataclass(frozen=True)
class RegionFamily:
    """A centers-by-sizes family of congruent regions."""

    shape: str
    centers: tuple
    sizes: tuple

    def __post_init__(self):
        _check_regions(self.shape, self.centers, self.sizes)
        object.__setattr__(
            self, "centers", tuple(tuple(float(x) for x in c) for c in self.centers)
        )
        object.__setattr__(self, "sizes", tuple(float(s) for s in self.sizes))

    def __len__(self) -> int:
        return len(self.centers) * len(self.sizes)

    def __iter__(self) -> Iterator[Region]:
        for s in self.sizes:
            for c in self.centers:
                yield Region(self.shape, c, s)

    def dilate(self, factor: float) -> "RegionFamily":
        return RegionFamily(self.shape, self.centers, tuple(s * factor for s in self.sizes))

    def fits_box(self, grid: Grid) -> np.ndarray:
        """Region.fits_box of every member, as a boolean array [size, center]."""
        reach = np.abs(np.array(self.centers)).max(axis=1)
        return _inside_box(reach[None, :], np.array(self.sizes)[:, None], grid)


def region_family(
    grid: Grid,
    sizes: Sequence[float],
    shape: str = "ball",
    center_stride: int = 1,
    centers: Optional[Sequence] = None,
) -> RegionFamily:
    """Family with centers on the node lattice and the given sizes.

    center_stride thins the centers to every stride-th node per axis.
    """
    if centers is None:
        if center_stride < 1:
            raise ConfigurationError("center_stride must be >= 1")
        centers = list(itertools.product(grid.axis[::center_stride].tolist(), repeat=grid.dim))
    else:
        centers = [tuple(float(x) for x in np.atleast_1d(c)) for c in centers]
    return RegionFamily(shape, tuple(centers), tuple(float(s) for s in sizes))


def covering_region(grid: Grid) -> Region:
    """A cube that strictly contains every node of the box."""
    return Region("cube", (0.0,) * grid.dim, grid.half_width + grid.spacing)


def sample(expression: str, grid: Grid) -> DiscreteFunction:
    """Evaluate an expression string on the grid nodes."""
    from .expressions import evaluate

    return DiscreteFunction(grid, evaluate(expression, grid))


def node_masses(grid: Grid, weight=None) -> np.ndarray:
    """The weight (a Weight or a node array), or one when there is none, times the cell volume."""
    if weight is None:
        return np.full(grid.n_nodes, grid.cell_volume)
    w = np.asarray(getattr(weight, "values", weight), dtype=np.float64)
    if w.shape != (grid.n_nodes,):
        raise ConfigurationError("weight does not match the grid")
    return w * grid.cell_volume


_CENTER_CHUNK = 128
# mean run below which B = 1: per window_sums call, 2D rows of 12-165 nodes take 1.2-1.7x as
# long at B = 8-64; the 4096-node endpoint family (rows of 251-1791) 1.47 ms at B = 1, 0.49 ms
_BLOCK_MIN_RUN = 256


def _in_start_order(lo, hi):
    """np.add.reduceat edges of the runs [lo, hi) in start order, and each run's place in them."""
    order = np.argsort(lo)
    edges = np.column_stack([lo[order], hi[order]]).ravel()
    return edges.astype(np.int32), np.argsort(order).astype(np.int32)


def _segments(start, stop, n, runs):
    """(B, cuts, edges, place): how window_sums adds the runs [start, stop) of one layout entry.

    B is a power of two near the square root of the mean run, 1 below a mean of
    _BLOCK_MIN_RUN.  The n nodes are cut at every multiple of B and every run end,
    and a run adds its segments: edges and place are the _in_start_order over cuts.
    With B = 1 there are no cuts, and edges and place are runs, the runs' own.
    """
    mean = (stop - start).mean() if start.size else 0.0
    b = 1 << int(np.round(np.log2(mean) / 2)) if mean >= _BLOCK_MIN_RUN else 1
    if b == 1:
        return 1, np.empty(0, np.int32), *runs
    # not np.union1d: np.unique imports numpy.ma on first use, 9 ms and 1.6 MB per process
    cuts = np.flatnonzero(np.bincount(np.concatenate([np.arange(0, n + 1, b), start, stop])))
    lo, hi = (np.searchsorted(cuts, e) for e in (start, stop))
    return b, cuts.astype(np.int32), *_in_start_order(lo, hi)


@lru_cache(maxsize=3)
def _family_runs(family: RegionFamily, grid: Grid):
    """(size index, first center, edges, place, node counts, bounds, segments) per size and chunk.

    Centers go in chunks so that the runs of a 2D size stay a few MB.  The
    runs are in center then row order, those of center k of the chunk at
    bounds[k]:bounds[k + 1], kept as their _in_start_order and _segments,
    read-only, for the last three (family, grid) pairs, in int32 arrays.
    """
    centers = np.array(family.centers)
    if centers.shape[1] != grid.dim:
        raise ConfigurationError("centers do not match the grid")
    layout = []
    for s, size in enumerate(family.sizes):
        for first in range(0, len(centers), _CENTER_CHUNK):
            chunk = centers[first:first + _CENTER_CHUNK]
            owner, start, stop = _runs(family.shape, chunk, size, grid)
            counts = np.bincount(owner, stop - start, minlength=len(chunk)).astype(np.intp)
            bounds = np.searchsorted(owner, np.arange(len(chunk) + 1))
            runs = _in_start_order(start, stop)
            segments = _segments(start, stop, grid.n_nodes, runs)
            for a in (counts, bounds, *runs, *segments[1:]):
                a.flags.writeable = False
            layout.append((s, first, *runs, counts, bounds, segments))
    return tuple(layout)


# node entries window_sums reads per chunk: cold endpoint_1d_dense runs (2-vCPU Xeon VM)
# peaked at 40.2 MB of RSS at 2^14 to 2^16, 41.9 at 2^17 and 46.5 at 2^21 (one chunk)
_SUM_NODES = 2**16


def window_sums(
    family: RegionFamily, grid: Grid, arrays, reduce=np.add, warn: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Sums, or minima, of node arrays over every region of the family, and node counts.

    arrays is any iterable of k node arrays, read _SUM_NODES node entries (one
    array at least) at a time; reduce is np.add (sums) or np.minimum (minima).
    Returns the reductions [k, size, center] and counts [size, center]; a
    region without nodes reads 0 in both, with an EmptyRegionWarning when warn
    is set.  Each window reduces its own entries, or their reductions over
    segments of at most B nodes (_segments), never a difference of prefix
    sums, so a positive array has a positive sum on every region that holds
    nodes however widely it ranges.
    """
    arrays, per = iter(arrays), max(1, _SUM_NODES // grid.n_nodes)
    sums = [np.zeros((0, len(family.sizes), len(family.centers)))]
    while chunk := list(itertools.islice(arrays, per)):
        sums.append(_chunk_sums(family, grid, chunk, reduce))
        del chunk  # freed, as its buffer was, before the next chunk is made
    # counted last, so a new layout is built once the first chunk is made: built
    # before it, endpoint_1d_dense peaked 0.3 MB higher in RSS (bench/run.py)
    counts = np.zeros((len(family.sizes), len(family.centers)), dtype=np.intp)
    for s, first, _, _, n, _, _ in _family_runs(family, grid):
        counts[s, first:first + n.size] = n
    sums = np.concatenate(sums)
    if warn:
        _warn_empty(counts)
    return sums, counts


def _chunk_sums(family: RegionFamily, grid: Grid, arrays: list, reduce) -> np.ndarray:
    """The window_sums of a list of node arrays, [k, size, center]."""
    # a trailing zero keeps a run that ends at the last node a valid reduceat
    # index; no run holds it, so the minimum never sees it
    padded = np.zeros((len(arrays), grid.n_nodes + 1))
    for row, a in zip(padded, arrays):
        if np.shape(a) != (grid.n_nodes,):
            raise ConfigurationError("arrays do not match the grid")
        row[:-1] = a
    sums = np.zeros((len(arrays), len(family.sizes), len(family.centers)))
    for s, first, _, _, n, bounds, (_, cuts, edges, place) in _family_runs(family, grid):
        segments = reduce.reduceat(padded, cuts, axis=1) if cuts.size else padded
        # reduceat reduces between consecutive edges and the even slots are the runs;
        # in start order an odd slot is short, in center order it spans most of a row
        runs = reduce.reduceat(segments, edges, axis=1)[:, ::2][:, place]
        # a region's runs are consecutive; a region without nodes is never written
        held = np.flatnonzero(n)
        sums[:, s, first + held] = reduce.reduceat(runs, bounds[held], axis=1)
    return sums


def _warn_empty(counts: np.ndarray) -> None:
    """The EmptyRegionWarning of a family statistic whose counts hold a zero."""
    if not counts.all():
        warnings.warn(f"skipping {np.count_nonzero(counts == 0)} empty regions",
                      EmptyRegionWarning, stacklevel=4)


# nodes per batch: a solver pass pays a fixed cost per numpy call, so larger
# batches take fewer passes.  On two_weight_2d (bench/run.py, 2-vCPU Xeon VM,
# four rounds, Luxemburg passes on the nodes above t = 1 alone) median cpu_s
# read 0.359 and 0.327 s at 2^15 and 2^16, peak RSS 53.38 and 53.77 MB;
# endpoint_1d_dense, whose 1D batches of whole-grid regions grow with the size,
# read 40.46 and 40.97 MB of peak RSS, and 0.078 and 0.079 s of cpu_s.
# band_masses over that gate's 256^2 family (3.6M node entries) took 21 ms at
# 2^15 and 28 ms at 2^14 and 2^16
_BATCH_NODES = 2**15


def node_batches(family: RegionFamily, grid: Grid, where=None):
    """(size index, first center, node indices, node counts) over a family, batch by batch.

    A batch is _BATCH_NODES // (nodes of the largest region) consecutive
    centers of one size, at least one; each region's nodes are contiguous,
    in center order.  Only the runs are kept, so memory stays bounded by a batch.
    Given where, a [size, center] mask, only its regions are handed out: a
    batch spans _BATCH_NODES // (nodes of its largest masked region) of them,
    and the centers between them read count 0 and add no node.
    """
    for s, first, edges, place, counts, bounds, _ in _family_runs(family, grid):
        start, stop = edges[2 * place], edges[2 * place + 1]
        if where is None:
            picked = np.arange(counts.size)
        else:
            counts = np.where(where[s, first:first + counts.size], counts, 0)
            picked = np.flatnonzero(counts)
        per = max(1, _BATCH_NODES // max(int(counts.max(initial=0)), 1))
        for lo in range(0, picked.size, per):
            batch = picked[lo:lo + per]
            runs = _run_nodes(bounds[batch], bounds[batch + 1])
            c0, c1 = int(batch[0]), int(batch[-1]) + 1
            yield s, first + c0, _run_nodes(start[runs], stop[runs]), counts[c0:c1]


def batch_table(
    family: RegionFamily, grid: Grid, arrays, value: Callable, warn: bool = False, where=None
) -> Tuple[np.ndarray, np.ndarray]:
    """A nonlinear statistic of node arrays on every region, and node counts, as [size, center].

    Each array is gathered once per node_batches batch.  value(*rows, counts,
    starts) gets the batch's regions that hold nodes, region k at
    row[starts[k]:starts[k] + counts[k]] of each row, and returns one value
    per region.  A region without nodes reads 0, with an EmptyRegionWarning
    when warn is set.  Given where, a [size, center] mask, the regions
    outside it are never gathered, and read 0 in the table and the counts.
    """
    table = np.zeros((len(family.sizes), len(family.centers)))
    counts = np.zeros(table.shape, dtype=np.intp)
    for s, first, idx, n in node_batches(family, grid, where):
        counts[s, first:first + n.size] = n
        held = np.flatnonzero(n)
        if held.size:
            n = n[held]
            # no name holds the gathered rows, so they are freed before the next batch
            table[s, first + held] = value(*[a[idx] for a in arrays], n, np.cumsum(n) - n)
    if warn:
        _warn_empty(counts if where is None else counts[where])
    return table, counts


def band_masses(family: RegionFamily, grid: Grid, bands, k: int, masses=None) -> np.ndarray:
    """The mass of each of k node bands in every region of a family, as [size, center, k].

    bands holds each node's band, an integer in [0, k); masses None counts
    the nodes.  One node_batches pass makes one np.bincount per batch, so
    each region adds its own nodes, never a difference of prefix sums.
    """
    out = np.zeros((len(family.sizes), len(family.centers), k))
    for s, first, idx, n in node_batches(family, grid):
        key = np.repeat(np.arange(0, n.size * k, k), n)
        key += bands[idx]
        out[s, first:first + n.size] = np.bincount(
            key, None if masses is None else masses[idx], n.size * k).reshape(n.size, k)
    return out


def spread_max(family: RegionFamily, grid: Grid, table: np.ndarray, out: np.ndarray) -> None:
    """Raise out at every node to the largest table entry [size, center] of a region holding it."""
    for s, first, idx, counts in node_batches(family, grid):
        np.maximum.at(out, idx, np.repeat(table[s, first:first + counts.size], counts))


def region_statistic(
    f: DiscreteFunction, region: Optional[Region], weight, value: Callable
) -> float:
    """A statistic of f on one region, as a batch_table over a family of one.

    value(values, masses, counts, starts) is batch_table's value on the f
    values and node_masses.  With no region the family is covering_region,
    every node in flat order.  A region without nodes reads 0, with an
    EmptyRegionWarning.
    """
    grid = f.grid
    family = (covering_region(grid) if region is None else region).as_family()
    arrays = [f.values, node_masses(grid, weight)]
    return float(batch_table(family, grid, arrays, value, warn=True)[0][0, 0])


def write_function_csv(f: DiscreteFunction, path: str) -> None:
    """Write nodes and values with a header that pins the grid parameters."""
    g = f.grid
    with open(path, "w", newline="") as fh:
        fh.write(f"# dim={g.dim} half_width={g.half_width!r} points_per_axis={g.points_per_axis}\n")
        fh.write(",".join([*"xy"[:g.dim], "value"]) + "\n")
        for row, v in zip(g.coords.tolist(), f.values.tolist()):
            fh.write(",".join(map(repr, [*row, v])) + "\n")
