"""Uniform grids, gridded functions, and axis-aligned regions.

The computational domain is the box [-L, L]^dim sampled at N nodes per
axis, x_i = -L + i*h with h = 2L/N.  All functions live on the flat node
array; 2d arrays are flattened in C order with the second coordinate
varying fastest.

Only this module turns regions into nodes.  A region is a set of flat
[start, stop) node runs: one in 1D, one per grid row in 2D.  Nodes are read
three ways: gather reads one region's nodes, the concatenation of its runs;
window_sums adds node arrays run by run over a whole family, which is how
the linear family statistics (masses, L^p sums, level masses) are computed;
and batch_table evaluates a nonlinear statistic (Luxemburg norm, weak L^p,
mean oscillation, A_p characteristic) on the node batches of a family that
node_batches hands out, many regions at once in bounded batches.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, EmptyRegionWarning

__all__ = [
    "Grid",
    "make_grid",
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
        if not (self.half_width > 0):
            raise ConfigurationError("half_width must be positive")
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
        if self.dim == 1:
            out = self.axis[:, None].copy()
        else:
            X, Y = np.meshgrid(self.axis, self.axis, indexing="ij")
            out = np.column_stack([X.ravel(), Y.ravel()])
        out.flags.writeable = False
        return out

    def refined(self) -> "Grid":
        return Grid(self.dim, self.half_width, 2 * self.points_per_axis)

    def node_index(self, point: Sequence[float]) -> int:
        """Flat index of the node nearest to a point."""
        h = self.spacing
        idx = 0
        for k in range(self.dim):
            i = int(round((point[k] + self.half_width) / h))
            i = min(max(i, 0), self.points_per_axis - 1)
            idx = idx * self.points_per_axis + i
        return idx


make_grid = Grid


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

    def abs(self) -> "DiscreteFunction":
        return DiscreteFunction(self.grid, np.abs(self.values))

    __abs__ = abs

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, DiscreteFunction):
            if other.grid != self.grid:
                raise ConfigurationError("grids do not match")
            return other.values
        return np.asarray(other, dtype=np.float64)

    def __add__(self, other) -> "DiscreteFunction":
        return DiscreteFunction(self.grid, self.values + self._coerce(other))

    def __sub__(self, other) -> "DiscreteFunction":
        return DiscreteFunction(self.grid, self.values - self._coerce(other))

    def __mul__(self, other) -> "DiscreteFunction":
        return DiscreteFunction(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __neg__(self) -> "DiscreteFunction":
        return DiscreteFunction(self.grid, -self.values)


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
        if self.shape not in ("ball", "cube"):
            raise ConfigurationError(f"shape must be 'ball' or 'cube', got {self.shape!r}")
        if not (self.size > 0):
            raise ConfigurationError("region size must be positive")
        if len(self.center) not in (1, 2):
            raise ConfigurationError("center must have 1 or 2 coordinates")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def dilate(self, factor: float) -> "Region":
        return Region(self.shape, self.center, self.size * factor)

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
        if not self.centers or not self.sizes:
            raise ConfigurationError("family needs at least one center and one size")
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

    def at_size(self, size: float) -> Iterator[Region]:
        for c in self.centers:
            yield Region(self.shape, c, size)

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
        ax = grid.axis[::center_stride]
        if grid.dim == 1:
            centers = [(float(c),) for c in ax]
        else:
            centers = [(float(cx), float(cy)) for cx in ax for cy in ax]
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


def _weight_values(weight, grid: Grid) -> Optional[np.ndarray]:
    if weight is None:
        return None
    vals = getattr(weight, "values", weight)
    arr = np.asarray(vals, dtype=np.float64)
    if arr.shape != (grid.n_nodes,):
        raise ConfigurationError("weight does not match the grid")
    return arr


def gather(f: DiscreteFunction, region: Optional[Region], weight=None):
    """Values of f and node masses (weight times cell volume) on a region.

    With no region the whole box is gathered.  A region without nodes warns
    and gives empty arrays, on which every local statistic reads its
    neutral value.
    """
    grid = f.grid
    w = _weight_values(weight, grid)
    if region is None:
        vals = f.values
        wts = np.ones_like(vals) if w is None else w
    else:
        idx = region.node_indices(grid)
        if idx.size == 0:
            warnings.warn("region contains no grid nodes", EmptyRegionWarning, stacklevel=3)
        vals = f.values[idx]
        wts = np.ones(idx.size) if w is None else w[idx]
    return vals, wts * grid.cell_volume


_CENTER_CHUNK = 128


def _family_runs(family: RegionFamily, grid: Grid):
    """(size index, first center, owner, start, stop, node counts) per size and chunk of centers.

    Centers go in chunks so that the runs of a 2D size stay a few MB; owner
    and the counts index the centers of the chunk.
    """
    centers = np.array(family.centers)
    if centers.shape[1] != grid.dim:
        raise ConfigurationError("centers do not match the grid")
    for s, size in enumerate(family.sizes):
        for first in range(0, len(centers), _CENTER_CHUNK):
            chunk = centers[first:first + _CENTER_CHUNK]
            owner, start, stop = _runs(family.shape, chunk, size, grid)
            counts = np.bincount(owner, stop - start, minlength=len(chunk)).astype(np.intp)
            yield s, first, owner, start, stop, counts


def window_sums(family: RegionFamily, grid: Grid, arrays) -> Tuple[np.ndarray, np.ndarray]:
    """Sums of node arrays over every region of the family, and node counts.

    arrays is [k, n_nodes].  Returns sums [k, size, center] and counts
    [size, center]; a region without nodes reads 0 in both.  Each window is
    summed from its own entries, one np.add.reduceat over the runs of each
    size, never as a difference of prefix sums, so a positive array has a
    positive sum on every region that holds nodes however widely it ranges.
    """
    arrays = np.atleast_2d(np.asarray(arrays, dtype=np.float64))
    if arrays.shape[1] != grid.n_nodes:
        raise ConfigurationError("arrays do not match the grid")
    # a trailing zero keeps a run that ends at the last node a valid reduceat index
    padded = np.concatenate([arrays, np.zeros((len(arrays), 1))], axis=1)
    sums = np.zeros((len(arrays), len(family.sizes), len(family.centers)))
    counts = np.zeros((len(family.sizes), len(family.centers)), dtype=np.intp)
    for s, first, owner, start, stop, n in _family_runs(family, grid):
        # reduceat sums between consecutive indices; the even slots are the runs
        runs = np.add.reduceat(padded, np.column_stack([start, stop]).ravel(), axis=1)[:, ::2]
        for k, run_sums in enumerate(runs):
            sums[k, s, first:first + n.size] = np.bincount(owner, run_sums, minlength=n.size)
        counts[s, first:first + n.size] = n
    return sums, counts


# nodes per batch: a solver pass over 2^14 entries keeps its temporaries in
# cache, and runs about twice as fast per entry as one over 2^17
_BATCH_NODES = 2**14


def node_batches(family: RegionFamily, grid: Grid):
    """(size index, first center, node indices, node counts) over a family, batch by batch.

    A batch is _BATCH_NODES // (nodes of the largest region) consecutive
    centers of one size, at least one; each region's nodes are contiguous,
    in center order.  Nothing is cached, so memory stays bounded by a batch.
    """
    for s, first, owner, start, stop, counts in _family_runs(family, grid):
        per = max(1, _BATCH_NODES // max(int(counts.max()), 1))
        for lo in range(0, counts.size, per):
            r0, r1 = np.searchsorted(owner, [lo, lo + per])  # runs are in owner order
            yield s, first + lo, _run_nodes(start[r0:r1], stop[r0:r1]), counts[lo:lo + per]


def batch_table(
    family: RegionFamily, grid: Grid, value: Callable, warn: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """A nonlinear statistic on every region of a family, and node counts, as [size, center].

    value(node indices, counts, starts) gets the regions of one node_batches
    batch that hold nodes, region k at idx[starts[k]:starts[k] + counts[k]],
    and returns one value per region.  A region without nodes reads 0, with
    an EmptyRegionWarning when warn is set.
    """
    table = np.zeros((len(family.sizes), len(family.centers)))
    counts = np.zeros(table.shape, dtype=np.intp)
    for s, first, idx, n in node_batches(family, grid):
        counts[s, first:first + n.size] = n
        held = np.flatnonzero(n)
        if held.size:
            table[s, first + held] = value(idx, n[held], np.cumsum(n[held]) - n[held])
    if warn and not counts.all():
        warnings.warn(f"skipping {np.count_nonzero(counts == 0)} empty regions",
                      EmptyRegionWarning, stacklevel=3)
    return table, counts


def write_function_csv(f: DiscreteFunction, path: str) -> None:
    """Write nodes and values with a header that pins the grid parameters."""
    g = f.grid
    with open(path, "w", newline="") as fh:
        fh.write(f"# dim={g.dim} half_width={g.half_width!r} points_per_axis={g.points_per_axis}\n")
        if g.dim == 1:
            fh.write("x,value\n")
            for x, v in zip(g.axis, f.values):
                fh.write(f"{float(x)!r},{float(v)!r}\n")
        else:
            fh.write("x,y,value\n")
            for (x, y), v in zip(g.coords, f.values):
                fh.write(f"{float(x)!r},{float(y)!r},{float(v)!r}\n")
