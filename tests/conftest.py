import numpy as np
import pytest

from amalgam import Corpus, Grid, region_family


@pytest.fixture(scope="session")
def desk_grid():
    """The standard working grid: dimension one, box half width 4, 2^12 nodes."""
    return Grid(dim=1, half_width=4.0, points_per_axis=4096)


@pytest.fixture(scope="session")
def small_grid():
    return Grid(dim=1, half_width=4.0, points_per_axis=256)


@pytest.fixture(scope="session")
def tiny_grid_2d():
    return Grid(dim=2, half_width=2.0, points_per_axis=16)


@pytest.fixture(scope="session")
def spill_families_2d():
    """A 2D grid with a ball and a cube family that reach past the box.

    Centers are every seventh node per axis plus one point midway between
    nodes; at the size h/4 that point's region holds no node, and every
    other region holds at least one.
    """
    grid = Grid(dim=2, half_width=2.0, points_per_axis=32)
    h = grid.spacing
    ax = grid.axis[::7]
    centers = [(x, y) for x in ax for y in ax] + [(grid.axis[10] + h / 2, grid.axis[20] + h / 2)]
    sizes = (h / 4, 0.5, 1.0, 3.0)
    return grid, [region_family(grid, sizes, shape, centers=centers) for shape in ("ball", "cube")]


@pytest.fixture(scope="session")
def corpus20(desk_grid):
    """Twenty corpus members realized on the desk grid."""
    return Corpus.generate(20, seed=0).realize(desk_grid)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
