import importlib
import weakref

import numpy as np
import pytest

from tfdw import cauchy_born as cb
from tfdw import twoscale as ts
from tfdw.cells import SolveOptions, solve_cell
from tfdw.grids import Grid, GridSpec, LatticeSpec


# Workhorse configuration: unit cube, three electrons per cell, a smooth
# background modulated along the first axis.  Stable with a wide margin.
MOD_AMP = 0.15
Z = 3.0


@pytest.fixture(scope="session")
def lattice_mod():
    return LatticeSpec.cubic(1.0, Z, [((1, 0, 0), MOD_AMP)])


@pytest.fixture(scope="session")
def cell_grid(lattice_mod):
    return Grid(lattice_mod, GridSpec((8, 4, 4)))


@pytest.fixture(scope="session")
def cell_solution(lattice_mod, cell_grid):
    return solve_cell(lattice_mod, cell_grid, 0.0, "uniform", SolveOptions())


@pytest.fixture(scope="session")
def cb_table(lattice_mod):
    return cb.build_cb_table(
        lattice_mod,
        GridSpec((8, 4, 4)),
        h_range=0.1,
        step=0.0125,
        opts=SolveOptions(),
        verify_samples=True,
    )


@pytest.fixture
def factorizations(monkeypatch):
    """Field values of the two-scale cell factorizations made during the
    test, and the largest number of them alive at once."""
    built, peak = [], [0]
    live = weakref.WeakSet()

    class Tracked(ts._CellContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.h)
            live.add(self)
            peak[0] = max(peak[0], len(live))

    monkeypatch.setattr(ts, "_CellContext", Tracked)
    return built, peak


@pytest.fixture
def residual_calls(monkeypatch):
    """Calls of ``residual`` and ``residual_system`` made during the test,
    through every module of the solvers that could reach either."""
    from tfdw import cauchy_born, cells, newton

    residual = importlib.import_module("tfdw.residual")  # tfdw.residual is the function
    calls = {"residual": 0, "residual_system": 0}
    for name in calls:
        original = getattr(residual, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (residual, cells, cauchy_born, newton):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
