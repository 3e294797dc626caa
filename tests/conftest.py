"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import gft.bounds
from gft.bounds import polar_grid


class GridCall:
    """One ``grid_argmax`` call: its arguments, the slabs it evaluated (in
    order) and its result."""

    def __init__(self, on_grid, top, density, row_data):
        self.on_grid, self.row_data = on_grid, row_data
        self.top, self.density = top, density
        self.slabs = []
        self.result = None

    def assembled(self) -> np.ndarray:
        return np.concatenate(self.slabs)

    def full(self) -> np.ndarray:
        """The function on the whole grid, as one full-tensor evaluation."""
        t, _, _, x = polar_grid(self.top, self.density)
        return self.on_grid(t, x, *self.row_data)

    def unslabbed(self, vals):
        """(value, point) of the first argmax of grid values ``vals``, as a
        single full-tensor evaluation gives them."""
        t, rho, phi, _ = polar_grid(self.top, self.density)
        i, j, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        return float(vals[i, j, k]), (float(t[i, 0, 0]), float(rho[0, j, 0]), float(phi[0, 0, k]))


def _recording(call, on_grid):
    def recording(*args):
        out = on_grid(*args)
        call.slabs.append(out)
        return out

    return recording


@pytest.fixture
def argmax_calls(monkeypatch):
    """The list of every ``grid_argmax`` call that the cubic oracles make."""
    calls = []
    real = gft.bounds.grid_argmax

    def spy(on_grid, top, density, *row_data):
        call = GridCall(on_grid, top, density, row_data)
        call.result = real(_recording(call, on_grid), top, density, *row_data)
        calls.append(call)
        return call.result

    monkeypatch.setattr(gft.bounds, "grid_argmax", spy)
    return calls
