"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import gft.bounds
import gft.verify
from gft.bounds import minimize, polar_grid


class GridCall:
    """One ``grid_then_polish`` or ``grid_argmax`` call: its arguments, the
    slabs it evaluated (in order) and its result."""

    def __init__(self, on_grid, neg, top, density, xatol=None, fatol=None, row_data=()):
        self.on_grid, self.neg, self.row_data = on_grid, neg, row_data
        self.top, self.density, self.xatol, self.fatol = top, density, xatol, fatol
        self.slabs = []
        self.result = None

    def assembled(self) -> np.ndarray:
        return np.concatenate(self.slabs)

    def full(self) -> np.ndarray:
        """The function on the whole grid, as one full-tensor evaluation."""
        t, _, _, x = polar_grid(self.top, self.density)
        return self.on_grid(t, x, *self.row_data)

    def unslabbed(self, vals):
        """(value, point) from grid values ``vals`` as a single full-tensor
        evaluation gives them: the first argmax, then the polish from it if
        the call polishes."""
        t, rho, phi, _ = polar_grid(self.top, self.density)
        i, j, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        start = (float(t[i, 0, 0]), float(rho[0, j, 0]), float(phi[0, 0, k]))
        best = float(vals[i, j, k])
        if self.neg is None:
            return best, start
        res = minimize(self.neg, np.array(start), xatol=self.xatol, fatol=self.fatol)
        return (-res.fun, res.x) if -res.fun > best else (best, start)


def _recording(call, on_grid):
    def recording(*args):
        out = on_grid(*args)
        call.slabs.append(out)
        return out

    return recording


@pytest.fixture
def grid_calls(monkeypatch):
    """The list of every ``grid_then_polish`` call made by gft.bounds and gft.verify."""
    calls = []
    real = gft.bounds.grid_then_polish

    def spy(on_grid, neg, top, density, xatol, fatol):
        call = GridCall(on_grid, neg, top, density, xatol, fatol)
        call.result = real(_recording(call, on_grid), neg, top, density, xatol, fatol)
        calls.append(call)
        return call.result

    monkeypatch.setattr(gft.bounds, "grid_then_polish", spy)
    monkeypatch.setattr(gft.verify, "grid_then_polish", spy)
    return calls


@pytest.fixture
def argmax_calls(monkeypatch):
    """The list of every ``grid_argmax`` call that the cubic oracles make."""
    calls = []
    real = gft.bounds.grid_argmax

    def spy(on_grid, top, density, *row_data):
        call = GridCall(on_grid, None, top, density, row_data=row_data)
        call.result = real(_recording(call, on_grid), top, density, *row_data)
        calls.append(call)
        return call.result

    monkeypatch.setattr(gft.bounds, "grid_argmax", spy)
    return calls
