"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import gft.bounds
import gft.verify
from gft.bounds import minimize, polar_grid


class GridCall:
    """One ``grid_then_polish`` call: its arguments, the slabs it evaluated
    (in order) and its result."""

    def __init__(self, on_grid, neg, top, density, xatol, fatol):
        self.on_grid, self.neg = on_grid, neg
        self.top, self.density, self.xatol, self.fatol = top, density, xatol, fatol
        self.slabs = []
        self.result = None

    def assembled(self) -> np.ndarray:
        return np.concatenate(self.slabs)

    def unslabbed(self, vals):
        """(value, point) from grid values ``vals`` as a single full-tensor
        evaluation gives them: the first argmax, then the polish from it."""
        t, rho, phi, _ = polar_grid(self.top, self.density)
        i, j, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        start = (float(t[i, 0, 0]), float(rho[0, j, 0]), float(phi[0, 0, k]))
        best = float(vals[i, j, k])
        res = minimize(self.neg, np.array(start), xatol=self.xatol, fatol=self.fatol)
        return (-res.fun, res.x) if -res.fun > best else (best, start)


@pytest.fixture
def grid_calls(monkeypatch):
    """The list of every ``grid_then_polish`` call made by gft.bounds and gft.verify."""
    calls = []
    real = gft.bounds.grid_then_polish

    def spy(on_grid, neg, top, density, xatol, fatol):
        call = GridCall(on_grid, neg, top, density, xatol, fatol)

        def recording(t, x):
            out = on_grid(t, x)
            call.slabs.append(out)
            return out

        call.result = real(recording, neg, top, density, xatol, fatol)
        calls.append(call)
        return call.result

    monkeypatch.setattr(gft.bounds, "grid_then_polish", spy)
    monkeypatch.setattr(gft.verify, "grid_then_polish", spy)
    return calls
