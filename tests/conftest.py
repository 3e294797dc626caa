"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import gft.bounds
from gft.bounds import polar_grid


class QuadraticCall:
    """One ``disk_quadratic`` call: its row coefficients, the slabs it swept
    (in order) and the grid values it returned."""

    def __init__(self, a0, a1, a2, k, density):
        self.rows = a0, a1, a2, k
        self.density = density
        self.slabs = []
        self.result = None

    def full(self) -> np.ndarray:
        """The disk quadratic on the whole grid, as one full-tensor evaluation."""
        a0, a1, a2, k = self.rows
        x = polar_grid(1.0, self.density)[3]
        return np.abs(a0 + a1 * x + a2 * x**2) + k * (1 - np.abs(x) ** 2)

    def first_argmax(self, vals, top):
        """(value, (t, rho, phi)) of the first maximum of grid values ``vals``
        on the :func:`polar_grid` with t in [0, ``top``]."""
        t, rho, phi, _ = polar_grid(top, self.density)
        i, j, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        return float(vals[i, j, k]), (float(t[i, 0, 0]), float(rho[0, j, 0]), float(phi[0, 0, k]))


@pytest.fixture
def quadratic_calls(monkeypatch):
    """The list of every ``disk_quadratic`` call that the cubic oracles make;
    each records the slabs of ``polar_slabs`` that its sweep took."""
    calls = []
    real, real_slabs = gft.bounds.disk_quadratic, gft.bounds.polar_slabs

    def spy(a0, a1, a2, k, density):
        call = QuadraticCall(a0, a1, a2, k, density)

        def recording_slabs(d):
            for rows in real_slabs(d):
                call.slabs.append(rows)
                yield rows

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gft.bounds, "polar_slabs", recording_slabs)
            call.result = real(a0, a1, a2, k, density)
        calls.append(call)
        return call.result

    monkeypatch.setattr(gft.bounds, "disk_quadratic", spy)
    return calls
