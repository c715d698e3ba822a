"""Coordinate charts.

Everything in this package lives on a single open coordinate box; there are
no atlases and no transition maps. A chart just records dimension, bounds
and coordinate names, and hands out reproducible quasi-random sample points.
"""

from __future__ import annotations

import numpy as np

from .errors import ChartError
from .expressions import CONSTANTS, FUNCTIONS
from .records import Record
from .sampling import halton_points

_SHRINK = 0.05  # relative margin kept clear of each wall by sample()


class Chart(Record):
    """An open box (lo_1, hi_1) x ... x (lo_n, hi_n) with named coordinates.

    Parameters
    ----------
    names : tuple of str
        Coordinate names, unique, valid identifiers, none a constant or a
        function of the expression language.
    bounds : tuple of (lo, hi) pairs
        Strictly ordered open bounds per coordinate.
    """

    _fields = ("names", "bounds")

    def __init__(self, names, bounds):
        names = tuple(str(s) for s in names)
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        self._set(names=names, bounds=bounds)
        if len(names) != len(bounds):
            raise ChartError("names and bounds must have equal length")
        if len(names) < 1:
            raise ChartError("chart needs at least one coordinate")
        if len(set(names)) != len(names):
            raise ChartError(f"duplicate coordinate names: {names}")
        for s in names:
            if not s.isidentifier():
                raise ChartError(f"coordinate name {s!r} is not an identifier")
            if s in CONSTANTS or s in FUNCTIONS:
                raise ChartError(f"coordinate name {s!r} is a name of the expression language")
        for lo, hi in bounds:
            if not np.isfinite(lo) or not np.isfinite(hi) or lo >= hi:
                raise ChartError(f"bad bound pair ({lo}, {hi})")

    @property
    def dim(self):
        return len(self.names)

    def index_of(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise ChartError(f"no coordinate named {name!r} on {self.names}") from None

    def contains(self, x, margin=0.0):
        """True if x lies strictly inside the box, at least margin from walls;
        at an (N, n) stack, an (N,) array of such flags."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2 and x.shape[1] == self.dim:
            lo, hi = np.array(self.bounds).T
            return ((lo + margin < x) & (x < hi - margin)).all(axis=1)
        if x.shape != (self.dim,):
            return False
        for xi, (lo, hi) in zip(x.tolist(), self.bounds):
            if not (lo + margin < xi < hi - margin):
                return False
        return True

    def sample(self, count, seed=0):
        """Quasi-random (Halton) points strictly inside the box.

        The box is shrunk by 5% of its width on each side so samples stay
        clear of the walls; deterministic for a given seed.
        """
        u = halton_points(count, self.dim, seed=seed)
        lo, hi = np.array(self.bounds).T
        pad = _SHRINK * (hi - lo)
        return lo + pad + u * (hi - lo - 2.0 * pad)

    def center(self):
        return np.array([(lo + hi) / 2.0 for lo, hi in self.bounds])


def box_chart(names, half_width=1.0, center=None):
    """Convenience: a symmetric box around `center` (default origin)."""
    names = tuple(names)
    n = len(names)
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    bounds = tuple((c[i] - half_width, c[i] + half_width) for i in range(n))
    return Chart(names, bounds)
