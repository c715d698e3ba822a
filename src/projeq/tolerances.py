"""Numerical thresholds used by the audits, collected in one place.

Every report echoes the table it ran with, so a loosened threshold is
visible in the output rather than buried in a call site. Factors marked
``*_factor`` are multiplied by a problem-size scale before use. Library
defaults read DEFAULT; every table, from a manifest or --tol too, passes
one check: each value is a finite number > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, replace


@dataclass(frozen=True)
class Tolerances:
    integrator_tol: float = 1e-10      # rtol = atol of the embedded RK pair
    drift_bound: float = 1e-7          # relative span of a conserved quantity
    bm_tol: float = 1e-8               # compatibility residual, orthonormal frame
    weyl_pair_tol: float = 1e-6        # invariance defect between partner metrics
    weyl_trace_tol: float = 1e-9       # trace over (upper, last) slots
    commutation_tol: float = 1e-8      # Poisson bracket, scaled by integral size
    interlace_slack: float = 1e-9      # root-vs-eigenvalue slack per point
    tau_ord: float = 1e-8              # global eigenvalue ordering audit
    tau_deg_factor: float = 1e-7       # eigenvalue gap floor, times (1 + spec radius)
    tau_root: float = 1e-6             # root coincidence in the 2-D classifier
    fit_tol_factor: float = 1e-8       # quadratic-fit residual, times coeff scale
    eps_pd: float = 1e-10              # eigenvalue floor for positive definiteness
    eps_sym_factor: float = 1e-9       # self-adjointness defect, times max(1, |gL|)
    eig_floor: float = 1e-12           # spectrum positivity floor for partners
    ordering_margin: float = 1e-6      # strict separation of block functions
    killing_tol: float = 1e-7          # max Lie-derivative entry
    energy_drift_factor: float = 100.0 # times integrator_tol along one run

    def __post_init__(self):
        for name, value in self.as_dict().items():
            # a bool is an int to Python, but no threshold
            if not (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and math.isfinite(value) and value > 0.0):
                raise ValueError(f"tolerance {name} must be a finite number > 0, got {value!r}")

    def as_dict(self) -> dict:
        return asdict(self)

    def override(self, **kwargs) -> "Tolerances":
        """This table with the named values replaced: KeyError for an
        unknown name, ValueError for a value that fails the check."""
        unknown = set(kwargs) - set(self.as_dict())
        if unknown:
            raise KeyError(f"unknown tolerance name(s): {sorted(unknown)}")
        return replace(self, **kwargs)


DEFAULT = Tolerances()
