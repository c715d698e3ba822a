"""Numerical thresholds used by the audits, collected in one place.

Every report echoes the table it ran with, so a loosened threshold is
visible in the output rather than buried in a call site. Factors marked
``*_factor`` are multiplied by a problem-size scale before use.
"""

from __future__ import annotations

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

    def as_dict(self) -> dict:
        return asdict(self)

    def override(self, **kwargs) -> "Tolerances":
        unknown = set(kwargs) - set(self.as_dict())
        if unknown:
            raise KeyError(f"unknown tolerance name(s): {sorted(unknown)}")
        return replace(self, **kwargs)


DEFAULT = Tolerances()
