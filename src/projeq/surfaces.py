"""The two-dimensional theory: quadratic integrals, their complex form,
model classification, flattening maps, and the worked example bundles.

A quadratic-in-momenta function on a 2-D chart is stored through the
complex combination p = p_x - i p_y as

    I = a(z) p^2 + b(z) p pbar + conj(a)(z) pbar^2,   z = x + i y,

with three real coefficient fields (Re a, Im a, b). The momentum
convention is fixed so that the standard Liouville integral gives a
constant negative-real a, and the rotational integral (x p_y - y p_x)^2
gives a proportional to z^2; both facts are regression-tested.

The meromorphic form attached to a non-energy integral is
A = -(1/a) dz (x) dz; when a is minus a quadratic polynomial alpha z^2 +
beta z + gamma, the root structure of that polynomial decides the model
class and its canonical flattening map.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .chart import Chart
from .errors import (
    BranchViolation,
    DomainViolation,
    EnergyProportional,
    NotPolynomial,
    UnknownName,
    WrongDimension,
)
from .fields import (
    ConstantField,
    MetricField,
    ScalarField,
    VectorField,
    as_field,
    fmat_adjugate,
    fmat_det,
    fmat_mul,
    fmat_scale,
    require_finite,
)
from .jets import Jets
from .pairs import MetricPair, lie_derivative_metric


@dataclass(frozen=True)
class QuadraticIntegral2D:
    """Quadratic momentum polynomial in the complex storage convention."""

    chart: Chart
    re_a: ScalarField
    im_a: ScalarField
    b: ScalarField

    def __post_init__(self):
        if self.chart.dim != 2:
            raise WrongDimension("quadratic integrals live on 2-D charts")
        for name in ("re_a", "im_a", "b"):
            object.__setattr__(self, name, as_field(self.chart, getattr(self, name)))
        object.__setattr__(self, "_jets", Jets(self.chart.names, (self.re_a, self.im_a, self.b)))

    @classmethod
    def from_quadratic_form(cls, chart, cxx, cxy, cyy):
        """From coefficients of p_x^2, p_x p_y, p_y^2."""
        cxx = as_field(chart, cxx)
        cxy = as_field(chart, cxy)
        cyy = as_field(chart, cyy)
        return cls(
            chart=chart,
            re_a=(cxx - cyy) * 0.25,
            im_a=cxy * 0.25,
            b=(cxx + cyy) * 0.5,
        )

    def form_coefficients(self):
        """(cxx, cxy, cyy) fields recovering I = cxx px^2 + cxy px py + cyy py^2."""
        return (
            self.b + self.re_a * 2.0,
            self.im_a * 4.0,
            self.b - self.re_a * 2.0,
        )

    def a_value(self, x) -> complex:
        return complex(self.re_a.eval(x), self.im_a.eval(x))

    def value(self, x, p):
        """I at (x, p) (a float), or at each row of (N, 2) stacks x and p
        (an (N,) array)."""
        p = np.asarray(p, dtype=float)
        if p.ndim == 1:
            ra, ia, bb = self._jets(x, 0)[0]
            px, py = float(p[0]), float(p[1])
        else:
            ra, ia, bb = np.transpose([self._jets(xi, 0)[0] for xi in x])
            px, py = p[:, 0], p[:, 1]
        return (
            (bb + 2.0 * ra) * px * px
            + 4.0 * ia * px * py
            + (bb - 2.0 * ra) * py * py
        )

    def __add__(self, other):
        if not isinstance(other, QuadraticIntegral2D):
            return NotImplemented
        if other.chart != self.chart:
            raise ValueError("integrals live on different charts")
        return QuadraticIntegral2D(
            self.chart,
            self.re_a + other.re_a,
            self.im_a + other.im_a,
            self.b + other.b,
        )

    def __mul__(self, c):
        c = float(c)
        return QuadraticIntegral2D(
            self.chart, self.re_a * c, self.im_a * c, self.b * c
        )

    __rmul__ = __mul__


def cometric_form(g: MetricField) -> QuadraticIntegral2D:
    """I = p^T g^{-1} p, i.e. twice the kinetic energy, as a quadratic."""
    if g.dim != 2:
        raise WrongDimension("cometric_form needs a 2-D metric")
    det = fmat_det([list(r) for r in g.entries])
    adj = fmat_adjugate([list(r) for r in g.entries])
    inv_det = 1.0 / det
    return QuadraticIntegral2D.from_quadratic_form(
        g.chart,
        adj[0][0] * inv_det,
        (adj[0][1] + adj[1][0]) * inv_det,
        adj[1][1] * inv_det,
    )


def integral_from_pair2d(pair: MetricPair) -> QuadraticIntegral2D:
    """The distinguished integral of a 2-D pair.

    I(x, p) = (det g / det gbar)^{2/3} gbar(xi, xi) with xi = g^{-1} p.
    The 2/3 exponent is specific to two dimensions; do not reuse it for
    other n (the parametric family in flows.py is the general tool).
    """
    g, gbar = pair.g, pair.gbar
    if g.dim != 2:
        raise WrongDimension("integral_from_pair2d needs a 2-D pair")
    det_g = fmat_det([list(r) for r in g.entries])
    det_gb = fmat_det([list(r) for r in gbar.entries])
    adj_g = fmat_adjugate([list(r) for r in g.entries])
    # (det g/det gb)^{2/3} g^{-1} gbar g^{-1}
    #   = det_g^{-4/3} det_gb^{-2/3} adj(g) gbar adj(g)
    # det gbar may be negative (indefinite partners are legitimate here);
    # the 2/3 power is a squared real cube root, so take it off det^2
    sandwich = fmat_mul(fmat_mul(adj_g, [list(r) for r in gbar.entries]), adj_g)
    scale = det_g ** (-4.0 / 3.0) * (det_gb * det_gb) ** (-1.0 / 3.0)
    m = fmat_scale(sandwich, scale)
    return QuadraticIntegral2D.from_quadratic_form(
        g.chart, m[0][0], m[0][1] + m[1][0], m[1][1]
    )


# -- principal form and models ---------------------------------------------


@dataclass(frozen=True)
class PrincipalForm:
    """Fit of a(z) = -(alpha z^2 + beta z + gamma) over the chart."""

    alpha: complex
    beta: complex
    gamma: complex
    scale: float        # max coefficient magnitude
    residual: float     # max |alpha z^2 + beta z + gamma + a(z)| over the fit sample
    samples: int

    def coefficients(self):
        return np.array([self.alpha, self.beta, self.gamma])


def principal_form(integral: QuadraticIntegral2D, samples=64, seed=0,
                   fit_tol_factor=1e-8) -> PrincipalForm:
    """Total-least-squares quadratic fit of the a-coefficient.

    EnergyProportional when a vanishes on the sample (relative to the
    b-coefficient's size); NotPolynomial when the best quadratic leaves
    residual above fit_tol_factor * max |a|.
    """
    pts = integral.chart.sample(samples, seed=seed)
    z = np.array([complex(x[0], x[1]) for x in pts])
    a = np.array([integral.a_value(x) for x in pts])
    b_scale = max(abs(integral.b.eval(x)) for x in pts)
    a_scale = float(np.abs(a).max())
    if a_scale <= 1e-12 * max(1.0, b_scale):
        raise EnergyProportional(
            f"a-coefficient is zero to {a_scale:.3e}; form undefined"
        )

    m = np.column_stack([z * z, z, np.ones_like(z), a])
    _, _, vh = np.linalg.svd(m)
    v = vh[-1].conj()
    if abs(v[3]) <= 1e-10 * np.linalg.norm(v):
        raise NotPolynomial("a(z) admits no quadratic-polynomial fit (degenerate)")
    coeffs = v[:3] / v[3]
    residual = float(np.abs(m @ np.append(coeffs, 1.0)).max())
    if residual > fit_tol_factor * a_scale:
        raise NotPolynomial(
            f"fit residual {residual:.3e} exceeds {fit_tol_factor:.1e} * |a| = "
            f"{fit_tol_factor * a_scale:.3e}"
        )
    scale = float(np.abs(coeffs).max())
    if scale == 0.0:
        raise NotPolynomial("all fit coefficients vanish")
    return PrincipalForm(
        alpha=complex(coeffs[0]),
        beta=complex(coeffs[1]),
        gamma=complex(coeffs[2]),
        scale=scale,
        residual=residual,
        samples=int(samples),
    )


@dataclass(frozen=True)
class ModelClass:
    """Classification tag with root data and the canonical flattening map."""

    tag: str
    roots: tuple
    scale: complex
    flatten_id: str


def classify_model(pf: PrincipalForm, has_linear_reduction=False,
                   tau_root=1e-6) -> ModelClass:
    """Root-structure classification of the fitted quadratic.

    Degree 0 -> Model1a (1b when the caller attests a linear reduction,
    e.g. a verified Killing field); degree 1 -> Model2; degree 2 with
    simple roots -> Model3, double root -> Model4. Coefficient and root
    coincidence both use tau_root with a relative scale.
    """
    s = pf.scale
    na = abs(pf.alpha) / s
    nb = abs(pf.beta) / s
    if na <= tau_root and nb <= tau_root:
        tag = "Model1b" if has_linear_reduction else "Model1a"
        return ModelClass(tag=tag, roots=(), scale=pf.gamma,
                          flatten_id="w = z/sqrt(scale)")
    if na <= tau_root:
        root = -pf.gamma / pf.beta
        return ModelClass(tag="Model2", roots=(complex(root),), scale=1.0,
                          flatten_id="w = 2*sqrt(z)")
    rts = np.roots([pf.alpha, pf.beta, pf.gamma])
    sep = abs(rts[0] - rts[1])
    if sep <= tau_root * (1.0 + float(np.abs(rts).max())):
        root = complex(rts.mean())
        return ModelClass(tag="Model4", roots=(root, root), scale=1.0,
                          flatten_id="w = log(z)")
    ordered = tuple(sorted((complex(r) for r in rts), key=lambda c: (c.real, c.imag)))
    return ModelClass(tag="Model3", roots=ordered, scale=1.0,
                      flatten_id="w = arcsin(z^2 - 1)")


def _reject_ray(z, delta):
    # pole at the origin plus the principal cut along the negative reals
    if abs(z) < delta:
        raise BranchViolation(f"z = {z} within {delta} of the pole at 0")
    if z.real < 0.0 and abs(z.imag) < delta:
        raise BranchViolation(f"z = {z} within {delta} of the negative-real cut")


def flatten_coordinates(mc: ModelClass, z: complex, delta_branch=1e-3) -> complex:
    """Canonical flattening coordinate for the model's normal form.

    The maps are the canonical ones for polynomials in normal position
    (roots at 0 resp. +-1); apply an affine z-change first for a general
    fit. Principal branches throughout; BranchViolation within
    delta_branch of any pole or cut.
    """
    z = complex(z)
    if mc.tag in ("Model1a", "Model1b"):
        return z / cmath.sqrt(mc.scale)
    if mc.tag == "Model2":
        _reject_ray(z, delta_branch)
        return 2.0 * cmath.sqrt(z)
    if mc.tag == "Model4":
        _reject_ray(z, delta_branch)
        return cmath.log(z)
    if mc.tag == "Model3":
        if abs(z - 1.0) < delta_branch or abs(z + 1.0) < delta_branch:
            raise BranchViolation(f"z = {z} within {delta_branch} of a pole at +-1")
        u = z * z - 1.0
        if abs(u.imag) < delta_branch and abs(u.real) > 1.0 - delta_branch:
            raise BranchViolation(f"z^2 - 1 = {u} within {delta_branch} of the arcsin cut")
        return cmath.asin(u)
    raise UnknownName(f"unknown model tag {mc.tag!r}")


def model_inverse_map(mc: ModelClass):
    """(z(w), dz/dw) callables inverting the canonical flattening."""
    if mc.tag in ("Model1a", "Model1b"):
        root = cmath.sqrt(mc.scale)
        return (lambda w: w * root), (lambda w: root)
    if mc.tag == "Model2":
        return (lambda w: w * w / 4.0), (lambda w: w / 2.0)
    if mc.tag == "Model4":
        return cmath.exp, cmath.exp
    if mc.tag == "Model3":
        def z_of(w):
            return cmath.sqrt(1.0 + cmath.sin(w))

        def dz_of(w):
            return cmath.cos(w) / (2.0 * cmath.sqrt(1.0 + cmath.sin(w)))

        return z_of, dz_of
    raise UnknownName(f"unknown model tag {mc.tag!r}")


def flattening_fit_report(conformal_factor, mc: ModelClass, w_center: complex,
                          half_width=0.05, grid=9) -> dict:
    """Liouville defect of the transported metric around w_center.

    conformal_factor(x, y) is the lambda of lambda (dx^2 + dy^2); the
    transported factor lambda(z(w)) |dz/dw|^2 is evaluated on a square
    grid in w = u + i v. A Liouville metric has zero mixed partial
    d2/(du dv); the defect is that mixed partial relative to the pure ones.
    """
    z_of, dz_of = model_inverse_map(mc)
    us = np.linspace(w_center.real - half_width, w_center.real + half_width, grid)
    vs = np.linspace(w_center.imag - half_width, w_center.imag + half_width, grid)
    vals = np.empty((grid, grid))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            w = complex(u, v)
            z = z_of(w)
            vals[i, j] = conformal_factor(z.real, z.imag) * abs(dz_of(w)) ** 2
    hu = us[1] - us[0]
    hv = vs[1] - vs[0]
    mixed = (
        vals[2:, 2:] - vals[2:, :-2] - vals[:-2, 2:] + vals[:-2, :-2]
    ) / (4.0 * hu * hv)
    puu = (vals[2:, 1:-1] - 2.0 * vals[1:-1, 1:-1] + vals[:-2, 1:-1]) / hu**2
    pvv = (vals[1:-1, 2:] - 2.0 * vals[1:-1, 1:-1] + vals[1:-1, :-2]) / hv**2
    pure = max(float(np.abs(puu).max()), float(np.abs(pvv).max()))
    worst = float(np.abs(mixed).max())
    return {
        "mixed_max": worst,
        "pure_max": pure,
        "defect": worst / max(1.0, pure),
        "w_center": [w_center.real, w_center.imag],
        "half_width": half_width,
        "grid": int(grid),
    }


# -- Liouville normal form ---------------------------------------------------


@dataclass(frozen=True)
class LiouvilleData:
    """Separated profile functions X(x), Y(y) with X - Y > 0."""

    chart: Chart
    x_profile: ScalarField
    y_profile: ScalarField
    margin: float = 1e-6

    @classmethod
    def create(cls, x_expr, y_expr, bounds, names=("x", "y"), margin=1e-6):
        chart = Chart(tuple(names), tuple(tuple(map(float, b)) for b in bounds))
        if chart.dim != 2:
            raise WrongDimension("Liouville data lives on a 2-D chart")
        xf = as_field(chart, x_expr)
        yf = as_field(chart, y_expr)
        for f, own in ((xf, names[0]), (yf, names[1])):
            if hasattr(f, "expr"):
                extra = f.expr.free_vars() - {own}
                if extra:
                    raise ValueError(
                        f"profile in {own} references {sorted(extra)}"
                    )
        data = cls(chart=chart, x_profile=xf, y_profile=yf, margin=float(margin))
        data._validate()
        return data

    def _validate(self):
        xs, ys = [], []
        for x in self.chart.sample(300, seed=13):
            xv = self.x_profile.eval(x)
            yv = self.y_profile.eval(x)
            if xv - yv <= self.margin:
                raise DomainViolation(
                    f"X - Y = {xv - yv:.6g} at {x}; needs margin {self.margin:.1e}"
                )
            xs.append(xv)
            ys.append(yv)
        # a sign change across the sample proves a zero of the profile even
        # when no sample point lands within margin of it
        for name, vals in (("X", xs), ("Y", ys)):
            lo, hi = min(vals), max(vals)
            if lo * hi <= 0.0 or min(abs(lo), abs(hi)) <= self.margin:
                raise DomainViolation(
                    f"profile {name} reaches [{lo:.6g}, {hi:.6g}];"
                    " partner weights 1/X, 1/Y undefined near a zero"
                )


def liouville_build(data: LiouvilleData):
    """(g, gbar, I) of the separated normal form.

    g = (X - Y)(dx^2 + dy^2); gbar = (1/Y - 1/X) diag(1/X, 1/Y);
    I = (Y px^2 + X py^2)/(X - Y). gbar is built unvalidated: it is
    genuinely indefinite for sign-mixed profiles, and its pd_report is
    part of the expected output, not an error.
    """
    chart = data.chart
    X, Y = data.x_profile, data.y_profile
    diff = X - Y
    g = MetricField.conformal(chart, diff, validate=False)
    weight = 1.0 / Y - 1.0 / X
    zero = ConstantField(chart, 0.0)
    gbar = MetricField(
        chart,
        [[weight / X, zero], [zero, weight / Y]],
        validate=False,
    )
    integral = QuadraticIntegral2D.from_quadratic_form(
        chart, Y / diff, zero, X / diff
    )
    return g, gbar, integral


# -- audits -------------------------------------------------------------


def killing_residual(g: MetricField, v: VectorField, samples=200, seed=0,
                     tol=1e-7) -> dict:
    """Max entry of the Lie derivative of g along v over a sample."""
    pts = g.chart.sample(samples, seed=seed)
    devs = np.array([np.max(np.abs(lie_derivative_metric(g, v, x))) for x in pts])
    require_finite(devs.reshape(-1, 1, 1), pts, "Lie derivative")
    worst, worst_pt = 0.0, None
    for x, d in zip(pts, devs):
        if d > worst:
            worst, worst_pt = float(d), [float(c) for c in x]
    return {
        "max_lie": worst,
        "tol": tol,
        "pass": bool(worst <= tol),
        "samples": int(samples),
        "worst_point": worst_pt,
    }


def synthetic_integral(chart, alpha, beta, gamma, b="1") -> QuadraticIntegral2D:
    """An integral-shaped quadratic with a(z) = -(alpha z^2 + beta z + gamma).

    Used by the classification round-trip: the b-coefficient is free and
    irrelevant to the principal form.
    """
    alpha, beta, gamma = complex(alpha), complex(beta), complex(gamma)

    def fmt(c):
        return repr(float(c))

    q = "(x*x - y*y)"
    s = "(2*x*y)"
    re_text = (
        f"-({fmt(alpha.real)}*{q} - {fmt(alpha.imag)}*{s}"
        f" + {fmt(beta.real)}*x - {fmt(beta.imag)}*y + {fmt(gamma.real)})"
    )
    im_text = (
        f"-({fmt(alpha.imag)}*{q} + {fmt(alpha.real)}*{s}"
        f" + {fmt(beta.imag)}*x + {fmt(beta.real)}*y + {fmt(gamma.imag)})"
    )
    return QuadraticIntegral2D(
        chart,
        as_field(chart, re_text),
        as_field(chart, im_text),
        as_field(chart, b),
    )


# -- worked examples ----------------------------------------------------------


@dataclass(frozen=True)
class ExampleBundle:
    """One ready-made scenario: metric(s), integrals, fields, expectations."""

    name: str
    chart: Chart
    metric: MetricField
    integrals: dict
    partner: MetricField = None
    vector_fields: dict = None
    maps: dict = None
    init_box: Chart = None
    params: dict = None
    expected: dict = None


def builtin_example(name: str, gamma: float = 1.0) -> ExampleBundle:
    """Named scenario bundles; see each branch for contents."""
    if name == "example1":
        return _example_conformal(gamma, quarter=False)
    if name == "example2":
        return _example_conformal(gamma, quarter=True)
    if name == "torus":
        return _example_torus()
    if name == "sphere_beltrami":
        return _example_sphere()
    raise UnknownName(f"no builtin example named {name!r}")


def _example_conformal(gamma: float, quarter: bool) -> ExampleBundle:
    """The two rotational-type conformal scenarios.

    quarter=False: factor x^2 + y^2 + gamma, four integrals H, F1, F2, F3.
    quarter=True: factor x^2 + y^2/4 + gamma, three integrals H, F1, F2.
    """
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    gtxt = repr(float(gamma))
    chart = Chart(("x", "y"), ((-12.0, 12.0), (-12.0, 12.0)))
    ytxt = "y*y/4" if quarter else "y*y"
    lam_text = f"x*x + {ytxt} + {gtxt}"
    lam = as_field(chart, lam_text)
    metric = MetricField.conformal(chart, lam, validate=False)
    inv = 1.0 / lam
    zero = ConstantField(chart, 0.0)
    x_f = as_field(chart, "x")
    y_f = as_field(chart, "y")

    integrals = {"H": QuadraticIntegral2D.from_quadratic_form(chart, inv, zero, inv)}
    if not quarter:
        integrals["F1"] = QuadraticIntegral2D.from_quadratic_form(
            chart, as_field(chart, "y*y") * inv, zero,
            as_field(chart, f"-(x*x + {gtxt})") * inv,
        )
        integrals["F2"] = QuadraticIntegral2D.from_quadratic_form(
            chart, "y*y", "-2*x*y", "x*x"
        )
        integrals["F3"] = QuadraticIntegral2D.from_quadratic_form(
            chart, x_f * y_f * inv, as_field(chart, -1.0), x_f * y_f * inv
        )
        models = {"F1": "Model1a", "F2": "Model4", "F3": "Model1a"}
        killing = {"rotation": True}
    else:
        integrals["F1"] = QuadraticIntegral2D.from_quadratic_form(
            chart, as_field(chart, "y*y/4") * inv, zero,
            as_field(chart, f"-(x*x + {gtxt})") * inv,
        )
        quarter_term = as_field(chart, "x*y*y/4") * inv
        integrals["F2"] = QuadraticIntegral2D.from_quadratic_form(
            chart, quarter_term, as_field(chart, "-y"), quarter_term + x_f
        )
        models = {"F1": "Model1a", "F2": "Model2"}
        killing = {"rotation": False}

    return ExampleBundle(
        name="example2" if quarter else "example1",
        chart=chart,
        metric=metric,
        integrals=integrals,
        vector_fields={"rotation": VectorField(chart, ("-y", "x"))},
        init_box=Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0))),
        params={"gamma": float(gamma), "factor": lam_text},
        expected={
            "killing": killing,
            "model_of": models,
            "energy_proportional": ["H"],
        },
    )


def _example_torus() -> ExampleBundle:
    """Nonconstant-profile pair linked by the coordinate swap."""
    chart = Chart(("x", "y"), ((-8.0, 8.0), (-8.0, 8.0)))
    fx = "(3 + cos(2*pi*x))"
    fy = "(3 + cos(2*pi*y))"
    zero = ConstantField(chart, 0.0)
    weight = as_field(chart, f"{fx} - 1/{fy}")
    g = MetricField(
        chart,
        [
            [weight * as_field(chart, f"sqrt{fx}"), zero],
            [zero, weight * as_field(chart, f"1/sqrt{fy}")],
        ],
        validate=False,
    )
    weight_bar = as_field(chart, f"{fy} - 1/{fx}")
    gbar = MetricField(
        chart,
        [
            [weight_bar * as_field(chart, f"1/sqrt{fx}"), zero],
            [zero, weight_bar * as_field(chart, f"sqrt{fy}")],
        ],
        validate=False,
    )
    pair = MetricPair(g, gbar)
    return ExampleBundle(
        name="torus",
        chart=chart,
        metric=g,
        partner=gbar,
        integrals={"pair_integral": integral_from_pair2d(pair)},
        maps={"swap": lambda x: np.array([x[1], x[0]])},
        init_box=Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0))),
        params={
            "profile": "3 + cos(2*pi*x)",
            "weight": f"{fx} - 1/{fy}",
            "weight_partner": f"{fy} - 1/{fx}",
            "margin": 1.5,
        },
        expected={"margin_at_least": 1.5, "bm_residual_tol": 1e-6},
    )


def _example_sphere() -> ExampleBundle:
    """Round-sphere chart with the projective flow generator.

    The generator is the t = 0 velocity of the central-projection flow
    scaling the first ambient axis; its trace-adjusted metric velocity
    solves the compatibility identity.
    """
    chart = Chart(
        ("theta", "phi"),
        ((0.35, math.pi - 0.35), (-7.0, 7.0)),
    )
    metric = MetricField.diagonal(chart, ("1", "sin(theta)^2"), validate=False)
    gen = VectorField(
        chart,
        ("sin(theta)*cos(theta)*cos(phi)^2", "-sin(phi)*cos(phi)"),
    )
    return ExampleBundle(
        name="sphere_beltrami",
        chart=chart,
        metric=metric,
        integrals={},
        vector_fields={"projective_generator": gen},
        init_box=Chart(("theta", "phi"), ((1.2, 1.9), (-0.5, 0.5))),
        params={"ambient_scaling_axis": 0},
        expected={"flow_bm_residual_tol": 1e-6, "sectional": 1.0},
    )
