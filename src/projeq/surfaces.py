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
    require,
    require_finite,
    scan,
    worst_point,
)
from .jets import Jets
from .pairs import MetricPair, lie_derivative_metric
from .tolerances import DEFAULT

_DELTA_BRANCH = 1e-3   # flatten_coordinates' exclusion radius around poles and cuts
_FIT_HALF_WIDTH = 0.05  # half-width of flattening_fit_report's w grid
_FIT_GRID = 9           # its points per side


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

    def value(self, x, p):
        """I at (x, p) (a float), or at each row of (N, 2) stacks x and p
        (an (N,) array)."""
        ra, ia, bb = self._jets(x, 0)[0]
        px, py = np.asarray(p, dtype=float).T.tolist()  # floats, or lists of them
        return (bb + 2.0 * ra) * px * px + 4.0 * ia * px * py + (bb - 2.0 * ra) * py * py

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
    det = fmat_det(g.entries)
    adj = fmat_adjugate(g.entries)
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
    det_g = fmat_det(g.entries)
    det_gb = fmat_det(gbar.entries)
    adj_g = fmat_adjugate(g.entries)
    # (det g/det gb)^{2/3} g^{-1} gbar g^{-1}
    #   = det_g^{-4/3} det_gb^{-2/3} adj(g) gbar adj(g)
    # det gbar may be negative (indefinite partners are legitimate here);
    # the 2/3 power is a squared real cube root, so take it off det^2
    sandwich = fmat_mul(fmat_mul(adj_g, gbar.entries), adj_g)
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
                   fit_tol_factor=DEFAULT.fit_tol_factor) -> PrincipalForm:
    """Total-least-squares quadratic fit of the a-coefficient.

    EnergyProportional when a vanishes on the sample (relative to the
    b-coefficient's size); DomainViolation at the first sample point whose
    row of the fit matrix is non-finite; NotPolynomial when the best
    quadratic leaves residual above fit_tol_factor * max |a|.
    """
    pts = integral.chart.sample(samples, seed=seed)
    z = pts[:, 0] + 1j * pts[:, 1]
    ra, ia = scan(pts, lambda p: (integral.re_a.eval(p), integral.im_a.eval(p)),
                  lambda vals, p: require_finite(np.column_stack(vals), p, "a-coefficient"))
    a = ra.astype(complex)
    a.imag = ia
    b_scale = float(np.abs(integral.b.eval(pts)).max())
    a_scale = float(np.abs(a).max())
    if a_scale <= 1e-12 * max(1.0, b_scale):
        raise EnergyProportional(
            f"a-coefficient is zero to {a_scale:.3e}; form undefined"
        )

    with np.errstate(over="ignore", invalid="ignore"):  # refused at its point below
        m = np.column_stack([z * z, z, np.ones_like(z), a])
    # before the SVD, which may never return on a non-finite matrix
    _, _, vh = np.linalg.svd(require_finite(m, pts, "fit matrix"))
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


def _off_ray(z):
    """z, unless within _DELTA_BRANCH of the pole at the origin or of the
    principal cut along the negative reals."""
    if abs(z) < _DELTA_BRANCH:
        raise BranchViolation(f"z = {z} within {_DELTA_BRANCH} of the pole at 0")
    if z.real < 0.0 and abs(z.imag) < _DELTA_BRANCH:
        raise BranchViolation(f"z = {z} within {_DELTA_BRANCH} of the negative-real cut")
    return z


def _arcsin_flat(z, scale):
    if abs(z - 1.0) < _DELTA_BRANCH or abs(z + 1.0) < _DELTA_BRANCH:
        raise BranchViolation(f"z = {z} within {_DELTA_BRANCH} of a pole at +-1")
    u = z * z - 1.0
    if abs(u.imag) < _DELTA_BRANCH and abs(u.real) > 1.0 - _DELTA_BRANCH:
        raise BranchViolation(f"z^2 - 1 = {u} within {_DELTA_BRANCH} of the arcsin cut")
    return cmath.asin(u)


# each model's flatten_id, w(z) guarded against its poles and cuts, z(w) and
# dz/dw; every map takes the model's scale too, which Model1 alone reads
_MODEL1 = ("w = z/sqrt(scale)", lambda z, scale: z / cmath.sqrt(scale),
           lambda w, scale: w * cmath.sqrt(scale), lambda w, scale: cmath.sqrt(scale))
_MODELS = {
    "Model1a": _MODEL1,
    "Model1b": _MODEL1,
    "Model2": ("w = 2*sqrt(z)", lambda z, scale: 2.0 * cmath.sqrt(_off_ray(z)),
               lambda w, scale: w * w / 4.0, lambda w, scale: w / 2.0),
    "Model3": ("w = arcsin(z^2 - 1)", _arcsin_flat,
               lambda w, scale: cmath.sqrt(1.0 + cmath.sin(w)),
               lambda w, scale: cmath.cos(w) / (2.0 * cmath.sqrt(1.0 + cmath.sin(w)))),
    "Model4": ("w = log(z)", lambda z, scale: cmath.log(_off_ray(z)),
               lambda w, scale: cmath.exp(w), lambda w, scale: cmath.exp(w)),
}


def _maps(mc: ModelClass):
    """The model's (w(z), z(w), dz/dw) from _MODELS, or UnknownName."""
    if mc.tag not in _MODELS:
        raise UnknownName(f"unknown model tag {mc.tag!r}")
    return _MODELS[mc.tag][1:]


def classify_model(pf: PrincipalForm, has_linear_reduction=False,
                   tau_root=DEFAULT.tau_root) -> ModelClass:
    """Root-structure classification of the fitted quadratic.

    Degree 0 -> Model1a (1b when the caller attests a linear reduction,
    e.g. a verified Killing field); degree 1 -> Model2; degree 2 with
    simple roots -> Model3, double root -> Model4. Coefficient and root
    coincidence both use tau_root with a relative scale.
    """
    na, nb = abs(pf.alpha) / pf.scale, abs(pf.beta) / pf.scale
    scale = 1.0
    if na <= tau_root and nb <= tau_root:
        tag, roots, scale = "Model1b" if has_linear_reduction else "Model1a", (), pf.gamma
    elif na <= tau_root:
        tag, roots = "Model2", (complex(-pf.gamma / pf.beta),)
    else:
        rts = np.roots([pf.alpha, pf.beta, pf.gamma])
        if abs(rts[0] - rts[1]) <= tau_root * (1.0 + float(np.abs(rts).max())):
            tag, roots = "Model4", (complex(rts.mean()),) * 2
        else:
            tag, roots = "Model3", tuple(sorted((complex(r) for r in rts),
                                                key=lambda c: (c.real, c.imag)))
    return ModelClass(tag=tag, roots=roots, scale=scale, flatten_id=_MODELS[tag][0])


def flatten_coordinates(mc: ModelClass, z: complex) -> complex:
    """Canonical flattening coordinate for the model's normal form.

    The maps are the canonical ones for polynomials in normal position
    (roots at 0 resp. +-1); apply an affine z-change first for a general
    fit. Principal branches throughout; BranchViolation within
    1e-3 of any pole or cut.
    """
    return _maps(mc)[0](complex(z), mc.scale)


def model_inverse_map(mc: ModelClass):
    """(z(w), dz/dw) callables inverting the canonical flattening."""
    _, z_of, dz_of = _maps(mc)
    return (lambda w: z_of(w, mc.scale)), (lambda w: dz_of(w, mc.scale))


def flattening_fit_report(conformal_factor, mc: ModelClass, w_center: complex) -> dict:
    """Liouville defect of the transported metric around w_center.

    conformal_factor(x, y) is the lambda of lambda (dx^2 + dy^2); the
    transported factor lambda(z(w)) |dz/dw|^2 is evaluated on a 9 x 9
    grid of half-width 0.05 in w = u + i v. A Liouville metric has zero
    mixed partial d2/(du dv); the defect is that mixed partial relative to
    the pure ones.
    """
    z_of, dz_of = model_inverse_map(mc)
    hw = _FIT_HALF_WIDTH
    us = np.linspace(w_center.real - hw, w_center.real + hw, _FIT_GRID)
    vs = np.linspace(w_center.imag - hw, w_center.imag + hw, _FIT_GRID)
    vals = np.empty((_FIT_GRID, _FIT_GRID))
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
        "half_width": _FIT_HALF_WIDTH,
        "grid": _FIT_GRID,
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
        xs, ys = scan(self.chart.sample(300, seed=13),
                      lambda p: (self.x_profile.eval(p), self.y_profile.eval(p)),
                      lambda vals, p: require(
                          vals[0] - vals[1] > self.margin, p, DomainViolation,
                          lambda k: f"X - Y = {vals[0][k] - vals[1][k]:.6g};"
                                    f" needs margin {self.margin:.1e}"))
        # a sign change across the sample proves a zero of the profile even
        # when no sample point lands within margin of it
        for name, vals in (("X", xs), ("Y", ys)):
            lo, hi = vals.min(), vals.max()
            # signs compared, not multiplied: lo * hi can overflow; a zero fails the margin
            if not ((lo > 0.0) == (hi > 0.0) and min(abs(lo), abs(hi)) > self.margin):
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
                     tol=DEFAULT.killing_tol) -> dict:
    """Max entry of the Lie derivative of g along v over a sample."""
    pts = g.chart.sample(samples, seed=seed)
    devs = np.max(np.abs(lie_derivative_metric(g, v, pts)), axis=(-2, -1))
    worst, worst_pt = worst_point(devs, pts, "Lie derivative")
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
