"""Manifest ingestion: one JSON file describes chart, geometry, and run.

Exactly one geometry source per manifest:

    "geometry": {"kind": "metric", "entries": [[...], ...]}
    "geometry": {"kind": "pair", "g": [[...]], "gbar": [[...]]}
    "geometry": {"kind": "lc", "block_sizes": [...], "phis": [...],
                 "block_metrics": [...]}          # entries optional
    "geometry": {"kind": "liouville", "X": "...", "Y": "..."}
    "geometry": {"kind": "example", "name": "example1", "gamma": 1.0}

Optional "endomorphism" (rows) and "vector_field" (components) ride on
top for the metric kind. "run" carries seed/sample/horizon knobs and
"tolerances" carries overrides of the central table. All expressions are
strings in the chart's coordinate names; everything is plain decimal
JSON so fixtures diff cleanly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chart import Chart
from .errors import ExpressionError, ManifestError, ProjeqError, SingularMetric
from .fields import EndomorphismField, MetricField, PhaseState, VectorField
from .flows import IntegralFamily
from .levicivita import LeviCivitaSpec, build_lc_pair
from .pairs import MetricPair, l_field_from_pair, spectrum_at
from .sampling import halton_points
from .surfaces import LiouvilleData, builtin_example, liouville_build
from .tolerances import DEFAULT, Tolerances

_GEOMETRY_KINDS = ("metric", "pair", "lc", "liouville", "example")


@dataclass(frozen=True)
class RunParams:
    seed: int = 0
    samples: int = 200
    horizon: float = 5.0
    geodesics: int = 20
    t_grid: tuple = ()
    integral: str = ""
    r: int = 0
    has_linear_reduction: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "RunParams":
        known = {
            "seed": int,
            "samples": int,
            "horizon": float,
            "geodesics": int,
            "t_grid": lambda v: tuple(float(t) for t in v),
            "integral": str,
            "r": int,
            "has_linear_reduction": bool,
        }
        unknown = set(d) - set(known)
        if unknown:
            raise ManifestError(f"unknown run parameter(s): {sorted(unknown)}")
        kwargs = {}
        for k, conv in known.items():
            if k in d:
                try:
                    kwargs[k] = conv(d[k])
                except (ValueError, TypeError):
                    raise ManifestError(
                        f"run parameter {k!r} has the wrong type: {d[k]!r}") from None
        return cls(**kwargs)

    def check(self):
        """Raise ManifestError unless every budget can run an audit."""
        for k in ("samples", "geodesics"):
            if getattr(self, k) < 1:
                raise ManifestError(f"run.{k} must be >= 1, got {getattr(self, k)}")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ManifestError(f"run.horizon must be finite and > 0, got {self.horizon}")


@dataclass
class Scene:
    """Resolved objects a command operates on."""

    chart: Chart
    metric: MetricField = None
    partner: MetricField = None
    endo: EndomorphismField = None
    vector: VectorField = None
    bundle: object = None
    lc_spec: LeviCivitaSpec = None
    liouville: LiouvilleData = None
    integrals: dict = field(default_factory=dict)

    @property
    def pair(self):
        if self.metric is not None and self.partner is not None:
            return MetricPair(self.metric, self.partner)
        return None

    def family(self) -> IntegralFamily:
        if self.metric is None or self.endo is None:
            raise ManifestError("this command needs a metric and an endomorphism")
        return IntegralFamily(self.metric, self.endo)


@dataclass(frozen=True)
class Manifest:
    version: str
    geometry: dict
    chart_spec: dict
    endomorphism: tuple
    vector_field: tuple
    run: RunParams
    tolerances: Tolerances
    # built by from_dict while validating; the CLI runs on it
    scene: Scene = field(default=None, compare=False, repr=False)

    @classmethod
    def load(cls, path) -> "Manifest":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ManifestError(f"cannot read manifest {path}: {e}") from None
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "Manifest":
        if not isinstance(data, dict):
            raise ManifestError("manifest root must be an object")
        geometry = data.get("geometry")
        if not isinstance(geometry, dict) or "kind" not in geometry:
            raise ManifestError('manifest needs "geometry" with a "kind"')
        kind = geometry["kind"]
        if kind not in _GEOMETRY_KINDS:
            raise ManifestError(
                f"geometry kind {kind!r} not one of {_GEOMETRY_KINDS}"
            )
        chart_spec = data.get("chart")
        if kind != "example":
            if not chart_spec:
                raise ManifestError(f'geometry kind {kind!r} needs a "chart"')
            for key in ("names", "bounds"):
                if key not in chart_spec:
                    raise ManifestError(f'chart needs "{key}"')
        endo = data.get("endomorphism")
        vec = data.get("vector_field")
        run = RunParams.from_dict(data.get("run", {}))
        tol_over = data.get("tolerances", {})
        try:
            tols = DEFAULT.override(**tol_over)
        except (KeyError, TypeError) as e:
            raise ManifestError(f"bad tolerance override: {e}") from None
        m = cls(
            version=str(data.get("version", "1")),
            geometry=geometry,
            chart_spec=chart_spec or {},
            endomorphism=tuple(map(tuple, endo)) if endo else (),
            vector_field=tuple(vec) if vec else (),
            run=run,
            tolerances=tols,
        )
        # validate eagerly: all expressions must parse
        return replace(m, scene=m.build_scene())

    def _chart(self) -> Chart:
        try:
            return Chart(
                tuple(self.chart_spec["names"]),
                tuple(tuple(map(float, b)) for b in self.chart_spec["bounds"]),
            )
        except (ProjeqError, ValueError, TypeError) as e:
            raise ManifestError(f"bad chart: {e}") from None

    def build_scene(self) -> Scene:
        kind = self.geometry["kind"]
        try:
            scene = getattr(self, f"_scene_{kind}")()
        except ManifestError:
            raise
        except (ProjeqError, ExpressionError, ValueError, KeyError) as e:
            raise ManifestError(f"geometry {kind!r} invalid: {e}") from None
        if self.endomorphism:
            if scene.endo is not None:
                raise ManifestError(
                    "geometry already provides an endomorphism; drop the manifest one"
                )
            scene.endo = EndomorphismField.from_rows(
                scene.chart, [list(r) for r in self.endomorphism]
            )
        if self.vector_field:
            scene.vector = VectorField(scene.chart, self.vector_field)
        return scene

    def _scene_metric(self) -> Scene:
        chart = self._chart()
        g = MetricField.from_rows(chart, self.geometry["entries"], validate=False)
        return Scene(chart=chart, metric=g)

    def _scene_pair(self) -> Scene:
        chart = self._chart()
        g = MetricField.from_rows(chart, self.geometry["g"], validate=False)
        gbar = MetricField.from_rows(chart, self.geometry["gbar"], validate=False)
        pair = MetricPair(g, gbar)
        return Scene(chart=chart, metric=g, partner=gbar,
                     endo=l_field_from_pair(pair))

    def _scene_lc(self) -> Scene:
        chart = self._chart()
        spec = LeviCivitaSpec.create(
            self.geometry["block_sizes"],
            self.geometry["phis"],
            bounds=chart.bounds,
            block_metrics=self.geometry.get("block_metrics"),
            names=chart.names,
        )
        g, gbar, endo = build_lc_pair(spec)
        return Scene(chart=spec.chart, metric=g, partner=gbar, endo=endo,
                     lc_spec=spec)

    def _scene_liouville(self) -> Scene:
        chart = self._chart()
        data = LiouvilleData.create(
            self.geometry["X"], self.geometry["Y"],
            bounds=chart.bounds, names=chart.names,
        )
        g, gbar, integral = liouville_build(data)
        return Scene(chart=data.chart, metric=g, partner=gbar,
                     liouville=data, integrals={"liouville_integral": integral})

    def _scene_example(self) -> Scene:
        bundle = builtin_example(
            self.geometry["name"], gamma=float(self.geometry.get("gamma", 1.0))
        )
        scene = Scene(chart=bundle.chart, metric=bundle.metric,
                      partner=bundle.partner, bundle=bundle,
                      integrals=dict(bundle.integrals))
        if bundle.vector_fields:
            scene.vector = next(iter(bundle.vector_fields.values()))
        return scene


def default_t_grid(scene: Scene, count=5):
    """Deterministic parameter grid straddling the spectrum at the center."""
    lam = spectrum_at(scene.metric, scene.endo, scene.chart.center())
    lo = float(lam.min()) - 1.0
    hi = float(lam.max()) + 1.0
    return tuple(np.linspace(lo, hi, count))


def seeded_states(metric: MetricField, box: Chart, count: int, seed: int):
    """Deterministic unit-energy phase states with positions in `box`.

    Momentum directions come from a shifted Halton window and are scaled
    to p^T g^{-1} p = 1, so trajectory speed is comparable across draws.
    """
    n = metric.dim
    xs = box.sample(count, seed=seed)
    dirs = 2.0 * halton_points(count, n, seed=seed + 101) - 1.0
    states = []
    for x, d in zip(xs, dirs):
        if np.linalg.norm(d) < 1e-6:
            d = np.zeros(n)
            d[0] = 1.0
        try:
            ginv = np.linalg.inv(metric.matrix(x))
        except np.linalg.LinAlgError:
            raise SingularMetric("metric singular", point=x) from None
        p = d / np.sqrt(float(d @ ginv @ d))
        states.append(PhaseState(x, p))
    return states
