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
import sys
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .chart import Chart
from .errors import ExpressionError, ManifestError, ProjeqError
from .fields import EndomorphismField, MetricField, PhaseState, VectorField
from .pairs import MetricPair, l_field_from_pair, spectrum_at
from .sampling import halton_points
from .tolerances import DEFAULT, Tolerances

if TYPE_CHECKING:  # imported where they are built, so a command loads only its own
    from .flows import IntegralFamily
    from .levicivita import LeviCivitaSpec
    from .surfaces import LiouvilleData

_GEOMETRY_KINDS = ("metric", "pair", "lc", "liouville", "example")
_MAX_BUDGET = 10_000  # largest run.samples and run.geodesics: pd_report's full audit
_MAX_T = 1e6  # largest |t| in run.t_grid: S_t sums powers t**j up to the dimension


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
        """The run block; a value not of its key's JSON type is a ManifestError
        naming the key (numeric text is a number: "inf" reaches check)."""
        known = {
            "seed": _whole,
            "samples": _whole,
            "horizon": _real,
            "geodesics": _whole,
            "t_grid": lambda v: tuple(map(_real, _of_type(v, (list, tuple)))),
            "integral": lambda v: _of_type(v, str),
            "r": _whole,
            "has_linear_reduction": lambda v: _of_type(v, bool),
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
        """Raise ManifestError unless the seed, every budget and every time
        of t_grid can run an audit; a budget above _MAX_BUDGET is refused
        before it allocates, a time above _MAX_T before its powers overflow."""
        if not 0 <= self.seed < 2 ** 31:
            raise ManifestError(f"run.seed must be in [0, 2**31), got {self.seed}")
        for k in ("samples", "geodesics"):
            if getattr(self, k) < 1:
                raise ManifestError(f"run.{k} must be >= 1, got {getattr(self, k)}")
            if getattr(self, k) > _MAX_BUDGET:
                raise ManifestError(f"run.{k} must be <= {_MAX_BUDGET}")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ManifestError(f"run.horizon must be finite and > 0, got {self.horizon}")
        for t in self.t_grid:
            if not abs(t) <= _MAX_T:  # a NaN fails too
                raise ManifestError(f"run.t_grid times must be finite with |t| <= {_MAX_T:g},"
                                    f" got {t}")


def _of_type(value, kind):
    """value if it is a kind (a bool is no number), else TypeError."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(value)
    return value


def _real(value):
    return float(_of_type(value, (int, float, str)))


def _json_int(text):
    """A JSON integer literal, refused beyond the float range, as RFC 8259 §9
    lets a parser bound numbers (int() refuses over 4300 digits by default)."""
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"an integer literal of {len(text)} characters is beyond the float range")
    return value


def _refuse_huge_ints(data):
    """ManifestError naming the key of an integer beyond the float range in
    data, the bound _json_int sets on a file, for a library caller's dict."""
    stack = [("", data)]
    while stack:  # a loop: a caller's dict may nest deeper than the recursion limit
        key, value = stack.pop()
        if isinstance(value, dict):
            stack += [(f"{key}.{k}" if key else str(k), v) for k, v in value.items()]
        elif isinstance(value, (list, tuple)):
            stack += [(f"{key}[{i}]", v) for i, v in enumerate(value)]
        elif isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ManifestError(f"{key} is an integer beyond the float range")


def _whole(value):
    """An int, or a float of whole value (1e300 reaches check's budget cap)."""
    if isinstance(_of_type(value, (int, float)), float) and not value.is_integer():
        raise TypeError(value)
    return int(value)


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
        from .flows import IntegralFamily

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
                data = json.load(fh, parse_int=_json_int)
        except (OSError, ValueError, RecursionError) as e:  # ValueError: a decode error, too
            raise ManifestError(f"cannot read manifest {path}: {e}") from None
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "Manifest":
        if not isinstance(data, dict):
            raise ManifestError("manifest root must be an object")
        _refuse_huge_ints(data)
        geometry = data.get("geometry")
        if not isinstance(geometry, dict) or "kind" not in geometry:
            raise ManifestError('manifest needs "geometry" with a "kind"')
        kind = geometry["kind"]
        if kind not in _GEOMETRY_KINDS:
            raise ManifestError(
                f"geometry kind {kind!r} not one of {_GEOMETRY_KINDS}"
            )
        for key, want in (("chart", dict), ("run", dict), ("vector_field", list)):
            if data.get(key) is not None and not isinstance(data[key], want):
                raise ManifestError(f'"{key}" must be {"an object" if want is dict else "a list"}')
        chart_spec = data.get("chart")
        if kind != "example":
            if not chart_spec:
                raise ManifestError(f'geometry kind {kind!r} needs a "chart"')
            for key in ("names", "bounds"):
                if key not in chart_spec:
                    raise ManifestError(f'chart needs "{key}"')
        endo = data.get("endomorphism")
        if endo and not (isinstance(endo, list) and all(isinstance(r, list) for r in endo)):
            raise ManifestError('"endomorphism" must be a list of rows')
        vec = data.get("vector_field")
        run = RunParams.from_dict(data.get("run") or {})
        tol_over = data.get("tolerances", {})
        try:
            tols = DEFAULT.override(**tol_over)
        except (KeyError, TypeError, ValueError) as e:
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
        except (ProjeqError, ExpressionError, ValueError, KeyError, TypeError) as e:
            raise ManifestError(f"geometry {kind!r} invalid: {e}") from None
        try:
            if self.endomorphism:
                if scene.endo is not None:
                    raise ManifestError(
                        "geometry already provides an endomorphism; drop the manifest one")
                scene.endo = EndomorphismField.from_rows(
                    scene.chart, _table(self.endomorphism, scene.chart.dim, "endomorphism"))
            if self.vector_field:
                scene.vector = VectorField(scene.chart, self.vector_field)
        except (ValueError, TypeError) as e:
            raise ManifestError(f"bad endomorphism or vector field: {e}") from None
        return scene

    def _scene_metric(self) -> Scene:
        chart = self._chart()
        entries = _table(self.geometry["entries"], chart.dim, "geometry.entries")
        g = MetricField.from_rows(chart, entries, validate=False)
        return Scene(chart=chart, metric=g)

    def _scene_pair(self) -> Scene:
        chart = self._chart()
        n = chart.dim
        g = MetricField.from_rows(chart, _table(self.geometry["g"], n, "geometry.g"),
                                  validate=False)
        gbar = MetricField.from_rows(chart, _table(self.geometry["gbar"], n, "geometry.gbar"),
                                     validate=False)
        pair = MetricPair(g, gbar)
        return Scene(chart=chart, metric=g, partner=gbar,
                     endo=l_field_from_pair(pair))

    def _scene_lc(self) -> Scene:
        from .levicivita import LeviCivitaSpec, build_lc_pair

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
        from .surfaces import LiouvilleData, liouville_build

        chart = self._chart()
        data = LiouvilleData.create(
            self.geometry["X"], self.geometry["Y"],
            bounds=chart.bounds, names=chart.names,
        )
        g, gbar, integral = liouville_build(data)
        return Scene(chart=data.chart, metric=g, partner=gbar,
                     liouville=data, integrals={"liouville_integral": integral})

    def _scene_example(self) -> Scene:
        from .surfaces import builtin_example

        bundle = builtin_example(
            self.geometry["name"], gamma=float(self.geometry.get("gamma", 1.0))
        )
        scene = Scene(chart=bundle.chart, metric=bundle.metric,
                      partner=bundle.partner, bundle=bundle,
                      integrals=dict(bundle.integrals))
        if bundle.vector_fields:
            scene.vector = next(iter(bundle.vector_fields.values()))
        return scene


def _table(rows, n, key):
    """``rows`` if it is an n x n table, else ManifestError naming ``key``."""
    if not (isinstance(rows, (list, tuple)) and len(rows) == n
            and all(isinstance(r, (list, tuple)) and len(r) == n for r in rows)):
        raise ManifestError(f"{key} must be a {n} x {n} table, got {rows!r}")
    return rows


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
    The start metrics are checked and inverted by one `metric.inverse`
    call, which refuses the first start whose metric is non-finite or
    numerically singular.
    """
    xs = box.sample(count, seed=seed)
    dirs = 2.0 * halton_points(count, metric.dim, seed=seed + 101) - 1.0
    dirs[np.linalg.norm(dirs, axis=1) < 1e-6] = np.eye(metric.dim)[0]
    ginv = metric.inverse(xs)
    # row @ matrix @ column: each norm sums as the one-state d @ ginv @ d does
    ps = dirs / np.sqrt((dirs[:, None, :] @ ginv @ dirs[:, :, None])[:, 0])
    return [PhaseState(x, p) for x, p in zip(xs, ps)]
