"""Manifest ingestion: JSON in, validated Scene out.

Validation is eager: a manifest that parses but cannot build its scene
is rejected at from_dict time, so a bad fixture never reaches a command
body.
"""

import json

import numpy as np
import pytest

from projeq.chart import Chart
from projeq.errors import ManifestError, SingularMetric
from projeq.fields import MetricField
from projeq.manifest import Manifest, Scene, default_t_grid, seeded_states


def metric_manifest():
    return {
        "chart": {"names": ["x", "y"], "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
        "geometry": {
            "kind": "metric",
            "entries": [["1 + x^2", "0"], ["0", "1"]],
        },
    }


def pair_manifest():
    return {
        "chart": {"names": ["x", "y"], "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
        "geometry": {
            "kind": "pair",
            "g": [["1", "0"], ["0", "1"]],
            "gbar": [["2", "0"], ["0", "2"]],
        },
    }


def lc_manifest():
    return {
        "chart": {"names": ["x", "y"], "bounds": [[0.1, 1.9], [-1.0, 1.0]]},
        "geometry": {"kind": "lc", "block_sizes": [1, 1], "phis": ["x", "2"]},
    }


def liouville_manifest():
    return {
        "chart": {"names": ["x", "y"], "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
        "geometry": {"kind": "liouville", "X": "3 + x^2", "Y": "-2 - y^2"},
    }


# -- round trips, one per geometry kind -----------------------------------


def test_metric_kind_builds_bare_scene():
    m = Manifest.from_dict(metric_manifest())
    assert m.version == "1"
    scene = m.build_scene()
    assert scene.chart.names == ("x", "y")
    got = scene.metric.matrix(np.array([0.5, -0.3]))
    assert np.allclose(got, np.diag([1.25, 1.0]))
    assert scene.partner is None
    assert scene.pair is None
    assert scene.endo is None
    assert scene.integrals == {}


def test_metric_kind_accepts_endomorphism_and_vector_field():
    d = metric_manifest()
    d["endomorphism"] = [["x", "0"], ["0", "y"]]
    d["vector_field"] = ["-y", "x"]
    scene = Manifest.from_dict(d).build_scene()
    x = np.array([0.5, 0.25])
    assert np.allclose(scene.endo.matrix(x), np.diag([0.5, 0.25]))
    assert scene.vector is not None
    assert np.allclose(scene.vector.values(x), [-0.25, 0.5])


def test_pair_kind_derives_the_endomorphism():
    scene = Manifest.from_dict(pair_manifest()).build_scene()
    assert scene.pair is not None
    # gbar = 2 g: L = (det gbar / det g)^{1/(n+1)} * inv(gbar) g = 2^{2/3}/2 I
    want = 2.0 ** (2.0 / 3.0) / 2.0
    got = scene.endo.matrix(scene.chart.center())
    assert np.allclose(got, want * np.eye(2), atol=1e-12)


def test_lc_kind_builds_pair_and_spec():
    scene = Manifest.from_dict(lc_manifest()).build_scene()
    assert scene.lc_spec is not None
    x = np.array([1.0, 0.3])
    assert np.allclose(scene.metric.matrix(x), np.eye(2))  # (2 - x) I at x=1
    assert np.allclose(scene.partner.matrix(x), np.diag([0.5, 0.25]))
    assert np.allclose(scene.endo.matrix(x), np.diag([1.0, 2.0]))


def test_liouville_kind_carries_its_integral():
    scene = Manifest.from_dict(liouville_manifest()).build_scene()
    assert scene.liouville is not None
    assert set(scene.integrals) == {"liouville_integral"}
    x = np.array([1.0, 1.0])
    assert np.allclose(scene.metric.matrix(x), 7.0 * np.eye(2))  # X - Y = 7
    # I = (Y px^2 + X py^2) / (X - Y) with X=4, Y=-3
    val = scene.integrals["liouville_integral"].value(x, np.array([1.0, 1.0]))
    assert abs(val - (4.0 - 3.0) / 7.0) < 1e-12


def test_example_kind_needs_no_chart():
    scene = Manifest.from_dict(
        {"geometry": {"kind": "example", "name": "example1", "gamma": 1.0}}
    ).build_scene()
    assert scene.bundle is not None
    assert set(scene.integrals) == {"H", "F1", "F2", "F3"}
    assert scene.vector is not None
    assert scene.chart.dim == 2


# -- rejection paths -------------------------------------------------------


def test_root_must_be_an_object():
    with pytest.raises(ManifestError, match="root must be an object"):
        Manifest.from_dict([1, 2, 3])


def test_geometry_block_is_required():
    with pytest.raises(ManifestError, match='"geometry"'):
        Manifest.from_dict({"chart": {"names": ["x"], "bounds": [[0, 1]]}})


def test_unknown_geometry_kind():
    d = metric_manifest()
    d["geometry"]["kind"] = "warped"
    with pytest.raises(ManifestError, match="'warped'"):
        Manifest.from_dict(d)


def test_non_example_kinds_need_a_chart():
    d = metric_manifest()
    del d["chart"]
    with pytest.raises(ManifestError, match='needs a "chart"'):
        Manifest.from_dict(d)


def test_chart_needs_names_and_bounds():
    d = metric_manifest()
    del d["chart"]["bounds"]
    with pytest.raises(ManifestError, match='"bounds"'):
        Manifest.from_dict(d)


def test_bad_expression_is_rejected_eagerly():
    d = metric_manifest()
    d["geometry"]["entries"][0][0] = "1 +"
    with pytest.raises(ManifestError, match="invalid"):
        Manifest.from_dict(d)


def test_unknown_run_parameter_is_named():
    d = metric_manifest()
    d["run"] = {"seed": 1, "nsteps": 100}
    with pytest.raises(ManifestError, match="nsteps"):
        Manifest.from_dict(d)


def test_bad_tolerance_override():
    d = metric_manifest()
    d["tolerances"] = {"bm_tolerance": 1e-6}
    with pytest.raises(ManifestError, match="bad tolerance override"):
        Manifest.from_dict(d)


@pytest.mark.parametrize("name", ["nijenhuis_tol", "weyl_flat_tol", "affine_tol",
                                  "delta_branch"])
def test_knobs_no_audit_reads_are_not_tolerances(name):
    d = metric_manifest()
    d["tolerances"] = {name: 1e-6}
    with pytest.raises(ManifestError, match=f"unknown tolerance name.*{name}"):
        Manifest.from_dict(d)


def test_tolerance_override_applies():
    d = metric_manifest()
    d["tolerances"] = {"bm_tol": 1e-5}
    m = Manifest.from_dict(d)
    assert m.tolerances.bm_tol == 1e-5
    assert m.tolerances.drift_bound == 1e-7  # untouched default


def test_run_parameters_parse_and_coerce():
    d = metric_manifest()
    d["run"] = {
        "seed": 3,
        "samples": 50,
        "horizon": 2,
        "geodesics": 4,
        "t_grid": [0, 1.5],
        "integral": "F1",
        "r": 2,
        "has_linear_reduction": True,
    }
    run = Manifest.from_dict(d).run
    assert run.seed == 3 and run.samples == 50 and run.geodesics == 4
    assert run.horizon == 2.0 and isinstance(run.horizon, float)
    assert run.t_grid == (0.0, 1.5)
    assert run.integral == "F1" and run.r == 2
    assert run.has_linear_reduction is True


@pytest.mark.parametrize("key, value", [
    ("has_linear_reduction", "false"),  # a non-empty string is truthy: Model1a read as 1b
    ("t_grid", "12"),                   # a string iterates as the times (1.0, 2.0)
    ("samples", 2.7),                   # int() truncates to 2
    ("seed", True),                     # a bool is the int 1
    ("integral", 5),                    # str() makes the name "5"
])
def test_run_parameter_of_the_wrong_json_type_is_refused(key, value):
    d = metric_manifest()
    d["run"] = {key: value}
    with pytest.raises(ManifestError,
                       match=f"run parameter '{key}' has the wrong type: {value!r}"):
        Manifest.from_dict(d)


@pytest.mark.parametrize("make", [pair_manifest, lc_manifest])
def test_geometry_endomorphism_conflict(make):
    d = make()
    d["endomorphism"] = [["1", "0"], ["0", "2"]]
    with pytest.raises(ManifestError, match="drop the manifest one"):
        Manifest.from_dict(d)


def test_scene_family_needs_metric_and_endomorphism():
    scene = Manifest.from_dict(metric_manifest()).build_scene()
    with pytest.raises(ManifestError, match="endomorphism"):
        scene.family()


# -- helpers on top of scenes ----------------------------------------------


def test_default_t_grid_straddles_spectrum():
    d = metric_manifest()
    d["geometry"]["entries"] = [["1", "0"], ["0", "1"]]
    d["endomorphism"] = [["1", "0"], ["0", "3"]]
    scene = Manifest.from_dict(d).build_scene()
    assert np.allclose(default_t_grid(scene), [0.0, 1.0, 2.0, 3.0, 4.0])


def test_seeded_states_unit_energy_and_determinism():
    chart = Chart(("x", "y"), ((-1.0, 1.0), (0.5, 2.0)))
    g = MetricField.from_rows(chart, [["1 + x^2", "0"], ["0", "y"]])
    a = seeded_states(g, chart, 12, seed=5)
    b = seeded_states(g, chart, 12, seed=5)
    c = seeded_states(g, chart, 12, seed=6)
    assert len(a) == 12
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.x, sb.x) and np.array_equal(sa.p, sb.p)
        assert chart.contains(sa.x)
        ginv = np.linalg.inv(g.matrix(sa.x))
        assert abs(float(sa.p @ ginv @ sa.p) - 1.0) < 1e-12
    assert any(not np.array_equal(sa.x, sc.x) for sa, sc in zip(a, c))


def test_seeded_states_equal_the_per_start_loop_bit_for_bit():
    from projeq import build_lc_pair, builtin_example, random_spec
    from projeq.sampling import halton_points

    torus = builtin_example("torus")
    g4 = build_lc_pair(random_spec(2, 4), partner=False)[0]
    for g, box in ((torus.metric, torus.init_box), (g4, g4.chart)):
        for seed in range(3):
            xs = box.sample(50, seed=seed)
            dirs = 2.0 * halton_points(50, g.dim, seed=seed + 101) - 1.0
            for state, x, d in zip(seeded_states(g, box, 50, seed), xs, dirs):
                if np.linalg.norm(d) < 1e-6:
                    d = np.eye(g.dim)[0]
                p = d / np.sqrt(float(d @ np.linalg.inv(g.matrix(x)) @ d))
                assert state.x.tobytes() == x.tobytes() and state.p.tobytes() == p.tobytes()


def test_seeded_states_refuse_the_first_numerically_singular_start():
    chart = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    g = MetricField.diagonal(chart, ["1", "exp(-40*(y+1))"], validate=False)
    xs = chart.sample(6, seed=1)
    conds = [np.linalg.cond(g.matrix(x)) for x in xs]
    first = next(k for k, c in enumerate(conds) if c >= 1e12)
    assert first > 0 and all(np.isfinite(conds))  # finite, invertible by np.linalg.inv
    with pytest.raises(SingularMetric) as err:
        seeded_states(g, chart, 6, seed=1)
    assert str(err.value) == f"metric numerically singular at {xs[first].tolist()}"


# -- file loading -----------------------------------------------------------


def test_load_round_trip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(lc_manifest()), encoding="utf-8")
    scene = Manifest.load(path).build_scene()
    assert scene.lc_spec is not None


def test_load_missing_file(tmp_path):
    with pytest.raises(ManifestError, match="cannot read manifest"):
        Manifest.load(tmp_path / "nope.json")


def test_load_corrupt_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ nope", encoding="utf-8")
    with pytest.raises(ManifestError, match="cannot read manifest"):
        Manifest.load(path)


@pytest.mark.parametrize("key, value", [
    ("chart", -1), ("chart", "abc"), ("run", 0), ("run", ["seed"]),
    ("vector_field", -1), ("vector_field", "x"), ("vector_field", [["1", "0"], ["0"]]),
    ("vector_field", [None, "1"]), ("endomorphism", [[None, "0"], ["0", "1"]]),
])
def test_malformed_sections_are_manifest_errors(key, value):
    with pytest.raises(ManifestError):
        Manifest.from_dict({**metric_manifest(), key: value})


@pytest.mark.parametrize("seed", [-1, 2 ** 31, 10 ** 300], ids=["-1", "2**31", "10**300"])
def test_seed_outside_its_window_range_is_rejected(seed):
    run = Manifest.from_dict({**metric_manifest(), "run": {"seed": seed}}).run
    with pytest.raises(ManifestError, match="run.seed"):
        run.check()



# 10**400 gave a bare OverflowError from float(); Manifest.load refuses it in a file
_HUGE = 10 ** 400
_HUGE_AT = {
    "run.horizon": {**lc_manifest(), "run": {"horizon": _HUGE}},
    "run.t_grid[1]": {**lc_manifest(), "run": {"t_grid": [0.0, _HUGE]}},
    "chart.bounds[0][1]": {**lc_manifest(), "chart": {
        "names": ["x", "y"], "bounds": [[0.1, _HUGE], [-1.0, 1.0]]}},
    "geometry.gamma": {"geometry": {"kind": "example", "name": "example1", "gamma": _HUGE}},
}


@pytest.mark.parametrize("key", list(_HUGE_AT))
def test_an_integer_beyond_the_float_range_is_a_manifest_error_naming_its_key(key):
    with pytest.raises(ManifestError) as err:
        Manifest.from_dict(_HUGE_AT[key])
    assert str(err.value) == f"{key} is an integer beyond the float range"
