"""End-to-end runs of the command-line entry point.

Each test drives main() directly with an argv list, a manifest written
to tmp_path, and a fresh output directory, then inspects exit code,
report.json, and any CSVs. Determinism is asserted byte-for-byte;
header.txt carries the only timestamp and is excluded.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from projeq.chart import Chart
from projeq.cli import main


def write_manifest(tmp_path, data, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(command, manifest, out, *extra):
    return main([command, "--manifest", manifest, "--out", str(out), *extra])


def report_of(out):
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def lc_manifest(**run_params):
    return {
        "chart": {"names": ["x", "y"], "bounds": [[0.1, 1.9], [-1.0, 1.0]]},
        "geometry": {"kind": "lc", "block_sizes": [1, 1], "phis": ["x", "2"]},
        "run": {"samples": 60, "geodesics": 3, "horizon": 1.0, **run_params},
    }


def liouville_manifest(**run_params):
    return {
        "chart": {"names": ["x", "y"], "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
        "geometry": {"kind": "liouville", "X": "3 + x^2", "Y": "-2 - y^2"},
        "run": {"samples": 60, "geodesics": 3, "horizon": 1.0, **run_params},
    }


# -- exit codes -------------------------------------------------------------


def test_check_bm_passes_on_lc_geometry(tmp_path):
    m = write_manifest(tmp_path, lc_manifest())
    out = tmp_path / "out"
    assert run("check-bm", m, out) == 0
    rep = report_of(out)
    assert rep["command"] == "check-bm" and rep["pass"] is True
    names = [a["audit"] for a in rep["audits"]]
    assert names == ["bm_residual_max"]
    assert (out / "header.txt").exists()


def test_check_bm_fails_on_incompatible_endomorphism(tmp_path):
    m = write_manifest(tmp_path, {
        "chart": {"names": ["x", "y"], "bounds": [[-2.0, 2.0], [-2.0, 2.0]]},
        "geometry": {"kind": "metric", "entries": [["1", "0"], ["0", "1"]]},
        "endomorphism": [["x", "0"], ["0", "0"]],
        "run": {"samples": 60},
    })
    out = tmp_path / "out"
    assert run("check-bm", m, out) == 1
    rep = report_of(out)
    assert rep["pass"] is False
    assert rep["audits"][0]["value"] > 0.1


def test_structural_error_exits_2_with_error_report(tmp_path, capsys):
    m = write_manifest(tmp_path, lc_manifest())  # no run.r
    out = tmp_path / "out"
    assert run("split", m, out) == 2
    rep = report_of(out)
    assert rep["pass"] is False
    assert rep["error"].startswith("ManifestError:")
    assert "run.r" in rep["error"]
    assert "error:" in capsys.readouterr().err


def test_split_position_past_the_spectrum_exits_2(tmp_path):
    m = write_manifest(tmp_path, lc_manifest(r=2))  # a 2-D chart splits only after 1
    out = tmp_path / "out"
    assert run("split", m, out) == 2
    assert report_of(out)["error"] == "ManifestError: split needs run.r <= 1, got 2"


def test_missing_manifest_file_exits_2(tmp_path):
    out = tmp_path / "out"
    assert run("check-bm", str(tmp_path / "nope.json"), out) == 2
    assert "cannot read manifest" in report_of(out)["error"]


def test_tol_override_rejections(tmp_path):
    m = write_manifest(tmp_path, lc_manifest())
    assert run("check-bm", m, tmp_path / "o1", "--tol", "nope=1") == 2
    assert "tolerance" in report_of(tmp_path / "o1")["error"]
    assert run("check-bm", m, tmp_path / "o2", "--tol", "bm_tol=abc") == 2
    assert "not numeric" in report_of(tmp_path / "o2")["error"]
    assert run("check-bm", m, tmp_path / "o3", "--tol", "bm_tol") == 2
    assert "KEY=VALUE" in report_of(tmp_path / "o3")["error"]


def test_tol_and_seed_overrides_are_echoed(tmp_path):
    m = write_manifest(tmp_path, lc_manifest())
    out = tmp_path / "out"
    rc = run("check-bm", m, out, "--seed", "7", "--tol", "bm_tol=1e-05")
    assert rc == 0
    rep = report_of(out)
    assert rep["run"]["seed"] == 7
    assert rep["tolerances"]["bm_tol"] == 1e-5
    assert rep["tolerances"]["drift_bound"] == 1e-7


LC3 = {
    "chart": {"names": ["x1", "x2", "x3"],
              "bounds": [[-1.0, 1.0], [-1.0, 1.0], [0.5, 1.5]]},
    "geometry": {"kind": "lc", "block_sizes": [1, 1, 1],
                 "phis": ["1 + 0.3*tanh(x1)", "3", "6 + x3^2"]},
}
FLAT2 = {
    "chart": {"names": ["x", "y"], "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
    "geometry": {"kind": "metric", "entries": [["1", "0"], ["0", "1"]]},
}
# geodesics that reach x > 0.95 leave sqrt's domain; of seed 2's six starts, a later one does
FRAGILE = "2 + sin(10*x) + 1e-300*sqrt(0.95 - x)"
FRAGILE_RUN = {**FLAT2, "geometry": {"kind": "metric", "entries": [[FRAGILE, "0"], ["0", FRAGILE]]},
               "run": {"seed": 2, "geodesics": 6, "horizon": 8.0}}
# the "metric" and "pair" bases of the exit-code contract below
CONTRACT_METRIC = {
    "chart": {"names": ["x", "y"], "bounds": [[0.5, 1.5], [-1.0, 1.0]]},
    "geometry": {"kind": "metric", "entries": [["1 + x^2", "0"], ["0", "2"]]},
    "endomorphism": [["x", "0"], ["0", "3"]],
    "vector_field": ["0", "1"],
}
CONTRACT_PAIR = {
    "chart": {"names": ["x", "y"], "bounds": [[0.1, 1.9], [-1.0, 1.0]]},
    "geometry": {"kind": "pair", "g": [["2 - x", "0"], ["0", "4 - 2*x"]],
                 "gbar": [["1", "0"], ["0", "1"]]},
}
# the "metric-1d" and "pair-numeric" bases: a chart with no Weyl tensor, and a pair
# whose JSON numbers fold to constants as the fields are built
CONTRACT_METRIC_1D = {
    "chart": {"names": ["x"], "bounds": [[0.5, 1.5]]},
    "geometry": {"kind": "metric", "entries": [["1 + x^2"]]},
    "endomorphism": [["x"]],
    "vector_field": ["1"],
}
CONTRACT_PAIR_NUMERIC = {
    "chart": CONTRACT_PAIR["chart"],
    "geometry": {"kind": "pair", "g": [[2, 0], [0, 4]], "gbar": [[1, 0], [0, 1]]},
}


@pytest.mark.parametrize("command, manifest, error, names", [
    ("check-bm", {**LC3, "run": {"seed": 0, "samples": 0}},
     "ManifestError", "run.samples"),
    ("check-bm", {**LC3, "run": {"samples": "abc"}},
     "ManifestError", "'samples'"),
    ("geodesic", {**LC3, "run": {"seed": 0, "geodesics": 2, "horizon": -1}},
     "ManifestError", "run.horizon"),
    ("geodesic", {**LC3, "run": {"geodesics": 2, "horizon": "inf"}},
     "ManifestError", "run.horizon"),
    ("geodesic", {**LC3, "run": {"geodesics": 0}},
     "ManifestError", "run.geodesics"),
    ("check-bm", {**FLAT2, "endomorphism": [["log(x)", "0"], ["0", "2"]],
                  "run": {"seed": 0, "samples": 200}},
     "DomainViolation", "log(x)"),
    ("geodesic", {**FLAT2, "geometry": {"kind": "metric", "entries": [
        ["1+x^2", "0"], ["0", "exp(1000*y)"]]},
        "run": {"seed": 0, "geodesics": 2, "horizon": 5.0}},
     "SingularMetric", "metric numerically singular at ["),
    ("check-bm", {**FLAT2, "geometry": {"kind": "metric", "entries": [
        ["1 + x^2", "0"], ["0"]]}, "run": {"samples": 20}},
     "ManifestError", "geometry.entries must be a 2 x 2 table"),
    ("check-bm", {**FLAT2, "endomorphism": [["x", "0", "0"], ["0", "1", "0"]],
                  "run": {"samples": 20}},
     "ManifestError", "endomorphism must be a 2 x 2 table"),
    ("pair", {**FLAT2, "geometry": {"kind": "pair", "g": [["1", "0"], ["0", "1"]],
                                    "gbar": "2"}, "run": {"samples": 20}},
     "ManifestError", "geometry.gbar must be a 2 x 2 table"),
    ("check-bm", {**FLAT2, "endomorphism": ["xy", "00"], "run": {"samples": 20}},
     "ManifestError", '"endomorphism" must be a list of rows'),
    ("check-bm", {**LC3, "run": {"samples": 1e300}},
     "ManifestError", "run.samples must be <= 10000"),
    ("geodesic", {**LC3, "run": {"geodesics": 1e300}},
     "ManifestError", "run.geodesics must be <= 10000"),
    ("check-bm", {**LC3, "run": {"samples": 10_001}},
     "ManifestError", "run.samples must be <= 10000"),
    *[("check-bm", {**LC3, "run": {"samples": 20}, "tolerances": {"bm_tol": value}},
       "ManifestError", "bm_tol") for value in ("abc", None, True, -1, float("nan"))],
    *[("conserve", {**LC3, "run": {"geodesics": 2, "horizon": 0.5, "t_grid": [t, 1.0]}},
       "ManifestError", f"run.t_grid times must be finite with |t| <= 1e+06, got {float(t)}")
      for t in ("inf", 1e300)],
    ("check-bm", {**LC3, "geometry": {**LC3["geometry"],
                                      "phis": [*LC3["geometry"]["phis"], "7"]}},
     "ManifestError", "block_sizes, phis, block_metrics must align"),
    ("geodesic", {"chart": {"names": ["x", "e"], "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
                  "geometry": {"kind": "metric", "entries": [["1", "0"], ["0", "1 + e^2"]]},
                  "run": {"seed": 0, "geodesics": 2, "horizon": 1.0}},
     "ManifestError", "coordinate name 'e'"),
    ("check-bm", {**CONTRACT_METRIC, "geometry": {**CONTRACT_METRIC["geometry"], "entries": [
        ["1 + x^2", "0"], ["0", 1e300]]}, "run": {"seed": 0, "samples": 12}},
     "DomainViolation", "non-finite g*L norm entry at ["),
    ("weyl", {**CONTRACT_METRIC_1D, "run": {"seed": 0, "samples": 12}},
     "WrongDimension", "the projective Weyl tensor needs dimension >= 2, got 1"),
    ("pair", {**CONTRACT_PAIR_NUMERIC, "geometry": {**CONTRACT_PAIR_NUMERIC["geometry"],
                                                    "gbar": [[0, 0], [0, 1]]},
              "run": {"seed": 0, "samples": 12}},
     "DomainViolation", "0.0 cannot be raised to a negative power in '(0.0)^"),
    ("classify2d", liouville_manifest(integral="liouville_intgral"),
     "ManifestError", "geometry has no integral 'liouville_intgral'; "
                      "available: ['liouville_integral']"),
    ("check-bm", {**CONTRACT_PAIR, "geometry": {**CONTRACT_PAIR["geometry"], "g": [
        ["2 - x", "0"], ["0", 1e300]]}, "run": {"seed": 0, "samples": 12}},
     "DomainViolation", "non-finite g*L entry at ["),
], ids=["samples-0", "samples-abc", "horizon-negative", "horizon-inf",
        "geodesics-0", "log-domain", "singular-metric", "entries-ragged",
        "endomorphism-2x3", "gbar-not-a-table", "endomorphism-not-rows",
        "samples-1e300", "geodesics-1e300", "samples-10001",
        "tol-abc", "tol-null", "tol-true", "tol-negative", "tol-nan",
        "t-grid-inf", "t-grid-1e300", "phis-longer-than-blocks", "coordinate-named-e",
        "metric-entry-1e300",
        "weyl-1d", "gbar-zero-determinant", "unknown-integral",
        "pair-entry-1e300"])
def test_bad_input_exits_2_with_named_error(tmp_path, command, manifest, error, names):
    m = write_manifest(tmp_path, manifest)
    out = tmp_path / "out"
    assert run(command, m, out) == 2
    rep = report_of(out)
    assert rep["pass"] is False
    assert rep["error"].startswith(f"{error}:")
    assert names in rep["error"]


def test_a_nan_metric_is_refused_at_the_first_start_point(tmp_path):
    # x^1000 overflows on this chart, so the metric is NaN everywhere
    bounds = [[2.5, 3.5], [-1.0, 1.0]]
    m = write_manifest(tmp_path, {
        "chart": {"names": ["x", "y"], "bounds": bounds},
        "geometry": {"kind": "metric", "entries": [["x^1000 - x^1000 + 1", "0"], ["0", "1"]]},
        "run": {"seed": 0, "geodesics": 2, "horizon": 1.0}})
    out = tmp_path / "out"
    assert run("geodesic", m, out) == 2
    start = Chart(("x", "y"), tuple(map(tuple, bounds))).sample(2, seed=0)[0].tolist()
    assert report_of(out)["error"] == f"DomainViolation: non-finite metric entry at {start}"


def test_a_numerically_singular_start_metric_is_refused_at_the_first_such_start(tmp_path):
    # finite and invertible, but condition >= 1e12 where y > -0.31
    bounds = [[-1.0, 1.0], [-1.0, 1.0]]
    m = write_manifest(tmp_path, {**FLAT2, "geometry": {"kind": "metric", "entries": [
        ["1", "0"], ["0", "exp(-40*(y+1))"]]}, "run": {"seed": 1, "geodesics": 6, "horizon": 1.0}})
    out = tmp_path / "out"
    assert run("geodesic", m, out) == 2
    xs = Chart(("x", "y"), tuple(map(tuple, bounds))).sample(6, seed=1)
    first = next(x for x in xs if np.exp(-40.0 * (x[1] + 1.0)) <= 1e-12)
    assert first.tolist() != xs[0].tolist()
    assert report_of(out)["error"] == (
        f"SingularMetric: metric numerically singular at {first.tolist()}")


def test_structural_error_leaves_no_trajectory_csv(tmp_path):
    singular = {**FLAT2, "geometry": {"kind": "metric", "entries": [
        ["1+x^2", "0"], ["0", "exp(1000*y)"]]},
        "run": {"seed": 0, "geodesics": 2, "horizon": 5.0}}
    # exp(1000*y) underflows at a start; FRAGILE_RUN's first trajectories finish
    # and a later one leaves sqrt's domain
    for label, manifest, error in (("singular", singular, "SingularMetric:"),
                                   ("fragile", FRAGILE_RUN, "DomainViolation: math domain")):
        m = write_manifest(tmp_path, manifest, name=f"{label}.json")
        out = tmp_path / label
        assert run("geodesic", m, out) == 2
        assert report_of(out)["error"].startswith(error)
        assert not list(out.glob("trajectory_*.csv"))


@pytest.mark.parametrize("item, key", [("integrator_tol=-1", "integrator_tol"),
                                       ("bm_tol=nan", "bm_tol")])
def test_tol_override_must_be_finite_and_positive(tmp_path, item, key):
    m = write_manifest(tmp_path, lc_manifest())
    out = tmp_path / "out"
    assert run("check-bm", m, out, "--tol", item) == 2
    rep = report_of(out)
    assert rep["error"].startswith("ManifestError:") and key in rep["error"]
    assert "audits" not in rep


def test_each_command_builds_its_scene_once(tmp_path, monkeypatch):
    from projeq.manifest import Manifest

    calls = []
    build = Manifest.build_scene

    def counting(self):
        calls.append(1)
        return build(self)

    monkeypatch.setattr(Manifest, "build_scene", counting)
    m = write_manifest(tmp_path, lc_manifest())
    assert run("check-bm", m, tmp_path / "out", "--seed", "3",
               "--tol", "bm_tol=1e-05") == 0
    assert len(calls) == 1


def test_geodesic_evaluates_energy_once_per_grid_time(tmp_path, monkeypatch):
    import projeq.geodesics as geodesics
    from projeq.geodesics import monitor_along
    from projeq.manifest import Manifest, seeded_states

    m = write_manifest(tmp_path, {**LC3, "run": {"seed": 0, "geodesics": 3, "horizon": 2.0}})
    calls = []
    ham = geodesics.hamiltonian

    def counting(g, x, p):
        calls.append(len(np.reshape(x, (-1, 3))))  # points evaluated in this call
        return ham(g, x, p)

    monkeypatch.setattr(geodesics, "hamiltonian", counting)
    out = tmp_path / "out"
    assert run("geodesic", m, out) == 0
    # one stacked call over the 201 grid times of each of the 3 trajectories
    assert calls == [3 * 201]
    # the drifts are the ones monitor_along gives on the same trajectories
    monkeypatch.setattr(geodesics, "hamiltonian", ham)
    man = Manifest.load(m)
    states = seeded_states(man.scene.metric, man.scene.chart, 3, 0)
    for audit, state in zip(report_of(out)["audits"], states):
        traj = geodesics.integrate_geodesic(man.scene.metric, state, 2.0,
                                            tol=man.tolerances.integrator_tol)
        drift = monitor_along(traj, lambda x, p: ham(man.scene.metric, x, p))["drift"]
        assert audit["value"] == drift


def test_monitored_columns_equal_per_point_monitoring(tmp_path):
    import projeq.cli as cli
    from projeq.geodesics import integrate_geodesic, monitor_along
    from projeq.manifest import Manifest, seeded_states

    m = write_manifest(tmp_path, {**LC3, "run": {"seed": 0, "geodesics": 2, "horizon": 2.0}})
    assert run("geodesic", m, tmp_path / "geo") == 0
    assert run("conserve", m, tmp_path / "con") == 0
    man = Manifest.load(m)
    scene = man.scene
    monitored = cli._monitored(scene, man.run)
    assert len(monitored) == 5
    rows = (tmp_path / "con" / "conserve.csv").read_text().splitlines()[1:]
    for idx, state in enumerate(seeded_states(scene.metric, scene.chart, 2, 0)):
        traj = integrate_geodesic(scene.metric, state, 2.0,
                                  tol=man.tolerances.integrator_tol)
        ys = traj.sample(np.linspace(traj.ts[0], traj.t_end, 201))
        lines = (tmp_path / "geo" / f"trajectory_{idx:03d}.csv").read_text().splitlines()
        header = lines[0].split(",")
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        for k, (name, fn) in enumerate(monitored):
            # each point on its own against the stacked column
            assert table[:, header.index(name)].tolist() == [fn(y[:3], y[3:]) for y in ys]
            d = monitor_along(traj, fn)
            row = rows[idx * len(monitored) + k].split(",")
            assert row[:2] == [repr(float(idx)), name]
            assert [float(v) for v in row[2:]] == [
                d["first"], d["last"], d["min"], d["max"], d["drift"]]


def test_the_family_columns_build_g_and_l_once(tmp_path, monkeypatch):
    from projeq.fields import EndomorphismField, MetricField

    rows = 20 * 201  # lc3's 20 geodesics on monitor_along's grid
    calls = {"g": 0, "L": 0}

    def counting(cls, key):
        matrix = cls.matrix

        def wrapper(self, x):
            calls[key] += np.shape(x)[:1] == (rows,)
            return matrix(self, x)

        monkeypatch.setattr(cls, "matrix", wrapper)

    counting(MetricField, "g")
    counting(EndomorphismField, "L")
    lc3 = Path(__file__).parents[1] / "perfbench" / "manifests" / "lc3.json"
    assert run("conserve", str(lc3), tmp_path / "out") == 0
    # H's column, then every I_t column from one build of each (five of each before)
    assert calls == {"g": 2, "L": 1}


@pytest.mark.parametrize("command, audit, tol, code", [
    ("check-bm", "bm_residual_max", "bm_tol", 0),         # at most: passes at its bound
    ("split", "h_positive_definite", "eps_pd", 1),       # above: fails at its bound
    ("lc-build", "ordering_margin", "ordering_margin", 0),  # at least: passes at its bound
])
def test_each_verdict_rule_at_its_bound(tmp_path, command, audit, tol, code):
    lc3 = str(Path(__file__).parents[1] / "perfbench" / "manifests" / "lc3.json")
    assert run(command, lc3, tmp_path / "free") == 0
    value = next(a["value"] for a in report_of(tmp_path / "free")["audits"]
                 if a["audit"] == audit)
    out = tmp_path / "at-bound"
    assert run(command, lc3, out, "--tol", f"{tol}={value!r}") == code
    rep = report_of(out)
    assert rep["tolerances"][tol] == value
    failed = [a["audit"] for a in rep["audits"] if not a["pass"]]
    assert failed == ([audit] if code else [])


def test_a_non_finite_monitored_value_is_a_structural_error(tmp_path, monkeypatch):
    import projeq.cli as cli

    monitored = cli._monitored

    def with_nan(scene, run):  # a quantity that is NaN from the 41st sample on
        return monitored(scene, run) + [
            ("nan", lambda x, p: np.where(np.arange(len(x)) >= 40, np.nan, 0.0))]

    monkeypatch.setattr(cli, "_monitored", with_nan)
    m = write_manifest(tmp_path, {**LC3, "run": {"seed": 0, "geodesics": 1, "horizon": 1.0}})
    for command in ("geodesic", "conserve"):
        out = tmp_path / command
        assert run(command, m, out) == 2
        assert report_of(out)["error"].startswith(
            "DomainViolation: non-finite monitored value entry at [")


def test_a_nan_in_a_later_trajectory_is_named_where_the_per_trajectory_loop_names_it(
        tmp_path, monkeypatch):
    import projeq.cli as cli
    from projeq.errors import DomainViolation
    from projeq.geodesics import hamiltonian, integrate_geodesic, monitored_values
    from projeq.manifest import Manifest, seeded_states

    m = write_manifest(tmp_path, {**LC3, "run": {"seed": 0, "geodesics": 3, "horizon": 1.0}})
    man = Manifest.load(m)
    g = man.scene.metric
    ys = [traj.sample(np.linspace(traj.ts[0], traj.t_end, 201))
          for traj in (integrate_geodesic(g, s, 1.0, tol=man.tolerances.integrator_tol)
                       for s in seeded_states(g, man.scene.chart, 3, 0))]

    def nan_at(point):
        return lambda x, p: np.where(np.all(x == point, axis=-1), np.nan, x[..., 0])

    # the first added column is NaN on trajectory 2, the second on trajectory 1
    extra = [("a", nan_at(ys[2][17, :3])), ("b", nan_at(ys[1][40, :3]))]
    fns = ([lambda x, p: hamiltonian(g, x, p)]
           + [fn for _, fn in cli._monitored(man.scene, man.run) + extra])
    with pytest.raises(DomainViolation) as loop:  # trajectory by trajectory, column by column
        for y in ys:
            for fn in fns:
                monitored_values(fn, y[:, :3], y[:, 3:])
    assert loop.value.point == ys[1][40, :3].tolist()

    monitored = cli._monitored
    monkeypatch.setattr(cli, "_monitored", lambda scene, run: monitored(scene, run) + extra)
    for command in ("geodesic", "conserve"):
        out = tmp_path / command
        assert run(command, m, out) == 2
        assert report_of(out)["error"] == f"DomainViolation: {loop.value}"


def counting_lockstep(monkeypatch):
    """The list that each later _lockstep call appends its start's shape to."""
    import projeq.geodesics as geodesics

    calls, lockstep = [], geodesics._lockstep

    def counting(rhs, y, *args):
        calls.append(y.shape)
        return lockstep(rhs, y, *args)

    monkeypatch.setattr(geodesics, "_lockstep", counting)
    return calls


def first_integration_error(man):
    """(k, error) of the first seeded start whose one-state run raises."""
    from projeq.errors import ProjeqError
    from projeq.geodesics import integrate_geodesic
    from projeq.manifest import seeded_states

    g = man.scene.metric
    for k, state in enumerate(seeded_states(g, man.scene.chart, man.run.geodesics, man.run.seed)):
        try:
            integrate_geodesic(g, state, man.run.horizon, tol=man.tolerances.integrator_tol)
        except ProjeqError as e:
            return k, e
    return None, None


def test_an_integration_failure_is_replayed_once_up_to_its_start(tmp_path, monkeypatch):
    from projeq.manifest import Manifest

    m = write_manifest(tmp_path, FRAGILE_RUN)
    k, error = first_integration_error(Manifest.load(m))
    assert k is not None and k > 0
    calls = counting_lockstep(monkeypatch)
    out = tmp_path / "out"
    assert run("geodesic", m, out) == 2
    assert report_of(out)["error"] == f"{type(error).__name__}: {error}"
    # the stacked attempt, then integrate's replay of starts 0..k
    assert calls == [(6, 4)] + [(1, 4)] * (k + 1)


def test_a_sampling_failure_integrates_nothing_again(tmp_path, monkeypatch):
    import projeq.cli as cli
    from projeq.geodesics import integrate_geodesic
    from projeq.manifest import Manifest, seeded_states

    m = write_manifest(tmp_path, {**LC3, "run": {"seed": 0, "geodesics": 3, "horizon": 1.0}})
    man = Manifest.load(m)
    g = man.scene.metric
    last = integrate_geodesic(g, seeded_states(g, man.scene.chart, 3, 0)[-1], 1.0,
                              tol=man.tolerances.integrator_tol)
    point = last.sample(last.t_end)[:3]  # the last sample of the last trajectory
    monitored = cli._monitored
    monkeypatch.setattr(cli, "_monitored", lambda scene, run: monitored(scene, run) + [
        ("nan", lambda x, p: np.where(np.all(x == point, axis=-1), np.nan, 0.0))])
    calls = counting_lockstep(monkeypatch)
    out = tmp_path / "out"
    assert run("geodesic", m, out) == 2
    assert report_of(out)["error"] == (
        f"DomainViolation: non-finite monitored value entry at {point.tolist()}")
    assert calls == [(3, 6)]


def test_an_integration_error_wins_over_an_earlier_sampling_error(tmp_path, monkeypatch):
    import projeq.cli as cli
    from projeq.manifest import Manifest, seeded_states

    m = write_manifest(tmp_path, FRAGILE_RUN)
    man = Manifest.load(m)
    k, error = first_integration_error(man)
    start = seeded_states(man.scene.metric, man.scene.chart, 6, 2)[0].x
    assert k > 0  # trajectory 0 integrates, and its first sample is NaN
    monitored = cli._monitored
    monkeypatch.setattr(cli, "_monitored", lambda scene, run: monitored(scene, run) + [
        ("nan", lambda x, p: np.where(np.all(x == start, axis=-1), np.nan, 0.0))])
    out = tmp_path / "out"
    assert run("geodesic", m, out) == 2
    assert report_of(out)["error"] == f"{type(error).__name__}: {error}"


# -- CSV contracts ----------------------------------------------------------


def test_geodesic_csv_layout(tmp_path):
    m = write_manifest(tmp_path, lc_manifest(
        geodesics=2, horizon=0.5, t_grid=[0.0, 3.0]))
    out = tmp_path / "out"
    assert run("geodesic", m, out) == 0
    rep = report_of(out)
    assert rep["csv_files"] == ["trajectory_000.csv", "trajectory_001.csv"]
    lines = (out / "trajectory_000.csv").read_text().splitlines()
    assert lines[0] == "t,x_x,x_y,p_x,p_y,H,I(t=0.0),I(t=3.0)"
    assert len(lines) == 202  # header + 201 samples
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and len(first) == 8
    assert [a["audit"] for a in rep["audits"]] == [
        "energy_drift[0]", "energy_drift[1]"]


def test_conserve_csv_layout(tmp_path):
    m = write_manifest(tmp_path, liouville_manifest())
    out = tmp_path / "out"
    assert run("conserve", m, out) == 0
    lines = (out / "conserve.csv").read_text().splitlines()
    assert lines[0] == "trajectory,integral,first,last,min,max,drift"
    assert len(lines) == 1 + 3  # 3 trajectories x 1 integral
    assert all(row.split(",")[1] == "liouville_integral" for row in lines[1:])
    names = [a["audit"] for a in report_of(out)["audits"]]
    assert names == ["drift[liouville_integral]", "energy_drift"]


def test_conserve_on_endomorphism_scene_adds_structure_audits(tmp_path):
    m = write_manifest(tmp_path, lc_manifest(t_grid=[0.0, 3.0]))
    out = tmp_path / "out"
    assert run("conserve", m, out) == 0
    rep = report_of(out)
    names = [a["audit"] for a in rep["audits"]]
    assert names == [
        "drift[I(t=0.0)]", "drift[I(t=3.0)]", "energy_drift",
        "commutation", "interlacing", "eigenvalue_ordering",
    ]
    assert len(rep["detail"]["ordering_bands"]) == 1


# -- determinism ------------------------------------------------------------


def test_same_seed_runs_are_byte_identical(tmp_path):
    m = write_manifest(tmp_path, liouville_manifest())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("conserve", m, out1) == 0
    assert run("conserve", m, out2) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "conserve.csv").read_bytes() == (out2 / "conserve.csv").read_bytes()


def test_seed_changes_the_sampled_states(tmp_path):
    m = write_manifest(tmp_path, liouville_manifest(geodesics=1))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("conserve", m, out1, "--seed", "0") == 0
    assert run("conserve", m, out2, "--seed", "7") == 0
    assert (out1 / "conserve.csv").read_bytes() != (out2 / "conserve.csv").read_bytes()


# -- remaining commands -----------------------------------------------------


def test_pair_command_builds_partner_from_endomorphism(tmp_path):
    m = write_manifest(tmp_path, {
        "chart": {"names": ["x", "y"], "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
        "geometry": {"kind": "metric", "entries": [["1", "0"], ["0", "1"]]},
        "endomorphism": [["2", "0"], ["0", "3"]],
        "run": {"samples": 60},
    })
    out = tmp_path / "out"
    assert run("pair", m, out) == 0
    rep = report_of(out)
    assert rep["detail"]["built"] == "partner"
    names = [a["audit"] for a in rep["audits"]]
    assert names == ["partner_positive_definite", "round_trip_endo"]


def test_pair_command_derives_endomorphism_from_pair(tmp_path):
    m = write_manifest(tmp_path, {
        "chart": {"names": ["x", "y"], "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
        "geometry": {"kind": "pair",
                     "g": [["1", "0"], ["0", "1"]],
                     "gbar": [["2", "0"], ["0", "2"]]},
        "run": {"samples": 60},
    })
    out = tmp_path / "out"
    assert run("pair", m, out) == 0
    rep = report_of(out)
    assert rep["detail"]["built"] == "endomorphism"
    want = 2.0 ** (2.0 / 3.0) / 2.0
    assert abs(rep["detail"]["spectrum_at_center"][0] - want) < 1e-12
    assert [a["audit"] for a in rep["audits"]] == ["self_adjoint_defect"]


def test_weyl_command_on_pair(tmp_path):
    m = write_manifest(tmp_path, {
        "chart": {"names": ["x", "y"], "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
        "geometry": {"kind": "pair",
                     "g": [["1 + x^2", "0"], ["0", "1"]],
                     "gbar": [["2 + 2*x^2", "0"], ["0", "2"]]},
        "run": {"samples": 40},
    })
    out = tmp_path / "out"
    assert run("weyl", m, out) == 0
    names = [a["audit"] for a in report_of(out)["audits"]]
    assert names == ["weyl_trace_defect", "weyl_pair_invariance"]


def test_classify2d_on_liouville_integral(tmp_path):
    m = write_manifest(tmp_path, liouville_manifest())
    out = tmp_path / "out"
    assert run("classify2d", m, out) == 0
    rep = report_of(out)
    assert rep["detail"]["integral"] == "liouville_integral"
    assert rep["detail"]["model"] == "Model1a"
    g = rep["detail"]["coefficients"]["gamma"]
    assert abs(g["re"] - 0.25) < 1e-8 and abs(g["im"]) < 1e-8


def test_lc_build_command(tmp_path):
    m = write_manifest(tmp_path, lc_manifest())
    out = tmp_path / "out"
    assert run("lc-build", m, out) == 0
    rep = report_of(out)
    assert [a["audit"] for a in rep["audits"]] == [
        "bm_residual_max", "partner_round_trip", "ordering_margin",
        "g_positive_definite", "gbar_positive_definite",
    ]
    assert rep["detail"]["block_sizes"] == [1, 1]
    assert rep["detail"]["l_at_center"][0][0] == 1.0  # phi_1 = x at center


def test_lc_build_positive_definiteness_follows_the_run_eps_pd(tmp_path):
    m = write_manifest(tmp_path, lc_manifest())
    out = tmp_path / "out"
    assert run("lc-build", m, out, "--tol", "eps_pd=1e3") == 1
    audits = {a["audit"]: a for a in report_of(out)["audits"]}
    for name in ("g_positive_definite", "gbar_positive_definite"):
        assert audits[name]["threshold"] == 1e3
        assert audits[name]["value"] < 1e3 and audits[name]["pass"] is False
    assert audits["bm_residual_max"]["pass"] is True


def test_pair_positive_definiteness_follows_the_run_eps_pd(tmp_path):
    m = write_manifest(tmp_path, {
        "chart": {"names": ["x", "y"], "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
        "geometry": {"kind": "metric", "entries": [["1", "0"], ["0", "1"]]},
        "endomorphism": [["2", "0"], ["0", "3"]],
        "run": {"samples": 60},
    })
    out = tmp_path / "out"
    assert run("pair", m, out, "--tol", "eps_pd=0.1") == 1
    audit = report_of(out)["audits"][0]
    assert audit["audit"] == "partner_positive_definite"
    # gbar = det(L)^-1 L^-1 g = diag(1/12, 1/18): its smallest eigenvalue is below 0.1
    assert audit["value"] == pytest.approx(1.0 / 18.0) and audit["threshold"] == 0.1
    assert audit["pass"] is False


def test_split_command(tmp_path):
    m = write_manifest(tmp_path, lc_manifest(r=1))
    out = tmp_path / "out"
    assert run("split", m, out) == 0
    rep = report_of(out)
    assert [a["audit"] for a in rep["audits"]] == [
        "h_positive_definite", "spectral_gap"]
    assert rep["detail"]["gap_min"] > 0.05


def test_example_command_runs_expected_audits(tmp_path):
    m = write_manifest(tmp_path, {
        "geometry": {"kind": "example", "name": "example1", "gamma": 1.0},
        "run": {"samples": 40, "geodesics": 2, "horizon": 0.8},
    })
    out = tmp_path / "out"
    assert run("example", m, out) == 0
    rep = report_of(out)
    names = [a["audit"] for a in rep["audits"]]
    for expected in ("drift[H]", "drift[F1]", "energy_drift",
                     "killing[rotation]", "model[F1]", "model[F2]",
                     "model[F3]", "energy_proportional[H]"):
        assert expected in names, names
    assert (out / "conserve.csv").exists()


# (audit, value, pass) of `projeq example` per bundle at seed 3, 40 samples,
# 2 geodesics, horizon 0.8: the audits each bundle's `expected` dict asks for
EXAMPLE_AUDITS = {
    "example1": [
        ("drift[F1]", 3.1491393936988743e-09, True),
        ("drift[F2]", 5.721793705504297e-09, True),
        ("drift[F3]", 5.530224278516016e-09, True),
        ("drift[H]", 3.997859478961964e-09, True),
        ("energy_drift", 1.998929632929247e-09, True),
        ("killing[rotation]", 0.0, True),
        ("model[F1]", "Model1a", True),
        ("model[F2]", "Model4", True),
        ("model[F3]", "Model1a", True),
        ("energy_proportional[H]", "EnergyProportional", True),
    ],
    "example2": [
        ("drift[F1]", 2.2297308444052533e-10, True),
        ("drift[F2]", 9.643641440959527e-10, True),
        ("drift[H]", 4.855709166839793e-10, True),
        ("energy_drift", 2.4278551391532233e-10, True),
        ("killing[rotation]", 161.4703125, True),
        ("model[F1]", "Model1a", True),
        ("model[F2]", "Model2", True),
        ("energy_proportional[H]", "EnergyProportional", True),
    ],
    "torus": [
        ("drift[pair_integral]", 4.129574857942752e-09, True),
        ("energy_drift", 1.7769924420818484e-09, True),
        ("pair_bm_residual", 3.656724963592031e-15, True),
        ("weight_margin", 1.5117557578614607, True),
        ("weight_partner_margin", 1.5166532580491605, True),
    ],
    "sphere_beltrami": [
        ("energy_drift[0]", 3.6996872232464284e-10, True),
        ("energy_drift[1]", 5.6515070401275125e-11, True),
        ("flow_bm_residual", 2.3492688905335513e-09, True),
        ("sectional_curvature", 5.551115123125783e-16, True),
    ],
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_AUDITS))
def test_example_command_audits_are_frozen(tmp_path, name):
    m = write_manifest(tmp_path, {
        "geometry": {"kind": "example", "name": name},
        "run": {"seed": 3, "samples": 40, "geodesics": 2, "horizon": 0.8},
    })
    out = tmp_path / "out"
    assert run("example", m, out) == 0
    got = [(a["audit"], a["value"], a["pass"]) for a in report_of(out)["audits"]]
    want = EXAMPLE_AUDITS[name]
    assert [(a, p) for a, _, p in got] == [(a, p) for a, _, p in want]
    for (audit, value, _), (_, pinned, _) in zip(got, want):
        if isinstance(pinned, str):
            assert value == pinned, audit
        else:
            assert value == pytest.approx(pinned, rel=1e-6, abs=1e-12), audit


def test_the_parser_offers_the_commands_cli_runs():
    from projeq import cli, request

    command = next(a for a in request.build_parser()._actions if a.dest == "command")
    assert tuple(command.choices) == tuple(cli._DISPATCH)


def test_a_run_error_is_reported_before_a_geometry_error(tmp_path):
    # the data stage checks the run budgets before the scene is built
    bad_phis = {**LC3["geometry"], "phis": ["1 + (x1", "3", "6 + x3^2"]}
    errors = {}
    for label, doc in (("both", {**LC3, "geometry": bad_phis, "run": {"samples": 0}}),
                       ("run", {**LC3, "run": {"samples": 0}}),
                       ("geometry", {**LC3, "geometry": bad_phis})):
        out = tmp_path / label
        assert run("check-bm", write_manifest(tmp_path, doc), out) == 2
        errors[label] = report_of(out)["error"]
    assert errors["both"] == errors["run"] == "ManifestError: run.samples must be >= 1, got 0"
    assert errors["geometry"].startswith("ManifestError: geometry 'lc' invalid: ")


def test_unknown_command_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--manifest", "x", "--out", "y"])
    assert exc.value.code == 2


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("check-bm", "pair", "geodesic", "conserve", "weyl", "classify2d",
                    "lc-build", "split", "example"):
        assert command in out


def test_a_missing_out_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-bm", "--manifest", str(tmp_path / "m.json")])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# -- the exit-code contract on mutated manifests ------------------------------

CONTRACT_RUN = {"seed": 0, "samples": 12, "geodesics": 1, "horizon": 0.5, "r": 1}
# one well-formed manifest per geometry kind, each a starting point for mutation
CONTRACT_BASES = {
    "lc": LC3,
    "metric": CONTRACT_METRIC,
    "pair": CONTRACT_PAIR,
    "liouville": liouville_manifest(),
    "example": {"geometry": {"kind": "example", "name": "example1", "gamma": 1.0}},
    "metric-1d": CONTRACT_METRIC_1D,
    "pair-numeric": CONTRACT_PAIR_NUMERIC,
}
# where a value may be replaced (a missing key is added)
COMMON_PATHS = [
    ("chart",), ("chart", "names"), ("chart", "names", 0), ("chart", "names", 1),
    ("chart", "bounds"), ("chart", "bounds", 0), ("chart", "bounds", 0, 1),
    ("chart", "bounds", 1, 0), ("chart", "bounds", 2, 1), ("geometry",), ("geometry", "kind"),
    ("endomorphism",), ("run",), ("run", "seed"), ("run", "samples"), ("run", "geodesics"),
    ("run", "horizon"), ("run", "t_grid"), ("run", "r"), ("run", "integral"),
]
KIND_PATHS = {
    "lc": [("geometry", "block_sizes"), ("geometry", "block_sizes", 1), ("geometry", "phis"),
           ("geometry", "phis", 0), ("geometry", "phis", 2), ("geometry", "entries")],
    "metric": [("geometry", "entries"), ("geometry", "entries", 0), ("geometry", "entries", 1, 1),
               ("endomorphism", 0), ("endomorphism", 1, 0), ("vector_field",),
               ("vector_field", 1)],
    "pair": [("geometry", "g"), ("geometry", "g", 1, 1), ("geometry", "gbar"),
             ("geometry", "gbar", 0, 0), ("vector_field",)],
    "liouville": [("geometry", "X"), ("geometry", "Y"), ("vector_field",)],
    "example": [("geometry", "name"), ("geometry", "gamma"), ("vector_field",)],
    "metric-1d": [("geometry", "entries"), ("geometry", "entries", 0),
                  ("geometry", "entries", 0, 0), ("endomorphism", 0), ("endomorphism", 0, 0),
                  ("vector_field",), ("vector_field", 0)],
    "pair-numeric": [("geometry", "g"), ("geometry", "g", 0, 0), ("geometry", "g", 1, 1),
                     ("geometry", "gbar"), ("geometry", "gbar", 0, 0), ("vector_field",)],
}
BAD_VALUES = [0, -1, "abc", None, [], [["1", "0"], ["0"]], "log(x1)", "x", "y",
              [1.0, -1.0], [0.5, 0.5], ["x", "x"], float("nan"), 1e300, "inf",
              ["inf", 1.0], ["1", "2", "3", "4"]]


def mutated_manifests():
    """(base kind, mutations): one or two (path, value) pairs on that base."""
    return st.sampled_from(sorted(CONTRACT_BASES)).flatmap(lambda kind: st.tuples(
        st.just(kind),
        st.lists(st.tuples(st.sampled_from(COMMON_PATHS + KIND_PATHS[kind]),
                           st.sampled_from(BAD_VALUES)), min_size=1, max_size=2)))


def mutate(doc, path, value):
    """Set doc[path] = value in place; a path through a value that is no
    longer a container, or past the end of a list, is left alone."""
    *head, last = path
    for key in head:
        if isinstance(doc, dict) and key in doc:
            doc = doc[key]
        elif isinstance(doc, list) and isinstance(key, int) and key < len(doc):
            doc = doc[key]
        else:
            return
    if isinstance(doc, dict) or (isinstance(doc, list) and isinstance(last, int)
                                 and last < len(doc)):
        doc[last] = value


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_manifests())
def test_cli_contract_holds_on_mutated_manifests(tmp_path, case):
    kind, mutations = case
    doc = json.loads(json.dumps({**CONTRACT_BASES[kind], "run": CONTRACT_RUN}))
    for path, value in mutations:
        mutate(doc, path, value)
    m = write_manifest(tmp_path, doc)
    with warnings.catch_warnings():  # a numpy warning breaks the contract as any exception does
        warnings.simplefilter("error", RuntimeWarning)
        for command in ("check-bm", "pair", "geodesic", "conserve", "weyl", "classify2d",
                        "lc-build", "split", "example"):
            out = tmp_path / command
            if out.exists():
                for f in out.iterdir():
                    f.unlink()
            code = run(command, m, out)
            assert code in (0, 1, 2)
            rep = report_of(out)
            if code == 1:
                assert any(a["pass"] is False for a in rep["audits"])
            if code == 2:
                assert "error" in rep


# a profile of 1e300 overflowed the profile-sign test and the condition cap
@pytest.mark.parametrize("key, value", [("X", 1e300), ("X", "1e300*x"), ("Y", -1e300)])
def test_huge_liouville_profiles_keep_the_contract_under_warnings_as_errors(tmp_path, key,
                                                                            value):
    doc = {**liouville_manifest(), "run": CONTRACT_RUN}
    doc["geometry"] = {**doc["geometry"], key: value}
    m = write_manifest(tmp_path, doc)
    crossing = isinstance(value, str)  # X - Y changes sign on the chart
    want = {"check-bm": "DomainViolation", "pair": "DomainViolation", "weyl": "SingularMetric",
            "geodesic": None, "conserve": None, "classify2d": None}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for command, error in want.items():
            out = tmp_path / command
            code = run(command, m, out)
            rep = report_of(out)
            if crossing:
                assert code == 2 and rep["error"].startswith("ManifestError: geometry 'liouville'")
            elif error is None:
                assert code == 0 and rep["pass"] is True
            else:
                assert code == 2 and rep["error"].startswith(f"{error}:")


@pytest.mark.parametrize("value", [1e300, "1e300", "1e300*x"])
def test_an_overflowing_pencil_product_is_refused_under_any_warning_filter(tmp_path, value):
    doc = {**CONTRACT_PAIR, "run": CONTRACT_RUN}
    doc["geometry"] = {**doc["geometry"], "g": [["2 - x", "0"], ["0", value]]}
    m = write_manifest(tmp_path, doc)
    for command in ("pair", "split"):
        errors = []
        for action in ("ignore", "error"):
            out = tmp_path / f"{command}-{action}"
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                assert run(command, m, out) == 2
            errors.append(report_of(out)["error"])
        assert errors[0] == errors[1]
        assert errors[0].startswith("DomainViolation: non-finite pencil product entry at [")


def test_an_overflowing_determinant_is_refused_under_any_warning_filter(tmp_path):
    # det g overflows: numpy's det warned, or gave inf / inf read as a degenerate pair
    doc = {**CONTRACT_METRIC, "run": CONTRACT_RUN}
    doc["geometry"] = {**doc["geometry"], "entries": [["1 + x^2", "0"], ["0", 1e308]]}
    m = write_manifest(tmp_path, doc)
    errors = []
    for action in ("ignore", "error"):
        out = tmp_path / action
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            assert run("pair", m, out) == 2
        errors.append(report_of(out)["error"])
    assert errors[0] == errors[1]
    assert errors[0].startswith("DomainViolation: non-finite determinant entry at [")


def test_a_non_finite_surface_fit_is_refused_before_its_svd(tmp_path):
    # z^2 overflows at y = -1e300; without the refusal the SVD on an inf matrix
    # never returned, so the test runs under the filter that fails it fast
    doc = {**CONTRACT_PAIR, "run": CONTRACT_RUN}
    doc["chart"] = {**doc["chart"], "bounds": [[0.1, 1.9], [-1e300, 1.0]]}
    m = write_manifest(tmp_path, doc)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("classify2d", m, out) == 2
    assert report_of(out)["error"].startswith("DomainViolation: non-finite fit matrix entry at [")


def test_a_horizon_whose_steps_do_not_advance_t_exits_2_at_once(tmp_path):
    # 5e-324: the first step and its floor h_min both underflow to 0.0
    m = write_manifest(tmp_path, {**LC3, "run": {"geodesics": 2, "horizon": 5e-324}})
    out = tmp_path / "out"
    assert run("geodesic", m, out) == 2
    assert report_of(out)["error"] == (
        "StepUnderflow: step size 0.000e+00 does not advance t=0")


def test_an_infinite_literal_keeps_the_contract(tmp_path):
    m = write_manifest(tmp_path, {**FLAT2, "chart": {
        "names": ["x", "y"], "bounds": [[0.5, 1.0], [-1.0, 1.0]]}, "geometry": {
        "kind": "metric", "entries": [["1 + 1/(x - 2)^1e400", "0"], ["0", "1"]]},
        "run": {"geodesics": 2, "horizon": 1.0}})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("geodesic", m, out) == 2
    assert report_of(out)["error"].startswith(
        "DomainViolation: negative base -1.")
    assert "to the power inf in '1 + 1 / (x - 2)^inf' at [" in report_of(out)["error"]


_LC3_TEXT = json.dumps({**LC3, "run": {"geodesics": 2, "horizon": 0}})


@pytest.mark.parametrize("data, names", [
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    (_LC3_TEXT.encode()[:-1] + b" \xff}", "'utf-8' codec can't decode byte 0xff"),
    (_LC3_TEXT.replace('"horizon": 0', '"horizon": ' + "9" * 5001).encode(),
     "Exceeds the limit (4300 digits)"),
    (_LC3_TEXT.replace('"horizon": 0', '"horizon": ' + "9" * 401).encode(),
     "an integer literal of 401 characters is beyond the float range"),
], ids=["nested-100000-deep", "not-utf-8", "integer-5001-digits", "integer-401-digits"])
def test_a_manifest_beyond_the_json_limits_exits_2(tmp_path, data, names):
    path = tmp_path / "m.json"
    path.write_bytes(data)
    out = tmp_path / "out"
    assert run("geodesic", str(path), out) == 2
    assert report_of(out)["error"].startswith(f"ManifestError: cannot read manifest {path}: ")
    assert names in report_of(out)["error"]


def test_out_naming_an_existing_file_exits_2(tmp_path, capsys):
    m = write_manifest(tmp_path, lc_manifest())
    out = tmp_path / "taken"
    out.write_text("not a directory", encoding="utf-8")
    assert run("check-bm", m, out) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write to --out {out}: ")
    assert out.read_text(encoding="utf-8") == "not a directory"
