"""End-to-end runs of the command-line entry point.

Each test drives main() directly with an argv list, a manifest written
to tmp_path, and a fresh output directory, then inspects exit code,
report.json, and any CSVs. Determinism is asserted byte-for-byte;
header.txt carries the only timestamp and is excluded.
"""

import json

import pytest

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
     "SingularMetric", "singular at ["),
], ids=["samples-0", "samples-abc", "horizon-negative", "horizon-inf",
        "geodesics-0", "log-domain", "singular-metric"])
def test_bad_input_exits_2_with_named_error(tmp_path, command, manifest, error, names):
    m = write_manifest(tmp_path, manifest)
    out = tmp_path / "out"
    assert run(command, m, out) == 2
    rep = report_of(out)
    assert rep["pass"] is False
    assert rep["error"].startswith(f"{error}:")
    assert names in rep["error"]


def test_structural_error_leaves_no_trajectory_csv(tmp_path):
    # the first trajectory finishes, the second meets the singular metric
    m = write_manifest(tmp_path, {**FLAT2, "geometry": {"kind": "metric", "entries": [
        ["1+x^2", "0"], ["0", "exp(1000*y)"]]},
        "run": {"seed": 0, "geodesics": 2, "horizon": 5.0}})
    out = tmp_path / "out"
    assert run("geodesic", m, out) == 2
    assert report_of(out)["error"].startswith("SingularMetric:")
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


def test_unknown_command_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--manifest", "x", "--out", "y"])
    assert exc.value.code == 2
