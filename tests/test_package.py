"""The package's lazy import: `import projeq` loads no submodule, each
public name resolves through the module that defines it, and a command
loads only the modules it runs, none of which defines a dataclass. The
records that replace them are frozen and compare by value."""

import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

import projeq
from projeq.chart import Chart
from projeq.fields import as_field
from projeq.manifest import Manifest
from projeq.surfaces import QuadraticIntegral2D
from projeq.tolerances import DEFAULT, Tolerances

LC3 = {
    "chart": {"names": ["x1", "x2", "x3"],
              "bounds": [[-1.0, 1.0], [-1.0, 1.0], [0.5, 1.5]]},
    "geometry": {"kind": "lc", "block_sizes": [1, 1, 1],
                 "phis": ["1 + 0.3*tanh(x1)", "3", "6 + x3^2"]},
    "run": {"samples": 20},
}
LIOUVILLE = {
    "chart": {"names": ["x", "y"], "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
    "geometry": {"kind": "liouville", "X": "3 + x^2", "Y": "-2 - y^2"},
    "run": {"samples": 20},
}


def loaded_after(code):
    """The projeq submodules a fresh interpreter holds after running code."""
    code += "\nimport sys; print(*sorted(m for m in sys.modules if m.startswith('projeq.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return set(out.stdout.split())


def loaded_by_command(tmp_path, command, manifest):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    argv = [command, "--manifest", str(path), "--out", str(tmp_path / "out")]
    return loaded_after(f"from projeq.cli import main\nassert main({argv!r}) == 0")


def test_import_alone_loads_no_submodule():
    assert loaded_after("import projeq") == set()


def test_check_bm_on_lc_loads_no_surface_geodesic_or_flow_module(tmp_path):
    loaded = loaded_by_command(tmp_path, "check-bm", LC3)
    assert "projeq.levicivita" in loaded
    assert not loaded & {"projeq.surfaces", "projeq.geodesics", "projeq.flows"}


def test_classify2d_on_liouville_loads_no_levicivita(tmp_path):
    loaded = loaded_by_command(tmp_path, "classify2d", LIOUVILLE)
    assert "projeq.surfaces" in loaded and "projeq.levicivita" not in loaded


def test_a_command_path_defines_no_dataclass(tmp_path):
    # a dataclass execs its generated methods when its module loads: about
    # 1 ms of every command per class
    runs = []
    for command, manifest in (("check-bm", LC3), ("classify2d", LIOUVILLE)):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        runs.append([command, "--manifest", str(path), "--out", str(tmp_path / command)])
    loaded = loaded_after(
        f"from projeq.cli import main\nfor argv in {runs!r}:\n    assert main(argv) == 0\n"
        "import dataclasses, sys\n"
        "print(*(f'dataclass:{c.__module__}.{c.__qualname__}'\n"
        "        for name, m in list(sys.modules.items()) if name.startswith('projeq.')\n"
        "        for c in vars(m).values() if isinstance(c, type)\n"
        "        and c.__module__ == name and dataclasses.is_dataclass(c)))")
    assert {"projeq.levicivita", "projeq.surfaces"} <= loaded
    assert not {name for name in loaded if name.startswith("dataclass:")}


# the modules that load numpy or evaluate fields: none of them answers a data fault
NUMERIC = {"numpy", *(f"projeq.{name}" for name in (
    "chart", "jets", "fields", "curvature", "pairs", "levicivita", "surfaces", "flows",
    "geodesics", "sampling"))}
DATA_FAULTS = {
    "samples-0": ({**LC3, "run": {"samples": 0}}, []),
    "horizon-negative": ({**LC3, "run": {"horizon": -1}}, []),
    "samples-text": ({**LC3, "run": {"samples": "abc"}}, []),
    "unknown-run-key": ({**LC3, "run": {"steps": 3}}, []),
    "negative-tolerance": ({**LC3, "tolerances": {"bm_tol": -1}}, []),
    "tol-not-numeric": (LC3, ["--tol", "bm_tol=x"]),
    "not-json": ("{not json", []),
}


@pytest.mark.parametrize("fault", sorted(DATA_FAULTS))
def test_python_m_projeq_answers_a_data_fault_before_numpy_loads(tmp_path, fault):
    from projeq.cli import main

    doc, extra = DATA_FAULTS[fault]
    path = tmp_path / "m.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    argv = ["check-bm", "--manifest", str(path), *extra, "--out"]
    code = (f"import runpy, sys\nsys.argv = ['projeq', *{argv + [str(tmp_path / 'fresh')]!r}]\n"
            "try:\n    runpy.run_module('projeq', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as e:\n    print('exit', e.code)\n"
            "print(*sorted(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out[:2] == ["exit", "2"]
    assert not set(out) & NUMERIC
    assert main(argv + [str(tmp_path / "main")]) == 2
    report = (tmp_path / "fresh" / "report.json").read_bytes()
    assert report == (tmp_path / "main" / "report.json").read_bytes()
    assert b'"error": "ManifestError: ' in report


def test_every_name_resolves_to_its_defining_module():
    submodules = {m.name for m in pkgutil.iter_modules(projeq.__path__)} - {"__main__"}
    assert set(projeq._EXPORTS) == submodules
    listed = dir(projeq)
    for name, module in projeq._MODULE_OF.items():
        assert getattr(projeq, name) is getattr(importlib.import_module(f"projeq.{module}"), name)
        assert name in listed
    for module in submodules:
        assert getattr(projeq, module) is importlib.import_module(f"projeq.{module}")
        assert module in listed
    assert set(projeq.__all__) == set(projeq._MODULE_OF)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        projeq.no_such_name


# -- records -----------------------------------------------------------------


def test_records_compare_and_hash_by_class_and_fields():
    a = Chart(("x", "y"), ((0, 1), (0, 2)))
    b = Chart(["x", "y"], [(0.0, 1.0), (0.0, 2.0)])
    c = Chart(("x", "y"), ((0, 1), (0, 3)))
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != c and not a == c and len({a, b, c}) == 2
    # a cached attribute is no field: each integral builds its own jets
    re_a, im_a, bb = (as_field(a, text) for text in ("x", "y", "1"))
    q1, q2 = QuadraticIntegral2D(a, re_a, im_a, bb), QuadraticIntegral2D(a, re_a, im_a, bb)
    assert q1._jets is not q2._jets and q1 == q2 and hash(q1) == hash(q2)
    assert q1 != QuadraticIntegral2D(a, re_a, im_a, as_field(a, "2"))


def test_a_record_field_cannot_be_assigned():
    manifest = Manifest.from_dict(LIOUVILLE)
    for record, name in ((Chart(("x",), ((0, 1),)), "names"), (DEFAULT, "bm_tol"),
                         (manifest, "run")):
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before


def test_tolerances_keep_declaration_order_and_refuse_an_unknown_keyword():
    names = ["integrator_tol", "drift_bound", "bm_tol", "weyl_pair_tol", "weyl_trace_tol",
             "commutation_tol", "interlace_slack", "tau_ord", "tau_deg_factor", "tau_root",
             "fit_tol_factor", "eps_pd", "eps_sym_factor", "eig_floor", "ordering_margin",
             "killing_tol", "energy_drift_factor"]
    assert list(Tolerances().as_dict()) == names
    assert list(Tolerances(killing_tol=1.0, bm_tol=2.0).as_dict()) == names
    assert list(DEFAULT.override(killing_tol=1.0, bm_tol=2.0).as_dict()) == names
    with pytest.raises(TypeError, match="bm_tolerance"):
        Tolerances(bm_tolerance=1e-6)
