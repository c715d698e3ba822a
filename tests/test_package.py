"""The package's lazy import: `import projeq` loads no submodule, each
public name resolves through the module that defines it, and a command
loads only the modules it runs."""

import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

import projeq

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
