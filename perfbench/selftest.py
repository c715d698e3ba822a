"""Show that every correctness check passes on projeq's output and fails
when that output is perturbed.

    python3 perfbench/selftest.py

Exits 1 if a check rejects a true value or accepts a perturbed one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def main():
    import projeq as pq

    tol = pq.DEFAULT
    cases = []  # (name, failures on true value, failures on perturbed value)

    pair = workloads.PairAudit(0, None)
    pair.setup()
    lc3, rand4 = pair.structs
    x = lc3["points"][0]
    lam = pq.spectrum_at(lc3["g"], lc3["L"], x)
    ref = checks.spectrum_reference([(1, lambda x, i=i: checks.lc3_phis(x)[i])
                                     for i in range(3)], x)
    cases.append(("spectrum_at", checks.close("s", lam, ref, rtol=1e-12),
                  checks.close("s", lam * (1 + 1e-9), ref, rtol=1e-12)))

    state, t = rand4["states"][0], rand4["t_grid"][1]
    val = rand4["family"].value(state, t)
    ref = checks.family_value_reference(rand4["g"].matrix(state.x), rand4["L"].matrix(state.x),
                                        state.p, t)
    cases.append(("I_t value", checks.close("v", val, ref, rtol=1e-9),
                  checks.close("v", val * (1 + 1e-7), ref, rtol=1e-9)))

    oracle = checks.SympyCurvature()
    for which in ("g", "gbar"):
        r = pq.riemann(lc3[which], x)
        want = oracle.riemann(which, x)
        bumped = r.copy()
        bumped[0, 1, 0, 1] += 1e-6
        cases.append((f"riemann({which})", checks.close("r", r, want, rtol=1e-9),
                      checks.close("r", bumped, want, rtol=1e-9)))

    rep = lc3["family"].commutation_report(lc3["states"][:3], lc3["t_grid"])
    cases.append(("commutation verdict", checks.verdict_failures("c", rep),
                  checks.verdict_failures("c", dict(rep, **{"pass": False}))))

    flow = workloads.GeodesicFlow(0, None)
    flow.setup()
    results = flow.run_pass(speed.ScaledTimer())
    torus = [r for r in results if r[0].startswith("torus") and r[1]["traj"].status == "completed"]
    label, res = torus[0]
    e_bound = tol.energy_drift_factor * tol.integrator_tol
    drifts = res["drifts"]
    cases.append(("energy drift", checks.drift_failures("d", drifts, e_bound, tol.drift_bound),
                  checks.drift_failures("d", dict(drifts, H=2 * e_bound), e_bound,
                                        tol.drift_bound)))
    cases.append(("family drift", checks.drift_failures("d", drifts, e_bound, tol.drift_bound),
                  checks.drift_failures("d", dict(drifts, pair_integral=2 * tol.drift_bound),
                                        e_bound, tol.drift_bound)))
    traj = res["traj"]
    end = checks.torus_reference_end(checks.torus_rhs(), traj.ys[0], traj.t_end)
    cases.append(("torus vs DOP853", checks.close("e", traj.ys[-1], end, rtol=0.0, atol=1e-6),
                  checks.close("e", traj.ys[-1] + 1e-5, end, rtol=0.0, atol=1e-6)))
    true_fails = flow.final_checks([(label, res)])
    res_bad = dict(res, traj=_shifted(traj, 1e-5))
    cases.append(("reversed run", true_fails, flow.final_checks([(label, res_bad)])))

    good = json.dumps({"pass": True, "audits": []})
    cases.append(("report exit/pass", checks.report_failures("r", 0, good),
                  checks.report_failures("r", 0, json.dumps({"pass": False}))))
    cases.append(("report exit code", checks.report_failures("r", 0, good),
                  checks.report_failures("r", 1, good)))
    err = json.dumps({"error": "ManifestError: x", "pass": False})
    cases.append(("probe contract", [] if checks.probe_meets_contract(2, err) else ["no"],
                  [] if checks.probe_meets_contract(1, None) else ["no"]))

    ts = np.linspace(0.0, 1.0, 5)
    rows = "t,H\n" + "".join(f"{t!r},{0.5!r}\n" for t in ts)
    bad_rows = rows.replace("0.5\n", "0.50001\n", 1)
    cases.append(("H column", checks.h_column_failures("h", rows, e_bound),
                  checks.h_column_failures("h", bad_rows, e_bound)))
    files = {"report.json": b'{"pass": true}\n'}
    cases.append(("byte identity", checks.identical_failures("b", files, dict(files)),
                  checks.identical_failures("b", files, {"report.json": b'{"pass": true} \n'})))

    ok = True
    for name, on_true, on_perturbed in cases:
        good_case = not on_true and bool(on_perturbed)
        ok &= good_case
        print(f"{'ok  ' if good_case else 'FAIL'} {name}: true value "
              f"{'passes' if not on_true else 'fails ' + on_true[0]}, perturbed "
              f"{'fails' if on_perturbed else 'passes'}")
    return 0 if ok else 1


def _shifted(traj, eps):
    """A copy of the trajectory whose end state is moved by eps."""
    import dataclasses

    ys = traj.ys.copy()
    ys[-1] = ys[-1] + eps
    return dataclasses.replace(traj, ys=ys)


if __name__ == "__main__":
    sys.exit(main())
