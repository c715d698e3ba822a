"""Command-line runner: manifest in, deterministic report out.

    projeq <command> --manifest m.json --out dir [--seed N] [--tol K=V ...]

Commands: check-bm, pair, geodesic, conserve, weyl, classify2d,
lc-build, split, example. Exit 0 when every audit passes, 1 when any
fails, 2 on structural errors (bad manifest, unsatisfiable geometry).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import reports
from .curvature import sectional
from .errors import EnergyProportional, ManifestError, ProjeqError
from .fields import PhaseState, as_field
from .flows import interlacing_audit, ordering_audit
from .geodesics import hamiltonian, integrate_geodesic, span_stats
from .levicivita import split
from .manifest import Manifest, Scene, default_t_grid, seeded_states
from .pairs import (
    ProjectiveFlowSpec,
    bm_from_flow_field,
    bm_residual_stats,
    gbar_from_l,
    l_field_from_pair,
    l_from_pair,
    projective_weyl,
    spectrum_at,
    weyl_pair_defect,
    weyl_trace_defect,
)
from .surfaces import classify_model, integral_from_pair2d, killing_residual, principal_form

_COMMANDS = (
    "check-bm", "pair", "geodesic", "conserve", "weyl",
    "classify2d", "lc-build", "split", "example",
)


def _ensure_endo(scene: Scene):
    if scene.endo is None and scene.pair is not None:
        scene.endo = l_field_from_pair(scene.pair)
    if scene.endo is None:
        raise ManifestError("command needs an endomorphism (or a metric pair)")
    return scene.endo


def _init_box(scene: Scene):
    if scene.bundle is not None and scene.bundle.init_box is not None:
        return scene.bundle.init_box
    return scene.chart


def _monitored(scene: Scene, run, tols):
    """Named (label, fn(x, p)) conserved quantities for this scene; each fn
    takes one point or (N, n) stacks of them."""
    out = []
    if scene.integrals:
        for name in sorted(scene.integrals):
            integral = scene.integrals[name]
            out.append((name, integral.value))
        return out
    if scene.endo is not None or scene.pair is not None:
        _ensure_endo(scene)
        fam = scene.family()
        ts = run.t_grid or default_t_grid(scene)
        for t in ts:
            label = f"I(t={reports.format_float(t)})"
            out.append((label, lambda x, p, t=t: fam.value(PhaseState(x, p), t)))
    return out


# -- command bodies ------------------------------------------------------


def _cmd_check_bm(scene, m, out_dir):
    tols = m.tolerances
    _ensure_endo(scene)
    pts = scene.chart.sample(m.run.samples, seed=m.run.seed)
    stats = bm_residual_stats(scene.metric, scene.endo, pts,
                              eps_sym_factor=tols.eps_sym_factor)
    audits = [reports.audit("bm_residual_max", stats["max"], tols.bm_tol,
                            stats["max"] <= tols.bm_tol, **stats)]
    return audits, {"bm": stats}, []


def _entry_table(field_matrix):
    return [[float(v) for v in row] for row in np.asarray(field_matrix)]


def _cmd_pair(scene, m, out_dir):
    tols = m.tolerances
    audits = []
    extra = {}
    center = scene.chart.center()
    if scene.partner is None:
        _ensure_endo(scene)
        gbar = gbar_from_l(scene.metric, scene.endo, eig_floor=tols.eig_floor,
                           samples=min(m.run.samples, 500), seed=m.run.seed)
        scene.partner = gbar
        extra["built"] = "partner"
        extra["gbar_at_center"] = _entry_table(gbar.matrix(center))
        rep = gbar.pd_report(samples=m.run.samples, seed=m.run.seed)
        audits.append(reports.audit(
            "partner_positive_definite", rep["min_eigenvalue"], tols.eps_pd,
            rep["positive_definite"], worst_point=rep["worst_point"]))
        worst = 0.0
        for x in scene.chart.sample(50, seed=m.run.seed + 1):
            d = float(np.max(np.abs(
                l_from_pair(scene.metric, gbar, x) - scene.endo.matrix(x))))
            worst = max(worst, d)
        audits.append(reports.audit("round_trip_endo", worst, 1e-10, worst <= 1e-10))
    else:
        endo = _ensure_endo(scene)
        extra["built"] = "endomorphism"
        extra["endo_at_center"] = _entry_table(endo.matrix(center))
        extra["spectrum_at_center"] = [float(v) for v in
                                       spectrum_at(scene.metric, endo, center)]
        worst = 0.0
        for x in scene.chart.sample(min(m.run.samples, 200), seed=m.run.seed):
            worst = max(worst, endo.self_adjoint_defect(scene.metric, x))
        bound = 10.0 * tols.eps_sym_factor
        audits.append(reports.audit(
            "self_adjoint_defect", worst, bound, worst <= bound))
    return audits, extra, []


def _run_trajectories(scene, m):
    box = _init_box(scene)
    states = seeded_states(scene.metric, box, m.run.geodesics, m.run.seed)
    for s in states:
        yield s, integrate_geodesic(scene.metric, s, m.run.horizon,
                                    tol=m.tolerances.integrator_tol)


def _sample_columns(g, traj, monitored):
    """The run on monitor_along's 201-point time grid as columns t, x, p, H
    and one per monitored quantity, each filled by one stacked call."""
    ts = np.linspace(traj.ts[0], traj.t_end, 201)
    ys = traj.sample(ts)
    xs, ps = ys[:, : traj.dim], ys[:, traj.dim:]
    energy = [hamiltonian(g, x, p) for x, p in zip(xs, ps)]
    return np.column_stack([ts, xs, ps, energy, *(fn(xs, ps) for _, fn in monitored)])


def _cmd_geodesic(scene, m, out_dir):
    tols = m.tolerances
    monitored = _monitored(scene, m.run, tols)
    audits = []
    tables = []
    statuses = []
    for idx, (state, traj) in enumerate(_run_trajectories(scene, m)):
        tables.append(_sample_columns(scene.metric, traj, monitored))
        drift = span_stats(tables[-1][:, 1 + 2 * traj.dim])
        bound = tols.energy_drift_factor * tols.integrator_tol
        audits.append(reports.audit(
            f"energy_drift[{idx}]", drift["drift"], bound,
            drift["drift"] <= bound, status=traj.status,
            t_end=traj.t_end))
        statuses.append(traj.status)
    # written once every trajectory has finished: a structural error leaves no CSV
    cols = (["t"] + [f"x_{nm}" for nm in scene.chart.names]
            + [f"p_{nm}" for nm in scene.chart.names] + ["H"]
            + [name for name, _ in monitored])
    csvs = [os.path.join(out_dir, f"trajectory_{idx:03d}.csv") for idx in range(len(tables))]
    for path, rows in zip(csvs, tables):
        reports.write_csv(path, cols, rows)
    return audits, {"trajectories": len(statuses), "statuses": statuses}, csvs


def _cmd_conserve(scene, m, out_dir):
    tols = m.tolerances
    monitored = _monitored(scene, m.run, tols)
    if not monitored:
        raise ManifestError("no conserved quantities available for this geometry")
    worst = {name: 0.0 for name, _ in monitored}
    rows = []
    energy_worst = 0.0
    count = 0
    for idx, (state, traj) in enumerate(_run_trajectories(scene, m)):
        count += 1
        table = _sample_columns(scene.metric, traj, monitored)
        for k, (name, _) in enumerate(monitored):
            d = span_stats(table[:, 2 + 2 * traj.dim + k])
            worst[name] = max(worst[name], d["drift"])
            rows.append([float(idx), name, d["first"], d["last"],
                         d["min"], d["max"], d["drift"]])
        energy_worst = max(energy_worst, span_stats(table[:, 1 + 2 * traj.dim])["drift"])
    path = os.path.join(out_dir, "conserve.csv")
    reports.write_csv(
        path, ["trajectory", "integral", "first", "last", "min", "max", "drift"],
        rows)
    audits = [
        reports.audit(f"drift[{name}]", worst[name], tols.drift_bound,
                      worst[name] <= tols.drift_bound)
        for name, _ in monitored
    ]
    bound = tols.energy_drift_factor * tols.integrator_tol
    audits.append(reports.audit("energy_drift", energy_worst, bound,
                                energy_worst <= bound))
    extra = {"trajectories": count}

    if scene.endo is not None and not scene.integrals:
        fam = scene.family()
        states = seeded_states(scene.metric, _init_box(scene),
                               min(m.run.geodesics, 20), m.run.seed + 7)
        ts = m.run.t_grid or default_t_grid(scene)
        comm = fam.commutation_report(states, list(ts), tol=tols.commutation_tol)
        audits.append(reports.audit("commutation", comm["max_scaled_bracket"],
                                    tols.commutation_tol, comm["pass"],
                                    worst=comm.get("worst")))
        inter = interlacing_audit(fam, states, slack=tols.interlace_slack)
        audits.append(reports.audit("interlacing", inter["max_violation"],
                                    tols.interlace_slack, inter["pass"],
                                    worst=inter.get("worst")))
        pts = scene.chart.sample(min(m.run.samples, 200), seed=m.run.seed)
        order = ordering_audit(scene.metric, scene.endo, pts,
                               tau_ord=tols.tau_ord)
        audits.append(reports.audit("eigenvalue_ordering",
                                    order["max_violation"], tols.tau_ord,
                                    order["pass"]))
        extra["ordering_bands"] = order["bands"]
    return audits, extra, [path]


def _cmd_weyl(scene, m, out_dir):
    tols = m.tolerances
    pts = scene.chart.sample(min(m.run.samples, 500), seed=m.run.seed)
    audits = []
    extra = {}
    trace_worst = 0.0
    for x in pts[:20]:
        trace_worst = max(trace_worst,
                          weyl_trace_defect(projective_weyl(scene.metric, x)))
    audits.append(reports.audit("weyl_trace_defect", trace_worst,
                                tols.weyl_trace_tol,
                                trace_worst <= tols.weyl_trace_tol))
    if scene.pair is not None:
        rep = weyl_pair_defect(scene.pair, pts)
        extra["pair_defect"] = rep
        audits.append(reports.audit("weyl_pair_invariance", rep["max"],
                                    tols.weyl_pair_tol,
                                    rep["max"] <= tols.weyl_pair_tol,
                                    worst_point=rep["worst_point"]))
    else:
        norm = max(float(np.max(np.abs(projective_weyl(scene.metric, x))))
                   for x in pts[:50])
        extra["weyl_max_entry"] = norm
    return audits, extra, []


def _pick_integral(scene, m):
    name = m.run.integral
    if scene.bundle is not None and name:
        try:
            return name, scene.bundle.integrals[name]
        except KeyError:
            raise ManifestError(
                f"bundle has no integral {name!r}; available: "
                f"{sorted(scene.bundle.integrals)}"
            ) from None
    if name and name in scene.integrals:
        return name, scene.integrals[name]
    if scene.integrals and not name:
        k = sorted(scene.integrals)[0]
        return k, scene.integrals[k]
    if scene.pair is not None and scene.chart.dim == 2:
        return "pair_integral", integral_from_pair2d(scene.pair)
    raise ManifestError("classify2d needs a named integral or a 2-D pair")


def _cmd_classify2d(scene, m, out_dir):
    tols = m.tolerances
    name, integral = _pick_integral(scene, m)
    expected = None
    if scene.bundle is not None and scene.bundle.expected:
        expected = scene.bundle.expected.get("model_of", {}).get(name)
    audits = []
    extra = {"integral": name}
    try:
        pf = principal_form(integral, samples=max(50, 64), seed=m.run.seed,
                            fit_tol_factor=tols.fit_tol_factor)
    except EnergyProportional:
        extra["model"] = "EnergyProportional"
        ok = expected is None or expected == "EnergyProportional"
        audits.append(reports.audit("classification", "EnergyProportional",
                                    expected, ok))
        return audits, extra, []
    mc = classify_model(pf, has_linear_reduction=m.run.has_linear_reduction,
                        tau_root=tols.tau_root)
    extra.update({
        "model": mc.tag,
        "roots": [{"re": r.real, "im": r.imag} for r in mc.roots],
        "flatten": mc.flatten_id,
        "coefficients": {
            "alpha": {"re": pf.alpha.real, "im": pf.alpha.imag},
            "beta": {"re": pf.beta.real, "im": pf.beta.imag},
            "gamma": {"re": pf.gamma.real, "im": pf.gamma.imag},
        },
        "fit_residual": pf.residual,
    })
    ok = expected is None or mc.tag == expected
    audits.append(reports.audit("classification", mc.tag, expected, ok,
                                residual=pf.residual))
    return audits, extra, []


def _cmd_lc_build(scene, m, out_dir):
    tols = m.tolerances
    if scene.lc_spec is None:
        raise ManifestError("lc-build needs geometry kind 'lc'")
    g, gbar, endo = scene.metric, scene.partner, scene.endo
    chart = scene.chart
    pts = chart.sample(m.run.samples, seed=m.run.seed)
    stats = bm_residual_stats(g, endo, pts, eps_sym_factor=tols.eps_sym_factor)
    audits = [reports.audit("bm_residual_max", stats["max"], tols.bm_tol,
                            stats["max"] <= tols.bm_tol)]

    rebuilt = gbar_from_l(g, endo, eig_floor=tols.eig_floor,
                          samples=min(m.run.samples, 300), seed=m.run.seed)
    worst = 0.0
    for x in pts[:50]:
        worst = max(worst, float(np.max(np.abs(rebuilt.matrix(x) - gbar.matrix(x)))))
    audits.append(reports.audit("partner_round_trip", worst, 1e-10, worst <= 1e-10))

    sep = np.inf
    for x in pts:
        vals = [phi.eval(x) for phi in scene.lc_spec.phis]
        for i in range(len(vals) - 1):
            sep = min(sep, vals[i + 1] - vals[i])
    audits.append(reports.audit("ordering_margin", sep, tols.ordering_margin,
                                sep >= tols.ordering_margin))

    for label, metric in (("g", g), ("gbar", gbar)):
        rep = metric.pd_report(samples=min(m.run.samples, 2000), seed=m.run.seed)
        audits.append(reports.audit(f"{label}_positive_definite",
                                    rep["min_eigenvalue"], tols.eps_pd,
                                    rep["positive_definite"]))
    center = chart.center()
    extra = {
        "g_at_center": _entry_table(g.matrix(center)),
        "gbar_at_center": _entry_table(gbar.matrix(center)),
        "l_at_center": _entry_table(endo.matrix(center)),
        "block_sizes": list(scene.lc_spec.block_sizes),
    }
    return audits, extra, []


def _cmd_split(scene, m, out_dir):
    tols = m.tolerances
    _ensure_endo(scene)
    r = m.run.r
    if r < 1:
        raise ManifestError("split needs run.r >= 1 (eigenvalues in the first factor)")
    h, rep = split(scene.metric, scene.endo, r,
                   tau_deg_factor=tols.tau_deg_factor,
                   samples=min(m.run.samples, 200), seed=m.run.seed)
    audits = [
        reports.audit("h_positive_definite", rep["h_min_eigenvalue"], tols.eps_pd,
                      rep["h_min_eigenvalue"] > tols.eps_pd),
        reports.audit("spectral_gap", rep["gap_min"], 0.0, rep["gap_min"] > 0.0),
    ]
    return audits, rep, []


def _cmd_example(scene, m, out_dir):
    tols = m.tolerances
    bundle = scene.bundle
    if bundle is None:
        raise ManifestError("example command needs geometry kind 'example'")
    if scene.integrals:
        audits, extra, csvs = _cmd_conserve(scene, m, out_dir)
    else:
        audits, extra, csvs = _cmd_geodesic(scene, m, out_dir)
    expected = bundle.expected or {}

    for name, vf in sorted((bundle.vector_fields or {}).items()):
        want = expected.get("killing", {}).get(name)
        if want is None:
            continue
        rep = killing_residual(scene.metric, vf,
                               samples=min(m.run.samples, 200),
                               seed=m.run.seed, tol=tols.killing_tol)
        ok = rep["pass"] == want
        audits.append(reports.audit(
            f"killing[{name}]", rep["max_lie"], tols.killing_tol, ok,
            expected_killing=want))

    for name, want_tag in sorted(expected.get("model_of", {}).items()):
        pf = principal_form(bundle.integrals[name], samples=64, seed=m.run.seed,
                            fit_tol_factor=tols.fit_tol_factor)
        mc = classify_model(pf, tau_root=tols.tau_root)
        audits.append(reports.audit(f"model[{name}]", mc.tag, want_tag,
                                    mc.tag == want_tag))

    for name in expected.get("energy_proportional", []):
        try:
            principal_form(bundle.integrals[name], samples=64, seed=m.run.seed,
                           fit_tol_factor=tols.fit_tol_factor)
            audits.append(reports.audit(f"energy_proportional[{name}]",
                                        "classified", "EnergyProportional", False))
        except EnergyProportional:
            audits.append(reports.audit(f"energy_proportional[{name}]",
                                        "EnergyProportional", "EnergyProportional",
                                        True))

    if bundle.name == "torus":
        _ensure_endo(scene)
        pts = scene.chart.sample(min(m.run.samples, 200), seed=m.run.seed)
        stats = bm_residual_stats(scene.metric, scene.endo, pts,
                                  eps_sym_factor=tols.eps_sym_factor)
        tol_bm = expected["bm_residual_tol"]
        audits.append(reports.audit("pair_bm_residual", stats["max"], tol_bm,
                                    stats["max"] <= tol_bm))
        margin = expected.get("margin_at_least", 0.0)
        for label in ("weight", "weight_partner"):
            w = as_field(scene.chart, bundle.params[label])
            floor = min(w.eval(x) for x in pts)
            audits.append(reports.audit(
                f"{label}_margin", floor, margin, floor >= margin - 1e-12))

    if bundle.name == "sphere_beltrami":
        gen = bundle.vector_fields["projective_generator"]
        flow = ProjectiveFlowSpec(scene.metric, gen)
        endo = bm_from_flow_field(flow)
        pts = scene.chart.sample(100, seed=m.run.seed)
        stats = bm_residual_stats(scene.metric, endo,
                                  pts, eps_sym_factor=1e-3)
        tol_bm = expected.get("flow_bm_residual_tol", 1e-6)
        audits.append(reports.audit("flow_bm_residual", stats["max"], tol_bm,
                                    stats["max"] <= tol_bm))
        want_k = expected.get("sectional")
        if want_k is not None:
            worst = 0.0
            e1, e2 = np.eye(scene.chart.dim)[:2]
            for x in pts[:20]:
                k = sectional(scene.metric, x, e1, e2)
                worst = max(worst, abs(k - want_k))
            audits.append(reports.audit("sectional_curvature", worst, 1e-8,
                                        worst <= 1e-8, expected=want_k))
    return audits, extra, csvs


_DISPATCH = {
    "check-bm": _cmd_check_bm,
    "pair": _cmd_pair,
    "geodesic": _cmd_geodesic,
    "conserve": _cmd_conserve,
    "weyl": _cmd_weyl,
    "classify2d": _cmd_classify2d,
    "lc-build": _cmd_lc_build,
    "split": _cmd_split,
    "example": _cmd_example,
}


def _parse_tol_overrides(items):
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ManifestError(f"--tol expects KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        try:
            value = float(val)
        except ValueError:
            raise ManifestError(f"--tol value for {key!r} is not numeric") from None
        if not (math.isfinite(value) and value > 0.0):
            raise ManifestError(f"--tol {key.strip()} must be finite and > 0, got {val!r}")
        out[key.strip()] = value
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projeq",
        description="Audits for geodesically linked metric pairs and their integrals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", action="append", default=[],
                       metavar="KEY=VALUE")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out
    try:
        manifest = Manifest.load(args.manifest)
        overrides = _parse_tol_overrides(args.tol)
        if overrides:
            try:
                tols = manifest.tolerances.override(**overrides)
            except KeyError as e:
                raise ManifestError(str(e.args[0])) from None
            manifest = replace(manifest, tolerances=tols)
        if args.seed is not None:
            manifest = replace(manifest, run=replace(manifest.run, seed=args.seed))
        manifest.run.check()
        audits, extra, csvs = _DISPATCH[args.command](manifest.scene, manifest, out_dir)
    except ProjeqError as e:
        os.makedirs(out_dir, exist_ok=True)
        payload = {"command": args.command, "error": f"{type(e).__name__}: {e}",
                   "pass": False}
        reports.write_report(out_dir, payload)
        print(f"error: {e}", file=sys.stderr)
        return 2
    payload = reports.summarize(args.command, audits, manifest.tolerances,
                                manifest.run, extra={"detail": extra,
                                                     "csv_files": [os.path.basename(c) for c in csvs]})
    reports.write_report(out_dir, payload)
    return 0 if payload["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
