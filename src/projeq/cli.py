"""Command-line runner: manifest in, deterministic report out.

    projeq <command> --manifest m.json --out dir [--seed N] [--tol K=V ...]

Commands: check-bm, pair, geodesic, conserve, weyl, classify2d,
lc-build, split, example. Exit 0 when every audit passes, 1 when any
fails, 2 on structural errors (bad manifest, unsatisfiable geometry).
projeq.request checks a request as data before this module loads.
"""

from __future__ import annotations

import os

import numpy as np

from . import reports, request
from .request import main  # noqa: F401  (the command: request.read, then run below)
from .curvature import sectional
from .errors import EnergyProportional, ManifestError, ProjeqError
from .fields import PhaseState, as_field, scan, worst_point
from .manifest import Scene, default_t_grid, seeded_states
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
from .records import Record

# flows, geodesics, levicivita and surfaces are imported by the commands
# that use them, so a process loads only what its command runs

# fixed audit bounds, outside the tolerance table: not overridable, not echoed
_ROUND_TRIP = 1e-10      # round_trip_endo, partner_round_trip: a rebuilt field
_MARGIN_SLACK = 1e-12    # example: a weight's floor below its expected margin
_FLOW_SYM = 1e-3         # example: eps_sym_factor of the flow's finite-difference L
_SECTIONAL = 1e-8        # example: sectional curvature against its expected value


def _at_most(name, value, bound, points=None, what=None, /, **detail):
    """The audit that passes when value <= bound. Per-point values with their
    points (and what they are, for the error) are first reduced to their
    worst by fields.worst_point, which raises at a non-finite value."""
    if points is not None:
        value, _ = worst_point(value, points, what)
    return reports.audit(name, value, bound, value <= bound, **detail)


def _above(name, value, bound, **detail):
    """The audit that passes when value > bound."""
    return reports.audit(name, value, bound, value > bound, **detail)


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


class _FamilyColumn(Record):
    """I_t of an IntegralFamily as a monitored fn(x, p) (see _sample_columns)."""
    _fields = ("family", "t")

    def __init__(self, family, t: float):
        self._set(family=family, t=t)

    def __call__(self, x, p):
        return self.family.value(PhaseState(x, p), self.t)


def _monitored(scene: Scene, run):
    """Named (label, fn(x, p)) conserved quantities for this scene; each fn
    takes one point or (N, n) stacks of them."""
    if scene.integrals:
        return [(name, scene.integrals[name].value) for name in sorted(scene.integrals)]
    if scene.endo is None and scene.pair is None:
        return []
    _ensure_endo(scene)
    fam = scene.family()
    return [(f"I(t={reports.format_float(t)})", _FamilyColumn(fam, t))
            for t in run.t_grid or default_t_grid(scene)]


# -- command bodies ------------------------------------------------------


def _cmd_check_bm(scene, m, out_dir):
    tols = m.tolerances
    _ensure_endo(scene)
    pts = scene.chart.sample(m.run.samples, seed=m.run.seed)
    stats = bm_residual_stats(scene.metric, scene.endo, pts,
                              eps_sym_factor=tols.eps_sym_factor)
    return [_at_most("bm_residual_max", stats["max"], tols.bm_tol, **stats)], {"bm": stats}, []


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
        extra["gbar_at_center"] = gbar.matrix(center)
        rep = gbar.pd_report(samples=m.run.samples, seed=m.run.seed)
        audits.append(_above("partner_positive_definite", rep["min_eigenvalue"], tols.eps_pd,
                             worst_point=rep["worst_point"]))
        pts = scene.chart.sample(50, seed=m.run.seed + 1)
        audits.append(_at_most("round_trip_endo", np.max(np.abs(
            l_from_pair(scene.metric, gbar, pts) - scene.endo.matrix(pts)), axis=(-2, -1)),
            _ROUND_TRIP, pts, "round-trip endomorphism"))
    else:
        endo = _ensure_endo(scene)
        extra["built"] = "endomorphism"
        extra["endo_at_center"] = endo.matrix(center)
        extra["spectrum_at_center"] = spectrum_at(scene.metric, endo, center)
        worst = endo.self_adjoint_defect(
            scene.metric, scene.chart.sample(min(m.run.samples, 200), seed=m.run.seed))
        audits.append(_at_most("self_adjoint_defect", worst, 10.0 * tols.eps_sym_factor))
    return audits, extra, []


def _run_trajectories(scene, m, monitored):
    """The run's seeded geodesics, integrated as one stack, and their
    tables (see _sample_columns). An integration failure raises as
    integrate names it, at its first failing start; a sampling failure is
    replayed trajectory by trajectory (scan), so the first trajectory
    whose sampling fails raises."""
    from .geodesics import integrate_geodesic

    states = seeded_states(scene.metric, _init_box(scene), m.run.geodesics, m.run.seed)
    stack = PhaseState(np.array([s.x for s in states]), np.array([s.p for s in states]))
    trajs = integrate_geodesic(scene.metric, stack, m.run.horizon,
                               tol=m.tolerances.integrator_tol)
    return trajs, scan(trajs, lambda ts: _sample_columns(scene.metric, ts, monitored))


def _sample_columns(g, trajs, monitored):
    """Each run on monitor_along's 201-point time grid as columns t, x, p, H
    and one per monitored quantity: one table per run, each column filled for
    every run by one stacked call (the family's I_t from one `values` call, made
    after H's column, so that H's error comes first)."""
    from .geodesics import hamiltonian, monitored_values

    grids = [np.linspace(traj.ts[0], traj.t_end, 201) for traj in trajs]
    ys = np.concatenate([traj.sample(ts) for traj, ts in zip(trajs, grids)])
    n = trajs[0].dim
    xs, ps = ys[:, :n], ys[:, n:]
    columns = [monitored_values(lambda x, p: hamiltonian(g, x, p), xs, ps)]
    fns = [fn for _, fn in monitored]
    its = [fn for fn in fns if isinstance(fn, _FamilyColumn)]  # the I_t of _monitored's family
    cols = iter(its and its[0].family.values(PhaseState(xs, ps), [fn.t for fn in its]))
    columns += [monitored_values((lambda x, p: next(cols)) if fn in its else fn, xs, ps)
                for fn in fns]
    return np.split(np.column_stack([np.concatenate(grids), xs, ps, *columns]), len(trajs))


def _cmd_geodesic(scene, m, out_dir):
    from .geodesics import span_stats

    tols = m.tolerances
    monitored = _monitored(scene, m.run)
    audits = []
    trajs, tables = _run_trajectories(scene, m, monitored)
    for idx, (traj, table) in enumerate(zip(trajs, tables)):
        drift = span_stats(table[:, 1 + 2 * traj.dim])
        bound = tols.energy_drift_factor * tols.integrator_tol
        audits.append(_at_most(f"energy_drift[{idx}]", drift["drift"], bound,
                               status=traj.status, t_end=traj.t_end))
    # written once every trajectory has finished: a structural error leaves no CSV
    cols = (["t"] + [f"x_{nm}" for nm in scene.chart.names]
            + [f"p_{nm}" for nm in scene.chart.names] + ["H"]
            + [name for name, _ in monitored])
    csvs = [os.path.join(out_dir, f"trajectory_{idx:03d}.csv") for idx in range(len(tables))]
    for path, rows in zip(csvs, tables):
        reports.write_csv(path, cols, rows)
    statuses = [traj.status for traj in trajs]
    return audits, {"trajectories": len(statuses), "statuses": statuses}, csvs


def _cmd_conserve(scene, m, out_dir):
    from .geodesics import span_stats

    tols = m.tolerances
    monitored = _monitored(scene, m.run)
    if not monitored:
        raise ManifestError("no conserved quantities available for this geometry")
    rows, drifts = [], []
    trajs, tables = _run_trajectories(scene, m, monitored)
    for idx, (traj, table) in enumerate(zip(trajs, tables)):
        # span statistics of H, then of each monitored quantity
        stats = [span_stats(col) for col in table[:, 1 + 2 * traj.dim:].T]
        drifts.append([d["drift"] for d in stats])
        rows += [[float(idx), name, d["first"], d["last"], d["min"], d["max"], d["drift"]]
                 for (name, _), d in zip(monitored, stats[1:])]
    path = os.path.join(out_dir, "conserve.csv")
    reports.write_csv(
        path, ["trajectory", "integral", "first", "last", "min", "max", "drift"],
        rows)
    energy_worst, *worst = np.max(drifts, axis=0, initial=0.0).tolist()
    audits = [_at_most(f"drift[{name}]", w, tols.drift_bound)
              for (name, _), w in zip(monitored, worst)]
    audits.append(_at_most("energy_drift", energy_worst,
                           tols.energy_drift_factor * tols.integrator_tol))
    extra = {"trajectories": len(drifts)}

    if scene.endo is not None and not scene.integrals:
        from .flows import interlacing_audit, ordering_audit

        fam = scene.family()
        states = seeded_states(scene.metric, _init_box(scene),
                               min(m.run.geodesics, 20), m.run.seed + 7)
        ts = m.run.t_grid or default_t_grid(scene)
        comm = fam.commutation_report(states, list(ts), tol=tols.commutation_tol)
        audits.append(_at_most("commutation", comm["max_scaled_bracket"],
                               tols.commutation_tol, worst=comm.get("worst")))
        inter = interlacing_audit(fam, states, slack=tols.interlace_slack)
        audits.append(_at_most("interlacing", inter["max_violation"],
                               tols.interlace_slack, worst=inter.get("worst")))
        pts = scene.chart.sample(min(m.run.samples, 200), seed=m.run.seed)
        order = ordering_audit(scene.metric, scene.endo, pts,
                               tau_ord=tols.tau_ord)
        audits.append(_at_most("eigenvalue_ordering", order["max_violation"], tols.tau_ord))
        extra["ordering_bands"] = order["bands"]
    return audits, extra, [path]


def _cmd_weyl(scene, m, out_dir):
    tols = m.tolerances
    pts = scene.chart.sample(min(m.run.samples, 500), seed=m.run.seed)
    audits = []
    extra = {}
    audits.append(_at_most("weyl_trace_defect",
                           weyl_trace_defect(projective_weyl(scene.metric, pts[:20])),
                           tols.weyl_trace_tol, pts[:20], "Weyl trace"))
    if scene.pair is not None:
        rep = weyl_pair_defect(scene.pair, pts)
        extra["pair_defect"] = rep
        audits.append(_at_most("weyl_pair_invariance", rep["max"], tols.weyl_pair_tol,
                               worst_point=rep["worst_point"]))
    else:
        entries = np.abs(projective_weyl(scene.metric, pts[:50]))
        extra["weyl_max_entry"], _ = worst_point(np.max(entries, axis=(-4, -3, -2, -1)),
                                                 pts[:50], "Weyl tensor")
    return audits, extra, []


def _pick_integral(scene, m):
    from .surfaces import integral_from_pair2d

    name = m.run.integral
    # a geometry with no integrals of its own offers a 2-D pair's, built once chosen
    available = sorted(scene.integrals) or (
        ["pair_integral"] if scene.pair is not None and scene.chart.dim == 2 else [])
    if name and name not in available:
        raise ManifestError(f"{'bundle' if scene.bundle is not None else 'geometry'} has no "
                            f"integral {name!r}; available: {available}")
    if not available:
        raise ManifestError("classify2d needs a named integral or a 2-D pair")
    name = name or available[0]  # the first by name when none is asked for
    if name in scene.integrals:
        return name, scene.integrals[name]
    return name, integral_from_pair2d(scene.pair)


def _cmd_classify2d(scene, m, out_dir):
    from .surfaces import classify_model, principal_form

    tols = m.tolerances
    name, integral = _pick_integral(scene, m)
    expected = None
    if scene.bundle is not None and scene.bundle.expected:
        expected = scene.bundle.expected.get("model_of", {}).get(name)
    audits = []
    extra = {"integral": name}
    try:
        pf = principal_form(integral, samples=64, seed=m.run.seed,
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
        "roots": list(mc.roots),  # each complex number a {"re", "im"} pair in the report
        "flatten": mc.flatten_id,
        "coefficients": {"alpha": pf.alpha, "beta": pf.beta, "gamma": pf.gamma},
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
    audits = [_at_most("bm_residual_max", stats["max"], tols.bm_tol)]

    rebuilt = gbar_from_l(g, endo, eig_floor=tols.eig_floor,
                          samples=min(m.run.samples, 300), seed=m.run.seed)
    mats = scan(pts[:50], lambda p: (rebuilt.matrix(p), gbar.matrix(p)))
    worst = float(np.max(np.abs(mats[0] - mats[1]), initial=0.0))
    audits.append(_at_most("partner_round_trip", worst, _ROUND_TRIP))

    vals = np.array(scan(pts, lambda p: [phi.eval(p) for phi in scene.lc_spec.phis]))
    sep = float(np.min(vals[1:] - vals[:-1], initial=np.inf))
    audits.append(reports.audit("ordering_margin", sep, tols.ordering_margin,
                                sep >= tols.ordering_margin))

    for label, metric in (("g", g), ("gbar", gbar)):
        rep = metric.pd_report(samples=min(m.run.samples, 2000), seed=m.run.seed)
        audits.append(_above(f"{label}_positive_definite", rep["min_eigenvalue"], tols.eps_pd))
    center = chart.center()
    extra = {
        "g_at_center": g.matrix(center),
        "gbar_at_center": gbar.matrix(center),
        "l_at_center": endo.matrix(center),
        "block_sizes": list(scene.lc_spec.block_sizes),
    }
    return audits, extra, []


def _cmd_split(scene, m, out_dir):
    from .levicivita import split

    tols = m.tolerances
    _ensure_endo(scene)
    r = m.run.r
    if r < 1:
        raise ManifestError("split needs run.r >= 1 (eigenvalues in the first factor)")
    if r >= scene.chart.dim:
        raise ManifestError(f"split needs run.r <= {scene.chart.dim - 1}, got {r}")
    h, rep = split(scene.metric, scene.endo, r,
                   tau_deg_factor=tols.tau_deg_factor,
                   samples=min(m.run.samples, 200), seed=m.run.seed)
    return [_above("h_positive_definite", rep["h_min_eigenvalue"], tols.eps_pd),
            _above("spectral_gap", rep["gap_min"], 0.0)], rep, []


def _killing_audits(scene, m, expected):
    from .surfaces import killing_residual

    tols = m.tolerances
    for name, want in sorted(expected["killing"].items()):
        rep = killing_residual(scene.metric, scene.bundle.vector_fields[name],
                               samples=min(m.run.samples, 200),
                               seed=m.run.seed, tol=tols.killing_tol)
        yield reports.audit(f"killing[{name}]", rep["max_lie"], tols.killing_tol,
                            rep["pass"] == want, expected_killing=want)


def _model_audits(scene, m, expected):
    from .surfaces import classify_model, principal_form

    tols = m.tolerances
    for name, want_tag in sorted(expected["model_of"].items()):
        pf = principal_form(scene.bundle.integrals[name], samples=64, seed=m.run.seed,
                            fit_tol_factor=tols.fit_tol_factor)
        mc = classify_model(pf, tau_root=tols.tau_root)
        yield reports.audit(f"model[{name}]", mc.tag, want_tag, mc.tag == want_tag)


def _energy_proportional_audits(scene, m, expected):
    from .surfaces import principal_form

    for name in expected["energy_proportional"]:
        try:
            principal_form(scene.bundle.integrals[name], samples=64, seed=m.run.seed,
                           fit_tol_factor=m.tolerances.fit_tol_factor)
            got = "classified"
        except EnergyProportional:
            got = "EnergyProportional"
        yield reports.audit(f"energy_proportional[{name}]", got, "EnergyProportional",
                            got == "EnergyProportional")


def _pair_bm_audits(scene, m, expected):
    _ensure_endo(scene)
    pts = scene.chart.sample(min(m.run.samples, 200), seed=m.run.seed)
    stats = bm_residual_stats(scene.metric, scene.endo, pts,
                              eps_sym_factor=m.tolerances.eps_sym_factor)
    yield _at_most("pair_bm_residual", stats["max"], expected["bm_residual_tol"])
    margin = expected.get("margin_at_least", 0.0)
    for label in ("weight", "weight_partner"):
        floor = float(np.min(as_field(scene.chart, scene.bundle.params[label]).eval(pts)))
        yield reports.audit(f"{label}_margin", floor, margin, floor >= margin - _MARGIN_SLACK)


def _flow_bm_audits(scene, m, expected):
    flow = ProjectiveFlowSpec(scene.metric, scene.bundle.vector_fields["projective_generator"])
    stats = bm_residual_stats(scene.metric, bm_from_flow_field(flow),
                              scene.chart.sample(100, seed=m.run.seed), eps_sym_factor=_FLOW_SYM)
    yield _at_most("flow_bm_residual", stats["max"], expected["flow_bm_residual_tol"])


def _sectional_audits(scene, m, expected):
    want_k = expected["sectional"]
    pts = scene.chart.sample(100, seed=m.run.seed)[:20]
    e1, e2 = np.eye(scene.chart.dim)[:2]
    yield _at_most("sectional_curvature", np.abs(sectional(scene.metric, pts, e1, e2) - want_k),
                   _SECTIONAL, pts, "sectional curvature", expected=want_k)


# the audits of `example` in report order, each run when the bundle's
# `expected` dict has its key
_EXAMPLE_AUDITS = (
    ("killing", _killing_audits),
    ("model_of", _model_audits),
    ("energy_proportional", _energy_proportional_audits),
    ("bm_residual_tol", _pair_bm_audits),
    ("flow_bm_residual_tol", _flow_bm_audits),
    ("sectional", _sectional_audits),
)


def _cmd_example(scene, m, out_dir):
    if scene.bundle is None:
        raise ManifestError("example command needs geometry kind 'example'")
    if scene.integrals:
        audits, extra, csvs = _cmd_conserve(scene, m, out_dir)
    else:
        audits, extra, csvs = _cmd_geodesic(scene, m, out_dir)
    expected = scene.bundle.expected or {}
    for key, run_audits in _EXAMPLE_AUDITS:
        if key in expected:
            audits.extend(run_audits(scene, m, expected))
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


def run(command, manifest, out_dir) -> int:
    """The numeric stage of a request that request.read passed: the scene,
    built once, and the command's audits and report; the exit code."""
    try:
        audits, extra, csvs = _DISPATCH[command](manifest.build_scene(), manifest, out_dir)
    except ProjeqError as e:
        return request.refuse(command, out_dir, e)
    payload = reports.summarize(command, audits, manifest.tolerances, manifest.run,
                                extra={"detail": extra,
                                       "csv_files": [os.path.basename(c) for c in csvs]})
    reports.write_report(out_dir, payload)
    return 0 if payload["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
