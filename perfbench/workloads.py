"""The three workloads: set-up, one pass of the body, and its checks.

A pass is one whole round of the workload's operations, the same on
every pass of a run, so the share of failed operations is the same in
every run. An operation is one audit call (pair-audit), one trajectory
(geodesic-flow) or one CLI invocation (cli-battery).

projeq is reached through module attributes at call time
(`pq.flows.interlacing_audit`, ...), so the traced mode's wrappers see
every call.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
MANIFESTS = HERE / "manifests"

# pair-audit sizes
PAIR_STATES = 20        # commutation and interlacing
PAIR_POINTS = 200       # ordering and compatibility residual
PAIR_WEYL_POINTS = 12   # Weyl invariance: curvature of g and the partner
PAIR_PD_SAMPLES = 1000  # pd_report of g and gbar
PAIR_ROUND_TRIP = 50    # l_from_pair(g, gbar) against L
ROUND_TRIP_TOL = 1e-10  # the threshold of the CLI's round-trip audits
# geodesic-flow sizes
FLOW_GEODESICS = 4      # per scene per pass
FLOW_HORIZON = 5.0


def _pq():
    import projeq
    import projeq.cli  # noqa: F401  (not imported by the package itself)

    return projeq


def _warm(metrics, endos, x):
    """First value, derivative and Hessian: runs the lazy differentiation."""
    for g in metrics:
        g.matrix(x), g.dmatrix(x), g.d2matrix(x)
    for L in endos:
        L.matrix(x), L.dmatrix(x)


class PairAudit:
    """Library audits on the criterion-03 structure and random_spec(2, 4)."""

    name = "pair-audit"

    def __init__(self, seed, out_dir):
        self.seed = seed

    def setup(self):
        pq = _pq()
        tol = pq.DEFAULT
        self.tol = tol
        spec3 = pq.LeviCivitaSpec.create([1, 1, 1], checks.LC3_PHIS, bounds=checks.LC3_BOUNDS)
        spec4 = pq.random_spec(2, 4)
        self.structs = []
        for label, spec in (("lc3", spec3), ("rand4", spec4)):
            g, _, L = pq.build_lc_pair(spec, partner=False)
            gbar = pq.gbar_from_l(g, L, eig_floor=tol.eig_floor)
            _warm((g, gbar), (L,), g.chart.center())
            scene = pq.Scene(chart=g.chart, metric=g, partner=gbar, endo=L)
            self.structs.append({
                "label": label,
                "spec": spec,
                "g": g,
                "gbar": gbar,
                "L": L,
                "family": pq.IntegralFamily(g, L),
                "t_grid": list(pq.default_t_grid(scene)),
                "states": pq.seeded_states(g, g.chart, PAIR_STATES, self.seed),
                "points": g.chart.sample(PAIR_POINTS, seed=self.seed),
            })

    def run_pass(self, timer, tracer=None):
        return timer.call(self._pass)

    def _pass(self):
        pq = _pq()
        tol = self.tol
        results = []
        for s in self.structs:
            g, gbar, L, fam = s["g"], s["gbar"], s["L"], s["family"]
            pts = s["points"]
            calls = (
                ("commutation", lambda: fam.commutation_report(
                    s["states"], s["t_grid"], tol=tol.commutation_tol)),
                ("interlacing", lambda: pq.flows.interlacing_audit(
                    fam, s["states"], slack=tol.interlace_slack)),
                ("ordering", lambda: pq.flows.ordering_audit(g, L, pts, tau_ord=tol.tau_ord)),
                ("bm_residual", lambda: _with_pass(
                    pq.pairs.bm_residual_stats(g, L, pts, eps_sym_factor=tol.eps_sym_factor),
                    "max", tol.bm_tol)),
                ("weyl_pair", lambda: _with_pass(
                    pq.pairs.weyl_pair_defect(pq.pairs.MetricPair(g, gbar),
                                              pts[:PAIR_WEYL_POINTS]),
                    "max", tol.weyl_pair_tol)),
                ("round_trip", lambda: _round_trip(pq, g, gbar, L, pts[:PAIR_ROUND_TRIP])),
                ("pd_g", lambda: _pd(g.pd_report(samples=PAIR_PD_SAMPLES, seed=self.seed))),
                ("pd_gbar", lambda: _pd(gbar.pd_report(samples=PAIR_PD_SAMPLES, seed=self.seed))),
            )
            for op, call in calls:
                results.append((f"{s['label']}.{op}", _attempt(call)))
        return results

    def check_pass(self, results):
        fails = []
        for label, rep in results:
            if rep is not None:
                fails += checks.verdict_failures(label, rep)
        return fails

    @staticmethod
    def failed(result):
        return result[1] is None

    def final_checks(self, results):
        """Spectrum, family values and curvature against the references."""
        pq = _pq()
        fails = []
        lc3, rand4 = self.structs
        blocks = {
            "lc3": [(1, lambda x, i=i: checks.lc3_phis(x)[i]) for i in range(3)],
            "rand4": _rand4_blocks(rand4["spec"]),
        }
        for s in self.structs:
            for x in s["points"][:10]:
                fails += checks.close(
                    f"{s['label']} spectrum_at", pq.pairs.spectrum_at(s["g"], s["L"], x),
                    checks.spectrum_reference(blocks[s["label"]], x), rtol=1e-12)
            for state in s["states"][:5]:
                gmat, lmat = s["g"].matrix(state.x), s["L"].matrix(state.x)
                for t in s["t_grid"]:
                    fails += checks.close(
                        f"{s['label']} I_t value", s["family"].value(state, t),
                        checks.family_value_reference(gmat, lmat, state.p, t), rtol=1e-9)
        oracle = checks.SympyCurvature()
        for x in lc3["points"][:3]:
            for which in ("g", "gbar"):
                fails += checks.close(f"lc3 riemann({which})",
                                      pq.curvature.riemann(lc3[which], x),
                                      oracle.riemann(which, x), rtol=1e-9)
        return fails


def _rand4_blocks(spec):
    """Block functions of random_spec(2, 4), written with math.tanh."""
    if spec.block_sizes != (2, 1, 1) or not hasattr(spec.phis[2], "expr"):
        raise RuntimeError(f"random_spec(2, 4) changed shape: {spec.block_sizes}")
    if spec.phis[2].expr.to_text() != "8 + 0.8 * tanh(x4)":
        raise RuntimeError(f"random_spec(2, 4) block 3 is {spec.phis[2].expr.to_text()}")
    c1, c2 = spec.phis[0].value, spec.phis[1].value
    return [(2, lambda x: c1), (1, lambda x: c2), (1, lambda x: 8.0 + 0.8 * np.tanh(x[3]))]


def _attempt(call):
    try:
        return call()
    except Exception as e:  # an operation that raises counts as failed
        print(f"operation failed: {type(e).__name__}: {e}", file=sys.stderr)
        return None


def _with_pass(rep, key, bound):
    return dict(rep, value=rep[key], **{"pass": bool(rep[key] <= bound)})


def _round_trip(pq, g, gbar, L, points):
    """Largest entry of l_from_pair(g, gbar) - L over the points."""
    worst = max(float(np.max(np.abs(pq.pairs.l_from_pair(g, gbar, x) - L.matrix(x))))
                for x in points)
    return {"value": worst, "pass": worst <= ROUND_TRIP_TOL}


def _pd(rep):
    return dict(rep, value=rep["min_eigenvalue"], **{"pass": rep["positive_definite"]})


class GeodesicFlow:
    """Seeded geodesics on the torus bundle and on random_spec(2, 4)."""

    name = "geodesic-flow"

    def __init__(self, seed, out_dir):
        self.seed = seed

    def setup(self):
        pq = _pq()
        self.tol = pq.DEFAULT
        torus = pq.builtin_example("torus")
        tg, integral = torus.metric, torus.integrals["pair_integral"]
        spec = pq.random_spec(2, 4)
        g4, _, L4 = pq.build_lc_pair(spec, partner=False)
        _warm((g4,), (L4,), g4.chart.center())
        _warm((tg,), (), tg.chart.center())
        fam = pq.IntegralFamily(g4, L4)
        t_grid = pq.default_t_grid(pq.Scene(chart=g4.chart, metric=g4, endo=L4))

        def energy(g):
            return lambda x, p: pq.geodesics.hamiltonian(g, x, p)

        self.scenes = [
            ("torus", tg, pq.seeded_states(tg, torus.init_box, FLOW_GEODESICS, self.seed),
             [("H", energy(tg)), ("pair_integral", integral.value)]),
            ("rand4", g4, pq.seeded_states(g4, g4.chart, FLOW_GEODESICS, self.seed),
             [("H", energy(g4))] + [
                 (f"I(t={t!r})", lambda x, p, t=t: fam.value(pq.PhaseState(x, p), t))
                 for t in t_grid]),
        ]

    def run_pass(self, timer, tracer=None):
        return timer.call(self._pass)

    def _pass(self):
        pq = _pq()
        results = []
        for label, g, states, monitored in self.scenes:
            for idx, state in enumerate(states):
                def one():
                    traj = pq.geodesics.integrate_geodesic(
                        g, state, FLOW_HORIZON, tol=self.tol.integrator_tol)
                    drifts = {name: pq.geodesics.monitor_along(traj, fn)["drift"]
                              for name, fn in monitored}
                    return {"traj": traj, "drifts": drifts}
                results.append((f"{label}[{idx}]", _attempt(one)))
        return results

    @staticmethod
    def failed(result):
        return result[1] is None

    def check_pass(self, results):
        tol = self.tol
        fails = []
        for label, rep in results:
            if rep is not None:
                fails += checks.drift_failures(
                    label, rep["drifts"], tol.energy_drift_factor * tol.integrator_tol,
                    tol.drift_bound)
        return fails

    def final_checks(self, results):
        """Completed torus runs against scipy; every run integrated back."""
        pq = _pq()
        fails = []
        rhs = checks.torus_rhs()
        graphs = {label: g for label, g, _, _ in self.scenes}
        compared = 0
        for label, rep in results:
            if rep is None:
                continue
            traj = rep["traj"]
            scene = label.split("[")[0]
            if scene == "torus" and traj.status == "completed":
                ref = checks.torus_reference_end(rhs, traj.ys[0], traj.t_end)
                fails += checks.close(f"{label} end vs DOP853", traj.ys[-1], ref,
                                      rtol=0.0, atol=1e-6)
                compared += 1
            n = traj.dim
            back = pq.geodesics.integrate_geodesic(
                graphs[scene], pq.PhaseState(traj.ys[-1][:n], -traj.ys[-1][n:]),
                traj.t_end, tol=self.tol.integrator_tol)
            start = np.concatenate([traj.ys[0][:n], -traj.ys[0][n:]])
            fails += checks.close(f"{label} reversed run", back.ys[-1], start,
                                  rtol=0.0, atol=1e-6)
        if not compared:
            fails.append("no completed torus run to compare with DOP853")
        return fails


# -- cli-battery ------------------------------------------------------------------

# (label, command, manifest file, is a malformed-manifest probe)
BATTERY = (
    ("check-bm", "check-bm", "lc3.json", False),
    ("pair", "pair", "lc3.json", False),
    ("weyl", "weyl", "lc3.json", False),
    ("split", "split", "lc3.json", False),
    ("lc-build", "lc-build", "lc3.json", False),
    ("geodesic", "geodesic", "lc3.json", False),
    ("conserve", "conserve", "lc3.json", False),
    ("example", "example", "torus.json", False),
    ("classify2d", "classify2d", "liouville.json", False),
    ("probe-samples-0", "check-bm", "probe_samples_zero.json", True),
    ("probe-horizon-neg", "geodesic", "probe_horizon_negative.json", True),
    ("probe-log-domain", "check-bm", "probe_log_domain.json", True),
    ("probe-singular", "geodesic", "probe_singular_metric.json", True),
)


def child_env(root):
    env = dict(os.environ)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliBattery:
    """Each `projeq` command in a fresh process on fixed manifests."""

    name = "cli-battery"

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.root = HERE.parent
        self.first_round = None
        self.rounds = 0
        self.max_child_rss_kb = 0
        # True: call projeq.cli.main in this process, as the traced mode does
        self.in_process = False

    def setup(self):
        """Load every manifest, as each command does first."""
        pq = _pq()
        for name in sorted({b[2] for b in BATTERY}):
            pq.manifest.Manifest.load(str(MANIFESTS / name))

    def _argv(self, cmd, manifest, out, probe):
        argv = [cmd, "--manifest", str(MANIFESTS / manifest), "--out", str(out)]
        # probes run on inputs that do not depend on the seed
        return argv if probe else argv + ["--seed", str(self.seed)]

    def run_pass(self, timer, tracer=None):
        """One round; each command is timed on its own, so the machine's
        speed is measured next to every command."""
        round_dir = self.out_dir / f"round{self.rounds}"
        self.rounds += 1
        results = []
        for label, cmd, manifest, probe in BATTERY:
            out = round_dir / label
            argv = self._argv(cmd, manifest, out, probe)
            code = timer.call(self._in_process, argv, cmd, probe, tracer) if self.in_process \
                else timer.call(self._subprocess, argv, out)
            results.append((label, {"exit": code, "out": out, "probe": probe}))
        return results

    def _subprocess(self, argv, out):
        out.mkdir(parents=True, exist_ok=True)
        with open(out.parent / f"{out.name}.stderr", "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "projeq", *argv],
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    env=child_env(self.root), cwd=str(self.root))
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def _in_process(self, argv, cmd, probe, tracer):
        pq = _pq()
        try:
            if tracer is None:
                return pq.cli.main(argv)
            # probes get a span of their own, so cli.<command> times only
            # the well-formed manifests
            return tracer.span("cli.probe" if probe else f"cli.{cmd}", pq.cli.main, argv)
        except Exception:  # an uncaught error ends the command with exit 1
            return 1

    @staticmethod
    def failed(result):
        label, rep = result
        if not rep["probe"]:
            return False
        return not checks.probe_meets_contract(rep["exit"], _read(rep["out"] / "report.json"))

    def check_pass(self, results):
        tol = _pq().DEFAULT
        fails = []
        files = {}
        for label, rep in results:
            if rep["probe"]:
                continue
            out = rep["out"]
            fails += checks.report_failures(label, rep["exit"], _read(out / "report.json"))
            written = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                       if p.name == "report.json" or p.suffix == ".csv"}
            files[label] = written
            for name, data in written.items():
                if name.startswith("trajectory_"):
                    fails += checks.h_column_failures(
                        f"{label}/{name}", data.decode(),
                        tol.energy_drift_factor * tol.integrator_tol)
        if self.first_round is None:
            self.first_round = files
        else:
            for label in files:
                fails += checks.identical_failures(label, self.first_round[label], files[label])
        # keep the first round for comparison, drop the others
        round_dir = results[0][1]["out"].parent
        if self.rounds > 1:
            shutil.rmtree(round_dir, ignore_errors=True)
        return fails

    def final_checks(self, results):
        return []


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


WORKLOADS = {w.name: w for w in (PairAudit, GeodesicFlow, CliBattery)}


def make(name, seed, out_dir):
    return WORKLOADS[name](seed, out_dir)
