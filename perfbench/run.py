"""projeq benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload pair-audit --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; projeq is imported from its `src/`.
With `--trace 0` the last line of stdout carries the end-to-end metrics,
with `--trace 1` the per-layer metrics of a traced run (see tracing.py).
Either way it also carries the operations attempted and failed, and
whether every output passed the checks in checks.py. Diagnostics go to
stderr. BLAS thread pools are held to one thread, so every figure is
single-threaded.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is measured in this many fresh interpreters per run.
SETUP_PROBES = 7
# cli-battery compares the files of its first two rounds byte for byte.
MIN_PASSES = {"cli-battery": 2}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("pair-audit", "geodesic-flow", "cli-battery"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_projeq():
    """Import projeq from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "projeq" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no projeq sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import projeq

    if Path(projeq.__file__).resolve().parent != (src / "projeq").resolve():
        raise SystemExit(f"run.py: projeq imported from {projeq.__file__}, not {src}")
    return projeq


def median(values):
    import statistics

    return float(statistics.median(values))


class SetupProbes:
    """Set-up measured in fresh interpreters, spread over the run so they
    see the same machine as the passes; the medians are reported."""

    def __init__(self, workload, seed):
        self.cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
        self.imports, self.setups = [], []

    def run_one(self):
        import json
        import subprocess

        from workloads import child_env

        out = subprocess.run(self.cmd, capture_output=True, text=True, env=child_env(ROOT),
                             cwd=str(ROOT), timeout=120, check=True)
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        self.imports.append(rec["import_s"])
        self.setups.append(rec["setup_s"])

    def keep_up(self, share):
        """Run probes until `share` of them are done."""
        while len(self.setups) < min(SETUP_PROBES, int(share * SETUP_PROBES) + 1):
            self.run_one()


def measure(w, seconds, min_passes, run_pass, probes=None):
    """Run whole passes until `seconds` have gone by.

    Returns the pass times, wall and scaled to the reference speed (see
    speed.py), the first pass's results (kept for the final checks; later
    ones are dropped so memory does not grow with the number of passes),
    the operations attempted and failed, and the failed checks."""
    import time

    from speed import ScaledTimer

    times, scaled, first, fails = [], [], None, []
    attempted = failed = 0
    timer = ScaledTimer()
    t_start = time.perf_counter()
    while len(times) < min_passes or time.perf_counter() - t_start < seconds:
        raw0, scaled0 = timer.raw_s, timer.scaled_s
        results = run_pass(timer)
        times.append(timer.raw_s - raw0)
        scaled.append(timer.scaled_s - scaled0)
        attempted += len(results)
        failed += sum(1 for r in results if w.failed(r))
        fails += w.check_pass(results)
        first = results if first is None else first
        if probes is not None:
            probes.keep_up((time.perf_counter() - t_start) / seconds)
    if probes is not None:
        probes.keep_up(1.0)
    return (times, scaled), first, attempted, failed, fails


def run_untraced(w, args):
    import resource

    probes = SetupProbes(args.workload, args.seed)
    w.setup()
    (wall, times), results, attempted, failed, fails = measure(
        w, args.seconds, MIN_PASSES.get(args.workload, 1), w.run_pass, probes)
    if args.workload == "cli-battery":
        rss_kb = w.max_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    fails += w.final_checks(results)
    metrics = {
        "setup_s": (median(probes.setups), "s"),
        "run_s": (median(times), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    print(f"{args.workload}: {len(times)} passes, wall (s): "
          + " ".join(f"{t:.3f}" for t in wall) + "; scaled (s): "
          + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
    return metrics, attempted, failed, fails


def run_traced(w, args):
    from tracing import Tracer, pass_counts_equal, per_layer_metrics

    probes = SetupProbes(args.workload, args.seed)
    probes.keep_up(1.0)
    tracer = Tracer()
    w.in_process = True
    tracer.install()
    try:
        w.setup()
        passes = []

        def traced_pass(timer):
            tracer.pass_id = len(passes) + 1
            passes.append(tracer.pass_id)
            return w.run_pass(timer, tracer)

        half = args.seconds / 2.0
        (_, traced_times), results, attempted, failed, fails = measure(
            w, half, 1, traced_pass)
    finally:
        tracer.uninstall()
    (_, plain_times), _, a2, f2, fails2 = measure(w, half, 1, w.run_pass)
    fails += fails2 + w.final_checks(results)
    if not pass_counts_equal(tracer, passes):
        fails.append("traced passes made different calls or counts")
    metrics = {name: (value, unit)
               for name, (value, unit, _) in per_layer_metrics(
                   tracer, passes, traced_times, plain_times).items()}
    metrics["startup.import_s"] = (median(probes.imports), "s")
    tracer.write(str(ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.npz"))
    print(f"{args.workload}: {len(passes)} traced passes, {len(tracer.start)} spans, "
          f"{len(plain_times)} untraced passes", file=sys.stderr)
    return metrics, attempted + a2, failed + f2, fails


def main(argv=None):
    import json
    import shutil

    args = parse_args(argv)
    import_projeq()
    import workloads

    out_dir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    w = workloads.make(args.workload, args.seed, out_dir)
    try:
        if args.trace:
            metrics, attempted, failed, fails = run_traced(w, args)
        else:
            metrics, attempted, failed, fails = run_untraced(w, args)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for msg in fails[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
