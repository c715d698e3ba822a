"""Steadiness check: two sets of runs of the same code, compared against
the bounds in BENCHMARK.json, plus two traced runs whose counts must
repeat exactly.

    python3 perfbench/steady.py

Set A uses seeds 0-9 and set B seeds 1000-1009; runs of the workloads
are interleaved. For every end-to-end metric on every workload it
reports each set's median and its spread, the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. Both sets run the same code, so it fails when any spread
exceeds the metric's bound, when the two medians differ by more than
the bound in either direction, or when the share of failed operations
differs between the sets. The traced runs repeat one seed; every count
must match.
Results are also written to .perfbench/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = {"count", "bytes", "calls/step"}
RUNS = 10


def run_once(cfg, workload, seed, trace):
    cmd = [sys.executable if cfg["command"][0] == "python3" else cfg["command"][0],
           *cfg["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(cfg["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                         timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in cfg["workloads"]]

    sets = {"A": 0, "B": 1000}
    runs = {(s, w): [] for s in sets for w in workloads}
    for i in range(RUNS):
        for s, base in sets.items():
            for w in workloads:
                rec = run_once(cfg, w, base + i, 0)
                runs[(s, w)].append(rec)
                print(f"set {s} {w} seed {base + i}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in rec["metrics"].items()),
                      flush=True)

    problems = []
    table = []
    for w in workloads:
        a, b = runs[("A", w)], runs[("B", w)]
        for rec in a + b:
            if not rec["correct"]:
                problems.append(f"{w}: a run reported incorrect output")
        share_a = {r["failed"] / r["attempted"] for r in a}
        share_b = {r["failed"] / r["attempted"] for r in b}
        if len(share_a | share_b) != 1:
            problems.append(f"{w}: failed share differs: {sorted(share_a | share_b)}")
        for m in cfg["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            shift = (mb - ma) / ma
            table.append({"workload": w, "metric": name, "bound": bound,
                          "median_a": ma, "median_b": mb, "spread_a": sa,
                          "spread_b": sb, "median_shift": shift})
            print(f"{w:14s} {name:12s} bound {bound:.2f}  median {ma:.4g} / {mb:.4g}  "
                  f"spread {sa:.3f} / {sb:.3f}  median shift {shift:+.3f}")
            if max(sa, sb) > bound:
                problems.append(f"{w} {name}: spread {max(sa, sb):.3f} > bound {bound}")
            if abs(shift) > bound:
                problems.append(f"{w} {name}: medians differ by {shift:+.3f}, bound {bound}")

    for w in workloads:
        t1, t2 = (run_once(cfg, w, 7, 1) for _ in range(2))
        units = {m["name"]: m["unit"] for m in cfg["per_layer"]}
        for name, unit in units.items():
            if unit in COUNT_UNITS and t1["metrics"][name]["value"] != t2["metrics"][name]["value"]:
                problems.append(f"{w} traced count {name} differs: "
                                f"{t1['metrics'][name]['value']} vs {t2['metrics'][name]['value']}")
        overhead = t1["metrics"]["trace.overhead_s"]["value"]
        print(f"{w:14s} traced counts compared; tracing overhead {overhead:.4f} s per pass")

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / "steady.json").write_text(json.dumps(
        {"table": table, "problems": problems, "runs": {f"{s}/{w}": r for (s, w), r in runs.items()}},
        indent=1))
    for p in problems:
        print("PROBLEM:", p)
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
