"""Interleaved parent/head runs of perfbench, summarised in one JSON file.

    python .github/bench.py PARENT_REF [--head REF] [--out BENCH.json]

Run it from the repository root. It extracts PARENT_REF and the head (HEAD,
or --head REF) with `git archive` into a temporary directory (TMPDIR picks
where), compiles each copy's `src/projeq` (so that no run pays for
byte-compiling), and runs BENCHMARK.json's command with `--workload W
--seed 0 --seconds S --trace 0` from each copy, S being its run_seconds.
For every workload it makes PAIRS pairs of runs, one per side,
interleaved with the other workloads' pairs; the side that runs first
alternates from pair to pair, so a drift of the machine over the session
falls on both sides alike. To measure changes that are not committed yet,
stage them and pass `--head "$(git stash create)"`, which names the index
and the working tree as a commit without touching either.

The file holds, per workload and end-to-end metric of BENCHMARK.json: the
median and the interquartile range of each side, the head/parent ratio of
the medians, the pairs the head won, whether the medians differ by more
than the parent's IQR, and the metric's bound with whether the ratio is
within it. It also holds every run (side, pair, order, `correct`,
`failed`, `attempted` and its metrics), the Python and numpy versions, the
core count and the line count of each side's `src/projeq/*.py`. Medians
over repeats, not single runs, are what it compares (Georges, Buytaert and
Eeckhout, "Statistically rigorous Java performance evaluation", OOPSLA
2007). The file is rewritten after every pair, so an interrupted run leaves the
pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the git ref to compare against")
    ap.add_argument("--head", default="HEAD", help="the git ref measured (default HEAD)")
    ap.add_argument("--out", default="BENCH.json", help="the file written")
    return ap.parse_args(argv)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(ref, dest):
    """The tree of ref in dest, compiled; its commit id."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest / "src" / "projeq")],
                   check=True)
    return commit


def line_counts(tree):
    """`wc -l src/projeq/*.py` of a copy: lines per file and their total."""
    files = {path.name: path.read_bytes().count(b"\n")
             for path in sorted((tree / "src" / "projeq").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def run_once(tree, workload, config):
    """One benchmark run from a copy: its last JSON line, or a failed record."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # run.py imports its own src
    command = config["command"]
    cmd = [sys.executable if command[0] == "python3" else command[0], *command[1:],
           "--workload", workload, "--seed", "0", "--seconds", str(config["run_seconds"]),
           "--trace", "0"]
    try:
        out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                             timeout=20 * config["run_seconds"] + 300)
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as err:
        return {"correct": False, "failed": None, "attempted": None, "metrics": {},
                "error": f"{type(err).__name__}: {err}"}


def spread(values):
    """(median, interquartile range) of values."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def summary(runs, metrics, workloads):
    """Per workload and metric, each side's median and IQR, and how they compare."""
    out = {}
    for workload in workloads:
        out[workload] = {}
        for metric in metrics:
            name, better = metric["name"], metric["better"]
            pairs = {}
            for run in runs:
                value = run["metrics"].get(name, {}).get("value")
                if run["workload"] == workload and value is not None:
                    pairs.setdefault(run["pair"], {})[run["side"]] = value
            pairs = [p for p in pairs.values() if len(p) == 2]
            if not pairs:
                continue
            (pm, piqr), (hm, hiqr) = (spread([p[side] for p in pairs])
                                      for side in ("parent", "head"))
            ratio = hm / pm
            won = sum((p["head"] < p["parent"]) if better == "lower" else
                      (p["head"] > p["parent"]) for p in pairs)
            bound = metric["bound"]
            out[workload][name] = {
                "unit": metric["unit"],
                "better": better,
                "parent": {"median": pm, "iqr": piqr},
                "head": {"median": hm, "iqr": hiqr},
                "ratio": ratio,
                "pairs": len(pairs),
                "pairs_won_by_head": won,
                "beyond_parent_iqr": abs(hm - pm) > piqr,
                "bound": bound,
                "within_bound": (ratio <= 1.0 + bound if better == "lower"
                                 else ratio >= 1.0 - bound),
            }
    return out


def numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def main(argv=None):
    args = parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    work = Path(tempfile.mkdtemp(prefix="projeq-bench-"))
    try:
        trees = {"parent": work / "parent", "head": work / "head"}
        commits = {side: extract(ref, trees[side])
                   for side, ref in (("parent", args.parent), ("head", args.head))}
        record = {
            "commits": commits,
            "command": " ".join(config["command"]) + " --workload W --seed 0 --seconds "
                       f"{config['run_seconds']} --trace 0",
            "pairs": PAIRS,
            "python": platform.python_version(),
            "numpy": numpy_version(),
            "cores": os.cpu_count(),
            "lines": {side: line_counts(tree) for side, tree in trees.items()},
            "summary": {},
            "runs": [],
        }
        for pair in range(PAIRS):
            for workload in workloads:
                order = ("parent", "head") if pair % 2 == 0 else ("head", "parent")
                for position, side in enumerate(order):
                    rec = run_once(trees[side], workload, config)
                    record["runs"].append({"workload": workload, "pair": pair, "side": side,
                                           "first": position == 0, **rec})
                    print(f"pair {pair} {workload} {side}: correct={rec['correct']} "
                          f"failed={rec['failed']} " + " ".join(
                              f"{k}={v['value']:.4g}" for k, v in rec["metrics"].items()),
                          flush=True)
            record["summary"] = summary(record["runs"], config["end_to_end"], workloads)
            Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for workload, metrics in record["summary"].items():
        for name, s in metrics.items():
            print(f"{workload:14s} {name:12s} parent {s['parent']['median']:.4g} "
                  f"(IQR {s['parent']['iqr']:.2g})  head {s['head']['median']:.4g} "
                  f"(IQR {s['head']['iqr']:.2g})  ratio {s['ratio']:.3f}  "
                  f"won {s['pairs_won_by_head']}/{s['pairs']}  "
                  f"{'within' if s['within_bound'] else 'OUTSIDE'} bound {s['bound']}")
    bad = [r for r in record["runs"] if r["correct"] is not True or r["failed"] != 0]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
