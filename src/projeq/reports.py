"""Deterministic report emission.

report.json and any CSVs are byte-identical across runs with the same
manifest and seed: keys are sorted, floats go through repr (shortest
round-trip), and the only timestamp lives in header.txt, which is
excluded from determinism comparisons by construction.
"""

from __future__ import annotations

import json
import math
import os
import time


def sanitize(obj):
    """Coerce a report payload to plain JSON-serializable data.

    numpy scalars/arrays become Python numbers/lists; tuples become
    lists; non-finite floats become strings; objects that are neither
    are dropped from dicts and stringified elsewhere.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, complex):
        return {"re": sanitize(obj.real), "im": sanitize(obj.imag)}
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return sanitize(obj.item())
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if callable(v) or hasattr(v, "eval"):
                continue
            out[str(k)] = sanitize(v)
        return out
    if isinstance(obj, (list, tuple)) or hasattr(obj, "tolist"):
        seq = obj.tolist() if hasattr(obj, "tolist") else list(obj)
        return [sanitize(v) for v in seq]
    return str(obj)


def audit(name: str, value, threshold, passed: bool, **detail) -> dict:
    entry = {
        "audit": name,
        "value": sanitize(value),
        "threshold": sanitize(threshold),
        "pass": bool(passed),
    }
    if detail:
        entry["detail"] = sanitize(detail)
    return entry


def render_json(payload: dict) -> str:
    return json.dumps(sanitize(payload), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_report(out_dir: str, payload: dict) -> str:
    """report.json and header.txt in out_dir, which the CLI made first."""
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_json(payload))
    header = os.path.join(out_dir, "header.txt")
    with open(header, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"generated {time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")
    return path


def format_float(v) -> str:
    return repr(float(v))


def write_csv(path: str, columns, rows) -> None:
    """LF-terminated CSV with repr-formatted floats; header mandatory. An
    array of rows is read through tolist(), as Python floats, and each
    float is written as its repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        if hasattr(rows, "tolist"):
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())
        else:
            fh.writelines(",".join(v if isinstance(v, str) else format_float(v) for v in row)
                          + "\n" for row in rows)


def all_pass(audits) -> bool:
    """True when there is at least one audit and every audit passed: a run
    that audited nothing has shown nothing."""
    return bool(audits) and all(a.get("pass", False) for a in audits)


def summarize(command: str, audits, tolerances, run, extra=None) -> dict:
    payload = {
        "command": command,
        "audits": list(audits),
        "pass": all_pass(audits),
        "tolerances": tolerances.as_dict(),
        "run": {
            "seed": run.seed,
            "samples": run.samples,
            "horizon": run.horizon,
            "geodesics": run.geodesics,
        },
    }
    if extra:
        payload.update(extra)
    return payload
