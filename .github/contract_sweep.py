"""The README's CLI contract on every mutated manifest, swept exhaustively.

Each base manifest of the contract test in tests/test_cli.py
(CONTRACT_BASES, with CONTRACT_RUN), at each of its paths (COMMON_PATHS
and its KIND_PATHS), takes each bad value (BAD_VALUES, and the huge and
infinite values and the long and deeply nested expressions below), and
every command runs on it in-process through `cli.main`, with numpy's
RuntimeWarnings as errors. A run breaks the contract when it raises,
exits outside {0, 1, 2}, writes no report.json, exits 2 without an
"error", exits 1 with no failing audit, or takes over 10 s. The
Hypothesis contract test draws 120 of these cases; this sweep runs all
of them. Run it from the repository root:

    PYTHONPATH=src python .github/contract_sweep.py

It prints every broken run and exits 1 if there is one, else 0.
"""

import contextlib
import io
import itertools
import json
import signal
import sys
import tempfile
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_cli import (  # noqa: E402
    BAD_VALUES,
    COMMON_PATHS,
    CONTRACT_BASES,
    CONTRACT_RUN,
    KIND_PATHS,
    mutate,
)

from projeq.cli import main  # noqa: E402

COMMANDS = ("check-bm", "pair", "geodesic", "conserve", "weyl", "classify2d", "lc-build",
            "split", "example")
# a 401-digit integer literal, an infinite exponent, the float range's ends, an
# overflowing literal in text and the smallest subnormal
HUGE_VALUES = [10 ** 400, "x^1e400", 1e308, -1e308, "1e400", 5e-324]
# a 1,200-term sum, and nestings past the parser's stack: 300 parentheses,
# 2,000 unary minuses, a 1,000-link power chain and 300 nested calls
DEEP_VALUES = [" + ".join(["1"] * 1200), "(" * 300 + "1" + ")" * 300, "-" * 2000 + "1",
               "^".join(["1"] * 1000), "exp(" * 300 + "0" + ")" * 300]
LIMIT_S = 10.0


class _Timeout(BaseException):
    """Raised by the alarm; a BaseException, so that no handler in projeq catches it."""


def _alarm(signum, frame):
    raise _Timeout


def broken(command, manifest, out):
    """Why the run of command on manifest breaks the contract, or None."""
    report = out / "report.json"
    report.unlink(missing_ok=True)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--manifest", str(manifest), "--out", str(out)])
    except _Timeout:
        return f"took over {LIMIT_S:g} s"
    except Exception as err:  # noqa: BLE001 - any exception breaks the contract
        return f"raised {type(err).__name__}: {err}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    if code not in (0, 1, 2):
        return f"exit {code}"
    if not report.is_file():
        return f"exit {code} with no report.json"
    rep = json.loads(report.read_text(encoding="utf-8"))
    if code == 2 and "error" not in rep:
        return "exit 2 with no error in report.json"
    if code == 1 and not any(a["pass"] is False for a in rep.get("audits", ())):
        return "exit 1 with no failing audit"
    return None


def main_sweep():
    signal.signal(signal.SIGALRM, _alarm)
    runs, breaks, slowest = 0, [], (0.0, None)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        manifest = Path(tmp) / "m.json"
        for kind in sorted(CONTRACT_BASES):
            for path, value in itertools.product(COMMON_PATHS + KIND_PATHS[kind],
                                                 BAD_VALUES + HUGE_VALUES + DEEP_VALUES):
                doc = json.loads(json.dumps({**CONTRACT_BASES[kind], "run": CONTRACT_RUN}))
                mutate(doc, path, value)
                manifest.write_text(json.dumps(doc), encoding="utf-8")
                for command in COMMANDS:
                    start = time.perf_counter()
                    why = broken(command, manifest, Path(tmp) / command)
                    runs += 1
                    slowest = max(slowest, (time.perf_counter() - start, (kind, path, command)),
                                  key=lambda s: s[0])
                    if why:
                        breaks.append(f"{kind} {path} = {repr(value)[:40]}, {command}: {why}")
                        print("BROKEN:", breaks[-1], flush=True)
    print(f"{runs} runs, {len(breaks)} broken; slowest {slowest[0]:.3f} s {slowest[1]}")
    return 1 if breaks else 0

if __name__ == "__main__":
    sys.exit(main_sweep())
