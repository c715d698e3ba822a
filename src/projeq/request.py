"""The data stage of a command-line run: arguments, --out, the manifest as
data (Manifest.parse), --tol, --seed and the run budgets, checked before
numpy loads. A structural error found here is answered with its report.json
and exit 2; only a request that passes imports projeq.cli to run it."""

import argparse
import os
import sys

from . import reports
from .errors import ManifestError, ProjeqError
from .manifest import Manifest, RunParams, read_json

# the commands of projeq.cli, in its dispatch order
COMMANDS = ("check-bm", "pair", "geodesic", "conserve", "weyl", "classify2d", "lc-build",
            "split", "example")


def _parse_tol_overrides(items):
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ManifestError(f"--tol expects KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise ManifestError(f"--tol value for {key!r} is not numeric") from None
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projeq",
        description="Audits for geodesically linked metric pairs and their integrals.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", action="append", default=[], metavar="KEY=VALUE")
    return parser


def refuse(command, out_dir, error) -> int:
    """Exit code 2, once the structural error's report.json is written."""
    reports.write_report(out_dir, {"command": command, "pass": False,
                                   "error": f"{type(error).__name__}: {error}"})
    print(f"error: {error}", file=sys.stderr)
    return 2


def read(argv=None):
    """(command, manifest, out_dir) of argv, the manifest checked as data, with
    --tol and --seed applied; None once a structural error is answered."""
    args = build_parser().parse_args(argv)
    try:  # no report.json can be written where the output directory cannot be
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        print(f"error: cannot write to --out {args.out}: {e}", file=sys.stderr)
        return None
    try:
        manifest = Manifest.parse(read_json(args.manifest))
        try:  # the values pass the check of Tolerances, as the manifest's did
            tols = manifest.tolerances.override(**_parse_tol_overrides(args.tol))
        except (KeyError, ValueError) as e:
            raise ManifestError(str(e.args[0])) from None
        run = manifest.run
        if args.seed is not None:
            run = RunParams(**{**vars(run), "seed": args.seed})
        run.check()
    except ProjeqError as e:
        refuse(args.command, args.out, e)
        return None
    return args.command, Manifest(**{**vars(manifest), "run": run, "tolerances": tols}), args.out


def main(argv=None) -> int:
    """The `projeq` command: read, then projeq.cli.run once the request passes."""
    req = read(argv)
    if req is None:
        return 2
    from .cli import run

    return run(*req)
