"""One set-up measurement in a fresh interpreter.

    python3 perfbench/probe.py <workload> <seed>

Prints {"import_s": ..., "setup_s": ...}: the time to import projeq, and
the time to import it and build every structure of the workload, both
wall time. run.py starts several of these and reports the medians.
"""

import json
import sys
import time

T0 = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    import projeq  # noqa: F401

    t_import = time.perf_counter()
    import workloads

    workloads.make(workload, seed, HERE.parent / ".perfbench").setup()
    t_setup = time.perf_counter()
    print(json.dumps({"import_s": t_import - T0, "setup_s": t_setup - T0}))


if __name__ == "__main__":
    main()
