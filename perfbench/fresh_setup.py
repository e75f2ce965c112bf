"""One set-up of a workload in a fresh process, for ``setup_s``.

    python3 perfbench/fresh_setup.py WORKLOAD SEED WORKDIR [ARTIFACT]

Imports the program, performs what the workload does before its first
operation (``workloads.SETUPS``) and prints ``ready``.  The benchmark times
from starting this process to reading that line, so ``setup_s`` covers
interpreter start, imports and set-up, as a user's fresh process pays them.
"""

from __future__ import annotations

import os
import sys


def main(argv) -> int:
    workload, seed, work = argv[0], int(argv[1]), argv[2]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    ctx = workloads.Context(seed=seed, seconds=0.0, work=work, workers=1,
                            artifact=argv[3] if len(argv) > 3 else None)
    workloads.SETUPS[workload](ctx)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
