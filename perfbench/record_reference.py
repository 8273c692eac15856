"""Record the train workload's first-step reference for seeds 0-127.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: for each seed in SEEDS, the loss and
the pre-clip gradient norm of the first training step at the default
TrainConfig.  The train workload checks its first step against this table;
a run with a seed outside it reports that it has no recorded reference.
Re-record only when a change to setdet is meant to change these numbers.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(128)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from run import BLAS_THREADS
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS     # as the benchmark runs
    import workloads

    table = {}
    for seed in SEEDS:
        loss, norm = workloads.Train(seed).setup().first_step
        table[str(seed)] = [loss, norm]
    rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(entry)}"
                      for seed, entry in table.items())
    with open(workloads.REFERENCE_FILE, "w") as fh:
        fh.write('{"train_first_step": {\n' + rows + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
