"""Record the reference values that every benchmark run checks against.

    python3 perfbench/record_reference.py

Runs each workload's reference unit (fixed seed, small size) and writes the
result values to reference.json. Rerun it only when a change is meant to
alter results, and say so in that change.
"""

import json
import os
import shutil
import sys
from pathlib import Path

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    from workloads import REFERENCE_SEED, WORKLOADS, run_unit, setup

    recorded = {}
    work = here.parent / ".perfbench_out" / "record-reference"
    try:
        for name in sorted(WORKLOADS):
            cfg = setup(name, REFERENCE_SEED, str(work / name))
            result = run_unit(name, cfg, str(work / name), reference=True)
            if result.failed:
                sys.exit(f"reference unit of {name} failed {result.failed} checks")
            recorded[name] = result.values
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(here / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
