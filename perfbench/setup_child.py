"""One timed set-up: import, parse the config, write what the units read.

run.py starts this in a fresh interpreter and times it from spawn to the
"ready" line:

    python3 perfbench/setup_child.py <workload> <seed> <out_dir>
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from workloads import setup

    setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print("ready", flush=True)
