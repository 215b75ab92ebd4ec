"""Record the golden reduced figure that tests/test_golden.py compares.

    PYTHONPATH=src python tests/golden/record.py

Runs `metabeam figure --figure fig6` on golden.cfg and stores next to this
file what the run wrote: the figure CSV, each training log without its
wall_time column (a timing, not a result) and both checkpoints.
Re-record only with a change that alters results on purpose, and list the
largest difference per method with that change.
"""

import os
import sys
import tempfile

from metabeam import cli

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join(HERE, "golden.cfg")
FIGURE = "fig6"


def _kept(name):
    return name == f"{FIGURE}.csv" or name.endswith(("_train.csv", ".ckpt"))


def _without_wall_time(text):
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def run(out_dir):
    """Run the golden figure into out_dir; returns {file name: bytes kept}."""
    code = cli.main(["--config", CONFIG, "--out", out_dir, "figure", "--figure", FIGURE])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"metabeam figure exited with {code}")
    kept = {}
    for name in sorted(filter(_kept, os.listdir(out_dir))):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name.endswith("_train.csv"):
            data = _without_wall_time(data.decode()).encode()
        kept[name] = data
    return kept


def main():
    with tempfile.TemporaryDirectory() as out_dir:
        kept = run(out_dir)
    for name, data in kept.items():
        with open(os.path.join(HERE, name), "wb") as fh:
            fh.write(data)
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
