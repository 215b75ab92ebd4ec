"""Record the golden reduced figure that tests/test_golden.py compares.

    PYTHONPATH=src python tests/golden/record.py [--diff]

Runs `metabeam figure --figure fig6` on golden.cfg and stores next to this
file what the run wrote: the figure CSV, each training log without its
wall_time column (a timing, not a result) and both checkpoints.
Re-record only with a change that alters results on purpose, and list the
largest difference per method with that change.

With --diff it writes nothing: it reruns the figure and prints, for each
recorded file, `identical` or the largest relative difference of its numbers
per method (rows of the figure, losses of a log, parameters of a
checkpoint). It exits 1 when some file differs.
"""

import argparse
import csv
import os
import sys
import tempfile

import numpy as np

from metabeam import cli, nn

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


def _numbers(name, path):
    """{method: array} of the numbers a kept file records."""
    if name.endswith(".ckpt"):
        return {name[: -len(".ckpt")]: nn.pack(nn.load_checkpoint(path))}
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if name.endswith("_train.csv"):
        columns = ("support_loss", "query_loss")
        return {name[: -len("_train.csv")]:
                np.array([[float(r[c]) for c in columns] for r in rows])}
    by_method = {}
    for r in rows:
        by_method.setdefault(r["method"], []).append(
            [float(r["wsr_mean"]), float(r["wsr_std"])])
    return {m: np.array(v) for m, v in by_method.items()}


def _largest_rel_diff(got, want):
    """max |got - want| / |want|, taking |want| = 1 where want is 0."""
    if got.shape != want.shape:
        return f"shape {got.shape} against {want.shape}"
    scale = np.where(want == 0.0, 1.0, np.abs(want))
    return f"largest relative difference {np.max(np.abs(got - want) / scale):.3e}"


def diff():
    """Print how a fresh run differs from the recorded files; 1 if any does."""
    differs = False
    with tempfile.TemporaryDirectory() as out_dir:
        kept = run(out_dir)
        recorded = sorted(filter(_kept, os.listdir(HERE)))
        for name in sorted(set(kept) | set(recorded)):
            if name not in kept or name not in recorded:
                print(f"{name}: {'not written' if name in recorded else 'not recorded'}")
                differs = True
                continue
            with open(os.path.join(HERE, name), "rb") as fh:
                if fh.read() == kept[name]:
                    print(f"{name}: identical")
                    continue
            differs = True
            got = _numbers(name, os.path.join(out_dir, name))
            want = _numbers(name, os.path.join(HERE, name))
            for method in sorted(set(got) | set(want)):
                if method not in got or method not in want:
                    print(f"{name}: {method} only in the {'run' if method in got else 'record'}")
                else:
                    print(f"{name}: {method} {_largest_rel_diff(got[method], want[method])}")
    return 1 if differs else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="Record the golden reduced figure.")
    parser.add_argument("--diff", action="store_true",
                        help="compare a fresh run with the record and write nothing")
    if parser.parse_args(argv).diff:
        return diff()
    with tempfile.TemporaryDirectory() as out_dir:
        kept = run(out_dir)
    for name, data in kept.items():
        with open(os.path.join(HERE, name), "wb") as fh:
            fh.write(data)
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
