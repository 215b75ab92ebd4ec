"""The benchmark's workloads: configs, set-up, one unit of work, output checks.

Every workload drives the user-facing entry points `runner.run_training`
and `runner.run_eval` at the reference model shape (N=K=3, width-64 nets,
40-sample splits, 40 tasks, a 500-channel dataset, M=64). A run repeats one
unit of work with a fresh seed per unit, so a longer run averages over more
inputs. The program only ever sees the parsed config and its seed.
"""

import math
import os
import sys
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

_REFERENCE_SHAPE = """
[system]
n = 3
k = 3
[train]
size = 500
snr_db = 10
[meta]
n_support = 40
n_query = 40
n_tasks = 40
width = 64
"""

_SOLVER = _REFERENCE_SHAPE + """
[system]
snr_db = 0, 20
[test]
channel = rayleigh
size = 1
seeds = 1
[eval]
wmmse_restarts = 3
"""

_STREAM = _REFERENCE_SHAPE + """
[system]
snr_db = 10
[test]
channel = nakagami(m=1)
size = 200
seeds = 1
slots = 50
slot_size = 40
[memory]
capacity = 64
"""

# name -> (config text, methods in call order, method whose rows give wsr_mean)
WORKLOADS = {
    "train": (_REFERENCE_SHAPE, ("maml", "unsupervised"), "maml"),
    "solver": (_SOLVER, ("wmmse",), "wmmse"),
    "stream": (_STREAM, ("unsupervised", "maml", "mml"), "mml"),
}

# Training epochs per unit. A maml epoch costs about seven unsupervised ones,
# so the two trainers take comparable shares of a unit.
TRAIN_EPOCHS = {"maml": 3, "unsupervised": 10}

# The reference pass: a fixed seed and a smaller unit whose outputs are
# compared with the values recorded in reference.json.
REFERENCE_SEED = 0
REFERENCE_TRAIN_EPOCHS = {"maml": 1, "unsupervised": 2}
REFERENCE_SIZES = {"solver": {}, "stream": {"slots": 5}}

LOG_HEADER = "epoch,support_loss,query_loss,wall_time"


@dataclass
class UnitResult:
    """What one unit did and produced."""

    attempted: int = 0  # training epochs logged plus eval rows expected
    failed: int = 0
    quality: list = field(default_factory=list)  # wsr values, bit/s/Hz
    values: list = field(default_factory=list)  # compared with reference.json
    outputs: dict = field(default_factory=dict)  # name -> deterministic bytes

    def add(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def merge(self, other):
        self.add(other.attempted, other.failed)
        self.quality += other.quality
        self.values += other.values


def unit_seed(seed, unit):
    """Config seed of the unit-th unit of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, unit]).generate_state(1)[0])


def setup(name, seed, out_dir):
    """Parse the workload's config and write what its units read."""
    from metabeam import nn, runner
    from metabeam.config import parse_config_text

    cfg = replace(parse_config_text(WORKLOADS[name][0]), seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    if name == "stream":
        params = runner.initial_params(cfg)
        for method in ("maml", "unsupervised"):
            nn.save_checkpoint(runner.checkpoint_path(out_dir, method), params)
    return cfg


def run_unit(name, cfg, out_dir, reference=False):
    """One unit of the workload: entry-point calls, then output checks."""
    _, methods, quality_method = WORKLOADS[name]
    if name == "train":
        epochs = REFERENCE_TRAIN_EPOCHS if reference else TRAIN_EPOCHS
        return _train_unit(cfg, out_dir, methods, epochs)
    if reference:
        cfg = replace(cfg, **REFERENCE_SIZES[name])
    return _eval_unit(cfg, out_dir, methods, quality_method)


def _report_raise(what):
    print(f"perfbench: {what} raised", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _train_unit(cfg, out_dir, methods, epochs):
    from metabeam import runner

    result = UnitResult()
    for method in methods:
        count = epochs[method]
        run_cfg = replace(cfg, meta=replace(cfg.meta, epochs=count))
        try:
            ckpt = runner.run_training(run_cfg, method, out_dir)
            with open(os.path.join(out_dir, f"{method}_train.csv"), encoding="utf-8") as fh:
                log = fh.read()
            with open(ckpt, "rb") as fh:
                result.outputs[f"{method}.ckpt"] = fh.read()
        except Exception:
            _report_raise(f"run_training({method!r})")
            result.add(count, count)
            continue
        failed, losses = check_train_log(log, count)
        result.add(count, failed)
        # The wall_time column is a timing; every other column is a result.
        result.outputs[f"{method}_train.csv"] = "\n".join(
            line.rsplit(",", 1)[0] for line in log.splitlines()).encode()
        if losses:
            result.values += list(losses[-1])
            if method == "maml":
                # With unit weights the loss is -(1/K) sum_k ln(1 + SINR_k).
                result.quality.append(-losses[-1][1] * cfg.k / math.log(2.0))
    return result


def check_train_log(text, epochs):
    """(failed epochs, [(support, query) per good epoch]) for a training log.

    An epoch fails when its row is missing, out of order or holds a loss
    that is not finite.
    """
    lines = text.splitlines()
    if not lines or lines[0] != LOG_HEADER or len(lines) != epochs + 1:
        return epochs, []
    failed, losses = 0, []
    for expected, line in enumerate(lines[1:], start=1):
        try:
            epoch, support, query, _ = line.split(",")
            ok = int(epoch) == expected
            pair = (float(support), float(query))
        except ValueError:
            ok = False
        if ok and all(math.isfinite(v) for v in pair):
            losses.append(pair)
        else:
            failed += 1
    return failed, losses


def expected_rows(cfg, method):
    """(snr_db, seed, slot, samples) of every row run_eval should return."""
    rows = []
    for snr in cfg.snr_db:
        for seed in range(cfg.test_seeds):
            if method in ("wmmse", "unsupervised"):
                rows.append((float(snr), seed, "final", cfg.test_size))
                continue
            rows += [(float(snr), seed, str(t), cfg.slot_size) for t in range(cfg.slots)]
            rows.append((float(snr), seed, "final", cfg.slots * cfg.slot_size))
    return rows


def check_rows(rows, cfg, method):
    """Number of failed rows: missing, misplaced, or not a finite rate.

    A row count other than the config's fails every expected row.
    """
    expected = expected_rows(cfg, method)
    if len(rows) != len(expected):
        return len(expected)
    failed = 0
    for row, (snr, seed, slot, samples) in zip(rows, expected):
        placed = (row.method, row.snr_db, row.seed, row.slot, row.samples) == (
            method, snr, seed, slot, samples)
        finite = math.isfinite(row.wsr_mean) and math.isfinite(row.wsr_std)
        if not (placed and finite and row.wsr_mean >= 0.0 and row.wsr_std >= 0.0):
            failed += 1
    return failed


def _eval_unit(cfg, out_dir, methods, quality_method):
    from metabeam import runner

    result = UnitResult()
    rows = []
    for method in methods:
        expected = len(expected_rows(cfg, method))
        try:
            got = runner.run_eval(cfg, method, out_dir)
        except Exception:
            _report_raise(f"run_eval({method!r})")
            result.add(expected, expected)
            continue
        result.add(expected, check_rows(got, cfg, method))
        result.values += [r.wsr_mean for r in got]
        result.quality += [r.wsr_mean for r in got
                           if r.method == quality_method and r.slot == "final"]
        rows += got
    path = os.path.join(out_dir, "results.csv")
    runner.emit_results(rows, path)
    with open(path, "rb") as fh:
        result.outputs["results.csv"] = fh.read()
    return result
