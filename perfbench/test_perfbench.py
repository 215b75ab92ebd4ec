"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

The end-to-end and traced runs each start run.py once on a short run, so
this file takes about half a minute.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from spans import Span, Tracer, module_self_ms, self_times  # noqa: E402
from workloads import check_rows, check_train_log, expected_rows  # noqa: E402

from metabeam.config import ExperimentConfig  # noqa: E402
from metabeam.runner import ResultRow  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec, {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def plain_run():
    return _run("stream", 0)


@pytest.fixture(scope="module")
def traced_run():
    return _run("train", 1)


def test_end_to_end_run_emits_exactly_the_declared_metrics(plain_run):
    spec, declared = _declared()
    env, result = plain_run
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == declared[name]["unit"]
        assert math.isfinite(metric["value"]) and metric["value"] != 0
    assert env["blas_threads"] == 1 and env["src_lines"] > 0


def test_traced_run_emits_exactly_the_declared_layers(traced_run):
    spec, declared = _declared()
    _, result = traced_run
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == declared[name]["unit"]
        assert math.isfinite(metric["value"])


def test_traced_self_times_fit_in_the_wall_time(traced_run):
    metrics = traced_run[1]["metrics"]
    selfs = [metrics[f"{m}.self_ms"]["value"] for m in layers.MODULES]
    assert all(v >= 0.0 for v in selfs)
    assert sum(selfs) <= metrics["trace.wall_ms"]["value"]


def test_declared_names_and_units_are_well_formed():
    spec, declared = _declared()
    assert len(declared) == len(spec["end_to_end"]) + len(spec["per_layer"])
    for name, metric in declared.items():
        assert NAME.fullmatch(name) and len(name) <= 64
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("higher", "lower")


def _rows(cfg, method, wsr):
    return [ResultRow(method, snr, seed, slot, wsr, 0.5, samples)
            for snr, seed, slot, samples in expected_rows(cfg, method)]


def test_a_nan_row_counts_as_failed():
    cfg = ExperimentConfig(snr_db=[0.0, 20.0], test_seeds=1, test_size=3)
    rows = _rows(cfg, "wmmse", 2.0)
    assert check_rows(rows, cfg, "wmmse") == 0
    rows[1] = ResultRow("wmmse", 20.0, 0, "final", float("nan"), 0.5, 3)
    assert check_rows(rows, cfg, "wmmse") == 1
    assert check_rows(rows[:1], cfg, "wmmse") == 2  # a missing row fails them all


def test_a_misplaced_stream_row_counts_as_failed():
    cfg = ExperimentConfig(snr_db=[10.0], test_seeds=1, slots=4, slot_size=5)
    rows = _rows(cfg, "mml", 6.0)
    assert check_rows(rows, cfg, "mml") == 0
    rows[2] = ResultRow("mml", 10.0, 0, "2", 6.0, 0.5, 4)  # wrong sample count
    assert check_rows(rows, cfg, "mml") == 1


def test_a_nan_loss_counts_as_a_failed_epoch():
    log = "epoch,support_loss,query_loss,wall_time\n1,-1.0,-1.1,0.300\n2,-1.2,-1.3,0.600\n"
    assert check_train_log(log, 2) == (0, [(-1.0, -1.1), (-1.2, -1.3)])
    assert check_train_log(log.replace("-1.3", "nan"), 2) == (1, [(-1.0, -1.1)])
    assert check_train_log(log, 3)[0] == 3


def test_self_time_subtracts_direct_children():
    spans = [Span(0, "runner.run_eval", -1, "r", 0.0, 10.0),
             Span(1, "wmmse.wmmse_solve", 0, "r", 1.0, 7.0),
             Span(2, "wmmse.solve_mu", 1, "r", 2.0, 3.0),
             Span(3, "objective.wsr", 0, "r", 8.0, 9.0)]
    assert self_times(spans) == {0: 3.0, 1: 5.0, 2: 1.0, 3: 1.0}
    assert module_self_ms(spans) == {"runner": 3e3, "wmmse": 6e3, "objective": 1e3}


def test_tracer_records_nesting_and_restores_the_original():
    class Owner:
        @staticmethod
        def outer(x):
            return Owner.inner(x) + 1

        @staticmethod
        def inner(x):
            return 2 * x

    original = Owner.inner
    tracer = Tracer("t")
    tracer.wrap(Owner, "outer", "a.outer", before=lambda a: {"x": a["x"]})
    tracer.wrap(Owner, "inner", "b.inner", after=lambda a, r: {"r": r})
    assert Owner.outer(3) == 7
    tracer.uninstall()
    assert Owner.inner is original
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.attrs) == ("a.outer", -1, {"x": 3})
    assert (inner.name, inner.parent, inner.attrs) == ("b.inner", outer.id, {"r": 6})
    assert outer.start <= inner.start <= inner.end <= outer.end
