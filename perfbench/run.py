"""metabeam benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src. With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it wraps the program's functions from
outside and reports the per-layer metrics instead. The last line of
standard output is the result; the line before it records the environment.
"""

import os

# One BLAS thread, so each workload is one single-threaded process. This has
# to happen before numpy is first imported, here and in the set-up children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
# Units per workload in a traced run, enough for each layer's medians: a
# solver unit is one channel per SNR, a stream unit 50 slots per method.
TRACE_UNITS = {"train": 2, "solver": 6, "stream": 3}
# Rates, losses and rewards pass this; a changed result does not.
REFERENCE_RTOL = 1e-6


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(name, seed, work):
    """Median wall time from spawning a fresh interpreter to its first call.

    Each child imports the package, parses the config and writes what the
    workload's units read, then reports ready; see setup_child.py.
    """
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "setup_child.py"), name, str(seed),
               str(work / f"setup-{i}")]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up child exited with {code}")
        times.append(ready - start)
    return statistics.median(times)


def check_reference(name, work):
    """Run the reference unit twice: outputs must agree byte for byte, and
    with the values recorded in reference.json."""
    from workloads import REFERENCE_SEED, UnitResult, run_unit, setup

    ref_work = str(work / "reference")
    ref_cfg = setup(name, REFERENCE_SEED, ref_work)
    first = run_unit(name, ref_cfg, ref_work, reference=True)
    second = run_unit(name, ref_cfg, ref_work, reference=True)
    total = UnitResult()
    total.merge(first)
    total.merge(second)
    if first.outputs != second.outputs:
        print("perfbench: two reference passes wrote different outputs", file=sys.stderr)
        total.add(0, 1)
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        recorded = json.load(fh)[name]
    if not values_match(first.values, recorded):
        print(f"perfbench: reference values {first.values} != recorded {recorded}",
              file=sys.stderr)
        total.add(0, 1)
    return total


def values_match(values, recorded, rtol=REFERENCE_RTOL):
    return len(values) == len(recorded) and all(
        math.isclose(v, r, rel_tol=rtol, abs_tol=rtol) for v, r in zip(values, recorded))


def run_bracketed(kernel, before, name, cfg, work):
    """One unit between two kernel timings.

    Returns (unit seconds, unit time relative to the kernel, kernel seconds
    after the unit, UnitResult). `before` is the kernel time just before.
    """
    from workloads import run_unit

    start = time.perf_counter()
    result = run_unit(name, cfg, str(work))
    seconds = time.perf_counter() - start
    after = kernel()
    return seconds, seconds / (0.5 * (before + after)), after, result


def timed_units(name, cfg, seed, work, seconds):
    """Run units with fresh seeds until the next one would overrun `seconds`.

    Returns (unit seconds, relative unit times, kernel seconds, UnitResult).
    """
    from kernel import ReferenceKernel
    from workloads import UnitResult, unit_seed

    kernel = ReferenceKernel()
    times, rel, marks, total = [], [], [], UnitResult()
    begin = time.perf_counter()
    marks.append(kernel())
    while not times or (time.perf_counter() - begin + statistics.fmean(times)
                        + statistics.fmean(marks) <= seconds):
        unit_cfg = replace(cfg, seed=unit_seed(seed, len(times)))
        t, r, after, result = run_bracketed(kernel, marks[-1], name, unit_cfg, work)
        times.append(t)
        rel.append(r)
        marks.append(after)
        total.merge(result)
    return times, rel, marks, total


def traced_run(name, cfg, seed, work, run_id):
    """Per-layer metrics: the workload traced, plus every other one.

    The workload's own units run untraced and then traced on the same seed,
    so trace.overhead_frac compares like with like. Every other workload
    then runs traced too, so each traced run reports every layer.
    """
    import layers
    from kernel import ReferenceKernel
    from spans import Tracer
    from workloads import WORKLOADS, UnitResult, run_unit, setup, unit_seed

    kernel = ReferenceKernel()
    tracer = Tracer(run_id)
    total = UnitResult()
    plain, traced = [], []
    mark = kernel()
    for u in range(TRACE_UNITS[name]):
        unit_cfg = replace(cfg, seed=unit_seed(seed, u))
        for log in (plain, traced):
            if log is traced:
                layers.install(tracer)
            try:
                seconds, rel, mark, result = run_bracketed(kernel, mark, name, unit_cfg, work)
            finally:
                tracer.uninstall()
            log.append((seconds, rel))
            total.merge(result)
    traced_wall = sum(seconds for seconds, _ in traced)
    for other in sorted(WORKLOADS):
        if other == name:
            continue
        other_work = work / other
        other_cfg = setup(other, seed, str(other_work))
        layers.install(tracer)
        start = time.perf_counter()
        try:
            for u in range(TRACE_UNITS[other]):
                total.merge(run_unit(other, replace(other_cfg, seed=unit_seed(seed, u)),
                                     str(other_work)))
        finally:
            traced_wall += time.perf_counter() - start
            tracer.uninstall()
    metrics = layers.report(tracer.spans)
    overhead = sum(r for _, r in traced) / sum(r for _, r in plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.wall_ms"] = (1e3 * traced_wall, "ms")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    write_spans(tracer.spans, OUT / f"spans-{name}-{seed}.jsonl")
    timing = {"plain_s": [s for s, _ in plain], "traced_s": [s for s, _ in traced]}
    return metrics, timing, total


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            attrs = {k: v for k, v in s.attrs.items() if k != "marks"}
            fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                 "run": s.run, "start": s.start, "end": s.end,
                                 "attrs": attrs}) + "\n")


def environment():
    """What the numbers depend on besides the code."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             text=True, capture_output=True, timeout=30).stdout.split()
    except OSError:
        git = []
    # A checkout that is not a repository of its own has no commit to report.
    commit = git[1] if len(git) == 2 and Path(git[0]).resolve() == ROOT else "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "metabeam").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def main(argv=None):
    if not (SRC / "metabeam" / "__init__.py").is_file():
        print(f"perfbench: no metabeam sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    name, seed = args.workload, args.seed
    work = OUT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        from workloads import setup

        cfg = setup(name, seed, str(work))
        total = check_reference(name, work)
        if args.trace:
            metrics, timing, measured = traced_run(name, cfg, seed, work, f"{name}-{seed}")
        else:
            setup_s = measure_setup(name, seed, work)
            times, rel, marks, measured = timed_units(name, cfg, seed, work, args.seconds)
            metrics = {
                "setup_s": (setup_s, "s"),
                "run_rel": (statistics.median(rel), "ratio"),
                "wsr_mean": (statistics.fmean(measured.quality), "bit/s/Hz"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
            }
            timing = {"units": len(times), "run_s": statistics.median(times),
                      "kernel_s": statistics.median(marks)}
        total.merge(measured)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"env": environment(), "timing": timing}))
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
