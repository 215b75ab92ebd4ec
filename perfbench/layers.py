"""Which program functions the traced run wraps, and the per-layer report.

Each wrapper sits in the namespace where the program looks the name up:
`wmmse` imports `hpd_solve` from `linalg` into its own globals, so the HPD
solve is wrapped as `wmmse.hpd_solve`; everything else is called through a
module attribute (`pipeline.evaluate_wsr`, `ad.grad`, ...) or a module
global (`update_memory`, `solve_mu`), which the wrapper replaces in place.
"""

import math
import statistics
import time

from spans import ancestors, module_self_ms, percentile, self_times

MODULES = ("autodiff", "channels", "linalg", "memory", "meta", "nn",
           "objective", "pipeline", "runner", "wmmse")


def _batch(key):
    return lambda a: {"b": len(a[key])}


def _epochs(a):
    return {"epochs": a["meta_cfg"].epochs}


def _snr(a):
    cfg = a["cfg"]
    return {"snr": round(10.0 * math.log10(cfg.p / cfg.sigma2)),
            "max_iters": a["max_iters"]}


def _iterations(a, result):
    return {"iterations": result.iterations,
            "maxed": result.iterations >= a["max_iters"]}


def _slot_clock(a):
    """Time each streaming slot through the loop's own on_slot callback.

    on_slot fires once per slot right after that slot's batch is scored, so
    the gap between two calls is one whole slot (adapt, memory update, next
    score); the last slot ends when the loop returns.
    """
    marks = []
    inner = a["on_slot"]

    def on_slot(t, wsr):
        marks.append(time.perf_counter())
        if inner is not None:
            inner(t, wsr)

    a["on_slot"] = on_slot
    return {"method": "mml" if a["capacity"] > 0 else "maml", "marks": marks}


def _memory_before(a):
    return {"m": a["mem"].capacity, "held": len(a["mem"]), "t": a["t"]}


def _memory_after(a, result):
    admitted = sum(e.inserted_at == a["t"] for e in result.entries)
    return {"admitted": admitted,
            "evicted": len(a["mem"]) - (len(result) - admitted)}


def install(tracer):
    """Wrap every traced call of the metabeam package."""
    from metabeam import (autodiff, channels, memory, meta, nn, objective,
                          pipeline, runner, wmmse)

    w = tracer.wrap
    w(runner, "run_training", "runner.run_training",
      before=lambda a: {"method": a["method"]})
    w(runner, "run_eval", "runner.run_eval",
      before=lambda a: {"method": a["method"]})
    w(runner, "emit_results", "runner.emit_results")
    w(runner, "_eval_wmmse", "runner.cell", before=lambda a: {"method": "wmmse"})
    w(runner, "_eval_forward", "runner.cell",
      before=lambda a: {"method": "unsupervised"})
    w(runner, "_eval_stream", "runner.cell",
      before=lambda a: {"method": a["method"]})
    w(channels, "make_mixed_dataset", "channels.make_mixed_dataset")
    w(channels, "task_from_dataset", "channels.task_from_dataset")
    w(meta, "meta_train", "meta.meta_train", before=_epochs)
    w(meta, "unsupervised_train", "meta.unsupervised_train", before=_epochs)
    w(meta, "outer_update", "meta.outer_update")
    w(meta, "adapt_on_test", "meta.adapt_on_test", before=_batch("batch"))
    w(meta, "_loss_and_grad", "meta.loss_grad", before=_batch("batch"))
    w(nn, "pack", "nn.pack")
    w(nn, "unpack", "nn.unpack")
    w(nn, "adam_step", "nn.adam_step")
    w(pipeline, "reconstruct_and_loss", "pipeline.reconstruct_and_loss",
      before=_batch("h_batch"), after=lambda a, r: {"nodes": len(a["tape"])})
    w(pipeline, "evaluate_wsr", "pipeline.evaluate_wsr", before=_batch("h_batch"))
    w(pipeline, "per_sample_losses", "pipeline.per_sample_losses",
      before=_batch("h_batch"))
    w(autodiff, "grad", "autodiff.grad")
    w(autodiff, "csolve_hpd", "autodiff.csolve_hpd",
      before=lambda a: {"b": a["s_re"].value.shape[0]})
    w(memory, "mml_test_loop", "memory.mml_test_loop", before=_slot_clock)
    w(memory, "update_memory", "memory.update_memory",
      before=_memory_before, after=_memory_after)
    w(wmmse, "wmmse_solve", "wmmse.wmmse_solve", before=_snr, after=_iterations)
    w(wmmse, "solve_mu", "wmmse.solve_mu")
    w(wmmse, "hpd_solve", "linalg.hpd_solve")
    w(objective, "wsr", "objective.wsr")


class _Index:
    """Span lookups by name, attributes and enclosing span."""

    def __init__(self, spans):
        self.by_id = {s.id: s for s in spans}
        self.by_name = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)

    def pick(self, name, **attrs):
        found = [s for s in self.by_name.get(name, [])
                 if all(s.attrs.get(k) == v for k, v in attrs.items())]
        if not found:
            raise LookupError(f"no traced call of {name} with {attrs}")
        return found

    def inside(self, name, outer):
        """Spans called `name` that run inside some span called `outer`."""
        return [s for s in self.by_name.get(name, [])
                if any(a.name == outer for a in ancestors(s, self.by_id))]


def _median_ms(spans, scale=1e3):
    return statistics.median(s.duration for s in spans) * scale


def report(spans):
    """Per-layer metrics of a traced run: name -> (value, unit)."""
    ix = _Index(spans)
    own = self_times(spans)
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    # autodiff: one tape pass is meta._loss_and_grad (forward + ad.grad)
    put("autodiff.loss_grad_ms.b40", _median_ms(ix.pick("meta.loss_grad", b=40)), "ms")
    put("autodiff.loss_grad_ms.b104", _median_ms(ix.pick("meta.loss_grad", b=104)), "ms")
    backward = [s for s in ix.pick("autodiff.grad")
                if ix.by_id[s.parent].attrs.get("b") == 40]
    put("autodiff.backward_ms.b40", _median_ms(backward), "ms")
    put("autodiff.tape_nodes.b40", statistics.median(
        s.attrs["nodes"] for s in ix.pick("pipeline.reconstruct_and_loss", b=40)), "count")
    put("autodiff.csolve_hpd_ms.b40", _median_ms(ix.pick("autodiff.csolve_hpd", b=40)), "ms")

    # pipeline: the forward-only twin, for slot scoring and memory scoring
    put("pipeline.forward_ms.b40", _median_ms(ix.pick("pipeline.evaluate_wsr", b=40)), "ms")
    put("pipeline.score_ms.b64",
        _median_ms(ix.pick("pipeline.per_sample_losses", b=64)), "ms")

    # meta
    outer = ix.pick("meta.outer_update")
    put("meta.outer_update_ms", _median_ms(outer), "ms")
    put("meta.tape_passes_per_epoch",
        len(ix.inside("autodiff.grad", "meta.outer_update")) / len(outer), "count")
    put("meta.adapt_on_test_ms.b40", _median_ms(ix.pick("meta.adapt_on_test", b=40)), "ms")
    put("meta.adapt_on_test_ms.b104", _median_ms(ix.pick("meta.adapt_on_test", b=104)), "ms")
    for method, fn in (("maml", "meta.meta_train"), ("unsupervised", "meta.unsupervised_train")):
        put(f"meta.epoch_ms.{method}", statistics.median(
            1e3 * s.duration / s.attrs["epochs"] for s in ix.pick(fn)), "ms")

    # nn
    put("nn.adam_step_us", _median_ms(ix.pick("nn.adam_step"), 1e6), "us")
    put("nn.pack_unpack_us",
        _median_ms(ix.pick("nn.pack") + ix.pick("nn.unpack"), 1e6), "us")

    # channels
    put("channels.task_draw_us", _median_ms(ix.pick("channels.task_from_dataset"), 1e6), "us")
    put("channels.dataset_ms", _median_ms(ix.pick("channels.make_mixed_dataset")), "ms")

    # memory: M=64 updates, per-stream admission counts, per-slot latency
    updates = ix.pick("memory.update_memory", m=64)
    put("memory.update_ms.m64", _median_ms(updates), "ms")
    streams = ix.pick("memory.mml_test_loop", method="mml")
    put("memory.admitted", sum(s.attrs["admitted"] for s in updates) / len(streams), "count")
    put("memory.evicted", sum(s.attrs["evicted"] for s in updates) / len(streams), "count")
    for method in ("maml", "mml"):
        slots = []
        for s in ix.pick("memory.mml_test_loop", method=method):
            marks = s.attrs["marks"] + [s.end]
            slots += [1e3 * (b - a) for a, b in zip(marks, marks[1:])]
        put(f"memory.slot_ms_p50.{method}", percentile(slots, 50), "ms")
        put(f"memory.slot_ms_p90.{method}", percentile(slots, 90), "ms")
        put(f"memory.slot_samples.{method}", len(slots), "count")

    # wmmse, and the linalg/objective calls made inside a solve
    solves = ix.pick("wmmse.wmmse_solve")
    for snr in (0, 20):
        at = ix.pick("wmmse.wmmse_solve", snr=snr)
        put(f"wmmse.solve_ms.snr{snr}", _median_ms(at), "ms")
        put(f"wmmse.iterations.snr{snr}",
            statistics.median(s.attrs["iterations"] for s in at), "count")
        put(f"wmmse.maxed_runs.snr{snr}", sum(s.attrs["maxed"] for s in at), "count")
        put(f"wmmse.solves.snr{snr}", len(at), "count")
    mu = ix.pick("wmmse.solve_mu")
    put("wmmse.solve_mu_self_ms", 1e3 * sum(own[s.id] for s in mu) / len(solves), "ms")
    put("wmmse.solve_mu_calls", len(mu) / len(solves), "count")
    put("linalg.hpd_solve_us", _median_ms(ix.pick("linalg.hpd_solve"), 1e6), "us")
    put("linalg.hpd_solve_calls",
        len(ix.inside("linalg.hpd_solve", "wmmse.wmmse_solve")) / len(solves), "count")
    put("objective.wsr_calls",
        len(ix.inside("objective.wsr", "wmmse.wmmse_solve")) / len(solves), "count")

    # runner
    for method in ("wmmse", "unsupervised", "maml", "mml"):
        put(f"runner.cell_ms.{method}", _median_ms(ix.pick("runner.cell", method=method)), "ms")
    put("runner.emit_results_ms", _median_ms(ix.pick("runner.emit_results")), "ms")

    selfs = module_self_ms(spans)
    for module in MODULES:
        put(f"{module}.self_ms", selfs.get(module, 0.0), "ms")
    return out
