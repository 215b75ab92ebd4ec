"""Loss-ranked replay memory for streaming test-time adaptation.

The memory holds up to `capacity` past channel samples. At each stream slot a
quota of the freshest incoming samples is admitted unconditionally and the
remaining slots go to the hardest retained samples, where hardness is the
per-sample loss under the current parameters (re-scored every slot). Each
slot's adaptation restarts from the meta-initialization and trains on memory
plus the fresh batch, so the memory is the sole carrier of accumulated
experience and hard past samples keep contributing gradient signal.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import meta as meta_mod
from . import nn, pipeline
from .errors import NumericalError

# Samples adapted on one tape pass of a memoryless stream: 4 slots of 40 at
# the reference shape. One such pass took 5.0 ms (1.24 ms per slot, against
# 2.2 ms for one slot alone) with a traced peak of 2.9 MiB. A 50-slot stream
# took 294 ms at 160 against 607 ms one slot per pass; 400 took 234 ms but
# raised the traced peak from 4.9 to 11.8 MiB (about 1.2 MiB per slot in a
# group), and 160 keeps the stream's peak resident memory within a few
# percent of the one-slot loop (2-vCPU x86_64, numpy 2.4.6, one BLAS thread).
SLOT_GROUP_SAMPLES = 160


@dataclass(frozen=True)
class MemoryEntry:
    """One stored channel sample with its bookkeeping."""

    sample: np.ndarray  # (K, N) complex128
    last_loss: float  # loss under the params that scored it last
    inserted_at: int  # slot index at admission


@dataclass
class MemorySet:
    """Bounded entry list; order carries no meaning beyond rank_hardest ties."""

    capacity: int
    entries: list

    @classmethod
    def empty(cls, capacity):
        if capacity < 0:
            raise ValueError(f"capacity must be nonnegative, got {capacity}")
        return cls(capacity=capacity, entries=[])

    def __len__(self):
        return len(self.entries)

    def as_batch(self):
        """Stacked samples (len, K, N), or None when empty."""
        if not self.entries:
            return None
        return np.stack([e.sample for e in self.entries])


def score_entries(entries, params, cfg, variant="corrected"):
    """Entries re-scored under the given parameters (new objects, same order)."""
    if not entries:
        return []
    batch = np.stack([e.sample for e in entries])
    losses = pipeline.per_sample_losses(params, batch, cfg, variant=variant)
    return [replace(e, last_loss=float(l)) for e, l in zip(entries, losses)]


def rank_hardest(entries, count):
    """Indices of the `count` hardest entries.

    Hardest = largest last_loss; ties prefer larger inserted_at (younger),
    then lower list index. Equivalent to a full sort by that key followed by
    taking the head, which is what the tests recompute independently.
    Raises NumericalError on a non-finite loss, which has no rank.
    """
    if not all(math.isfinite(e.last_loss) for e in entries):
        raise NumericalError("memory entry with a non-finite loss cannot be ranked")
    count = max(0, min(count, len(entries)))
    order = sorted(
        range(len(entries)),
        key=lambda i: (-entries[i].last_loss, -entries[i].inserted_at, i),
    )
    return order[:count]


def fresh_quota(capacity, n_fresh):
    """Unconditional admissions per slot: pi(t) = min(|fresh|, ceil(M/2))."""
    return min(n_fresh, math.ceil(capacity / 2))


def update_memory(mem, fresh, t, params, cfg, variant="corrected", rank_pool="retained"):
    """One slot's memory transition; returns a new MemorySet.

    The pi(t) most recent fresh samples are admitted unconditionally; the
    remaining capacity goes to the hardest entries of the ranking pool, which
    is the previous memory ("retained", default) or the previous memory plus
    the non-admitted fresh samples ("union"). Every surviving entry is scored
    under the current params; admitted fresh entries carry inserted_at = t.
    """
    capacity = mem.capacity
    if capacity == 0:
        return MemorySet.empty(0)
    fresh = np.asarray(fresh)
    quota = fresh_quota(capacity, fresh.shape[0])
    admitted = [
        MemoryEntry(sample=s.copy(), last_loss=0.0, inserted_at=t)
        for s in fresh[fresh.shape[0] - quota :]
    ]
    pool = list(mem.entries)
    if rank_pool == "union":
        pool += [
            MemoryEntry(sample=s.copy(), last_loss=0.0, inserted_at=t)
            for s in fresh[: fresh.shape[0] - quota]
        ]
    elif rank_pool != "retained":
        raise ValueError(f"unknown rank_pool {rank_pool!r}")
    pool = score_entries(pool, params, cfg, variant=variant)
    keep = rank_hardest(pool, capacity - quota)
    survivors = [pool[i] for i in keep] + score_entries(admitted, params, cfg, variant)
    return MemorySet(capacity=capacity, entries=survivors)


def mml_test_loop(
    params,
    stream,
    cfg,
    meta_cfg,
    capacity,
    adapt_steps=None,
    variant="corrected",
    rank_pool="retained",
    on_slot=None,
):
    """Streaming adaptation with replay memory.

    `params` is the pre-trained initialization; every slot re-adapts from it
    rather than from the previous slot's weights, so the memory set is the
    only state carried along the stream. For each slot batch D_t: record the
    sum rate of the currently adapted parameters on D_t, re-adapt from the
    initialization on memory union D_t (adapt_steps gradient steps, summed
    loss, same mechanics as training-time inner adaptation), then update the
    memory under the new parameters. With capacity = 0 the memory stays
    empty and nothing is carried from one slot to the next, so the slots
    adapt on D_t alone, together on one tape (see _memoryless_loop), with
    the same results as plain per-slot test-time adaptation. adapt_steps
    defaults to meta_cfg.adapt_steps. on_slot, if given, observes
    (t, per_sample_wsr) once per slot, in slot order.

    Returns (final_params, wsr_per_slot, final_memory).
    """
    if adapt_steps is None:
        adapt_steps = meta_cfg.adapt_steps
    if capacity == 0:
        return _memoryless_loop(params, stream, cfg, meta_cfg, adapt_steps, on_slot)
    init = params
    mem = MemorySet.empty(capacity)
    wsr_series = []
    for t, batch in enumerate(stream):
        batch = np.asarray(batch)
        slot_wsr = pipeline.evaluate_wsr(params, batch, cfg)
        if on_slot is not None:
            on_slot(t, slot_wsr)
        wsr_series.append(float(np.mean(slot_wsr)))
        stored = mem.as_batch()
        train_batch = (
            batch if stored is None else np.concatenate([stored, batch], axis=0)
        )
        params = meta_mod.adapt_on_test(
            init,
            train_batch,
            cfg,
            meta_cfg,
            steps=adapt_steps,
            reduction="sum",
        )
        mem = update_memory(
            mem, batch, t, params, cfg, variant=variant, rank_pool=rank_pool
        )
    return params, np.array(wsr_series), mem


def _memoryless_loop(init, stream, cfg, meta_cfg, adapt_steps, on_slot):
    """The capacity-0 stream: slots adapt from init in task-batched passes.

    Runs of consecutive equal-sized slots, at most SLOT_GROUP_SAMPLES
    samples (and at least one slot) each, adapt together through
    meta.adapt_stack; then each slot of the run is scored with the
    parameters adapted on the slot before it (slot 0 with init).
    """
    batches = [np.asarray(batch) for batch in stream]
    params = init
    wsr_series = []
    lo = 0
    while lo < len(batches):
        shape = batches[lo].shape
        per_group = SLOT_GROUP_SAMPLES // max(shape[0], 1)
        hi = lo + 1
        while hi < len(batches) and hi - lo < per_group and batches[hi].shape == shape:
            hi += 1
        stack, _ = meta_mod.adapt_stack(
            init,
            nn.stack_params(init, hi - lo),
            np.stack(batches[lo:hi]),
            cfg,
            meta_cfg,
            adapt_steps,
        )
        for t in range(lo, hi):
            slot_wsr = pipeline.evaluate_wsr(params, batches[t], cfg)
            if on_slot is not None:
                on_slot(t, slot_wsr)
            wsr_series.append(float(np.mean(slot_wsr)))
            params = nn.from_arrays([a[t - lo] for a in stack], init)
        del stack  # not held through the next group's passes
        lo = hi
    return params, np.array(wsr_series), MemorySet.empty(0)
