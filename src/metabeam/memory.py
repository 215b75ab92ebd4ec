"""Loss-ranked replay memory and the streaming test-time loop.

The memory holds up to `capacity` past channel samples, each with the slot
that admitted it; it stores no loss. At each stream slot a quota of the
freshest incoming samples is admitted unconditionally and the remaining
places go to the hardest samples of the ranking pool: the slot scores that
pool once, under the parameters it just adapted, ranks it by those losses
and then drops them. Each slot's adaptation restarts from the
meta-initialization and trains on memory plus the fresh batch, so the memory
is the sole carrier of accumulated experience and hard past samples keep
contributing gradient signal.
mml_test_loop runs every streaming method, with or without a memory, on a
(slots, B, K, N) stream; at capacity 0 (maml, maml_no_pretrain) it adapts
each run of slots, a slice of the stream, on one tape.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import meta as meta_mod
from . import nn, pipeline
from .errors import NumericalError

# Samples adapted on one tape pass of a memoryless stream: 4 slots of 40 at
# the reference shape. One such pass took 3.8 ms (0.95 ms per slot, against
# 1.3-1.6 ms for one slot alone) with a traced peak of 1.6 MiB. A 50-slot
# stream took 222 ms (207-256 ms) at 160 against 429 ms (419-447 ms) one
# slot per pass; 400 took 202 ms (197-208 ms) but raised the stream's traced
# peak from 2.4 to 5.7 MiB (about 0.55 MiB per slot in a group), and 160
# keeps the stream's peak resident memory within a few percent of the
# one-slot loop (medians and ranges of three runs; 2-vCPU x86_64, numpy
# 2.4.6, one BLAS thread).
SLOT_GROUP_SAMPLES = 160


@dataclass(frozen=True)
class MemoryEntry:
    """One stored channel sample and the slot that admitted it."""

    sample: np.ndarray  # (K, N) complex128
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


def rank_hardest(losses, ages, count):
    """Indices of the `count` hardest entries, given each entry's loss and
    its slot of admission (ages: the larger, the younger).

    Hardest = largest loss; ties prefer the younger entry, then the lower
    index. Equivalent to a full sort by that key followed by taking the head,
    which is what the tests recompute independently. Raises NumericalError
    on a non-finite loss, which has no rank.
    """
    losses, ages = np.asarray(losses), np.asarray(ages)
    if not np.isfinite(losses).all():
        raise NumericalError("memory entry with a non-finite loss cannot be ranked")
    order = np.lexsort((np.arange(losses.size), -ages, -losses))
    return order[: max(0, count)].tolist()


def fresh_quota(capacity, n_fresh):
    """Unconditional admissions per slot: pi(t) = min(|fresh|, ceil(M/2))."""
    return min(n_fresh, math.ceil(capacity / 2))


def update_memory(mem, fresh, t, params, cfg, variant="corrected", rank_pool="retained"):
    """One slot's memory transition; returns a new MemorySet.

    The pi(t) most recent fresh samples are admitted unconditionally, with
    inserted_at = t; the remaining capacity goes to the hardest entries of
    the ranking pool, which is the previous memory ("retained", default) or
    the previous memory plus the non-admitted fresh samples ("union"). The
    pool is scored once, under the current params, and only to rank it.
    """
    if rank_pool not in ("retained", "union"):
        raise ValueError(f"unknown rank_pool {rank_pool!r}")
    fresh = np.asarray(fresh)
    quota = fresh_quota(mem.capacity, fresh.shape[0])
    split = fresh.shape[0] - quota
    pool = list(mem.entries)
    if rank_pool == "union":
        pool += [MemoryEntry(s.copy(), t) for s in fresh[:split]]
    keep = []
    if pool:
        batch = np.stack([e.sample for e in pool])
        losses = pipeline.per_sample_losses(params, batch, cfg, variant=variant)
        keep = rank_hardest(losses, [e.inserted_at for e in pool], mem.capacity - quota)
    admitted = [MemoryEntry(s.copy(), t) for s in fresh[split:]]
    return MemorySet(capacity=mem.capacity, entries=[pool[i] for i in keep] + admitted)


def mml_test_loop(params, stream, cfg, meta_cfg, capacity, rank_pool="retained", on_slot=None):
    """Streaming adaptation, with a replay memory when capacity > 0.

    `params` is the pre-trained initialization and `stream` one
    (slots, B, K, N) array. Slot t's batch D_t = stream[t] is scored with
    the current parameters (slot 0: the initialization), on_slot observes
    (t, per_sample_wsr), and slot t's parameters are then adapted from the
    initialization by meta_cfg.adapt_steps summed-loss steps: on memory
    union D_t, after which the memory is updated under them (ranked by
    meta_cfg.loss_variant, the loss the slot adapted with); or, at capacity
    0, on D_t alone, where a run of slots, a slice of the stream of at most
    SLOT_GROUP_SAMPLES samples, adapts as one stack, bit-identical to one
    adaptation per slot. The memory is the only state carried along the
    stream, and all that separates capacity M from capacity 0.

    Returns (final_params, wsr_per_slot, final_memory).
    """
    init = params
    stream = np.asarray(stream)
    per_run = max(1, SLOT_GROUP_SAMPLES // stream.shape[1])
    mem = MemorySet.empty(capacity)
    ahead = []  # capacity 0: adapted parameters of the next slots of a run
    wsr_series = []
    for t, batch in enumerate(stream):
        slot_wsr = pipeline.evaluate_wsr(params, batch, cfg)
        if on_slot is not None:
            on_slot(t, slot_wsr)
        wsr_series.append(float(np.mean(slot_wsr)))
        if capacity == 0:
            if not ahead:
                run = stream[t : t + per_run]
                stack, _ = meta_mod.adapt_stack(nn.stack_params(init, len(run)), run, cfg,
                                                meta_cfg, meta_cfg.adapt_steps)
                ahead = [nn.from_arrays([a[i] for a in stack.leaves], init.sizes)
                         for i in range(len(run))]
                del stack  # not held through the next run's tape, which sets the peak
            params = ahead.pop(0)
            continue
        stored = mem.as_batch()
        train_batch = batch if stored is None else np.concatenate([stored, batch])
        params = meta_mod.adapt_on_test(init, train_batch, cfg, meta_cfg)
        mem = update_memory(mem, batch, t, params, cfg, variant=meta_cfg.loss_variant,
                            rank_pool=rank_pool)
    return params, np.array(wsr_series), mem
