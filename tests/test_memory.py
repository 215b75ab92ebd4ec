"""Replay memory: ranking, slot transitions, and the stream loop.

The memory stores samples and the slots that admitted them; a slot scores
its ranking pool once, under its adapted parameters, and ranks by those
losses. The ranking oracle: rank_hardest must agree with a full sort by
(-loss, -inserted_at, index). The M=0 identity: the stream loop with zero
capacity must be bit-identical to manually re-adapting from the
initialization on each slot batch alone.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metabeam import memory, meta, nn, pipeline
from metabeam.errors import NumericalError
from metabeam.memory import MemoryEntry, MemorySet
from metabeam.meta import MetaConfig
from metabeam.objective import SystemConfig


def rand_batch(rng, b, k, n):
    return (rng.standard_normal((b, k, n)) + 1j * rng.standard_normal((b, k, n))) / np.sqrt(2.0)


def entry(t, rng=None, k=2, n=2):
    rng = rng or np.random.default_rng(0)
    return MemoryEntry(sample=rand_batch(rng, 1, k, n)[0], inserted_at=t)


def hardest_by_sort(entries, params, cfg, count):
    """Indices of the `count` hardest entries by a full Python sort of their
    losses under params: larger loss, then younger, then lower index."""
    losses = pipeline.per_sample_losses(params, np.stack([e.sample for e in entries]), cfg)
    order = sorted(range(len(entries)),
                   key=lambda i: (-losses[i], -entries[i].inserted_at, i))
    return order[:count]


def small_setup(seed=0):
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(n=2, k=2, p=10.0)
    meta_cfg = MetaConfig(width=8, adapt_steps=2)
    params = nn.init_predictor(rng, 2, 2, width=8)
    return rng, cfg, meta_cfg, params


def test_memory_set_basics():
    mem = MemorySet.empty(4)
    assert len(mem) == 0 and mem.capacity == 4
    assert mem.as_batch() is None
    with pytest.raises(ValueError):
        MemorySet.empty(-1)


def test_as_batch_stacks_in_order():
    rng = np.random.default_rng(1)
    entries = [entry(0, rng), entry(1, rng)]
    mem = MemorySet(capacity=4, entries=entries)
    batch = mem.as_batch()
    assert batch.shape == (2, 2, 2)
    np.testing.assert_array_equal(batch[0], entries[0].sample)
    np.testing.assert_array_equal(batch[1], entries[1].sample)


def test_rank_hardest_hand_example():
    # losses 0.3, 0.9, 0.9, 0.1 at slots 0, 1, 2, 3: the 0.9 tie goes to the
    # younger slot 2 first, so the top three are indices 2, 1, 0.
    losses, ages = [0.3, 0.9, 0.9, 0.1], [0, 1, 2, 3]
    assert memory.rank_hardest(losses, ages, 3) == [2, 1, 0]
    assert memory.rank_hardest(losses, ages, 0) == []
    assert memory.rank_hardest(losses, ages, 99) == [2, 1, 0, 3]
    assert memory.rank_hardest([], [], 2) == []


def test_rank_hardest_tie_by_index():
    assert memory.rank_hardest([0.5, 0.5, 0.5], [7, 7, 7], 2) == [0, 1]


def test_rank_hardest_rejects_non_finite_loss():
    # A NaN key breaks the sort: [1, NaN, 3, 2] used to rank as [0, 1],
    # dropping the hardest entry (loss 3). The check comes before any
    # ranking, so it holds even when no entry is asked for.
    for bad in (float("nan"), float("inf")):
        for count in (2, 0):
            with pytest.raises(NumericalError):
                memory.rank_hardest([1.0, bad, 3.0, 2.0], [0, 1, 2, 3], count)


def test_rank_hardest_matches_sort_oracle():
    rng = np.random.default_rng(2)
    losses = rng.choice([0.1, 0.2, 0.3, 0.4], size=1000)  # many ties
    slots = rng.integers(0, 50, size=1000)
    oracle = sorted(
        range(1000), key=lambda i: (-float(losses[i]), -int(slots[i]), i)
    )
    for count in (0, 1, 17, 500, 1000):
        assert memory.rank_hardest(losses, slots, count) == oracle[:count]


def test_fresh_quota_formula():
    assert memory.fresh_quota(64, 40) == 32  # ceil(64/2) caps the batch
    assert memory.fresh_quota(64, 10) == 10  # small batch admitted whole
    assert memory.fresh_quota(7, 40) == 4  # ceil(7/2)
    assert memory.fresh_quota(0, 40) == 0


def test_update_memory_behavioral_example():
    # Capacity 4, 3 old entries, 3 fresh samples: quota = min(3, 2) = 2, so
    # the 2 newest fresh samples enter and 4 - 2 = 2 hardest old entries stay.
    rng, cfg, _, params = small_setup()
    old = [entry(t, rng) for t in range(3)]
    mem = MemorySet(capacity=4, entries=old)
    fresh = rand_batch(rng, 3, 2, 2)
    out = memory.update_memory(mem, fresh, t=5, params=params, cfg=cfg)
    assert len(out) == 4
    assert [e.inserted_at for e in out.entries[2:]] == [5, 5]
    np.testing.assert_array_equal(out.entries[2].sample, fresh[1])
    np.testing.assert_array_equal(out.entries[3].sample, fresh[2])
    # the two survivors are the hardest old entries under the current params
    keep = hardest_by_sort(old, params, cfg, 2)
    for got, idx in zip(out.entries[:2], keep):
        np.testing.assert_array_equal(got.sample, old[idx].sample)
        assert got.inserted_at == old[idx].inserted_at


def test_update_memory_empty_fresh_keeps_hardest():
    rng, cfg, _, params = small_setup()
    old = [entry(t, rng) for t in range(5)]
    mem = MemorySet(capacity=3, entries=old)
    out = memory.update_memory(mem, np.zeros((0, 2, 2), complex), 9, params, cfg)
    assert len(out) == 3
    expected = [old[i].sample for i in hardest_by_sort(old, params, cfg, 3)]
    for got, sample in zip(out.entries, expected):
        np.testing.assert_array_equal(got.sample, sample)


def test_update_memory_zero_capacity_stays_empty():
    rng, cfg, _, params = small_setup()
    mem = MemorySet.empty(0)
    out = memory.update_memory(mem, rand_batch(rng, 4, 2, 2), 0, params, cfg)
    assert len(out) == 0 and out.capacity == 0


def test_update_memory_union_pool_can_admit_older_fresh():
    # With rank_pool="union" the non-admitted fresh samples compete for the
    # retained slots, so an empty memory can end up fully populated.
    rng, cfg, _, params = small_setup()
    mem = MemorySet.empty(4)
    fresh = rand_batch(rng, 4, 2, 2)
    out = memory.update_memory(mem, fresh, 0, params, cfg, rank_pool="union")
    assert len(out) == 4
    retained = memory.update_memory(mem, fresh, 0, params, cfg)
    assert len(retained) == 2  # quota only, pool was empty
    with pytest.raises(ValueError):
        memory.update_memory(mem, fresh, 0, params, cfg, rank_pool="diamond")


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(min_value=0, max_value=8),
    n_old=st.integers(min_value=0, max_value=8),
    n_fresh=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=99),
)
def test_update_memory_capacity_invariants(capacity, n_old, n_fresh, seed):
    rng, cfg, _, params = small_setup(seed)
    old = [entry(i, rng) for i in range(min(n_old, capacity))]
    mem = MemorySet(capacity=capacity, entries=old)
    fresh = rand_batch(rng, n_fresh, 2, 2)
    out = memory.update_memory(mem, fresh, 50, params, cfg)  # t=50 > any old slot
    quota = memory.fresh_quota(capacity, n_fresh)
    assert len(out) <= capacity
    assert len(out) == min(capacity, len(old) + quota)
    assert sum(e.inserted_at == 50 for e in out.entries) == quota


def plain_adaptation(params, stream, cfg, meta_cfg):
    """Per-slot oracle: evaluate, then adapt from the initialization on the
    slot batch alone. Returns (per-slot per-sample rates, final params)."""
    current = params
    rates = []
    for batch in stream:
        rates.append(pipeline.evaluate_wsr(current, batch, cfg))
        current = meta.adapt_on_test(params, batch, cfg, meta_cfg)
    return rates, current


def test_mml_loop_zero_capacity_is_plain_adaptation(monkeypatch):
    # Must match the per-slot oracle bit for bit: 4 slots on one tape; 5
    # slots in groups of 2, 2 and 1; and no adaptation steps at all. A
    # stream is one (slots, B, K, N) array, so slots of unequal sizes are
    # refused.
    cases = [
        ([5] * 4, None, 2),
        ([5] * 5, 10, 2),
        ([4] * 3, None, 0),
    ]
    for sizes, group_samples, steps in cases:
        rng, cfg, meta_cfg, params = small_setup()
        meta_cfg = dataclasses.replace(meta_cfg, adapt_steps=steps)
        if group_samples is not None:
            monkeypatch.setattr(memory, "SLOT_GROUP_SAMPLES", group_samples)
        stream = [rand_batch(rng, b, 2, 2) for b in sizes]
        final, series, mem = memory.mml_test_loop(params, stream, cfg, meta_cfg, 0)
        assert len(mem) == 0

        rates, current = plain_adaptation(params, stream, cfg, meta_cfg)
        np.testing.assert_array_equal(series, [float(np.mean(r)) for r in rates])
        np.testing.assert_array_equal(nn.pack(final), nn.pack(current))
        monkeypatch.undo()

    rng, cfg, meta_cfg, params = small_setup()
    ragged = [rand_batch(rng, b, 2, 2) for b in (4, 4, 3, 4)]
    with pytest.raises(ValueError):
        memory.mml_test_loop(params, ragged, cfg, meta_cfg, 0)


def test_memoryless_runs_are_views_of_the_stream(monkeypatch):
    # Each run is adapted on a slice of the caller's stream, not a copy.
    rng, cfg, meta_cfg, params = small_setup()
    monkeypatch.setattr(memory, "SLOT_GROUP_SAMPLES", 6)
    runs = []
    adapt_stack = meta.adapt_stack

    def spy(params, batch, *args):
        runs.append(batch)
        return adapt_stack(params, batch, *args)

    monkeypatch.setattr(meta, "adapt_stack", spy)
    stream = rand_batch(rng, 15, 2, 2).reshape(5, 3, 2, 2)
    memory.mml_test_loop(params, stream, cfg, meta_cfg, 0)
    assert [run.shape[0] for run in runs] == [2, 2, 1]
    assert all(np.shares_memory(run, stream) for run in runs)


def test_memoryless_loop_calls_on_slot_in_order(monkeypatch):
    rng, cfg, meta_cfg, params = small_setup()
    monkeypatch.setattr(memory, "SLOT_GROUP_SAMPLES", 6)
    groups = []
    adapt_stack = meta.adapt_stack

    def spy(params, batch, *args):
        groups.append(batch.shape[0])
        return adapt_stack(params, batch, *args)

    monkeypatch.setattr(meta, "adapt_stack", spy)
    stream = [rand_batch(rng, 3, 2, 2) for _ in range(5)]
    seen = []
    _, series, _ = memory.mml_test_loop(
        params, stream, cfg, meta_cfg, 0, on_slot=lambda t, w: seen.append((t, w))
    )
    assert groups == [2, 2, 1]
    assert [t for t, _ in seen] == [0, 1, 2, 3, 4]
    assert all(w.shape == (3,) for _, w in seen)
    rates, _ = plain_adaptation(params, stream, cfg, meta_cfg)
    for (_, w), want in zip(seen, rates):
        np.testing.assert_array_equal(w, want)
    np.testing.assert_array_equal([w.mean() for _, w in seen], series)


def test_mml_loop_memory_grows_to_capacity():
    rng, cfg, meta_cfg, params = small_setup()
    stream = [rand_batch(rng, 4, 2, 2) for _ in range(5)]
    _, series, mem = memory.mml_test_loop(params, stream, cfg, meta_cfg, 6)
    assert len(series) == 5
    assert len(mem) == 6  # 2 per slot until full
    assert all(isinstance(e, MemoryEntry) for e in mem.entries)


def test_mml_loop_on_slot_sees_per_sample_rates():
    rng, cfg, meta_cfg, params = small_setup()
    stream = [rand_batch(rng, 3, 2, 2) for _ in range(2)]
    seen = []
    _, series, _ = memory.mml_test_loop(
        params, stream, cfg, meta_cfg, 2, on_slot=lambda t, w: seen.append((t, w))
    )
    assert [t for t, _ in seen] == [0, 1]
    assert all(w.shape == (3,) for _, w in seen)
    np.testing.assert_allclose([w.mean() for _, w in seen], series, rtol=1e-15)


def spy_on_scoring(monkeypatch):
    """Record (batch size, variant) of every pipeline.per_sample_losses call."""
    calls = []
    per_sample_losses = pipeline.per_sample_losses

    def spy(params, batch, cfg, variant="corrected"):
        calls.append((batch.shape[0], variant))
        return per_sample_losses(params, batch, cfg, variant=variant)

    monkeypatch.setattr(pipeline, "per_sample_losses", spy)
    return calls


def test_mml_loop_ranks_memory_by_the_adaptation_loss(monkeypatch):
    # The memory is ranked with meta_cfg.loss_variant, the loss the slot
    # adapted with, so a verbatim stream scores with the verbatim loss.
    rng = np.random.default_rng(12)
    cfg = SystemConfig(n=3, k=3, p=10.0)
    meta_cfg = MetaConfig(width=8, adapt_steps=2, loss_variant="verbatim")
    params = nn.init_predictor(rng, 3, 3, width=8)
    stream = [rand_batch(rng, 4, 3, 3) for _ in range(3)]
    calls = spy_on_scoring(monkeypatch)
    memory.mml_test_loop(params, stream, cfg, meta_cfg, 4)
    assert calls and all(variant == "verbatim" for _, variant in calls)


def test_mml_slot_scores_its_pool_once(monkeypatch):
    # A slot scores its ranking pool (the memory it starts with) in one call
    # and the samples it admits not at all; slot 0, whose pool is empty,
    # makes no call. Capacity 4, 4 samples a slot: 2 admitted per slot.
    rng, cfg, meta_cfg, params = small_setup()
    stream = [rand_batch(rng, 4, 2, 2) for _ in range(5)]
    calls = spy_on_scoring(monkeypatch)
    per_slot = []
    memory.mml_test_loop(params, stream, cfg, meta_cfg, 4,
                         on_slot=lambda t, w: per_slot.append(len(calls)))
    per_slot.append(len(calls))
    assert np.diff(per_slot).tolist() == [0, 1, 1, 1, 1]
    assert [size for size, _ in calls] == [2, 4, 4, 4]


def test_mml_loop_first_slot_is_unadapted():
    rng, cfg, meta_cfg, params = small_setup()
    stream = [rand_batch(rng, 4, 2, 2)]
    _, series, _ = memory.mml_test_loop(params, stream, cfg, meta_cfg, 4)
    expected = float(np.mean(pipeline.evaluate_wsr(params, stream[0], cfg)))
    assert series[0] == expected


def test_mml_loop_restarts_from_initialization():
    # Slot t's parameters depend only on the initialization, the memory
    # content, and D_t: with capacity 0 the third slot's parameters equal a
    # one-shot adaptation on that slot's batch.
    rng, cfg, meta_cfg, params = small_setup()
    stream = [rand_batch(rng, 4, 2, 2) for _ in range(3)]
    final, _, _ = memory.mml_test_loop(params, stream, cfg, meta_cfg, 0)
    direct = meta.adapt_on_test(params, stream[-1], cfg, meta_cfg)
    np.testing.assert_array_equal(nn.pack(final), nn.pack(direct))
