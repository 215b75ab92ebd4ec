"""Acceptance suite: ten go/no-go checks at pinned tolerances.

Each test prints one "criterion NN PASS/FAIL" line with its measured margin
and asserts the same condition. The directional checks (7, 8) and the memory
invariants (9) share session-scoped checkpoints trained at the reference
configuration: N=3 antennas, K=3 users, width-64 nets, 40-sample splits,
inner rate 0.01, outer rate 0.001, dataset of 500 channels, 200 epochs.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy import stats

from metabeam import autodiff as ad
from metabeam import channels, cli, memory, meta, nn, objective, pipeline, runner, wmmse
from metabeam.channels import ChannelModelSpec
from metabeam.config import ExperimentConfig, render_config, system_for
from metabeam.linalg import normalize_to_power
from metabeam.meta import MetaConfig
from metabeam.seeding import rng_for


def _report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def trained(tmp_path_factory):
    """Reference-configuration checkpoints shared by criteria 7, 8 and 9."""
    cfg = ExperimentConfig()
    assert (cfg.n, cfg.k) == (3, 3)
    assert cfg.meta.width == 64 and cfg.meta.epochs == 200
    assert (cfg.meta.n_support, cfg.meta.n_query, cfg.slot_size) == (40, 40, 40)
    assert (cfg.meta.inner_lr, cfg.meta.outer_lr) == (0.01, 0.001)
    assert cfg.train_size == 500 and cfg.capacity == 64
    out = str(tmp_path_factory.mktemp("ckpt"))
    t0 = time.time()
    runner.run_training(cfg, "maml", out)
    runner.run_training(cfg, "unsupervised", out)
    seconds = time.time() - t0
    pm = nn.load_checkpoint(runner.checkpoint_path(out, "maml"))
    pu = nn.load_checkpoint(runner.checkpoint_path(out, "unsupervised"))
    return cfg, pm, pu, out, seconds


def _grad_err(rng, n, k, draws):
    """Worst finite-difference relative error of the end-to-end loss."""
    sys_cfg = objective.SystemConfig(n=n, k=k, p=10.0)
    worst = 0.0
    for i in range(draws):
        h = channels.sample_rayleigh(rng, 3, n, k)
        params = nn.init_predictor(rng, n, k, width=8)

        def f(vec, params=params, h=h):
            p = nn.unpack(vec, params.sizes)
            tape = ad.Tape()
            leaves = nn.leaves_for(tape, p)
            loss, _ = pipeline.reconstruct_and_loss(
                tape, leaves, h, pipeline.features(h, sys_cfg), sys_cfg)
            gs = ad.grad(tape, loss, leaves.leaves)
            return float(loss.value), np.concatenate([g.ravel() for g in gs])

        err, _, _ = ad.finite_diff_check(
            f, nn.pack(params), coords=40, directions=5,
            rng=np.random.default_rng(1000 + i),
        )
        worst = max(worst, err)
    return worst


def test_criterion_01_pipeline_gradients():
    t0 = time.time()
    rng = rng_for(0, "accept", "c1")
    worst = max(_grad_err(rng, 2, 2, 20), _grad_err(rng, 3, 3, 5))
    elapsed = time.time() - t0
    _report(
        1, worst < 1e-4 and elapsed < 60.0,
        f"worst rel grad err {worst:.3e} (< 1e-4) in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_wmmse_vs_grid_oracle():
    t0 = time.time()
    rng = rng_for(0, "accept", "c2")
    sys_cfg = objective.SystemConfig(n=2, k=2, p=10.0)
    ratios = []
    for i in range(20):
        h = channels.sample_rayleigh(rng, 1, 2, 2)[0]
        oracle = wmmse.grid_oracle(h, sys_cfg, grid_steps=41)
        res = wmmse.wmmse_solve(h, sys_cfg, seed=i, restarts=5)
        ratios.append(res.wsr_trace[-1] / oracle)
    elapsed = time.time() - t0
    _report(
        2, min(ratios) >= 0.99 and elapsed < 300.0,
        f"min wmmse/oracle ratio {min(ratios):.4f} (>= 0.99) over 20 instances "
        f"in {elapsed:.1f}s (< 300s)",
    )


def test_criterion_03_wmmse_monotone():
    rng = rng_for(0, "accept", "c3")
    sys_cfg = objective.SystemConfig(n=3, k=3, p=10.0)
    worst_drop = 0.0
    for i in range(100):
        h = channels.sample_rayleigh(rng, 1, 3, 3)[0]
        trace = wmmse.wmmse_solve(h, sys_cfg, seed=i).wsr_trace
        if len(trace) > 1:
            worst_drop = min(worst_drop, float(np.min(np.diff(trace))))
    _report(
        3, worst_drop >= -1e-8,
        f"worst per-iteration change {worst_drop:.3e} (>= -1e-8) over 100 instances",
    )


def test_criterion_04_single_user_closed_form(tmp_path):
    # With one user the optimum is matched filtering at full power, with rate
    # log2(1 + P |h|^2 / sigma2); any power-feasible beamformer sits below it.
    sys_cfg = objective.SystemConfig(n=3, k=1, p=10.0)
    rng = rng_for(0, "accept", "c4")
    slots, slot_size = 5, 8
    flat = channels.sample_rayleigh(rng, slots * slot_size, 3, 1)
    bounds = np.array(
        [np.log2(1.0 + sys_cfg.p * np.linalg.norm(h) ** 2 / sys_cfg.sigma2)
         for h in flat]
    )

    solver_rates = []
    for h in flat:
        res = wmmse.wmmse_solve(h, sys_cfg, seed=0)
        v = normalize_to_power(res.v, sys_cfg.p)
        solver_rates.append(objective.wsr(h, v, sys_cfg))
    solver_rates = np.array(solver_rates)

    cfg1 = ExperimentConfig(
        n=3, k=1, snr_db=[10.0], train_size=32, test_size=8, test_seeds=1,
        slots=slots, slot_size=slot_size, capacity=8,
        meta=MetaConfig(width=16, epochs=3, n_support=8, n_query=8, n_tasks=2,
                        adapt_steps=2, batch_size=8),
    )
    out = str(tmp_path)
    runner.run_training(cfg1, "maml", out)
    runner.run_training(cfg1, "unsupervised", out)
    pm = nn.load_checkpoint(runner.checkpoint_path(out, "maml"))
    pu = nn.load_checkpoint(runner.checkpoint_path(out, "unsupervised"))
    p0 = nn.init_predictor(rng_for(cfg1.seed, "init-no-pretrain", 0), 3, 1, width=16)

    rates = {"wmmse": solver_rates,
             "unsupervised": pipeline.evaluate_wsr(pu, flat, sys_cfg)}
    stream = flat.reshape(slots, slot_size, 1, 3)
    for name, params, cap in (
        ("maml", pm, 0), ("mml", pm, cfg1.capacity), ("maml_no_pretrain", p0, 0),
    ):
        got = []
        memory.mml_test_loop(
            params, stream, sys_cfg, cfg1.meta, cap,
            on_slot=lambda t, r: got.append(np.asarray(r)),
        )
        rates[name] = np.concatenate(got)

    excess = max(float(np.max(r - bounds)) for r in rates.values())
    gap = float(np.max(bounds - solver_rates))
    _report(
        4, excess <= 1e-9 and gap <= 1e-6,
        f"max excess over closed form {excess:.3e} (<= 1e-9) across 5 methods; "
        f"wmmse gap {gap:.3e} (<= 1e-6)",
    )


def test_criterion_05_w_equals_one_plus_sinr():
    rng = rng_for(0, "accept", "c5")
    sys_cfg = objective.SystemConfig(n=3, k=3, p=10.0)
    worst = 0.0
    for _ in range(1000):
        h = channels.sample_rayleigh(rng, 1, 3, 3)[0]
        v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = normalize_to_power(v, sys_cfg.p)
        w = wmmse.compute_w(h, v)
        sinr = objective.all_sinr(h, v)
        worst = max(worst, float(np.max(np.abs(w - (1.0 + sinr)))))
    _report(
        5, worst <= 1e-12,
        f"max |w - (1 + SINR)| = {worst:.3e} (<= 1e-12) over 1000 random (H, V)",
    )


def test_criterion_06_distribution_identities():
    # Nakagami with m=1 and Rician with kappa=0 both reduce to Rayleigh; the
    # envelope samples must be indistinguishable at the 1% level.
    rng = rng_for(0, "accept", "c6")

    def envelope(spec):
        return np.abs(channels.sample_channels(rng, spec, 12500, 2, 4)).ravel()

    p_nak = stats.ks_2samp(
        envelope(ChannelModelSpec("nakagami", m=1.0)),
        envelope(ChannelModelSpec("rayleigh")),
    ).pvalue
    p_ric = stats.ks_2samp(
        envelope(ChannelModelSpec("rician", kappa=0.0)),
        envelope(ChannelModelSpec("rayleigh")),
    ).pvalue
    _report(
        6, p_nak >= 0.01 and p_ric >= 0.01,
        f"KS p-values on 1e5 envelopes: nakagami(m=1) {p_nak:.3f}, "
        f"rician(kappa=0) {p_ric:.3f} (both >= 0.01)",
    )


def test_criterion_07_adaptation_beats_unsupervised_at_high_snr(trained):
    cfg, pm, pu, _, train_seconds = trained
    t0 = time.time()
    wins = {}
    for snr in (15.0, 20.0):
        sys_cfg = system_for(cfg, snr)
        wins[snr] = 0
        for s in range(5):
            rng = rng_for(cfg.seed, "accept", "c7", snr, s)
            flat = channels.make_mixed_dataset(
                rng, list(cfg.train_mix), cfg.slots * cfg.slot_size, cfg.n, cfg.k
            )
            stream = flat.reshape(cfg.slots, cfg.slot_size, cfg.k, cfg.n)
            _, series, _ = memory.mml_test_loop(pm, stream, sys_cfg, cfg.meta, 0)
            unsup = float(np.mean(pipeline.evaluate_wsr(pu, flat, sys_cfg)))
            wins[snr] += float(np.mean(series)) >= unsup
    elapsed = train_seconds + (time.time() - t0)
    _report(
        7, all(w >= 4 for w in wins.values()) and elapsed < 1800.0,
        f"meta-adapted >= unsupervised in {wins[15.0]}/5 seeds at 15 dB and "
        f"{wins[20.0]}/5 at 20 dB (need >= 4/5); {elapsed:.0f}s incl. training "
        f"(< 1800s)",
    )


def test_criterion_08_memory_improves_mismatched_adaptation(trained):
    cfg, pm, _, _, _ = trained
    sys_cfg = system_for(cfg, 10.0)
    wins, margins = {}, {}
    for m in (1.0, 10.0):
        spec = ChannelModelSpec("nakagami", m=m)
        wins[m], margins[m] = 0, []
        for s in range(5):
            rng = rng_for(cfg.seed, "accept", "c8", m, s)
            flat = channels.sample_channels(
                rng, spec, cfg.slots * cfg.slot_size, cfg.n, cfg.k
            )
            stream = flat.reshape(cfg.slots, cfg.slot_size, cfg.k, cfg.n)
            _, ser_mem, _ = memory.mml_test_loop(
                pm, stream, sys_cfg, cfg.meta, cfg.capacity
            )
            _, ser_0, _ = memory.mml_test_loop(pm, stream, sys_cfg, cfg.meta, 0)
            late_mem = float(np.mean(ser_mem[10:]))
            late_0 = float(np.mean(ser_0[10:]))
            wins[m] += late_mem > late_0
            margins[m].append(late_mem - late_0)
    _report(
        8, all(w >= 4 for w in wins.values()),
        f"replay memory (M=64) beats M=0 over slots 10-50 in {wins[1.0]}/5 seeds "
        f"at m=1 (min margin {min(margins[1.0]):+.4f}) and {wins[10.0]}/5 at m=10 "
        f"(min margin {min(margins[10.0]):+.4f}); need >= 4/5",
    )


def test_criterion_09_memory_invariants(trained):
    cfg, pm, _, out, _ = trained
    sys_cfg = system_for(cfg, 10.0)

    # (a) |memory| <= capacity at every slot of a streaming run, checked by a
    # step-by-step mirror of the loop that must match it bit for bit.
    cap, slots, slot_size = 16, 12, 8
    rng = rng_for(cfg.seed, "accept", "c9")
    flat = channels.sample_channels(
        rng, ChannelModelSpec("nakagami", m=1.0), slots * slot_size, cfg.n, cfg.k
    )
    stream = flat.reshape(slots, slot_size, cfg.k, cfg.n)
    _, series, mem_final = memory.mml_test_loop(pm, stream, sys_cfg, cfg.meta, cap)
    params, mem = pm, memory.MemorySet.empty(cap)
    sizes, mirror = [], []
    for t, batch in enumerate(stream):
        mirror.append(float(np.mean(pipeline.evaluate_wsr(params, batch, sys_cfg))))
        stored = mem.as_batch()
        train_batch = (
            batch if stored is None else np.concatenate([stored, batch], axis=0)
        )
        params = meta.adapt_on_test(pm, train_batch, sys_cfg, cfg.meta)
        mem = memory.update_memory(mem, batch, t, params, sys_cfg)
        sizes.append(len(mem.entries))
    bound_ok = max(sizes) <= cap and len(mem_final.entries) <= cap
    mirror_ok = np.array_equal(np.array(mirror), series)

    # (b) loss-ranked selection equals the full-sort oracle on 1000 entries
    # with heavy ties (losses on a coarse grid).
    rng2 = np.random.default_rng(7)
    entries = [
        memory.MemoryEntry(
            sample=np.zeros((1, 1), dtype=np.complex128),
            last_loss=float(l), inserted_at=int(ts),
        )
        for l, ts in zip(
            rng2.integers(0, 8, size=1000) * 0.125, rng2.integers(0, 50, size=1000)
        )
    ]
    rank_ok = True
    for count in (0, 1, 17, 500, 1000):
        oracle = sorted(
            range(1000),
            key=lambda i: (-entries[i].last_loss, -entries[i].inserted_at, i),
        )[:count]
        rank_ok &= memory.rank_hardest(entries, count) == oracle

    # (c) zero capacity reproduces plain per-slot adaptation bit for bit
    # through the experiment driver itself.
    cfg_small = dataclasses.replace(cfg, snr_db=[10.0], test_seeds=2, slots=8,
                                    slot_size=8)
    maml_rows = runner.run_eval(cfg_small, "maml", out)
    mml_rows = runner.run_eval(dataclasses.replace(cfg_small, capacity=0), "mml", out)
    zero_ok = [dataclasses.replace(r, method="maml") for r in mml_rows] == maml_rows

    _report(
        9, bound_ok and mirror_ok and rank_ok and zero_ok,
        f"size bound {'ok' if bound_ok else 'VIOLATED'} (max {max(sizes)}/{cap}), "
        f"loop mirror {'bit-identical' if mirror_ok else 'DIVERGED'}, "
        f"rank oracle {'ok' if rank_ok else 'MISMATCH'} on 1000 entries, "
        f"M=0 {'==' if zero_ok else '!='} plain adaptation",
    )


def test_criterion_10_figure_determinism(tmp_path):
    meta_t = MetaConfig(width=8, epochs=2, n_support=4, n_query=4, n_tasks=2,
                        adapt_steps=1, batch_size=8)
    cfg_t = ExperimentConfig(
        n=2, k=2, snr_db=[10.0], train_size=24, test_size=6, test_seeds=1,
        slots=2, slot_size=4, meta=meta_t, capacity=4, wmmse_restarts=2,
    )
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(render_config(cfg_t))
    outs = []
    for d in ("a", "b"):
        code = cli.main(
            ["--config", str(cfg_path), "--out", str(tmp_path / d),
             "figure", "--figure", "fig6"]
        )
        assert code == cli.EXIT_OK
        outs.append((tmp_path / d / "fig6.csv").read_bytes())
    _report(
        10, outs[0] == outs[1],
        f"two fig6 runs produced {'identical' if outs[0] == outs[1] else 'DIFFERING'}"
        f" CSVs ({len(outs[0])} bytes)",
    )
