"""Experiment driver: training runs, evaluation sweeps, and result emission.

Every stochastic step draws from a named sub-stream of the run seed (see
seeding.py), and test data for a given (snr, seed) cell is method-independent,
so methods are compared on identical channels and a re-run of the same config
reproduces every output file byte for byte.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import channels, memory, meta, nn, objective, pipeline, wmmse
from .config import render_config
from .errors import NumericalError
from .linalg import normalize_to_power
from .seeding import rng_for

RESULT_HEADER = "method,snr_db,seed,slot,wsr_mean,wsr_std,samples"


@dataclass(frozen=True)
class ResultRow:
    method: str
    snr_db: float
    seed: int
    slot: str  # decimal slot index, or "final"
    wsr_mean: float
    wsr_std: float
    samples: int


def system_for(cfg, snr_db):
    """SystemConfig at one grid point: P = sigma2 * 10^(snr/10)."""
    return objective.SystemConfig(
        n=cfg.n,
        k=cfg.k,
        sigma2=cfg.sigma2,
        p=cfg.sigma2 * 10.0 ** (snr_db / 10.0),
        alpha=cfg.alpha,
    )


def train_dataset(cfg):
    """The shared training dataset (identical for every learned method)."""
    rng = rng_for(cfg.seed, "dataset")
    return channels.make_mixed_dataset(rng, cfg.train_mix, cfg.train_size, cfg.n, cfg.k)


def initial_params(cfg):
    """The shared network init (identical for every learned method)."""
    rng = rng_for(cfg.seed, "init")
    return nn.init_predictor(rng, cfg.n, cfg.k, width=cfg.meta.width)


def checkpoint_path(out_dir, method):
    return os.path.join(out_dir, f"{method}.ckpt")


def run_training(cfg, method, out_dir, verbose=False):
    """Train one learned method and write its checkpoint plus training log.

    Returns the checkpoint path. Training happens at train_snr_db; both
    methods share the dataset and the initial parameters, differing only in
    the update rule.
    """
    if method not in ("maml", "unsupervised"):
        raise ValueError(f"run_training handles maml|unsupervised, got {method!r}")
    os.makedirs(out_dir, exist_ok=True)
    sys_cfg = system_for(cfg, cfg.train_snr_db)
    dataset = train_dataset(cfg)
    init = initial_params(cfg)
    seed = rng_for(cfg.seed, "train", method).integers(2**32)
    trainer = meta.meta_train if method == "maml" else meta.unsupervised_train
    params, log = trainer(dataset, sys_cfg, cfg.meta, seed=seed, init=init)
    path = checkpoint_path(out_dir, method)
    nn.save_checkpoint(path, params)
    log_path = os.path.join(out_dir, f"{method}_train.csv")
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,support_loss,query_loss,wall_time\n")
        for e, s, q, w in zip(log.epochs, log.support_loss, log.query_loss, log.wall_time):
            fh.write(f"{e},{s!r},{q!r},{w:.3f}\n")
    with open(os.path.join(out_dir, "config_effective.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_config(cfg))
    if verbose:
        print(f"[train] {method}: {len(log.epochs)} epochs -> {path}")
    return path


def _test_batch(cfg, snr_idx, seed, tag, count):
    """Method-independent test draw for one (snr, seed) cell."""
    rng = rng_for(cfg.seed, "test", tag, snr_idx, seed)
    return channels.sample_channels(rng, cfg.test_channel, count, cfg.n, cfg.k)


def _row(method, snr_db, seed, slot, wsr_values):
    wsr_values = np.asarray(wsr_values, dtype=np.float64)
    return ResultRow(
        method=method,
        snr_db=float(snr_db),
        seed=int(seed),
        slot=slot,
        wsr_mean=float(np.mean(wsr_values)),
        wsr_std=float(np.std(wsr_values)),
        samples=int(wsr_values.size),
    )


def _eval_wmmse(cfg, sys_cfg, snr_idx, seed):
    """Per-channel WMMSE rates of one cell, and how many solves stopped at
    max_iters without converging."""
    data = _test_batch(cfg, snr_idx, seed, "eval", cfg.test_size)
    runs = [wmmse.wmmse_solve(h, sys_cfg, seed=i, restarts=cfg.wmmse_restarts)
            for i, h in enumerate(data)]
    v = normalize_to_power(np.stack([res.v for res in runs]), sys_cfg.p)
    return objective.wsr(data, v, sys_cfg), sum(not res.converged for res in runs)


def _eval_forward(params, cfg, sys_cfg, snr_idx, seed):
    data = _test_batch(cfg, snr_idx, seed, "eval", cfg.test_size)
    return pipeline.evaluate_wsr(params, data, sys_cfg)


def _stream_for(cfg, snr_idx, seed):
    rng = rng_for(cfg.seed, "test", "stream", snr_idx, seed)
    return [
        channels.sample_channels(rng, cfg.test_channel, cfg.slot_size, cfg.n, cfg.k)
        for _ in range(cfg.slots)
    ]


def _eval_stream(method, params, cfg, sys_cfg, snr_db, snr_idx, seed, capacity, steps):
    """Streaming rows for one cell: one row per slot plus a final aggregate.

    maml and maml_no_pretrain run the same loop with capacity 0, so the mml
    M=0 ablation produces maml's rows verbatim. The final row pools the
    per-sample rates of every slot.
    """
    stream = _stream_for(cfg, snr_idx, seed)
    slot_stats = []
    memory.mml_test_loop(
        params, stream, sys_cfg, cfg.meta, capacity,
        adapt_steps=steps,
        rank_pool=cfg.rank_pool,
        on_slot=lambda t, w: slot_stats.append((t, w.copy())),
    )
    rows = [_row(method, snr_db, seed, str(t), w) for t, w in slot_stats]
    pooled = np.concatenate([w for _, w in slot_stats])
    rows.append(_row(method, snr_db, seed, "final", pooled))
    return rows


def run_eval(cfg, method, out_dir, capacity=None, verbose=False):
    """Evaluate one method over the SNR grid and seed range; returns rows.

    wmmse and unsupervised produce one final row per cell from a shared test
    set. The adaptive methods (maml, maml_no_pretrain, mml) run the streaming
    protocol on a shared slot stream and emit per-slot rows plus a final row.
    Learned methods read their checkpoint from out_dir; mml reuses the maml
    checkpoint. capacity overrides the configured memory size for mml.
    """
    rows = []
    needs_ckpt = {"unsupervised": "unsupervised", "maml": "maml", "mml": "maml"}
    params = None
    if method in needs_ckpt:
        path = checkpoint_path(out_dir, needs_ckpt[method])
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"{method} needs a checkpoint at {path}; run training first"
            )
        params = nn.load_checkpoint(path)
    for snr_idx, snr_db in enumerate(cfg.snr_db):
        sys_cfg = system_for(cfg, snr_db)
        for seed in range(cfg.test_seeds):
            note = ""
            if method == "wmmse":
                wsrs, unconverged = _eval_wmmse(cfg, sys_cfg, snr_idx, seed)
                rows.append(_row(method, snr_db, seed, "final", wsrs))
                note = f" unconverged={unconverged}/{wsrs.size}"
            elif method == "unsupervised":
                rows.append(_row(method, snr_db, seed, "final",
                                 _eval_forward(params, cfg, sys_cfg, snr_idx, seed)))
            elif method == "maml":
                rows.extend(_eval_stream(method, params, cfg, sys_cfg, snr_db,
                                         snr_idx, seed, 0, cfg.meta.adapt_steps))
            elif method == "maml_no_pretrain":
                fresh = nn.init_predictor(
                    rng_for(cfg.seed, "init-no-pretrain", seed), cfg.n, cfg.k,
                    width=cfg.meta.width,
                )
                rows.extend(_eval_stream(method, fresh, cfg, sys_cfg, snr_db,
                                         snr_idx, seed, 0, cfg.meta.adapt_steps))
            elif method == "mml":
                cap = cfg.capacity if capacity is None else capacity
                rows.extend(_eval_stream(method, params, cfg, sys_cfg, snr_db,
                                         snr_idx, seed, cap, cfg.mem_adapt_steps))
            else:
                raise ValueError(f"unknown eval method {method!r}")
            if verbose:
                print(f"[eval] {method} snr={snr_db:g} seed={seed}: "
                      f"wsr={rows[-1].wsr_mean:.4f}{note}")
    return rows


def _slot_key(slot):
    return (0, int(slot)) if slot != "final" else (1, 0)


def emit_results(rows, csv_path, json_path=None):
    """Write rows as CSV (and optionally JSON) in a stable canonical order.

    Sort key: (method, snr_db, seed, numeric slots ascending, then "final").
    Floats are written with repr, so identical inputs give identical bytes.
    Raises NumericalError, writing nothing, when a wsr_mean or wsr_std is
    NaN or infinite.
    """
    for r in rows:
        if not (math.isfinite(r.wsr_mean) and math.isfinite(r.wsr_std)):
            raise NumericalError(
                f"non-finite WSR in row {r.method} snr_db={r.snr_db!r} "
                f"seed={r.seed} slot={r.slot}: {r.wsr_mean!r} +- {r.wsr_std!r}"
            )
    ordered = sorted(
        rows, key=lambda r: (r.method, r.snr_db, r.seed, _slot_key(r.slot))
    )
    lines = [RESULT_HEADER]
    for r in ordered:
        lines.append(
            f"{r.method},{r.snr_db!r},{r.seed},{r.slot},"
            f"{r.wsr_mean!r},{r.wsr_std!r},{r.samples}"
        )
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if json_path is not None:
        payload = [
            {
                "method": r.method,
                "snr_db": r.snr_db,
                "seed": r.seed,
                "slot": r.slot,
                "wsr_mean": r.wsr_mean,
                "wsr_std": r.wsr_std,
                "samples": r.samples,
            }
            for r in ordered
        ]
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return csv_path

FIGURE_CHANNELS = {
    "fig5": channels.ChannelModelSpec("rician", kappa=3.0),
    "fig6": channels.ChannelModelSpec("rayleigh"),
    "fig7": channels.ChannelModelSpec("nakagami", m=1.0),
    "fig8": channels.ChannelModelSpec("nakagami", m=10.0),
}


def run_figure(cfg, figure, out_dir, verbose=False):
    """One comparison figure: fixed test family, all configured methods.

    fig5: Rician, fig6: Rayleigh, fig7: Nakagami m=1, fig8: Nakagami m=10.
    Trains any missing checkpoints first, then sweeps the SNR grid and writes
    <figure>.csv (plus .json when configured).
    """
    from dataclasses import replace as _replace

    if figure not in FIGURE_CHANNELS:
        raise ValueError(f"unknown figure {figure!r}; known: {sorted(FIGURE_CHANNELS)}")
    fig_cfg = _replace(cfg, test_channel=FIGURE_CHANNELS[figure])
    os.makedirs(out_dir, exist_ok=True)
    wanted = set(fig_cfg.methods)
    if {"maml", "mml"} & wanted and not os.path.exists(checkpoint_path(out_dir, "maml")):
        run_training(fig_cfg, "maml", out_dir, verbose=verbose)
    if "unsupervised" in wanted and not os.path.exists(
        checkpoint_path(out_dir, "unsupervised")
    ):
        run_training(fig_cfg, "unsupervised", out_dir, verbose=verbose)
    rows = []
    for method in fig_cfg.methods:
        rows.extend(run_eval(fig_cfg, method, out_dir, verbose=verbose))
    csv_path = os.path.join(out_dir, f"{figure}.csv")
    json_path = os.path.join(out_dir, f"{figure}.json") if cfg.emit_json else None
    emit_results(rows, csv_path, json_path)
    with open(os.path.join(out_dir, "config_effective.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_config(fig_cfg))
    return csv_path
