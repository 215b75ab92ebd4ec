"""Experiment driver: training runs, evaluation sweeps, and result emission.

The unit of evaluation is a cell (method, SNR, seed). Every stochastic step
draws from a named sub-stream of the run seed (see seeding.py), a cell only
from its own, and test data is method-independent: methods are compared on
identical channels, and a re-run reproduces every output file byte for byte.
"""

import itertools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import channels, memory, meta, nn, objective, pipeline, wmmse
from .config import METHODS, render_config, system_for
from .errors import DataFormatError, NumericalError
from .linalg import normalize_to_power
from .seeding import rng_for

RESULT_HEADER = "method,snr_db,seed,slot,wsr_mean,wsr_std,samples"
# The methods run_training trains, and the checkpoint each learned method's
# eval reads; mml reuses maml's.
TRAINED = ("maml", "unsupervised")
CHECKPOINT_OF = {"unsupervised": "unsupervised", "maml": "maml", "mml": "maml"}


@dataclass(frozen=True)
class ResultRow:
    method: str
    snr_db: float
    seed: int
    slot: str  # decimal slot index, or "final"
    wsr_mean: float
    wsr_std: float
    samples: int


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


def load_params(path, cfg):
    """The checkpoint at path; DataFormatError if its layer sizes are not cfg's."""
    params = nn.load_checkpoint(path)
    want = nn.predictor_sizes(cfg.n, cfg.k, cfg.meta.width)
    if params.sizes != want:
        raise DataFormatError(f"{path} has layer sizes {params.sizes}; the config needs {want}")
    return params


def run_training(cfg, method, out_dir, verbose=False):
    """Train one learned method and write its checkpoint plus training log.

    Returns the checkpoint path. Training happens at train_snr_db; both
    methods share the dataset and the initial parameters, differing only in
    the update rule.
    """
    if method not in TRAINED:
        raise ValueError(f"run_training handles {'|'.join(TRAINED)}, got {method!r}")
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
    echo_config(cfg, out_dir)
    if verbose:
        print(f"[train] {method}: {len(log.epochs)} epochs -> {path}")
    return path


def echo_config(cfg, out_dir):
    """Write the config a run used to <out_dir>/config_effective.txt."""
    with open(os.path.join(out_dir, "config_effective.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_config(cfg))


def _test_batch(cfg, snr_idx, seed):
    """Method-independent test draw for one (snr, seed) cell."""
    rng = rng_for(cfg.seed, "test", "eval", snr_idx, seed)
    return channels.sample_channels(rng, cfg.test_channel, cfg.test_size, cfg.n, cfg.k)


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
    data = _test_batch(cfg, snr_idx, seed)
    runs = [wmmse.wmmse_solve(h, sys_cfg, seed=i, restarts=cfg.wmmse_restarts)
            for i, h in enumerate(data)]
    v = normalize_to_power(np.stack([res.v for res in runs]), sys_cfg.p)
    return objective.wsr(data, v, sys_cfg), sum(not res.converged for res in runs)


def _eval_forward(params, cfg, sys_cfg, snr_idx, seed):
    data = _test_batch(cfg, snr_idx, seed)
    return pipeline.evaluate_wsr(params, data, sys_cfg)


def _stream_for(cfg, snr_idx, seed):
    """One cell's (slots, slot_size, K, N) stream, one channel draw per slot."""
    rng = rng_for(cfg.seed, "test", "stream", snr_idx, seed)
    return np.stack([
        channels.sample_channels(rng, cfg.test_channel, cfg.slot_size, cfg.n, cfg.k)
        for _ in range(cfg.slots)
    ])


def _eval_stream(method, params, cfg, sys_cfg, snr_db, snr_idx, seed):
    """Streaming rows for one cell: one row per slot plus a final aggregate.

    Every streaming method runs the same loop and adapts meta.adapt_steps
    steps per slot; only mml has a memory ([memory] capacity), so the mml
    M=0 ablation produces maml's rows verbatim. The final row pools the
    per-sample rates of every slot.
    """
    stream = _stream_for(cfg, snr_idx, seed)
    slot_stats = []
    memory.mml_test_loop(
        params, stream, sys_cfg, cfg.meta, cfg.capacity if method == "mml" else 0,
        rank_pool=cfg.rank_pool,
        on_slot=lambda t, w: slot_stats.append((t, w.copy())),
    )
    rows = [_row(method, snr_db, seed, str(t), w) for t, w in slot_stats]
    pooled = np.concatenate([w for _, w in slot_stats])
    rows.append(_row(method, snr_db, seed, "final", pooled))
    return rows


def cells(cfg, methods):
    """The (method, snr_idx, seed) cells that evaluate methods, in run order."""
    return list(itertools.product(methods, range(len(cfg.snr_db)), range(cfg.test_seeds)))


def run_cell(cfg, method, params, snr_idx, seed):
    """One cell's rows and its --verbose note: a final row for wmmse and
    unsupervised, a row per slot plus a final row for the adaptive methods.
    params is the method's checkpoint (None if it reads none);
    maml_no_pretrain draws its initialization from the cell's seed."""
    snr_db = cfg.snr_db[snr_idx]
    sys_cfg = system_for(cfg, snr_db)
    if method == "wmmse":
        wsrs, unconverged = _eval_wmmse(cfg, sys_cfg, snr_idx, seed)
        return ([_row(method, snr_db, seed, "final", wsrs)],
                f" unconverged={unconverged}/{wsrs.size}")
    if method == "unsupervised":
        wsrs = _eval_forward(params, cfg, sys_cfg, snr_idx, seed)
        return [_row(method, snr_db, seed, "final", wsrs)], ""
    if method == "maml_no_pretrain":
        params = nn.init_predictor(rng_for(cfg.seed, "init-no-pretrain", seed),
                                   cfg.n, cfg.k, width=cfg.meta.width)
    return _eval_stream(method, params, cfg, sys_cfg, snr_db, snr_idx, seed), ""


def run_eval(cfg, method, out_dir, verbose=False):
    """Evaluate one method over its cells; returns their rows in cell order.

    Learned methods read their checkpoint from out_dir, and mml reuses the
    maml checkpoint; a checkpoint whose layer sizes differ from the config's
    raises DataFormatError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown eval method {method!r}")
    params = None
    if method in CHECKPOINT_OF:
        path = checkpoint_path(out_dir, CHECKPOINT_OF[method])
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"{method} needs a checkpoint at {path}; run training first"
            )
        params = load_params(path, cfg)
    rows = []
    for _, snr_idx, seed in cells(cfg, [method]):
        cell_rows, note = run_cell(cfg, method, params, snr_idx, seed)
        rows += cell_rows
        if verbose:
            print(f"[eval] {method} snr={cfg.snr_db[snr_idx]:g} seed={seed}: "
                  f"wsr={cell_rows[-1].wsr_mean:.4f}{note}")
    return rows


def _slot_key(slot):
    return (0, int(slot)) if slot != "final" else (1, 0)


def emit_results(rows, csv_path):
    """Write rows as CSV in a stable canonical order.

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
    Trains every checkpoint its methods read under the figure's config,
    replacing any in out_dir, then runs cells(fig_cfg, fig_cfg.methods) in
    order and writes <figure>.csv.
    """
    if figure not in FIGURE_CHANNELS:
        raise ValueError(f"unknown figure {figure!r}; known: {sorted(FIGURE_CHANNELS)}")
    fig_cfg = replace(cfg, test_channel=FIGURE_CHANNELS[figure])
    os.makedirs(out_dir, exist_ok=True)
    for trained in sorted({CHECKPOINT_OF[m] for m in fig_cfg.methods if m in CHECKPOINT_OF}):
        run_training(fig_cfg, trained, out_dir, verbose=verbose)
    rows = []
    for method in fig_cfg.methods:
        rows.extend(run_eval(fig_cfg, method, out_dir, verbose=verbose))
    csv_path = os.path.join(out_dir, f"{figure}.csv")
    emit_results(rows, csv_path)
    echo_config(fig_cfg, out_dir)
    return csv_path
