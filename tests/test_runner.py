"""Experiment driver: row protocol, emission format, figures, determinism."""

import dataclasses
import os

import numpy as np
import pytest

from metabeam import channels, memory, meta, nn, pipeline, runner
from metabeam.config import ExperimentConfig, system_for
from metabeam.errors import DataFormatError, NumericalError
from metabeam.meta import MetaConfig
from metabeam.runner import ResultRow
from metabeam.seeding import rng_for


def tiny_cfg(**overrides):
    """Desk-scale config: small nets, short streams, one SNR point."""
    meta = MetaConfig(
        width=8, epochs=2, n_support=4, n_query=4, n_tasks=2, batch_size=8,
        adapt_steps=1,
    )
    base = dict(
        n=2, k=2, snr_db=[10.0], train_size=24, test_size=6, test_seeds=2,
        slots=3, slot_size=4, meta=meta, capacity=4,
        wmmse_restarts=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_system_for_power_grid():
    # the noise power is the unit, so the power budget is the linear SNR
    cfg = tiny_cfg()
    for snr in (-400.0, 0.0, 10.0, 7.5, 100.0):
        sys_cfg = system_for(cfg, snr)
        assert sys_cfg.p == 10 ** (snr / 10)
        assert (sys_cfg.n, sys_cfg.k) == (2, 2)


def test_train_dataset_and_init_are_method_independent():
    cfg = tiny_cfg()
    np.testing.assert_array_equal(runner.train_dataset(cfg), runner.train_dataset(cfg))
    a, b = runner.initial_params(cfg), runner.initial_params(cfg)
    np.testing.assert_array_equal(nn.pack(a), nn.pack(b))


def test_run_training_writes_artifacts(tmp_path):
    cfg = tiny_cfg()
    out = str(tmp_path)
    path = runner.run_training(cfg, "maml", out)
    assert path == runner.checkpoint_path(out, "maml")
    assert os.path.exists(path)
    log = (tmp_path / "maml_train.csv").read_text().splitlines()
    assert log[0] == "epoch,support_loss,query_loss,wall_time"
    assert len(log) == 1 + cfg.meta.epochs
    assert (tmp_path / "config_effective.txt").exists()
    with pytest.raises(ValueError):
        runner.run_training(cfg, "mml", out)


def test_run_eval_requires_checkpoint(tmp_path):
    cfg = tiny_cfg()
    with pytest.raises(FileNotFoundError):
        runner.run_eval(cfg, "maml", str(tmp_path))


def test_run_eval_rejects_a_checkpoint_of_another_width(tmp_path):
    # A width-8 checkpoint under a width-16 config would otherwise run as
    # if it had the configured width.
    cfg = tiny_cfg()
    runner.run_training(cfg, "maml", str(tmp_path))
    wide = dataclasses.replace(cfg, meta=dataclasses.replace(cfg.meta, width=16))
    with pytest.raises(DataFormatError, match=r"\[16, 8, 8, 4\].*\[16, 16, 16, 4\]"):
        runner.run_eval(wide, "mml", str(tmp_path))


def test_wmmse_rows_match_k1_closed_form(tmp_path):
    # Single-user cells have the closed-form rate log2(1 + P |h|^2 / sigma2);
    # the wmmse row mean must match its mean over the same drawn test set.
    cfg = tiny_cfg(n=3, k=1, test_seeds=2, test_size=5)
    rows = runner.run_eval(cfg, "wmmse", str(tmp_path))
    assert len(rows) == 2  # one final row per (snr, seed)
    for snr_idx, snr_db in enumerate(cfg.snr_db):
        sys_cfg = system_for(cfg, snr_db)
        for seed in range(cfg.test_seeds):
            rng = rng_for(cfg.seed, "test", "eval", snr_idx, seed)
            data = channels.sample_channels(rng, cfg.test_channel, cfg.test_size, cfg.n, cfg.k)
            closed = [
                np.log2(1.0 + sys_cfg.p * np.linalg.norm(h) ** 2)
                for h in data
            ]
            row = [r for r in rows if r.seed == seed and r.snr_db == snr_db][0]
            assert row.wsr_mean == pytest.approx(np.mean(closed), abs=1e-9)
            assert row.samples == cfg.test_size
            assert row.slot == "final"


def test_wmmse_verbose_line_counts_unconverged_solves(tmp_path, capsys):
    # At 40 dB the solver stops at max_iters on most channels; the cell's
    # verbose line must say how many of its solves did not converge.
    cfg = tiny_cfg(n=3, k=3, snr_db=[40.0], test_seeds=1, test_size=3)
    runner.run_eval(cfg, "wmmse", str(tmp_path), verbose=True)
    line = capsys.readouterr().out.strip()
    count, size = line.rsplit("unconverged=", 1)[1].split("/")
    assert int(size) == 3
    assert 0 < int(count) <= 3


def test_stream_rows_and_cardinality(tmp_path):
    cfg = tiny_cfg()
    out = str(tmp_path)
    runner.run_training(cfg, "maml", out)
    rows = runner.run_eval(cfg, "maml", out)
    # per cell: one row per slot plus "final"; 1 snr x 2 seeds
    assert len(rows) == 2 * (cfg.slots + 1)
    finals = [r for r in rows if r.slot == "final"]
    assert len(finals) == 2
    for r in finals:
        assert r.samples == cfg.slots * cfg.slot_size
    slot_rows = [r for r in rows if r.seed == 0 and r.slot != "final"]
    assert [r.slot for r in slot_rows] == ["0", "1", "2"]
    # the final row pools the slot rows of its cell
    pooled = np.mean([r.wsr_mean for r in slot_rows])
    final0 = [r for r in finals if r.seed == 0][0]
    assert final0.wsr_mean == pytest.approx(pooled, rel=1e-12)


def test_mml_zero_capacity_reproduces_maml_rows(tmp_path):
    cfg = tiny_cfg()
    out = str(tmp_path)
    runner.run_training(cfg, "maml", out)
    maml_rows = runner.run_eval(cfg, "maml", out)
    mml_rows = runner.run_eval(dataclasses.replace(cfg, capacity=0), "mml", out)
    assert len(maml_rows) == len(mml_rows)
    for a, b in zip(maml_rows, mml_rows):
        assert b.method == "mml"
        assert dataclasses.replace(b, method="maml") == a  # bit-identical stats


def test_mml_uses_configured_capacity_by_default(tmp_path, monkeypatch):
    # Only mml reads [memory] capacity; every other stream runs at 0.
    cfg = tiny_cfg()
    out = str(tmp_path)
    runner.run_training(cfg, "maml", out)
    loop, seen = memory.mml_test_loop, []

    def spy(params, stream, cfg, meta_cfg, capacity, **kwargs):
        seen.append(capacity)
        return loop(params, stream, cfg, meta_cfg, capacity, **kwargs)

    monkeypatch.setattr(memory, "mml_test_loop", spy)
    for method in ("mml", "maml", "maml_no_pretrain"):
        runner.run_eval(cfg, method, out)
    assert seen == [cfg.capacity] * cfg.test_seeds + [0] * (2 * cfg.test_seeds)


def test_maml_no_pretrain_needs_no_checkpoint(tmp_path):
    cfg = tiny_cfg()
    rows = runner.run_eval(cfg, "maml_no_pretrain", str(tmp_path))
    assert len(rows) == 2 * (cfg.slots + 1)
    assert all(r.method == "maml_no_pretrain" for r in rows)


def test_maml_no_pretrain_rows_match_sequential_stream(tmp_path, monkeypatch):
    # The slot-batched stream gives the rows of a loop that scores a slot,
    # then adapts from the initialization on that slot alone.
    cfg = tiny_cfg(slots=5)
    out = str(tmp_path)
    monkeypatch.setattr(memory, "SLOT_GROUP_SAMPLES", 2 * cfg.slot_size)
    batched = runner.run_eval(cfg, "maml_no_pretrain", out)

    def sequential(params, stream, cfg, meta_cfg, capacity, on_slot=None, **_):
        assert capacity == 0
        current = params
        for t, batch in enumerate(stream):
            on_slot(t, pipeline.evaluate_wsr(current, batch, cfg))
            current = meta.adapt_on_test(params, batch, cfg, meta_cfg)

    monkeypatch.setattr(memory, "mml_test_loop", sequential)
    assert batched == runner.run_eval(cfg, "maml_no_pretrain", out)


def test_emit_results_stable_bytes_and_order(tmp_path):
    rows = [
        ResultRow("wmmse", 10.0, 1, "final", 5.5, 0.25, 8),
        ResultRow("maml", 10.0, 0, "final", 6.0, 0.5, 8),
        ResultRow("maml", 10.0, 0, "10", 6.1, 0.5, 4),
        ResultRow("maml", 10.0, 0, "2", 6.2, 0.5, 4),
        ResultRow("maml", 5.0, 0, "final", 4.0, 0.5, 8),
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    runner.emit_results(rows, str(p1))
    runner.emit_results(list(reversed(rows)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == runner.RESULT_HEADER
    # numeric slot order 2 < 10 < final; snr 5 before 10; maml before wmmse
    assert [l.split(",")[:4] for l in lines[1:]] == [
        ["maml", "5.0", "0", "final"],
        ["maml", "10.0", "0", "2"],
        ["maml", "10.0", "0", "10"],
        ["maml", "10.0", "0", "final"],
        ["wmmse", "10.0", "1", "final"],
    ]


@pytest.mark.parametrize("mean, std", [(np.nan, 0.5), (1.0, np.inf), (-np.inf, 0.0)])
def test_emit_results_refuses_non_finite_rows(tmp_path, mean, std):
    rows = [
        ResultRow("maml", 10.0, 0, "final", 6.0, 0.5, 8),
        ResultRow("mml", 10.0, 0, "3", mean, std, 4),
    ]
    csv_path = tmp_path / "r.csv"
    with pytest.raises(NumericalError, match="mml"):
        runner.emit_results(rows, str(csv_path))
    assert not csv_path.exists()


def test_emit_results_final_row_cardinality(tmp_path):
    # 5 methods x 5 SNRs x 5 seeds of final rows -> 125 data lines.
    rows = [
        ResultRow(m, snr, seed, "final", 1.0, 0.0, 1)
        for m in ("wmmse", "unsupervised", "maml", "maml_no_pretrain", "mml")
        for snr in (0.0, 5.0, 10.0, 15.0, 20.0)
        for seed in range(5)
    ]
    path = tmp_path / "grid.csv"
    runner.emit_results(rows, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 125
    assert sum(l.split(",")[3] == "final" for l in lines[1:]) == 125


def test_figure_channel_mapping():
    assert runner.FIGURE_CHANNELS["fig5"] == channels.ChannelModelSpec("rician", kappa=3.0)
    assert runner.FIGURE_CHANNELS["fig6"] == channels.ChannelModelSpec("rayleigh")
    assert runner.FIGURE_CHANNELS["fig7"] == channels.ChannelModelSpec("nakagami", m=1.0)
    assert runner.FIGURE_CHANNELS["fig8"] == channels.ChannelModelSpec("nakagami", m=10.0)


def test_run_figure_unknown_id(tmp_path):
    with pytest.raises(ValueError):
        runner.run_figure(tiny_cfg(), "fig9", str(tmp_path))


def test_run_figure_writes_all_methods(tmp_path):
    cfg = tiny_cfg(methods=["wmmse", "maml", "mml"], test_seeds=1)
    path = runner.run_figure(cfg, "fig7", str(tmp_path))
    lines = open(path).read().splitlines()
    methods = {l.split(",")[0] for l in lines[1:]}
    assert methods == {"wmmse", "maml", "mml"}
    # only the checkpoint these methods read is trained
    assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == ["maml.ckpt"]
    # the figure overrides the test channel, not the training mix
    echo = (tmp_path / "config_effective.txt").read_text()
    assert "channel = nakagami(m=1)" in echo
    assert "mix = rayleigh=0.5, rician(kappa=3)=0.5" in echo


def test_run_figure_deterministic_bytes(tmp_path):
    cfg = tiny_cfg(methods=["wmmse", "maml", "mml"], test_seeds=1)
    p1 = runner.run_figure(cfg, "fig6", str(tmp_path / "a"))
    p2 = runner.run_figure(cfg, "fig6", str(tmp_path / "b"))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_run_figure_retrains_checkpoints_under_its_config(tmp_path):
    # A checkpoint trained under another config in the same directory is
    # replaced: the figure's checkpoint, log and rows equal a fresh run's.
    cfg = tiny_cfg(methods=["maml", "mml"], test_seeds=1)
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    short = dataclasses.replace(cfg, meta=dataclasses.replace(cfg.meta, epochs=1))
    runner.run_training(short, "maml", str(reused))
    for out in (reused, fresh):
        runner.run_figure(cfg, "fig7", str(out))
    assert len((reused / "maml_train.csv").read_text().splitlines()) == 1 + cfg.meta.epochs
    for name in ("maml.ckpt", "fig7.csv"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()


def test_run_figure_runs_exactly_its_cells_in_order(tmp_path, monkeypatch, capsys):
    # run_cell is the one unit of evaluation: a figure runs each of its cells
    # once, in cells() order, and prints one verbose line per cell.
    cfg = tiny_cfg(snr_db=[0.0, 10.0])
    fig_cfg = dataclasses.replace(cfg, test_channel=runner.FIGURE_CHANNELS["fig6"])
    seen, run_cell = [], runner.run_cell

    def spy(cell_cfg, method, params, snr_idx, seed):
        assert cell_cfg == fig_cfg
        seen.append((method, snr_idx, seed))
        return run_cell(cell_cfg, method, params, snr_idx, seed)

    monkeypatch.setattr(runner, "run_cell", spy)
    runner.run_figure(cfg, "fig6", str(tmp_path), verbose=True)
    assert seen == runner.cells(fig_cfg, fig_cfg.methods)
    assert len(seen) == 5 * 2 * 2
    assert seen[:3] == [("wmmse", 0, 0), ("wmmse", 0, 1), ("wmmse", 1, 0)]
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("[eval]")]
    assert [l.split(":")[0] for l in lines] == [
        f"[eval] {m} snr={cfg.snr_db[i]:g} seed={s}" for m, i, s in seen
    ]
    assert [("unconverged=" in l) for l in lines] == [m == "wmmse" for m, _, _ in seen]


def test_cell_rows_do_not_depend_on_what_ran_before(tmp_path):
    # A cell draws only from its own named sub-streams: a figure with its
    # methods reversed writes the same bytes, and every cell of an eval, run
    # again alone and in reverse order, gives the same rows.
    cfg = tiny_cfg(snr_db=[0.0, 10.0])
    out = str(tmp_path / "fwd")
    fwd = runner.run_figure(cfg, "fig7", out)
    rev = runner.run_figure(dataclasses.replace(cfg, methods=cfg.methods[::-1]), "fig7",
                            str(tmp_path / "rev"))
    assert open(fwd, "rb").read() == open(rev, "rb").read()
    fig_cfg = dataclasses.replace(cfg, test_channel=runner.FIGURE_CHANNELS["fig7"])
    for method in fig_cfg.methods:
        rows = runner.run_eval(fig_cfg, method, out)
        params = (runner.load_params(runner.checkpoint_path(out, runner.CHECKPOINT_OF[method]),
                                     fig_cfg) if method in runner.CHECKPOINT_OF else None)
        alone = [runner.run_cell(fig_cfg, method, params, snr_idx, seed)[0]
                 for _, snr_idx, seed in reversed(runner.cells(fig_cfg, [method]))]
        assert [r for cell in reversed(alone) for r in cell] == rows
