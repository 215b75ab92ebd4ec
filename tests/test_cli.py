"""CLI exit codes and subcommand plumbing, driven in-process via main()."""

import argparse
import csv
import dataclasses
import inspect
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from metabeam import cli, meta, nn, pipeline, runner, wmmse
from metabeam.config import (
    MAX_SNR_DB,
    METHODS,
    MIN_SNR_DB,
    ExperimentConfig,
    parse_config,
    render_config,
)
from metabeam.errors import NumericalError, SingularMatrixError
from metabeam.meta import MetaConfig


@pytest.fixture()
def cfg_path(tmp_path):
    """Render a desk-scale config to a file the CLI can load."""
    meta = MetaConfig(
        width=8, epochs=2, n_support=4, n_query=4, n_tasks=2, batch_size=8,
        adapt_steps=1,
    )
    cfg = ExperimentConfig(
        n=2, k=2, snr_db=[10.0], train_size=24, test_size=6, test_seeds=1,
        slots=2, slot_size=4, meta=meta, capacity=4,
        wmmse_restarts=2,
    )
    path = tmp_path / "tiny.cfg"
    path.write_text(render_config(cfg))
    return str(path)


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_help_exits_ok(capsys):
    assert cli.main(["--help"]) == cli.EXIT_OK
    capsys.readouterr()


def test_unknown_method_is_usage_error(capsys):
    assert cli.main(["eval", "--method", "dueling-dqn"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_method_and_figure_choices_come_from_their_owners(capsys):
    parser = cli.build_parser()
    for method in METHODS:
        assert parser.parse_args(["eval", "--method", method]).method == method
    for figure in runner.FIGURE_CHANNELS:
        assert parser.parse_args(["figure", "--figure", figure]).figure == figure
    assert cli.main(["figure", "--figure", "fig9"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_out_of_range_snr_flag_is_usage_error(capsys):
    # system_for holds the one SNR range, so the flag is rejected as a
    # config SNR is: one line and exit 1, before anything runs
    for argv in (["gradcheck", "--draws", "1"], ["oracle", "--instances", "1"]):
        for snr in ("101", "-401", "4000", "nan"):
            assert cli.main([*argv, "--snr-db", snr]) == cli.EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: SNR must be in [{MIN_SNR_DB}, {MAX_SNR_DB}] dB, got {snr}\n"


@pytest.mark.parametrize("argv, flag", [
    (["oracle", "--instances", "0"], "--instances"),
    (["oracle", "--grid-steps", "-1"], "--grid-steps"),
    (["gradcheck", "--draws", "0"], "--draws"),
    (["gradcheck", "--draws", "two"], "--draws"),
    (["oracle", "--grid-steps", "4"], "--grid-steps"),
])
def test_count_flags_below_one_are_usage_errors(argv, flag, capsys):
    # rejected at parse time: nothing is run, checked or reported as ok. A
    # count is at least 1, the oracle's grid at least 5 points per axis.
    minimum = {"--grid-steps": 5}.get(flag, 1)
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: must be an integer of at least {minimum}" in err


@pytest.mark.parametrize("seed", ["4294967296", "-1"])
def test_seed_flag_outside_32_bits_is_usage_error(seed, capsys):
    # rejected at parse time, as [run] seed is: nothing runs under an
    # aliased seed
    assert cli.main(["--seed", seed, "gradcheck", "--draws", "1"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --seed: must be in [0, 4294967295], got {seed}" in err


def test_largest_seed_flag_runs(capsys):
    assert cli.main(["--seed", "4294967295", "gradcheck", "--draws", "1"]) == cli.EXIT_OK
    assert "-> ok" in capsys.readouterr().out


def test_missing_config_file_is_usage_error(capsys):
    # the one error line names the path, so the run reached the config load
    assert cli.main(["--config", "/nonexistent/x.cfg", "train"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "/nonexistent/x.cfg" in err


@pytest.mark.parametrize("argv", [
    ["--out", "{file}", "train"],  # FileExistsError
    ["--out", "{file}", "figure", "--figure", "fig6"],  # FileExistsError
    ["--out", "{file}/x", "eval", "--method", "wmmse"],  # NotADirectoryError
    ["--config", "{dir}", "train"],  # IsADirectoryError
    ["--out", "{dir}/out", "eval", "--method", "mml", "--checkpoint", "{dir}"],
])
def test_bad_path_is_usage_error(argv, cfg_path, tmp_path, capsys):
    # Each path is refused by the operating system; the CLI reports it as a
    # usage error (exit 1) with one line on stderr, not a traceback.
    file = tmp_path / "file"
    file.write_text("")
    argv = [arg.format(file=file, dir=tmp_path) for arg in argv]
    if "--config" not in argv:
        argv = ["--config", cfg_path, *argv]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_invalid_config_value_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[system]\nk = 0\n")
    assert cli.main(["--config", str(bad), "train"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "line 2" in err and "system.k" in err


def test_global_flags_after_the_subcommand_take_effect(cfg_path, tmp_path, capsys):
    after, before = str(tmp_path / "after"), str(tmp_path / "before")
    argv = ["train", "--config", cfg_path, "--out", after, "--seed", "99"]
    assert cli.main(argv) == cli.EXIT_OK
    assert cli.main(["--config", cfg_path, "--seed", "99", "--out", before,
                     "train"]) == cli.EXIT_OK
    assert (Path(runner.checkpoint_path(after, "maml")).read_bytes()
            == Path(runner.checkpoint_path(before, "maml")).read_bytes())
    args = cli.build_parser().parse_args(["gradcheck", "--verbose"])
    assert args.verbose is True
    capsys.readouterr()


def test_readme_command_lines_parse(cfg_path, tmp_path, monkeypatch, capsys):
    # Every README command line parses, then runs in order at desk scale.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), flags=re.S)
    lines = [line.split("#")[0] for block in blocks for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("metabeam ")]
    assert len(commands) >= 8
    parser = cli.build_parser()
    # each line parses (parse_args exits on a usage error), and every
    # subcommand has at least one line
    covered = {parser.parse_args(argv).command for argv in commands}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert covered == set(sub.choices)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(["--config", cfg_path] + argv) == cli.EXIT_OK, argv
    capsys.readouterr()


def test_seed_override_changes_the_checkpoint(cfg_path, tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["--config", cfg_path, "--out", a, "train"]) == 0
    assert cli.main(["--config", cfg_path, "--seed", "99", "--out", b, "train"]) == 0
    assert (Path(runner.checkpoint_path(a, "maml")).read_bytes()
            != Path(runner.checkpoint_path(b, "maml")).read_bytes())
    capsys.readouterr()


def test_train_then_eval_roundtrip(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(
        ["--config", cfg_path, "--out", out, "train", "--method", "maml"]
    ) == cli.EXIT_OK
    assert os.path.exists(runner.checkpoint_path(out, "maml"))
    assert cli.main(
        ["--config", cfg_path, "--out", out, "eval", "--method", "mml"]
    ) == cli.EXIT_OK
    lines = open(os.path.join(out, "eval_mml.csv")).read().splitlines()
    assert lines[0] == runner.RESULT_HEADER
    assert len(lines) > 1
    capsys.readouterr()


def test_eval_without_checkpoint_is_usage_error(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "empty")
    assert cli.main(
        ["--config", cfg_path, "--out", out, "eval", "--method", "maml"]
    ) == cli.EXIT_USAGE
    capsys.readouterr()


def test_eval_accepts_external_checkpoint(cfg_path, tmp_path, capsys):
    train_dir = str(tmp_path / "t")
    assert cli.main(
        ["--config", cfg_path, "--out", train_dir, "train", "--method", "maml"]
    ) == 0
    ckpt = runner.checkpoint_path(train_dir, "maml")
    eval_dir = str(tmp_path / "e")
    code = cli.main(
        ["--config", cfg_path, "--out", eval_dir, "eval", "--method", "maml",
         "--checkpoint", ckpt]
    )
    assert code == cli.EXIT_OK
    # the checkpoint was copied into place, bit for bit
    copied = runner.checkpoint_path(eval_dir, "maml")
    a, b = nn.load_checkpoint(ckpt), nn.load_checkpoint(copied)
    np.testing.assert_array_equal(nn.pack(a), nn.pack(b))
    capsys.readouterr()


def test_eval_checkpoint_refuses_to_replace_a_different_one(cfg_path, tmp_path, capsys):
    # --out already holds another maml.ckpt (and the log of its training):
    # eval refuses, naming both files, and leaves the file as it was. The
    # same bytes are no conflict, so eval then runs as usual.
    out = tmp_path / "out"
    out.mkdir()
    maml = runner.checkpoint_path(str(out), "maml")
    other = str(tmp_path / "other.ckpt")
    nn.save_checkpoint(maml, nn.init_predictor(np.random.default_rng(0), 2, 2, width=8))
    nn.save_checkpoint(other, nn.init_predictor(np.random.default_rng(1), 2, 2, width=8))
    before = open(maml, "rb").read()
    argv = ["--config", cfg_path, "--out", str(out), "eval", "--method", "mml",
            "--checkpoint"]
    assert cli.main(argv + [other]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert other in err and maml in err
    assert open(maml, "rb").read() == before
    assert sorted(os.listdir(out)) == ["maml.ckpt"]
    same = str(tmp_path / "same.ckpt")
    Path(same).write_bytes(before)
    assert cli.main(argv + [same]) == cli.EXIT_OK
    assert open(maml, "rb").read() == before
    capsys.readouterr()


def test_eval_refuses_a_checkpoint_with_a_non_finite_parameter(cfg_path, tmp_path, capsys):
    # A NaN in the file's last 8 bytes is refused when the file is read:
    # exit 1 with one error line naming that file, and no checkpoint left in
    # --out. The same bytes already in --out are refused the same way.
    ckpt = tmp_path / "nan.ckpt"
    nn.save_checkpoint(ckpt, nn.init_predictor(np.random.default_rng(0), 2, 2, width=8))
    ckpt.write_bytes(ckpt.read_bytes()[:-8] + np.array(np.nan, "<f8").tobytes())
    out = tmp_path / "out"
    argv = ["--config", cfg_path, "--out", str(out), "eval", "--method", "mml"]
    assert cli.main(argv + ["--checkpoint", str(ckpt)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(ckpt) in err
    assert os.listdir(out) == []
    maml = runner.checkpoint_path(str(out), "maml")
    Path(maml).write_bytes(ckpt.read_bytes())
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert maml in err


def test_eval_refuses_a_truncated_checkpoint_naming_it(cfg_path, tmp_path, capsys):
    # A checkpoint cut after its header is refused when it is read: exit 1
    # with one error line naming that file, and no checkpoint left in --out.
    ckpt = tmp_path / "cut.ckpt"
    nn.save_checkpoint(ckpt, nn.init_predictor(np.random.default_rng(0), 2, 2, width=8))
    ckpt.write_bytes(ckpt.read_bytes()[:69])
    out = tmp_path / "out"
    assert cli.main(["--config", cfg_path, "--out", str(out), "eval", "--method", "mml",
                     "--checkpoint", str(ckpt)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "truncated payload at byte 69" in err and str(ckpt) in err
    assert not os.path.exists(runner.checkpoint_path(str(out), "maml"))


@pytest.mark.parametrize(
    "n, width, sizes",
    [
        (3, 8, "[[24, 8, 8, 4], [24, 8, 8, 2], [24, 8, 8, 1]]"),
        (2, 4, "[[16, 4, 4, 4], [16, 4, 4, 2], [16, 4, 4, 1]]"),
    ],
    ids=["antennas", "width"],
)
def test_eval_rejects_a_checkpoint_of_other_layer_sizes(cfg_path, tmp_path, n, width,
                                                        sizes, capsys):
    # The config has N = K = 2 and width 8: a checkpoint of another N, or
    # of another width, is refused with both sets of layer sizes before any
    # row is computed.
    ckpt = str(tmp_path / "other.ckpt")
    nn.save_checkpoint(ckpt, nn.init_predictor(np.random.default_rng(0), n, 2, width))
    out = tmp_path / "out"
    code = cli.main(["--config", cfg_path, "--out", str(out), "eval",
                     "--method", "maml", "--checkpoint", ckpt])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert sizes in err
    assert "[[16, 8, 8, 4], [16, 8, 8, 2], [16, 8, 8, 1]]" in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("method", ["wmmse", "maml_no_pretrain"])
def test_eval_checkpoint_rejected_for_methods_that_read_none(cfg_path, tmp_path,
                                                             method, capsys):
    # --checkpoint must not land on another method's checkpoint: these
    # methods read none, so the flag is a usage error and nothing is written.
    out = tmp_path / "out"
    out.mkdir()
    maml = runner.checkpoint_path(str(out), "maml")
    other = str(tmp_path / "other.ckpt")
    nn.save_checkpoint(maml, nn.init_predictor(np.random.default_rng(0), 2, 2, width=8))
    nn.save_checkpoint(other, nn.init_predictor(np.random.default_rng(1), 2, 2, width=8))
    before = open(maml, "rb").read()
    code = cli.main(["--config", cfg_path, "--out", str(out), "eval",
                     "--method", method, "--checkpoint", other])
    assert code == cli.EXIT_USAGE
    assert "reads no checkpoint" in capsys.readouterr().err
    assert open(maml, "rb").read() == before
    assert sorted(os.listdir(out)) == ["maml.ckpt"]


def test_eval_echoes_the_config_it_ran(cfg_path, tmp_path, capsys):
    out = tmp_path / "echo"
    code = cli.main(["--config", cfg_path, "--seed", "7", "--out", str(out), "eval",
                     "--method", "wmmse"])
    assert code == cli.EXIT_OK
    ran = dataclasses.replace(parse_config(cfg_path), seed=7)
    assert parse_config(str(out / "config_effective.txt")) == ran
    capsys.readouterr()


def test_eval_no_pretrain_needs_no_checkpoint(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "np")
    code = cli.main(
        ["--config", cfg_path, "--out", out, "eval", "--method", "maml_no_pretrain"]
    )
    assert code == cli.EXIT_OK
    capsys.readouterr()


def test_figure_subcommand(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "fig")
    code = cli.main(["--config", cfg_path, "--out", out, "figure",
                     "--figure", "fig7"])
    assert code == cli.EXIT_OK
    assert os.path.exists(os.path.join(out, "fig7.csv"))
    capsys.readouterr()


@pytest.mark.parametrize("snr, n, k", [
    pytest.param(MIN_SNR_DB, 3, 3, id=f"{MIN_SNR_DB}"),
    pytest.param(MAX_SNR_DB, 3, 3, id=f"{MAX_SNR_DB}"),
    pytest.param(MIN_SNR_DB, 2, 3, id=f"{MIN_SNR_DB}-n2-k3"),
    pytest.param(MAX_SNR_DB, 2, 3, id=f"{MAX_SNR_DB}-n2-k3"),
    pytest.param(MAX_SNR_DB, 3, 2, id=f"{MAX_SNR_DB}-n3-k2", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="FOUND line 'K < N runs fail at high SNR' (CHANGES.md, ROADMAP item 17): "
               "S + mu I loses positive definiteness, exit 2")),
])
@pytest.mark.parametrize("figure", sorted(runner.FIGURE_CHANNELS))
def test_figure_runs_clean_at_the_snr_range_edges(figure, snr, n, k, tmp_path, capsys):
    # Both SNR grids at one edge of the accepted range, with K = N and
    # K > N: every method trains, adapts and is scored without a
    # RuntimeWarning (an error in this suite) and writes finite rows.
    meta = MetaConfig(width=8, epochs=1, n_support=4, n_query=4, n_tasks=2, batch_size=8,
                      adapt_steps=1)
    cfg = ExperimentConfig(
        n=n, k=k, snr_db=[float(snr)], train_snr_db=float(snr), train_size=24,
        test_size=6, test_seeds=1, slots=3, slot_size=6, meta=meta, capacity=4,
        wmmse_restarts=1,
    )
    path = tmp_path / "edge.cfg"
    path.write_text(render_config(cfg))
    out = tmp_path / "out"
    code = cli.main(["--config", str(path), "--out", str(out), "figure", "--figure", figure])
    assert code == cli.EXIT_OK, capsys.readouterr().err
    with open(out / f"{figure}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} == set(METHODS)
    assert np.isfinite([[float(r["wsr_mean"]), float(r["wsr_std"])] for r in rows]).all()
    capsys.readouterr()


def test_wmmse_eval_runs_clean_at_the_top_snr(tmp_path, capsys):
    # The wmmse baseline at the top of the accepted range on 12 Rayleigh
    # N = K = 3 channels. At 110 and 120 dB the pivot rule of its
    # eigenbasis solve refused some of these channels (exit 2), which is why
    # the range stops at 100 dB.
    path = tmp_path / "top.cfg"
    path.write_text(f"[system]\nsnr_db = {MAX_SNR_DB}\n[test]\nsize = 12\nseeds = 1\n")
    out = tmp_path / "out"
    code = cli.main(["--config", str(path), "--out", str(out), "eval", "--method", "wmmse"])
    assert code == cli.EXIT_OK
    with open(out / "eval_wmmse.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert np.isfinite([[float(r["wsr_mean"]), float(r["wsr_std"])] for r in rows]).all()
    capsys.readouterr()


def test_oracle_subcommand_passes(cfg_path, capsys):
    code = cli.main(["--config", cfg_path, "oracle", "--instances", "3",
                     "--grid-steps", "21"])
    assert code == cli.EXIT_OK
    assert "wmmse/oracle" in capsys.readouterr().out


def test_oracle_scores_the_returned_best_iterate(cfg_path, monkeypatch, capsys):
    # wmmse_solve returns its best iterate, whose WSR is the trace's maximum
    # (2.0 here), not its last entry (1.5): the ratio to an oracle of 2.0 is 1.
    trace = np.array([1.0, 2.0, 1.5])
    monkeypatch.setattr(wmmse, "grid_oracle", lambda *a, **kw: 2.0)
    monkeypatch.setattr(wmmse, "wmmse_solve", lambda *a, **kw: wmmse.WmmseResult(
        v=None, iterations=2, wsr_trace=trace, converged=True))
    code = cli.main(["--config", cfg_path, "oracle", "--instances", "2", "--verbose"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "wmmse 2.0000  ratio 1.0000" in out
    assert "min 1.0000  mean 1.0000" in out


def test_oracle_whose_rates_underflow_is_a_numerical_failure(capsys):
    # At -400 dB every rate of the grid is 0: the CLI names the instance and
    # the SNR and exits 2 before it forms the ratio 0/0.
    code = cli.main(["oracle", "--snr-db", "-400", "--instances", "1"])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: instance 0: ") and "-400 dB" in err


def test_oracle_rejects_large_k(tmp_path, capsys):
    big = tmp_path / "big.cfg"
    big.write_text("[system]\nn = 4\nk = 4\nalpha = 1, 1, 1, 1\n")
    assert cli.main(["--config", str(big), "oracle"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: grid oracle supports K <= 3, got K=4\n"


def test_gradcheck_subcommand_passes(cfg_path, capsys):
    code = cli.main(["--config", cfg_path, "gradcheck", "--draws", "2"])
    assert code == cli.EXIT_OK
    assert "gradcheck" in capsys.readouterr().out


def test_gradcheck_differentiates_the_configured_loss(cfg_path, tmp_path,
                                                      monkeypatch, capsys):
    # With loss_variant = verbatim the checked loss is the verbatim one that
    # training differentiates, not the default variant.
    verbatim = tmp_path / "verbatim.cfg"
    text = open(cfg_path).read()
    assert "loss_variant = corrected\n" in text  # a key may be set only once
    verbatim.write_text(text.replace("loss_variant = corrected\n", "loss_variant = verbatim\n"))
    real = pipeline.reconstruct_and_loss
    variants = []

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        variants.append(bound.arguments["variant"])
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "reconstruct_and_loss", spy)
    code = cli.main(["--config", str(verbatim), "gradcheck", "--draws", "1"])
    assert code == cli.EXIT_OK
    assert variants and set(variants) == {"verbatim"}
    capsys.readouterr()


def test_numerical_failure_maps_to_exit_2(cfg_path, monkeypatch, capsys):
    def boom(*a, **kw):
        raise SingularMatrixError("synthetic failure")

    monkeypatch.setattr(runner, "run_eval", boom)
    code = cli.main(["--config", cfg_path, "eval", "--method", "maml_no_pretrain"])
    assert code == cli.EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err


def test_non_finite_value_maps_to_exit_2(cfg_path, monkeypatch, capsys):
    def boom(*a, **kw):
        raise NumericalError("synthetic NaN loss")

    monkeypatch.setattr(runner, "run_eval", boom)
    code = cli.main(["--config", cfg_path, "eval", "--method", "maml_no_pretrain"])
    assert code == cli.EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err


def test_non_finite_results_and_parameters_are_not_written(cfg_path, tmp_path,
                                                            monkeypatch, capsys):
    # A NaN WSR row and a NaN parameter reach the writers; the CLI exits with
    # code 2 and leaves no result file or checkpoint behind.
    out = str(tmp_path / "nan")
    nan_row = runner.ResultRow("maml_no_pretrain", 10.0, 0, "final", np.nan, 0.0, 4)
    monkeypatch.setattr(runner, "run_eval", lambda *a, **kw: [nan_row])
    code = cli.main(["--config", cfg_path, "--out", out, "eval",
                     "--method", "maml_no_pretrain"])
    assert code == cli.EXIT_NUMERIC
    assert not os.path.exists(os.path.join(out, "eval_maml_no_pretrain.csv"))

    def nan_training(dataset, cfg, meta_cfg, seed, init):
        init.leaves[0][0, 0] = np.nan  # the u net's first weight
        return init, meta.TrainLog()

    monkeypatch.setattr(meta, "meta_train", nan_training)
    code = cli.main(["--config", cfg_path, "--out", out, "train", "--method", "maml"])
    assert code == cli.EXIT_NUMERIC
    assert not os.path.exists(runner.checkpoint_path(out, "maml"))
    assert "non-finite" in capsys.readouterr().err
