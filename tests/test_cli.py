"""CLI exit codes and subcommand plumbing, driven in-process via main()."""

import dataclasses
import inspect
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from metabeam import channels, cli, meta, nn, pipeline, runner, wmmse
from metabeam.config import METHODS, ExperimentConfig, parse_config, render_config
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
    # 10^(4000/10) overflows a float; the power is rejected, not a traceback
    assert cli.main(["gradcheck", "--draws", "1", "--snr-db", "4000"]) == cli.EXIT_USAGE
    assert "p in (0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["oracle", "--instances", "0"], "--instances"),
    (["oracle", "--grid-steps", "-1"], "--grid-steps"),
    (["gradcheck", "--draws", "0"], "--draws"),
    (["gradcheck", "--draws", "two"], "--draws"),
])
def test_count_flags_below_one_are_usage_errors(argv, flag, capsys):
    # rejected at parse time: nothing is run, checked or reported as ok
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: must be an integer of at least 1" in err


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
    assert cli.main(["--config", "/nonexistent/x.cfg", "gen-data"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_invalid_config_value_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[system]\nk = 0\n")
    assert cli.main(["--config", str(bad), "gen-data"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "line 2" in err and "system.k" in err


def test_gen_data_writes_training_set(cfg_path, tmp_path, capsys):
    out = tmp_path / "data.bin"
    code = cli.main(["--config", cfg_path, "--out", str(out), "gen-data"])
    assert code == cli.EXIT_OK
    # the file holds exactly the deterministic training draw
    data = channels.read_dataset(str(out))
    np.testing.assert_array_equal(data, runner.train_dataset(parse_config(cfg_path)))
    capsys.readouterr()


def test_global_flags_after_the_subcommand_take_effect(cfg_path, tmp_path, capsys):
    out = tmp_path / "after.bin"
    argv = ["gen-data", "--config", cfg_path, "--out", str(out), "--seed", "99"]
    assert cli.main(argv) == cli.EXIT_OK
    before = tmp_path / "before.bin"
    assert cli.main(["--config", cfg_path, "--seed", "99", "--out", str(before),
                     "gen-data"]) == cli.EXIT_OK
    assert out.read_bytes() == before.read_bytes()
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
    for argv in commands:
        parser.parse_args(argv)  # exits on a usage error
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(["--config", cfg_path] + argv) == cli.EXIT_OK, argv
    capsys.readouterr()


def test_gen_data_seed_override_changes_bytes(cfg_path, tmp_path, capsys):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    assert cli.main(["--config", cfg_path, "--out", str(a), "gen-data"]) == 0
    assert cli.main(
        ["--config", cfg_path, "--seed", "99", "--out", str(b), "gen-data"]
    ) == 0
    assert a.read_bytes() != b.read_bytes()
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
        init.u_net.weights[0][0, 0] = np.nan
        return init, meta.TrainLog()

    monkeypatch.setattr(meta, "meta_train", nan_training)
    code = cli.main(["--config", cfg_path, "--out", out, "train", "--method", "maml"])
    assert code == cli.EXIT_NUMERIC
    assert not os.path.exists(runner.checkpoint_path(out, "maml"))
    assert "non-finite" in capsys.readouterr().err
