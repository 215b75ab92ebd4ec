"""CLI exit codes and subcommand plumbing, driven in-process via main()."""

import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from metabeam import channels, cli, meta, nn, runner
from metabeam.config import ExperimentConfig, parse_config, render_config
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
        slots=2, slot_size=4, meta=meta, capacity=4, mem_adapt_steps=1,
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


def test_missing_config_file_is_usage_error(capsys):
    assert cli.main(["--config", "/nonexistent/x.cfg", "gen-data"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_invalid_config_value_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("k = 0\n")
    assert cli.main(["--config", str(bad), "gen-data"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err


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


def test_readme_command_lines_parse():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), flags=re.S)
    lines = [line.split("#")[0] for block in blocks for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("metabeam ")]
    assert len(commands) >= 8
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits on a usage error


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


def test_oracle_rejects_large_k(tmp_path, capsys):
    big = tmp_path / "big.cfg"
    big.write_text("n = 4\nk = 4\nalpha = 1, 1, 1, 1\n")
    assert cli.main(["--config", str(big), "oracle"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_gradcheck_subcommand_passes(cfg_path, capsys):
    code = cli.main(["--config", cfg_path, "gradcheck", "--draws", "2"])
    assert code == cli.EXIT_OK
    assert "gradcheck" in capsys.readouterr().out


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

    def nan_training(dataset, cfg, meta_cfg, seed=0, init=None, log=None):
        init.u_net.weights[0][0, 0] = np.nan
        return init, meta.TrainLog()

    monkeypatch.setattr(meta, "meta_train", nan_training)
    code = cli.main(["--config", cfg_path, "--out", out, "train", "--method", "maml"])
    assert code == cli.EXIT_NUMERIC
    assert not os.path.exists(runner.checkpoint_path(out, "maml"))
    assert "non-finite" in capsys.readouterr().err
