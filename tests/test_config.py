"""Config parsing, validation, and the effective-config echo."""

import dataclasses

import numpy as np
import pytest

from metabeam.channels import ChannelModelSpec
from metabeam.config import (
    ExperimentConfig,
    parse_channel_term,
    parse_config,
    parse_config_text,
    parse_mix,
    render_channel_term,
    render_config,
    render_mix,
)
from metabeam.errors import ConfigError


def test_empty_text_gives_defaults():
    cfg = parse_config_text("")
    assert cfg == ExperimentConfig()
    assert cfg.snr_db == [0.0, 5.0, 10.0, 15.0, 20.0]
    assert cfg.capacity == 64
    assert cfg.meta.inner_lr == 0.01
    assert cfg.meta.outer_lr == 0.001


def test_parse_minimal_file():
    cfg = parse_config_text(
        """
        # a comment
        [run]
        seed = 7
        [system]
        n = 4
        k = 2
        snr_db = 0, 10
        [test]
        channel = nakagami(m=10)
        slots = 8
        [memory]
        capacity = 16
        """
    )
    assert cfg.seed == 7
    assert (cfg.n, cfg.k) == (4, 2)
    assert cfg.snr_db == [0.0, 10.0]
    assert cfg.test_channel == ChannelModelSpec("nakagami", m=10.0)
    assert cfg.slots == 8
    assert cfg.capacity == 16
    # untouched sections keep their defaults
    assert cfg.train_size == 500


def test_unknown_key_reports_line_and_name():
    text = "[system]\nn = 3\nnn = 4\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "line 3" in str(err.value)
    assert "unknown key 'system.nn'" in str(err.value)


def test_key_before_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("seed = 3\n")
    assert "before any [section]" in str(err.value)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[run]\nseed 3\n")
    assert "line 2" in str(err.value)


def test_bad_value_reports_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[system]\nn = many\n")
    assert "system.n" in str(err.value)


def test_parse_channel_terms():
    assert parse_channel_term("rayleigh") == ChannelModelSpec("rayleigh")
    assert parse_channel_term("rician(kappa=5)") == ChannelModelSpec("rician", kappa=5.0)
    assert parse_channel_term(" nakagami(m=2) ") == ChannelModelSpec("nakagami", m=2.0)
    for bad in ("ricean", "rician(kappa=", "rician(kappa)", "rician(q=1)", "nakagami(m=0)"):
        with pytest.raises(ConfigError):
            parse_channel_term(bad)


def test_parse_mix_with_parenthesized_fractions():
    mix = parse_mix("rayleigh=0.5, rician(kappa=3)=0.25, nakagami(m=2)=0.25")
    assert [s.family for s, _ in mix] == ["rayleigh", "rician", "nakagami"]
    assert [f for _, f in mix] == [0.5, 0.25, 0.25]
    with pytest.raises(ConfigError):
        parse_mix("")
    with pytest.raises(ConfigError):
        parse_mix("rayleigh")  # missing fraction


def test_render_round_trips_channel_terms():
    for spec in (
        ChannelModelSpec("rayleigh"),
        ChannelModelSpec("rician", kappa=2.5),
        ChannelModelSpec("nakagami", m=10.0),
    ):
        assert parse_channel_term(render_channel_term(spec)) == spec
    mix = [(ChannelModelSpec("rayleigh"), 0.3), (ChannelModelSpec("rician", kappa=3.0), 0.7)]
    assert parse_mix(render_mix(mix)) == mix


def test_echo_round_trip_default_config():
    cfg = ExperimentConfig()
    assert parse_config_text(render_config(cfg)) == cfg


def test_echo_round_trip_modified_config():
    cfg = parse_config_text(
        """
        [run]
        seed = 42
        [system]
        n = 2
        k = 2
        alpha = 0.5, 1.5
        [train]
        mix = nakagami(m=3)=1
        [test]
        channel = rician(kappa=7)
        [meta]
        width = 8
        loss_variant = verbatim
        [memory]
        capacity = 0
        rank_pool = union
        [eval]
        methods = wmmse, mml
        emit_json = true
        """
    )
    echoed = parse_config_text(render_config(cfg))
    assert echoed == cfg
    assert echoed.alpha == [0.5, 1.5]
    assert echoed.emit_json is True


def test_validation_errors():
    bad = [
        "[meta]\nloss_variant = fancy\n",
        "[memory]\nrank_pool = newest\n",
        "[memory]\ncapacity = -1\n",
        "[memory]\nadapt_steps = 0\n",
        "[eval]\nmethods = maml, sgd\n",
        "[system]\nk = 0\n",
        "[test]\nslots = 0\n",
        "[system]\nk = 3\nalpha = 1, 1\n",
    ]
    for text in bad:
        with pytest.raises(ConfigError):
            parse_config_text(text)


@pytest.mark.parametrize(
    "text, key",
    [
        ("[train]\nsize = 70\n[meta]\nn_support = 40\nn_query = 40\n", "train.size"),
        ("[meta]\ninner_lr = nan\n", "meta.inner_lr"),
        ("[meta]\ninner_lr = -0.01\n", "meta.inner_lr"),
        ("[meta]\nouter_lr = inf\n", "meta.outer_lr"),
        ("[meta]\nouter_lr = -1e-3\n", "meta.outer_lr"),
        ("[meta]\nepochs = -3\n", "meta.epochs"),
        ("[meta]\nn_tasks = 0\n", "meta.n_tasks"),
        ("[meta]\nn_support = 0\n", "meta.n_support"),
        ("[meta]\nn_query = 0\n", "meta.n_query"),
        ("[meta]\nwidth = 0\n", "meta.width"),
        ("[meta]\nbatch_size = 0\n", "meta.batch_size"),
        ("[meta]\ninner_steps = -1\n", "meta.inner_steps"),
        ("[meta]\nadapt_steps = -2\n", "meta.adapt_steps"),
        ("[eval]\nwmmse_restarts = -1\n", "eval.wmmse_restarts"),
        ("[system]\nsigma2 = -1\n", "system.sigma2"),
        ("[system]\nsigma2 = 0\n", "system.sigma2"),
        ("[system]\nsigma2 = nan\n", "system.sigma2"),
        ("[system]\nsnr_db = 0, inf\n", "system.snr_db"),
        ("[train]\nsnr_db = nan\n", "train.snr_db"),
    ],
    ids=lambda v: " ".join(v.split()),
)
def test_training_values_rejected_at_parse(text, key):
    # No run can use these values: parsing fails, naming the key and the
    # line that set it (the last line of each text).
    last_line = text.count("\n")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert key in str(err.value)
    assert str(err.value).startswith(f"line {last_line}:")


def test_zero_rates_and_steps_stay_legal():
    cfg = parse_config_text(
        "[meta]\ninner_lr = 0\nouter_lr = 0\nepochs = 0\ninner_steps = 0\nadapt_steps = 0\n"
        "[eval]\nwmmse_restarts = 0\n"
    )
    m = cfg.meta
    assert (m.inner_lr, m.outer_lr, m.epochs, m.inner_steps, m.adapt_steps) == (0.0, 0.0, 0, 0, 0)
    assert cfg.wmmse_restarts == 0


def test_parse_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nseed = 9\n", encoding="utf-8")
    assert parse_config(str(path)).seed == 9
