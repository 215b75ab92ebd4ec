"""Config parsing, validation, and the effective-config echo."""

import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from metabeam.channels import ChannelModelSpec
from metabeam.config import (
    KEYS,
    MAX_SNR_DB,
    METHODS,
    MIN_SNR_DB,
    ExperimentConfig,
    format_float,
    parse_channel_term,
    parse_config,
    parse_config_text,
    parse_mix,
    render_channel_term,
    render_config,
    render_mix,
)
from metabeam.errors import ConfigError
from metabeam.meta import MetaConfig


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


def test_key_set_twice_reports_both_lines():
    # The second assignment would silently win; name the key and both lines.
    text = "[meta]\nepochs = 3\n[system]\nn = 2\n[meta]\nepochs = 5\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert str(err.value) == "line 6: 'meta.epochs' is already set on line 2"


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
    for bad in ("ricean", "rician(kappa=", "rician(kappa)", "rician(q=1)", "nakagami(m=0)",
                "rician(kappa=nan)", "rician(kappa=inf)", "nakagami(m=inf)", "nakagami(m=nan)",
                "rayleigh(kappa=5)", "nakagami(kappa=2)", "rician(m=2)",
                "rician(kappa=3, m=2)"):
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
        snr_db = 0.3333333333
        mix = nakagami(m=3)=0.123456789, rician(kappa=3.14159265)=0.876543211
        [test]
        channel = rician(kappa=7)
        [meta]
        inner_lr = 0.0123456789
        width = 8
        loss_variant = verbatim
        [memory]
        capacity = 0
        rank_pool = union
        [eval]
        methods = wmmse, mml
        """
    )
    echoed = parse_config_text(render_config(cfg))
    assert echoed == cfg
    assert echoed.alpha == [0.5, 1.5]
    # full-precision values that `:g` would shorten to a different float
    assert (echoed.train_snr_db, echoed.meta.inner_lr) == (0.3333333333, 0.0123456789)
    assert echoed.train_mix[1][0].kappa == 3.14159265


def test_validation_errors():
    bad = [
        "[meta]\nloss_variant = fancy\n",
        "[memory]\nrank_pool = newest\n",
        "[memory]\ncapacity = -1\n",
        "[eval]\nmethods = maml, sgd\n",
        "[system]\nk = 0\n",
        "[test]\nslots = 0\n",
        "[system]\nk = 3\nalpha = 1, 1\n",
    ]
    for text in bad:
        with pytest.raises(ConfigError):
            parse_config_text(text)
    # test-time steps are meta.adapt_steps for every method, memory or not
    with pytest.raises(ConfigError, match=r"^line 3: unknown key 'memory\.adapt_steps'$"):
        parse_config_text("[memory]\ncapacity = 8\nadapt_steps = 5\n")


def test_sigma2_is_an_unknown_key():
    # Configs fix the noise power at 1; only the SNR sets the power budget.
    with pytest.raises(ConfigError, match=r"^line 2: unknown key 'system\.sigma2'$"):
        parse_config_text("[system]\nsigma2 = 1\n")


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
        # sigma2 is no key at all now; any value of it fails as unknown
        ("[system]\nsigma2 = -1\n", "system.sigma2"),
        ("[system]\nsigma2 = 0\n", "system.sigma2"),
        ("[system]\nsigma2 = nan\n", "system.sigma2"),
        # the JSON mirror is gone, and its switch with it
        ("[eval]\nemit_json = true\n", "eval.emit_json"),
        ("[system]\nsnr_db = 0, inf\n", "system.snr_db"),
        ("[train]\nsnr_db = nan\n", "train.snr_db"),
        # SNR outside [MIN_SNR_DB, MAX_SNR_DB] = [-400, 100] dB
        ("[system]\nsnr_db = 0, 1001\n", "system.snr_db"),
        ("[system]\nsnr_db = -4000\n", "system.snr_db"),
        ("[system]\nsnr_db = 4000\n", "system.snr_db"),
        ("[train]\nsnr_db = 2000\n", "train.snr_db"),
        ("[system]\nsnr_db = 0, 100.001\n", "system.snr_db"),
        ("[system]\nsnr_db = -400.001\n", "system.snr_db"),
        ("[train]\nsnr_db = 100.001\n", "train.snr_db"),
        ("[train]\nsnr_db = -400.001\n", "train.snr_db"),
        ("[system]\nalpha = nan, 1, 1\n", "system.alpha"),
        ("[system]\nalpha = -1, 1, 1\n", "system.alpha"),
        ("[system]\nk = 3\nalpha = 1, 1\n", "system.alpha"),
        ("[system]\nalpha = 0, 0, 0\n", "system.alpha"),
        ("[train]\nmix = rayleigh=0.7\n", "train.mix"),
        ("[train]\nmix = rayleigh=0.5, rician(kappa=3)=0.6\n", "train.mix"),
        ("[system]\nn = 0\n", "system.n"),
        # empty lists: no SNR to run at, no method to run
        ("[system]\nsnr_db =\n", "system.snr_db"),
        ("[eval]\nmethods =\n", "eval.methods"),
        # a parameter the family does not read (a typo for m, say)
        ("[test]\nchannel = rayleigh(kappa=5)\n", "test.channel"),
        ("[train]\nmix = nakagami(kappa=2)=1\n", "train.mix"),
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("[system]\nsnr_db = 10, 10\n", "line 2: system.snr_db: repeats 10"),
        ("[system]\nn = 3\nsnr_db = 0, 5, 20, 5.0\n", "line 3: system.snr_db: repeats 5"),
        ("[eval]\nmethods = wmmse, mml, wmmse\n", "line 2: eval.methods: repeats wmmse"),
    ],
)
def test_duplicate_snrs_and_methods_rejected(text, message):
    # Each grid index draws its own test channels, so a repeated SNR or
    # method would write two rows with one key and different rates.
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert str(err.value) == message


@pytest.mark.parametrize("seed", ["4294967296", "4294967297", "-1"])
def test_seed_outside_32_bits_rejected_at_parse(seed):
    # seeding.subseed takes 32-bit roots: 4294967297 would otherwise run as
    # seed 1, and -1 as 4294967295, while the echo kept the seed as written.
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"[system]\nk = 2\n[run]\nseed = {seed}\n")
    assert str(err.value) == f"line 4: run.seed: must be in [0, 4294967295], got {seed}"
    assert parse_config_text("[run]\nseed = 4294967295\n").seed == 2**32 - 1


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


def test_bad_value_in_a_term_reports_line_and_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[run]\nseed = 1\n[train]\nmix = rayleigh=half\n")
    assert str(err.value).startswith("line 4:")
    assert "train.mix" in str(err.value)


def test_format_float_is_short_and_exact():
    assert [format_float(v) for v in (1.0, 0.5, 0.001, 20.0, -0.0)] == ["1", "0.5", "0.001", "20", "-0"]
    for v in (0.0123456789, 1 / 3, 3.14159265, 1e-300, 2.0**60 + 1.0):
        assert float(format_float(v)) == v


def test_table_names_every_field_once():
    paths = [path for _, _, path, _, _ in KEYS]
    fields = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "meta"]
    fields += [f"meta.{f.name}" for f in dataclasses.fields(MetaConfig)]
    assert sorted(paths) == sorted(fields)
    assert len({(section, key) for section, key, *_ in KEYS}) == len(KEYS)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_SPECS = st.one_of(
    st.just(ChannelModelSpec("rayleigh")),
    st.builds(ChannelModelSpec, st.just("rician"), kappa=_floats(0.0, 50.0)),
    st.builds(ChannelModelSpec, st.just("nakagami"), m=_floats(1e-3, 50.0)),
)
# every accepted SNR, with the edges of the range drawn often
_SNRS = (st.sampled_from([float(MIN_SNR_DB), float(MAX_SNR_DB)])
         | _floats(MIN_SNR_DB, MAX_SNR_DB))


@st.composite
def _configs(draw):
    def ints(lo, hi):
        return draw(st.integers(lo, hi))

    k = ints(1, 4)
    train_size = ints(2, 1000)
    n_support = ints(1, train_size - 1)
    frac = draw(_floats(0.0, 1.0))
    meta = MetaConfig(
        inner_lr=draw(_floats(0.0, 10.0)), outer_lr=draw(_floats(0.0, 10.0)),
        n_support=n_support, n_query=ints(1, train_size - n_support),
        n_tasks=ints(1, 100), inner_steps=ints(0, 10), adapt_steps=ints(0, 10),
        epochs=ints(0, 1000), width=ints(1, 128), batch_size=ints(1, 100),
        loss_variant=draw(st.sampled_from(["corrected", "verbatim"])),
    )
    return ExperimentConfig(
        seed=ints(0, 2**32 - 1), n=ints(1, 8), k=k,
        snr_db=draw(st.lists(_SNRS, min_size=1, max_size=5, unique=True)),
        alpha=draw(st.none() | st.lists(_floats(0.0, 10.0), min_size=k, max_size=k)
                   .filter(any)),  # at least one positive weight
        train_mix=[(draw(_SPECS), frac), (draw(_SPECS), 1.0 - frac)],
        train_size=train_size, train_snr_db=draw(_SNRS),
        test_channel=draw(_SPECS), test_size=ints(1, 500), test_seeds=ints(1, 10),
        slots=ints(1, 100), slot_size=ints(1, 100), meta=meta,
        capacity=ints(0, 256),
        rank_pool=draw(st.sampled_from(["retained", "union"])),
        methods=draw(st.lists(st.sampled_from(METHODS), min_size=1, unique=True)),
        wmmse_restarts=ints(0, 10),
    )


@settings(max_examples=150, deadline=None)
@given(cfg=_configs())
def test_echo_round_trip_property(cfg):
    assert parse_config_text(render_config(cfg)) == cfg


def test_readme_config_blocks_match_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 2
    text = "".join(blocks)
    assert parse_config_text(text) == ExperimentConfig()
    assigned, section = set(), None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif line:
            assigned.add((section, line.partition("=")[0].strip()))
    assert assigned == {(s, k) for s, k, *_ in KEYS} - {("system", "alpha")}
