"""Experiment configuration: plain-text parsing and the effective-config echo.

Files are line-based `key = value` pairs grouped under `[section]` headers.
`#` starts a comment. Every key is one row of KEYS below, which says how to
parse it, what values it accepts and where the echo writes it; unknown keys,
unusable values and a key set twice are rejected with the offending line
number so typos cannot silently fall back to defaults.
"""

import math
import re
from dataclasses import dataclass, field

from . import channels, objective, seeding
from .channels import ChannelModelSpec
from .errors import ConfigError
from .meta import MetaConfig

METHODS = ("wmmse", "unsupervised", "maml", "maml_no_pretrain", "mml")
MIN_SNR_DB, MAX_SNR_DB = -400, 100  # in dB; clean for K >= N only (K < N: ROADMAP item 17)
_TOP_LEVEL_COMMA = re.compile(r",(?![^()]*\))")  # a comma outside parentheses


def parse_channel_term(text):
    """One channel family, e.g. "rayleigh", "rician(kappa=3)", "nakagami(m=10)"."""
    text = text.strip()
    name, sep, rest = text.partition("(")
    name = name.strip()
    kwargs = {}
    if sep:
        if not rest.endswith(")"):
            raise ConfigError(f"unbalanced parentheses in channel term {text!r}")
        for item in rest[:-1].split(","):
            if not item.strip():
                continue
            k, eq, v = item.partition("=")
            if not eq:
                raise ConfigError(f"expected key=value in channel term {text!r}")
            try:
                kwargs[k.strip()] = float(v)
            except ValueError as exc:
                raise ConfigError(f"bad numeric value in channel term {text!r}") from exc
    try:
        spec = ChannelModelSpec(family=name, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad channel term {text!r}: {exc}") from exc
    param = channels.FAMILY_PARAM[name]
    unused = sorted(kwargs.keys() - {param})
    if unused:
        raise ConfigError(f"{name} reads {param or 'no parameter'}, not {unused[0]!r}")
    return spec


def parse_mix(text):
    """Weighted mixture, e.g. "rayleigh=0.5, rician(kappa=3)=0.5"."""
    mix = []
    for item in filter(None, (p.strip() for p in _TOP_LEVEL_COMMA.split(text))):
        term, eq, frac = item.rpartition("=")
        if not eq:
            raise ConfigError(f"expected family=fraction in mix item {item!r}")
        try:
            f = float(frac)
        except ValueError as exc:
            raise ConfigError(f"bad fraction in mix item {item!r}") from exc
        mix.append((parse_channel_term(term), f))
    if not mix:
        raise ConfigError("mix must name at least one family")
    return mix


def format_float(v):
    """Shortest of `:g` and repr that parses back to exactly v."""
    short = f"{v:g}"
    return short if float(short) == v else repr(v)


def render_channel_term(spec):
    param = channels.FAMILY_PARAM[spec.family]
    if param is None:
        return spec.family
    return f"{spec.family}({param}={format_float(getattr(spec, param))})"


def render_mix(mix):
    return ", ".join(f"{render_channel_term(s)}={format_float(f)}" for s, f in mix)


def _parse_float_list(text):
    return [float(x) for x in text.replace(",", " ").split()]


def _parse_str_list(text):
    return [x.strip() for x in text.split(",") if x.strip()]


@dataclass
class ExperimentConfig:
    """Everything the harness needs, with the defaults of the reference setup."""

    # [run]
    seed: int = 0
    # [system]
    n: int = 3
    k: int = 3
    snr_db: list = field(default_factory=lambda: [0.0, 5.0, 10.0, 15.0, 20.0])
    alpha: list = None  # None means unit weights
    # [train]
    train_mix: list = field(
        default_factory=lambda: [
            (ChannelModelSpec("rayleigh"), 0.5),
            (ChannelModelSpec("rician", kappa=3.0), 0.5),
        ]
    )
    train_size: int = 500
    train_snr_db: float = 10.0
    # [test]
    test_channel: ChannelModelSpec = field(
        default_factory=lambda: ChannelModelSpec("rayleigh")
    )
    test_size: int = 200
    test_seeds: int = 5
    slots: int = 50
    slot_size: int = 40
    # [meta]
    meta: MetaConfig = field(default_factory=MetaConfig)
    # [memory]
    capacity: int = 64
    rank_pool: str = "retained"
    # [eval]
    methods: list = field(default_factory=lambda: list(METHODS))
    wmmse_restarts: int = 3


def system_for(cfg, snr_db):
    """SystemConfig at one grid point. Configs fix the noise power at 1, so
    P = 10^(snr/10); an SNR outside [MIN_SNR_DB, MAX_SNR_DB] is rejected."""
    if not MIN_SNR_DB <= snr_db <= MAX_SNR_DB:
        raise ValueError(f"SNR must be in [{MIN_SNR_DB}, {MAX_SNR_DB}] dB, "
                         f"got {format_float(snr_db)}")
    return objective.SystemConfig(n=cfg.n, k=cfg.k, p=10.0 ** (snr_db / 10.0), alpha=cfg.alpha)


def _reason(check, *args):
    """True when check(*args) accepts its arguments, else why it does not."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return True


def _at_least(lo):
    return lambda v: v >= lo or f"must be at least {lo}, got {v}"


def _rate(v):
    return (math.isfinite(v) and v >= 0.0) or f"must be finite and nonnegative, got {v}"


def _one_of(*choices):
    return lambda v: v in choices or f"must be {'|'.join(choices)}, got {v!r}"


def _distinct(values):  # a repeated SNR or method writes two rows under one key
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    return (f"repeats {_render(repeated[0])}" if repeated
            else bool(values) or "must name at least one value")


def _known_methods(names):
    unknown = [m for m in names if m not in METHODS]
    return (f"unknown method {unknown[0]!r}; known: {', '.join(METHODS)}" if unknown
            else _distinct(names))


# One row per key, in echo order: (section, key, attribute path, parser,
# check). A check returns True or the reason the value is rejected. The
# [system] keys and train.snr_db have no range check of their own: _validate
# calls system_for at every SNR they define, which checks all of them.
KEYS = (
    ("run", "seed", "seed", int, lambda seed: _reason(seeding.subseed, seed)),
    ("system", "n", "n", int, None),
    ("system", "k", "k", int, None),
    ("system", "snr_db", "snr_db", _parse_float_list, _distinct),
    ("system", "alpha", "alpha", _parse_float_list, None),
    ("train", "mix", "train_mix", parse_mix,
     lambda mix: _reason(channels.check_mixture, mix)),
    ("train", "size", "train_size", int, _at_least(1)),
    ("train", "snr_db", "train_snr_db", float, None),
    ("test", "channel", "test_channel", parse_channel_term, None),
    ("test", "size", "test_size", int, _at_least(1)),
    ("test", "seeds", "test_seeds", int, _at_least(1)),
    ("test", "slots", "slots", int, _at_least(1)),
    ("test", "slot_size", "slot_size", int, _at_least(1)),
    ("meta", "inner_lr", "meta.inner_lr", float, _rate),
    ("meta", "outer_lr", "meta.outer_lr", float, _rate),
    ("meta", "n_support", "meta.n_support", int, _at_least(1)),
    ("meta", "n_query", "meta.n_query", int, _at_least(1)),
    ("meta", "n_tasks", "meta.n_tasks", int, _at_least(1)),
    ("meta", "inner_steps", "meta.inner_steps", int, _at_least(0)),
    ("meta", "adapt_steps", "meta.adapt_steps", int, _at_least(0)),
    ("meta", "epochs", "meta.epochs", int, _at_least(0)),
    ("meta", "width", "meta.width", int, _at_least(1)),
    ("meta", "batch_size", "meta.batch_size", int, _at_least(1)),
    ("meta", "loss_variant", "meta.loss_variant", str, _one_of("corrected", "verbatim")),
    ("memory", "capacity", "capacity", int, _at_least(0)),
    ("memory", "rank_pool", "rank_pool", str, _one_of("retained", "union")),
    ("eval", "methods", "methods", _parse_str_list, _known_methods),
    ("eval", "wmmse_restarts", "wmmse_restarts", int, _at_least(0)),
)
_ROWS = {(section, key): (path, parse) for section, key, path, parse, _ in KEYS}


def _owner(cfg, path):
    """The object holding the attribute at path, and the attribute's name."""
    head, _, attr = path.rpartition(".")
    return (getattr(cfg, head) if head else cfg), attr


def _get(cfg, path):
    return getattr(*_owner(cfg, path))


def parse_config_text(text):
    """Parse config text into an ExperimentConfig; rejects unknown keys."""
    cfg = ExperimentConfig()
    section = None
    lines = {}  # "section.key" -> line number of its one assignment
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key = key.strip().lower()
        if section is None:
            raise ConfigError(f"line {lineno}: key {key!r} appears before any [section]")
        row = _ROWS.get((section, key))
        if row is None:
            raise ConfigError(f"line {lineno}: unknown key '{section}.{key}'")
        name, (path, parse) = f"{section}.{key}", row
        if name in lines:
            raise ConfigError(f"line {lineno}: '{name}' is already set on line {lines[name]}")
        try:
            setattr(*_owner(cfg, path), parse(value.strip()))
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"line {lineno}: bad value for '{name}': {exc}") from exc
        lines[name] = lineno
    _validate(cfg, lines)
    return cfg


def parse_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _validate(cfg, lines):
    """Reject values no run can use; name the key, and its line when known."""

    def fail(message, *keys):
        known = [lines[k] for k in keys if k in lines]
        raise ConfigError(f"line {max(known)}: {message}" if known else message)

    for section, key, path, _, check in KEYS:
        verdict = True if check is None else check(_get(cfg, path))
        if verdict is not True:
            fail(f"{section}.{key}: {verdict}", f"{section}.{key}")
    system = ("system.n", "system.k", "system.alpha")
    for grid, snrs in (("system.snr_db", cfg.snr_db), ("train.snr_db", [cfg.train_snr_db])):
        for snr in snrs:
            verdict = _reason(system_for, cfg, snr)
            if verdict is not True:
                keys = system + (grid,)
                named = [k for k in keys if k in lines] or list(keys)
                fail(f"{', '.join(named)}: {verdict}", *keys)
    m = cfg.meta
    if m.n_support + m.n_query > cfg.train_size:
        fail(f"meta.n_support + meta.n_query = {m.n_support + m.n_query} exceeds "
             f"train.size = {cfg.train_size}",
             "meta.n_support", "meta.n_query", "train.size")


def _render(v):
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, ChannelModelSpec):
        return render_channel_term(v)
    if isinstance(v, list) and v and isinstance(v[0], tuple):
        return render_mix(v)
    if isinstance(v, list):
        return ", ".join(_render(x) for x in v)
    return str(v)


def render_config(cfg):
    """Full effective configuration in parseable form (the echo file)."""
    lines, section = [], None
    for sec, key, path, _, _ in KEYS:
        if sec != section:
            lines += ["", f"[{sec}]"] if lines else [f"[{sec}]"]
            section = sec
        value = _get(cfg, path)
        if value is not None:
            lines.append(f"{key} = {_render(value)}")
    return "\n".join(lines) + "\n"
