"""Experiment configuration: plain-text parsing and the effective-config echo.

Files are line-based `key = value` pairs grouped under `[section]` headers.
`#` starts a comment. Every key must be registered below; unknown keys are
rejected with the offending line number so typos cannot silently fall back to
defaults.
"""

import math
from dataclasses import dataclass, field

from .channels import ChannelModelSpec
from .errors import ConfigError
from .meta import MetaConfig

METHODS = ("wmmse", "unsupervised", "maml", "maml_no_pretrain", "mml")


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
        return ChannelModelSpec(family=name, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad channel term {text!r}: {exc}") from exc


def _split_top_level(text):
    """Split on commas that are not inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def parse_mix(text):
    """Weighted mixture, e.g. "rayleigh=0.5, rician(kappa=3)=0.5"."""
    mix = []
    for item in _split_top_level(text):
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


def render_channel_term(spec):
    if spec.family == "rician":
        return f"rician(kappa={spec.kappa:g})"
    if spec.family == "nakagami":
        return f"nakagami(m={spec.m:g})"
    return spec.family


def render_mix(mix):
    return ", ".join(f"{render_channel_term(s)}={f:g}" for s, f in mix)


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
    sigma2: float = 1.0
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
    mem_adapt_steps: int = 5
    rank_pool: str = "retained"
    # [eval]
    methods: list = field(default_factory=lambda: list(METHODS))
    wmmse_restarts: int = 3
    emit_json: bool = False


def _set_meta(attr, conv):
    def setter(cfg, text):
        setattr(cfg.meta, attr, conv(text))

    return setter


def _set(attr, conv):
    def setter(cfg, text):
        setattr(cfg, attr, conv(text))

    return setter


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# (section, key) -> setter(cfg, raw_text)
_REGISTRY = {
    ("run", "seed"): _set("seed", int),
    ("system", "n"): _set("n", int),
    ("system", "k"): _set("k", int),
    ("system", "sigma2"): _set("sigma2", float),
    ("system", "snr_db"): _set("snr_db", _parse_float_list),
    ("system", "alpha"): _set("alpha", _parse_float_list),
    ("train", "mix"): _set("train_mix", parse_mix),
    ("train", "size"): _set("train_size", int),
    ("train", "snr_db"): _set("train_snr_db", float),
    ("test", "channel"): _set("test_channel", parse_channel_term),
    ("test", "size"): _set("test_size", int),
    ("test", "seeds"): _set("test_seeds", int),
    ("test", "slots"): _set("slots", int),
    ("test", "slot_size"): _set("slot_size", int),
    ("meta", "inner_lr"): _set_meta("inner_lr", float),
    ("meta", "outer_lr"): _set_meta("outer_lr", float),
    ("meta", "n_support"): _set_meta("n_support", int),
    ("meta", "n_query"): _set_meta("n_query", int),
    ("meta", "n_tasks"): _set_meta("n_tasks", int),
    ("meta", "inner_steps"): _set_meta("inner_steps", int),
    ("meta", "adapt_steps"): _set_meta("adapt_steps", int),
    ("meta", "epochs"): _set_meta("epochs", int),
    ("meta", "width"): _set_meta("width", int),
    ("meta", "batch_size"): _set_meta("batch_size", int),
    ("meta", "loss_variant"): _set_meta("loss_variant", str.strip),
    ("memory", "capacity"): _set("capacity", int),
    ("memory", "adapt_steps"): _set("mem_adapt_steps", int),
    ("memory", "rank_pool"): _set("rank_pool", str.strip),
    ("eval", "methods"): _set("methods", _parse_str_list),
    ("eval", "wmmse_restarts"): _set("wmmse_restarts", int),
    ("eval", "emit_json"): _set("emit_json", _parse_bool),
}


def parse_config_text(text):
    """Parse config text into an ExperimentConfig; rejects unknown keys."""
    cfg = ExperimentConfig()
    section = None
    lines = {}  # "section.key" -> line number of its last assignment
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
        setter = _REGISTRY.get((section, key))
        if setter is None:
            raise ConfigError(f"line {lineno}: unknown key '{section}.{key}'")
        try:
            setter(cfg, value.strip())
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"line {lineno}: bad value for '{section}.{key}': {exc}"
            ) from exc
        lines[f"{section}.{key}"] = lineno
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

    m = cfg.meta
    if m.loss_variant not in ("corrected", "verbatim"):
        fail(f"meta.loss_variant must be corrected|verbatim, got {m.loss_variant!r}",
             "meta.loss_variant")
    if cfg.rank_pool not in ("retained", "union"):
        fail(f"memory.rank_pool must be retained|union, got {cfg.rank_pool!r}",
             "memory.rank_pool")
    for method in cfg.methods:
        if method not in METHODS:
            fail(f"unknown eval method {method!r}; known: {', '.join(METHODS)}",
                 "eval.methods")
    if cfg.alpha is not None and len(cfg.alpha) != cfg.k:
        fail(f"system.alpha needs {cfg.k} entries, got {len(cfg.alpha)}",
             "system.alpha", "system.k")
    if cfg.capacity < 0:
        fail("memory.capacity must be nonnegative", "memory.capacity")
    if cfg.mem_adapt_steps < 1:
        fail("memory.adapt_steps must be at least 1", "memory.adapt_steps")
    for key, value in (("system.n", cfg.n), ("system.k", cfg.k),
                       ("train.size", cfg.train_size), ("test.size", cfg.test_size),
                       ("test.seeds", cfg.test_seeds), ("test.slots", cfg.slots),
                       ("test.slot_size", cfg.slot_size), ("meta.n_tasks", m.n_tasks),
                       ("meta.n_support", m.n_support), ("meta.n_query", m.n_query),
                       ("meta.width", m.width), ("meta.batch_size", m.batch_size)):
        if value < 1:
            fail(f"{key} must be at least 1, got {value}", key)
    for key, value in (("meta.epochs", m.epochs), ("meta.inner_steps", m.inner_steps),
                       ("meta.adapt_steps", m.adapt_steps),
                       ("eval.wmmse_restarts", cfg.wmmse_restarts)):
        if value < 0:
            fail(f"{key} must be nonnegative, got {value}", key)
    for key, value in (("meta.inner_lr", m.inner_lr), ("meta.outer_lr", m.outer_lr)):
        if not (math.isfinite(value) and value >= 0.0):
            fail(f"{key} must be finite and nonnegative, got {value}", key)
    if not (math.isfinite(cfg.sigma2) and cfg.sigma2 > 0.0):
        fail(f"system.sigma2 must be finite and positive, got {cfg.sigma2}",
             "system.sigma2")
    for key, values in (("system.snr_db", cfg.snr_db), ("train.snr_db", [cfg.train_snr_db])):
        if not all(math.isfinite(v) for v in values):
            fail(f"{key} must be finite, got {values}", key)
    if m.n_support + m.n_query > cfg.train_size:
        fail(f"meta.n_support + meta.n_query = {m.n_support + m.n_query} exceeds "
             f"train.size = {cfg.train_size}",
             "meta.n_support", "meta.n_query", "train.size")


def render_config(cfg):
    """Full effective configuration in parseable form (the echo file)."""

    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return f"{v:g}"
        if isinstance(v, list):
            return ", ".join(fmt(x) for x in v)
        return str(v)

    m = cfg.meta
    lines = [
        "[run]",
        f"seed = {cfg.seed}",
        "",
        "[system]",
        f"n = {cfg.n}",
        f"k = {cfg.k}",
        f"sigma2 = {fmt(cfg.sigma2)}",
        f"snr_db = {fmt(cfg.snr_db)}",
    ]
    if cfg.alpha is not None:
        lines.append(f"alpha = {fmt(cfg.alpha)}")
    lines += [
        "",
        "[train]",
        f"mix = {render_mix(cfg.train_mix)}",
        f"size = {cfg.train_size}",
        f"snr_db = {fmt(cfg.train_snr_db)}",
        "",
        "[test]",
        f"channel = {render_channel_term(cfg.test_channel)}",
        f"size = {cfg.test_size}",
        f"seeds = {cfg.test_seeds}",
        f"slots = {cfg.slots}",
        f"slot_size = {cfg.slot_size}",
        "",
        "[meta]",
        f"inner_lr = {fmt(m.inner_lr)}",
        f"outer_lr = {fmt(m.outer_lr)}",
        f"n_support = {m.n_support}",
        f"n_query = {m.n_query}",
        f"n_tasks = {m.n_tasks}",
        f"inner_steps = {m.inner_steps}",
        f"adapt_steps = {m.adapt_steps}",
        f"epochs = {m.epochs}",
        f"width = {m.width}",
        f"batch_size = {m.batch_size}",
        f"loss_variant = {m.loss_variant}",
        "",
        "[memory]",
        f"capacity = {cfg.capacity}",
        f"adapt_steps = {cfg.mem_adapt_steps}",
        f"rank_pool = {cfg.rank_pool}",
        "",
        "[eval]",
        f"methods = {fmt(cfg.methods)}",
        f"wmmse_restarts = {cfg.wmmse_restarts}",
        f"emit_json = {fmt(cfg.emit_json)}",
        "",
    ]
    return "\n".join(lines)
