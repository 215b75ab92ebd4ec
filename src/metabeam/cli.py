"""Command-line interface.

Subcommands: train, eval, figure, oracle, gradcheck (which checks
the configured loss through training's own tape pass); the global flags go
before or after the subcommand. Exit codes: 0 success, 1 usage or
configuration error (a bad path among them), 2 numerical failure.
"""

import argparse
import filecmp
import functools
import os
import sys

import numpy as np

from . import autodiff as ad
from . import channels, meta, nn, pipeline, runner, wmmse
from .config import METHODS, ExperimentConfig, parse_config, system_for
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateInputError,
    MetabeamError,
    NumericalError,
    SingularMatrixError,
)
from .seeding import rng_for, subseed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


def _load_config(args):
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _cmd_train(args):
    cfg = _load_config(args)
    out_dir = args.out or "out"
    path = runner.run_training(cfg, args.method, out_dir, verbose=args.verbose)
    print(f"checkpoint: {path}")
    return EXIT_OK


def _cmd_eval(args):
    cfg = _load_config(args)
    out_dir = args.out or "out"
    if args.checkpoint and args.method not in runner.CHECKPOINT_OF:
        raise ValueError(f"--method {args.method} reads no checkpoint")
    os.makedirs(out_dir, exist_ok=True)
    if args.checkpoint:
        # place the provided checkpoint where run_eval expects it, unless a
        # different one (whose training log sits beside it) is already there
        target = runner.checkpoint_path(out_dir, runner.CHECKPOINT_OF[args.method])
        if not os.path.exists(target):
            nn.save_checkpoint(target, runner.load_params(args.checkpoint, cfg))
        elif not filecmp.cmp(args.checkpoint, target, shallow=False):
            raise ValueError(f"--checkpoint {args.checkpoint} differs from {target}, "
                             "which eval would replace; choose another --out")
    rows = runner.run_eval(cfg, args.method, out_dir, verbose=args.verbose)
    csv_path = os.path.join(out_dir, f"eval_{args.method}.csv")
    runner.emit_results(rows, csv_path)
    runner.echo_config(cfg, out_dir)
    print(f"results: {csv_path}")
    return EXIT_OK


def _cmd_figure(args):
    cfg = _load_config(args)
    out_dir = args.out or "out"
    path = runner.run_figure(cfg, args.figure, out_dir, verbose=args.verbose)
    print(f"figure data: {path}")
    return EXIT_OK


def _cmd_oracle(args):
    cfg = _load_config(args)
    sys_cfg = system_for(cfg, args.snr_db)
    rng = rng_for(cfg.seed, "oracle")
    ratios = []
    for i in range(args.instances):
        h = channels.sample_channels(rng, cfg.test_channel, 1, cfg.n, cfg.k)[0]
        oracle = wmmse.grid_oracle(h, sys_cfg, grid_steps=args.grid_steps)
        if not oracle > 0.0:  # every rate underflowed: no ratio to form
            raise NumericalError(f"instance {i}: oracle rate {oracle} at {args.snr_db:g} dB")
        solved = wmmse.wmmse_solve(h, sys_cfg, seed=i, restarts=cfg.wmmse_restarts)
        ratio = solved.wsr_trace.max() / oracle  # the returned, best iterate
        ratios.append(ratio)
        if args.verbose:
            print(f"instance {i}: oracle {oracle:.4f}  wmmse "
                  f"{solved.wsr_trace.max():.4f}  ratio {ratio:.4f}")
    print(f"wmmse/oracle over {args.instances} instances: "
          f"min {min(ratios):.4f}  mean {float(np.mean(ratios)):.4f}")
    return EXIT_OK if min(ratios) >= 0.99 else EXIT_NUMERIC


def _cmd_gradcheck(args):
    cfg = _load_config(args)
    sys_cfg = system_for(cfg, args.snr_db)
    rng = rng_for(cfg.seed, "gradcheck")

    def make_f(h_batch, sizes):
        features = pipeline.features(h_batch, sys_cfg)

        def f(vec):  # the configured loss, by training's own tape pass
            loss, grads = meta._loss_and_grad(nn.leaf_views(vec, sizes), h_batch, features,
                                              sys_cfg, cfg.meta, "mean")
            return float(loss), np.concatenate([g.ravel() for g in grads])

        return f

    worst, skipped, ok = 0.0, 0, True
    for i in range(args.draws):
        h = channels.sample_rayleigh(rng, 3, cfg.n, cfg.k)
        params = nn.init_predictor(rng, cfg.n, cfg.k, width=8)
        err, draw_ok, sk = ad.finite_diff_check(
            make_f(h, params.sizes), nn.pack(params), coords=40, directions=5,
            rng=np.random.default_rng(i),
        )
        worst, ok = max(worst, err), ok and draw_ok
        skipped += sk
        if args.verbose:
            print(f"draw {i}: max rel err {err:.3e} (skipped {sk} kink probes)")
    print(f"gradcheck over {args.draws} draws: worst rel err {worst:.3e} "
          f"({skipped} kink probes skipped) -> {'ok' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_NUMERIC


def _count(text, minimum=1):
    """argparse type of a count flag: an integer of at least minimum."""
    if not text.strip().isdecimal() or int(text) < minimum:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least {minimum}, got {text!r}")
    return int(text)


def _seed(text):
    """argparse type of --seed: a root seed that seeding.subseed takes."""
    try:
        subseed(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return int(text)


def _global_flags(**default):
    """The flags every subcommand takes, before or after its name."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", help="experiment config file (key = value)",
                       **default)
    flags.add_argument("--seed", type=_seed, help="override the run seed", **default)
    flags.add_argument("--out", help="output directory", **default)
    flags.add_argument("--verbose", action="store_true", **default)
    return flags


def build_parser():
    parser = argparse.ArgumentParser(
        prog="metabeam",
        description="Multi-user MISO beamforming: WMMSE decomposition, "
        "meta-learned component prediction, loss-ranked replay.",
        parents=[_global_flags()],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # After the subcommand the same flags default to SUPPRESS, so one left
    # out keeps the value (or default) parsed before the subcommand.
    common = _global_flags(default=argparse.SUPPRESS)
    add = functools.partial(sub.add_parser, parents=[common])

    p_train = add("train", help="train one learned method")
    p_train.add_argument("--method", choices=runner.TRAINED, default="maml")

    p_eval = add("eval", help="evaluate one method over the SNR grid")
    p_eval.add_argument("--method", choices=METHODS, required=True)
    p_eval.add_argument("--checkpoint", help="checkpoint of " + ", ".join(runner.CHECKPOINT_OF))

    p_fig = add("figure", help="produce one comparison figure's data")
    p_fig.add_argument("--figure", choices=tuple(runner.FIGURE_CHANNELS), required=True)

    p_oracle = add("oracle", help="compare the solver to the grid oracle")
    p_oracle.add_argument("--instances", type=_count, default=20)
    p_oracle.add_argument("--grid-steps", type=functools.partial(_count, minimum=5),
                          default=41)  # wmmse.grid_oracle's least grid
    p_oracle.add_argument("--snr-db", type=float, default=10.0)

    p_gc = add("gradcheck", help="finite-difference check of the pipeline")
    p_gc.add_argument("--draws", type=_count, default=20)
    p_gc.add_argument("--snr-db", type=float, default=10.0)
    return parser


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "figure": _cmd_figure,
    "oracle": _cmd_oracle,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (SingularMatrixError, DegenerateInputError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MetabeamError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
