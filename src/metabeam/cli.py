"""Command-line interface.

Subcommands: gen-data, train, eval, figure, oracle, gradcheck; the global
flags go before or after the subcommand. Exit codes: 0 success, 1 usage or
configuration error, 2 numerical failure.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import autodiff as ad
from . import channels, nn, objective, pipeline, runner, wmmse
from .config import ExperimentConfig, parse_config
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateInputError,
    MetabeamError,
    SingularMatrixError,
)
from .seeding import rng_for

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


def _load_config(args):
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _cmd_gen_data(args):
    cfg = _load_config(args)
    data = runner.train_dataset(cfg)
    out = args.out or "dataset.bin"
    if os.path.isdir(out):
        out = os.path.join(out, "dataset.bin")
    channels.write_dataset(out, data)
    print(f"wrote {data.shape[0]} realizations (N={cfg.n}, K={cfg.k}) to {out}")
    return EXIT_OK


def _cmd_train(args):
    cfg = _load_config(args)
    out_dir = args.out or "out"
    path = runner.run_training(cfg, args.method, out_dir, verbose=args.verbose)
    print(f"checkpoint: {path}")
    return EXIT_OK


def _cmd_eval(args):
    cfg = _load_config(args)
    out_dir = args.out or "out"
    os.makedirs(out_dir, exist_ok=True)
    if args.checkpoint:
        # place the provided checkpoint where run_eval expects it
        wanted = "unsupervised" if args.method == "unsupervised" else "maml"
        target = runner.checkpoint_path(out_dir, wanted)
        if os.path.abspath(args.checkpoint) != os.path.abspath(target):
            nn.save_checkpoint(target, nn.load_checkpoint(args.checkpoint))
    rows = runner.run_eval(cfg, args.method, out_dir, verbose=args.verbose)
    csv_path = os.path.join(out_dir, f"eval_{args.method}.csv")
    json_path = (
        os.path.join(out_dir, f"eval_{args.method}.json") if cfg.emit_json else None
    )
    runner.emit_results(rows, csv_path, json_path)
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
    sys_cfg = runner.system_for(cfg, args.snr_db)
    if sys_cfg.k > 3:
        print("oracle supports K <= 3", file=sys.stderr)
        return EXIT_USAGE
    rng = rng_for(cfg.seed, "oracle")
    ratios = []
    for i in range(args.instances):
        h = channels.sample_channels(rng, cfg.test_channel, 1, cfg.n, cfg.k)[0]
        oracle = wmmse.grid_oracle(h, sys_cfg, grid_steps=args.grid_steps)
        solved = wmmse.wmmse_solve(h, sys_cfg, seed=i, restarts=cfg.wmmse_restarts)
        ratio = solved.wsr_trace[-1] / oracle.wsr
        ratios.append(ratio)
        if args.verbose:
            print(f"instance {i}: oracle {oracle.wsr:.4f}  wmmse "
                  f"{solved.wsr_trace[-1]:.4f}  ratio {ratio:.4f}")
    print(f"wmmse/oracle over {args.instances} instances: "
          f"min {min(ratios):.4f}  mean {float(np.mean(ratios)):.4f}")
    return EXIT_OK if min(ratios) >= 0.99 else EXIT_NUMERIC


def _cmd_gradcheck(args):
    cfg = _load_config(args)
    sys_cfg = runner.system_for(cfg, args.snr_db)
    rng = rng_for(cfg.seed, "gradcheck")

    def make_f(h_batch, params):
        def f(vec):
            p = nn.unpack(vec, params)
            tape = ad.Tape()
            leaves, flat = nn.leaves_for(tape, p)
            loss, _ = pipeline.reconstruct_and_loss(tape, leaves, h_batch, sys_cfg)
            gs = ad.grad(tape, loss, flat)
            return float(loss.value), np.concatenate([g.ravel() for g in gs])

        return f

    worst, skipped = 0.0, 0
    for i in range(args.draws):
        h = channels.sample_rayleigh(rng, 3, cfg.n, cfg.k)
        params = nn.init_predictor(rng, cfg.n, cfg.k, width=8)
        err, ok, sk = ad.finite_diff_check(
            make_f(h, params), nn.pack(params), coords=40, directions=5,
            rng=np.random.default_rng(i),
        )
        worst = max(worst, err)
        skipped += sk
        if args.verbose:
            print(f"draw {i}: max rel err {err:.3e} (skipped {sk} kink probes)")
    ok = worst < 1e-4
    print(f"gradcheck over {args.draws} draws: worst rel err {worst:.3e} "
          f"({skipped} kink probes skipped) -> {'ok' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_NUMERIC


def _global_flags(**default):
    """The flags every subcommand takes, before or after its name."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", help="experiment config file (key = value)",
                       **default)
    flags.add_argument("--seed", type=int, help="override the run seed", **default)
    flags.add_argument("--out", help="output file or directory", **default)
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

    add("gen-data", help="generate and write the training dataset")

    p_train = add("train", help="train one learned method")
    p_train.add_argument("--method", choices=("maml", "unsupervised"), default="maml")

    p_eval = add("eval", help="evaluate one method over the SNR grid")
    p_eval.add_argument("--method", choices=runner_methods(), required=True)
    p_eval.add_argument("--checkpoint", help="checkpoint file for learned methods")

    p_fig = add("figure", help="produce one comparison figure's data")
    p_fig.add_argument("--figure", choices=("fig5", "fig6", "fig7", "fig8"),
                       required=True)

    p_oracle = add("oracle", help="compare the solver to the grid oracle")
    p_oracle.add_argument("--instances", type=int, default=20)
    p_oracle.add_argument("--grid-steps", type=int, default=41)
    p_oracle.add_argument("--snr-db", type=float, default=10.0)

    p_gc = add("gradcheck", help="finite-difference check of the pipeline")
    p_gc.add_argument("--draws", type=int, default=20)
    p_gc.add_argument("--snr-db", type=float, default=10.0)
    return parser


def runner_methods():
    from .config import METHODS

    return METHODS


_COMMANDS = {
    "gen-data": _cmd_gen_data,
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
    except (ConfigError, DataFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MetabeamError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
