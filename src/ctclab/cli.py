"""Command-line entry point: train, eval, decode, gradcheck, oracle, average.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure (divergence or
a failed verification suite).
"""
from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .ctc import (
    CTCHead,
    ctc_loss,
    greedy_decode,
    oracle_trials,
    read_logits_file,
)
from .data import generate_dataset
from .encoder import (
    Attention,
    ConvModule,
    Encoder,
    EncoderConfig,
    FeedForward,
    Norm,
    _conv_module,
    _feed_forward,
    _named_tensors,
    self_attention,
)
from .tensor import (
    Tensor,
    add,
    gradcheck,
    layer_norm,
    log_softmax,
    matmul,
    mul,
    sum_all,
)
from .trainer import (
    TrainingDiverged,
    average_checkpoints,
    evaluate,
    load_checkpoint,
    run_training,
    save_checkpoint,
)

ORACLE_TOLERANCE = 1e-10
PRIMITIVE_TOLERANCE = 1e-6
COMPOSITE_TOLERANCE = 1e-4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


# --- gradcheck battery --------------------------------------------------------

def _primitive_checks(rng):
    x34 = Tensor(rng.uniform(-2, 2, size=(3, 4)), requires_grad=True)
    w34 = Tensor(rng.uniform(-1, 1, size=(3, 4)))

    def weighted(fn, x, w):
        return lambda: sum_all(mul(fn(x), w))

    a = Tensor(rng.uniform(-2, 2, size=(4, 5)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, size=(5, 3)), requires_grad=True)
    nx = Tensor(rng.uniform(-2, 2, size=(3, 6)), requires_grad=True)
    ngain = Tensor(rng.uniform(0.5, 1.5, size=6), requires_grad=True)
    nbias = Tensor(rng.uniform(-1, 1, size=6), requires_grad=True)
    nw = Tensor(rng.uniform(-1, 1, size=(3, 6)))
    bias = Tensor(rng.uniform(-1, 1, size=4), requires_grad=True)
    grid_logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

    def param(*shape):
        return Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)

    def norm():
        return Norm(Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True),
                    param(4))
    block_x = Tensor(rng.uniform(-2, 2, size=(3, 4)), requires_grad=True)

    def block_params(pre_norm, block):
        return {"x": block_x, **dict(_named_tensors(pre_norm, "pre_norm")),
                **dict(_named_tensors(block, "block"))}
    att_norm, att = norm(), Attention(param(4, 4), param(4), param(4, 4), param(4),
                                      param(4, 4), param(4), param(4, 4), param(4))
    ffn_norm, ffn = norm(), FeedForward(param(4, 5), param(5), param(5, 4), param(4))
    conv_norm, conv = norm(), ConvModule(param(4, 8), param(8), param(3, 4), param(4),
                                         norm(), param(4, 4), param(4))

    checks = [
        ("matmul", {"a": a, "b": b}, lambda: sum_all(matmul(a, b))),
        ("log_softmax", {"x": x34}, weighted(log_softmax, x34, w34)),
        ("layer_norm", {"x": nx, "gain": ngain, "bias": nbias},
         lambda: sum_all(mul(layer_norm(nx, ngain, nbias), nw))),
        ("bias_add", {"x": x34, "bias": bias},
         weighted(lambda x: add(x, bias), x34, w34)),
        ("attention", block_params(att_norm, att),
         weighted(lambda x: self_attention(x, att_norm, att, n_heads=2),
                  block_x, w34)),
        ("feed_forward_relu", block_params(ffn_norm, ffn),
         weighted(lambda x: _feed_forward(x, ffn_norm, ffn, "relu"), block_x, w34)),
        ("feed_forward_swish", block_params(ffn_norm, ffn),
         weighted(lambda x: _feed_forward(x, ffn_norm, ffn, "swish"), block_x, w34)),
        ("conv_module", block_params(conv_norm, conv),
         weighted(lambda x: _conv_module(x, conv_norm, conv), block_x, w34)),
        ("ctc_grid", {"logits": grid_logits},
         lambda: ctc_loss(log_softmax(grid_logits), (1, 2))),
    ]
    return checks


def _composite_check(kind, num_layers, d_model, steps, rng):
    cfg = EncoderConfig(num_layers=num_layers, kind=kind, d_model=d_model,
                        n_heads=2, d_ff=d_model + 4, conv_kernel=3,
                        survival_floor=1.0, input_dim=5,
                        seed=int(rng.integers(2**31)))
    enc = Encoder.build(cfg)
    head = CTCHead.build(d_model, 3, rng)
    x = Tensor(rng.normal(size=(steps, 5)))
    labels = (1, 3)
    params = dict(enc.parameters())
    params.update({f"head.{k}": v for k, v in head.parameters().items()})

    def f():
        return ctc_loss(head(enc.forward(x, mode="eval").final), labels)
    return params, f


def gradcheck_battery(scale: str = "small", seed: int = 0):
    """Finite-difference checks for every primitive plus the encoder+CTC
    composites; returns [(name, tolerance, report)]."""
    rng = np.random.default_rng(seed)
    results = []
    for name, params, f in _primitive_checks(rng):
        results.append((name, PRIMITIVE_TOLERANCE, gradcheck(f, params)))
    if scale == "small":
        composites = [("transformer", 1, 4, 3)]
    else:
        composites = [("transformer", 2, 8, 4), ("conformer", 2, 8, 4)]
    for kind, num_layers, d_model, steps in composites:
        params, f = _composite_check(kind, num_layers, d_model, steps, rng)
        results.append((f"{kind}_{num_layers}layer_ctc", COMPOSITE_TOLERANCE,
                        gradcheck(f, params)))
    return results


# --- commands ------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    result = run_training(cfg, args.out)
    for epoch, train_loss, dev_ter in result.metrics:
        print(f"epoch {epoch}: train_loss={train_loss:.6f} dev_ter={dev_ter:.6f}")
    print(f"wrote {len(result.checkpoint_paths)} checkpoints to {args.out}")
    if result.averaged_path is not None:
        print(f"averaged checkpoint: {result.averaged_path}")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    cfg = RunConfig.parse(ckpt.config_echo)
    dataset = generate_dataset(cfg.task, args.split)
    result = evaluate(ckpt, dataset)
    print(f"{args.split}_ter={result.rate:.6f}")
    return 0


def cmd_decode(args) -> int:
    grid = read_logits_file(args.logits)
    print(" ".join(str(t) for t in greedy_decode(grid)))
    return 0


def cmd_gradcheck(args) -> int:
    started = time.perf_counter()
    results = gradcheck_battery(args.scale, args.seed)
    failed = []
    for name, tolerance, report in results:
        status = "PASS" if report.ok(tolerance) else "FAIL"
        print(f"{status} {name}: max_rel_error={report.max_rel_error:.3e} "
              f"(tolerance {tolerance:g})")
        if args.verbose:
            for line in report.lines():
                print(f"    {line}")
        if not report.ok(tolerance):
            failed.append(name)
    print(f"gradcheck {args.scale}: {len(results) - len(failed)}/{len(results)} "
          f"passed in {time.perf_counter() - started:.1f}s")
    return 0 if not failed else 2


def cmd_oracle(args) -> int:
    worst = oracle_trials(trials=args.trials, seed=args.seed)
    status = "PASS" if worst < ORACLE_TOLERANCE else "FAIL"
    print(f"{status} ctc oracle: {args.trials} trials, "
          f"worst |fast - bruteforce| = {worst:.3e} (tolerance {ORACLE_TOLERANCE:g})")
    return 0 if worst < ORACLE_TOLERANCE else 2


def cmd_average(args) -> int:
    averaged = average_checkpoints(args.inputs)
    save_checkpoint(args.out, averaged)
    print(f"averaged {len(args.inputs)} checkpoints -> {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ctclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="greedy-decode a split with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("dev", "test"), default="dev")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("decode", help="greedy-decode a logits file")
    p.add_argument("--logits", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--scale", choices=("small", "full"), default="small")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("oracle", help="CTC loss vs brute-force enumeration")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("average", help="average checkpoint parameters")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_average)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ConfigError, FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
