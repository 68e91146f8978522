"""Command-line entry point: train, eval, decode, gradcheck, oracle, average.

Exit codes: 0 success, 1 usage/config error or bad input (such as a
checkpoint whose weights overflow the forward), 2 runtime failure
(divergence or a failed verification suite).
"""
from __future__ import annotations

import os

# One thread for every BLAS and OpenMP pool unless the user chose otherwise,
# set before numpy loads: the products are small (T x d_model rows), and a
# second thread mostly waits on, or is slowed by, whatever else the host runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import logging  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from .config import ConfigError, RunConfig  # noqa: E402
from .ctc import (  # noqa: E402
    CTCHead,
    ctc_loss,
    greedy_decode,
    oracle_trials,
    read_logits_file,
)
from .data import generate_dataset  # noqa: E402
from .encoder import (  # noqa: E402
    Encoder,
    EncoderConfig,
    Padding,
    _conv_module,
    _feed_forward,
    _named_tensors,
    self_attention,
)
from .objective import plan_step, stack_losses  # noqa: E402
from .tensor import Tensor, add, gradcheck, put_rows, take, weighted_sum  # noqa: E402
from .trainer import (  # noqa: E402
    Model,
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
    """Each primitive and fused entry against central differences, the
    residual blocks on a padded (2, 3, 4) stack whose second row is 2 frames
    long, and `kept_rows` on that row alone, put back in place.  The blocks'
    parameters are those of a one-layer Conformer, each redrawn: gains in
    [0.5, 1.5), everything else in [-1, 1)."""
    def param(*shape):
        return Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)

    def weighted(fn, x):
        w = rng.uniform(-1, 1, size=fn(x).shape)
        return lambda: weighted_sum(fn(x), w)

    def block_params(*containers):
        named = {"x": block_x}
        for index, container in enumerate(containers):
            named.update(_named_tensors(container, f"p{index}"))
        return named

    x34, y34 = param(3, 4), param(3, 4)
    block_x = Tensor(rng.uniform(-2, 2, size=(2, 3, 4)), requires_grad=True)
    branch_scale, rows = 1.25, np.array([1])
    padding = Padding.of(np.array([3, 2]), 3, np.float64)
    enc = Encoder.build(EncoderConfig(num_layers=1, kind="conformer", d_model=4,
                                      n_heads=2, d_ff=5, conv_kernel=3, input_dim=5))
    for name, p in enc.parameters().items():
        bounds = (0.5, 1.5) if name.endswith(".gain") else (-1.0, 1.0)
        p.data[...] = rng.uniform(*bounds, size=p.shape)
    layer = enc.layers[0]
    att_norm, att = layer.att_norm, layer.attention
    conv_norm, conv = layer.conv_norm, layer.conv
    features = Tensor(rng.uniform(-1, 1, size=(2, 3, 5)), requires_grad=True)
    head = CTCHead.build(4, 2, rng)
    head.bias.data[...] = rng.uniform(-1, 1, size=3)

    return [
        ("add", {"x": x34, "y": y34}, weighted(lambda x: add(x, y34), x34)),
        ("frontend", {"x": features, "weight": enc.frontend_w, "bias": enc.frontend_b},
         weighted(enc.input_frontend, features)),
        ("attention", block_params(att_norm, att),
         weighted(lambda x: self_attention(x, att_norm, att, 2, branch_scale, padding),
                  block_x)),
        ("feed_forward_relu", block_params(layer.ffn1_norm, layer.ffn1),
         weighted(lambda x: _feed_forward(x, layer.ffn1_norm, layer.ffn1, "relu",
                                          branch_scale), block_x)),
        ("feed_forward_swish_out_norm",
         block_params(layer.ffn2_norm, layer.ffn2, layer.out_norm),
         weighted(lambda x: _feed_forward(x, layer.ffn2_norm, layer.ffn2, "swish",
                                          branch_scale, layer.out_norm), block_x)),
        ("conv_module", block_params(conv_norm, conv),
         weighted(lambda x: _conv_module(x, conv_norm, conv, branch_scale, padding),
                  block_x)),
        ("kept_rows", block_params(att_norm, att),
         weighted(lambda x: put_rows(x, rows, self_attention(
             take(x, rows), att_norm, att, 2, branch_scale,
             Padding.of(np.array([2]), 3, np.float64))), block_x)),
        ("head_ctc", {"x": block_x, "weight": head.weight, "bias": head.bias},
         lambda: ctc_loss(take(head(block_x), (1, slice(2))), (1, 2))),
    ]


def _composite_check(kind, num_layers, d_model, steps, rng):
    """The training loss of one (1, T, 5) utterance through the model a
    config builds, in float64: the default InterCTC loss on its shared head
    from 2 layers, the final CTC alone below."""
    text = (f"model.kind={kind}\nmodel.layers={num_layers}\nmodel.d_model={d_model}\n"
            f"model.heads=2\nmodel.d_ff={d_model + 4}\nmodel.p_last=1.0\n"
            f"task.vocab=3\ntask.dim=5\ntrain.seed={int(rng.integers(2**31))}\n")
    if kind == "conformer":
        text += "model.conv_kernel=3\n"
    if num_layers < 2:
        text += "loss.variant=none\n"
    cfg = RunConfig.parse(text)
    model = Model.from_run_config(cfg, dtype=np.float64)
    plan = plan_step(cfg.loss, num_layers)
    x = rng.normal(size=(1, steps, 5))

    def f():
        return stack_losses(model.trace(x), [(1, 3)], model.heads, plan)[0].total
    return model.parameters(), f


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
    print(" ".join(str(t) for t in greedy_decode(grid[None])[0]))
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
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
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
        # an op whose result is not finite raises FloatingPointError, so
        # numpy's warnings on the way there would only repeat the error
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ConfigError, OSError, ValueError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
