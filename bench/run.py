"""ctclab benchmark: one run of one workload, with its correctness checks.

    python3 bench/run.py --workload train-default --seed 1 --seconds 15 --trace 0

Each run builds its inputs from --seed, warms the host up with untimed
load, then times a fixed amount of work sized by --seconds in CALLS whole
calls, each after its own timed set-up, checks the program's outputs against
bench/reference.py, and prints one JSON line last.  Untraced, the timed
calls run under `HostSpeed`, which samples the host's speed while they run
and scales their times to a reference speed.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it wraps the program's modules (bench/tracing.py) and
reports per-layer metrics instead.  See bench/README.md.
"""
import os

# One thread for every BLAS and OpenMP pool, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUTPUT = ROOT / ".bench_out"

sys.path.insert(0, str(SOURCE))
try:
    import numpy as np
    from ctclab import ctc, data, objective, trainer
    from ctclab.config import RunConfig
    from ctclab.tensor import Tape, add
except ImportError as err:
    sys.exit(f"cannot import ctclab from {SOURCE}: {err}")

import reference  # noqa: E402
import tracing  # noqa: E402


@dataclass(frozen=True)
class Workload:
    config: str          # key=value lines on top of ctclab's defaults
    utts_per_s: float    # rate at the reference host speed: turns --seconds into work
    epochs: int = 2
    dev_size: int = 64


WORKLOADS = {
    "train-default": Workload("", utts_per_s=280.0),
    "train-conformer-long": Workload(
        "model.kind=conformer\nmodel.layers=6\nloss.variant=multiple\nloss.k=2\n"
        "task.min_label=8\ntask.max_label=18\ntask.min_duration=3\ntask.max_duration=5\n",
        utts_per_s=54.0, dev_size=16),
    # decode: the checkpoint comes from `ctclab train` on this config in a
    # child process, so that training does not raise the eval path's peak
    # RSS; the work of one call sizes the test split
    "decode": Workload("", utts_per_s=650.0, epochs=1, dev_size=32),
}
DECODE_TRAIN_UTTERANCES = 1024
WARMUP_S = 5.0  # untimed in-process load before the first set-up
# The timed work is split into this many whole calls, each after its own
# timed set-up.  The figures reported are the medians over the calls, each
# call's time scaled to the reference host speed (`HostSpeed`).  Each
# training call has its own inputs, which damps the spread of work between
# seeds; decode calls all read one test split, large enough that seeds
# differ little in work.
CALLS = 5
# `setup_s` is the median of this many set-ups before each call: one set-up
# lasts 10-50 ms, over which the host's speed alone varies by 20% or more.
SETUP_REPEATS = 4
BATCH = 16
MIN_STEPS = 6
CTC_SAMPLES = 64
FD_UTTERANCES = 2


def train_config(workload: Workload, seed: int, utterances: float, epochs: int,
                 dev_size: int, extra: str = "") -> str:
    """`utterances` trained on and decoded over all epochs, rounded to whole
    batches, and at least MIN_STEPS batches an epoch so that the loss can
    fall."""
    train_size = max(MIN_STEPS, round((utterances / epochs - dev_size) / BATCH)) * BATCH
    return (workload.config + extra + f"train.seed={seed}\ntrain.epochs={epochs}\n"
            f"task.train_size={train_size}\ntask.dev_size={dev_size}\n")


def frames(utterances) -> int:
    return sum(utt.features.shape[0] for utt in utterances)


class HostSpeed:
    """Samples the host's speed while timed calls run, so that their times
    can be given at one reference speed.

    The host this benchmark was sized on runs the same work at speeds up to
    2.5x apart, in stretches from under a second to minutes, and process CPU
    time follows wall time, so neither timer alone tells the program's speed
    from the host's.  Every PERIOD_S of a timed call a SIGALRM handler runs
    one slice of fixed work, ITERATIONS steps of a two-layer MLP forward and
    backward on 32x64 float32 arrays (small numpy ops, as the program's),
    and times it.  The call's time less its slices, times
    REFERENCE_SLICE_S / (mean slice time), is its time at the reference
    speed: both slow down together when the host does.  The slice allocates
    no object the cyclic collector tracks."""

    PERIOD_S = 0.05
    ITERATIONS = 75
    REFERENCE_SLICE_S = 4.0e-3  # about a slice's time on the reference host

    def __init__(self, sample: bool = True):
        """With `sample` false (a traced run, whose spans a slice would
        inflate) times are wall times."""
        self.sample = sample
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((32, 64)).astype(np.float32)
        self.w1 = (0.1 * rng.standard_normal((64, 128))).astype(np.float32)
        self.w2 = (0.1 * rng.standard_normal((128, 64))).astype(np.float32)
        self.slices: list[float] = []

    def _slice(self, signum, frame) -> None:
        started = time.perf_counter()
        for _ in range(self.ITERATIONS):
            hidden = self.x @ self.w1
            out = np.maximum(hidden, 0.0) @ self.w2
            exp = np.exp(out - out.max(axis=1, keepdims=True))
            grad = exp / exp.sum(axis=1, keepdims=True) - self.x
            grad_w1 = self.x.T @ ((grad @ self.w2.T) * (hidden > 0))
        float(grad_w1[0, 0])
        self.slices.append(time.perf_counter() - started)

    @contextmanager
    def sampling(self):
        """Sample afresh for the duration of the block."""
        self.slices.clear()
        if not self.sample:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, arg):
        """`fn(arg)` and its seconds, less the slices taken meanwhile."""
        sliced = sum(self.slices)
        started = time.perf_counter()
        result = fn(arg)
        return result, time.perf_counter() - started - (sum(self.slices) - sliced)

    def scale(self) -> float:
        """Reference speed over the host's speed while sampling."""
        if not self.sample:
            return 1.0
        if not self.slices:  # a block shorter than PERIOD_S: sample once after it
            self._slice(None, None)
        return self.REFERENCE_SLICE_S / statistics.fmean(self.slices)


def timed_calls(setup, call, inputs, host: HostSpeed):
    """For each input in turn, collect garbage, then time `setup(input)`
    SETUP_REPEATS times and `call(input)` once, all under `host.sampling()`.
    Return the set-up seconds, the call seconds, the host's slowness during
    each call (1 at the reference speed) and the call results.  Each call
    thus starts as a fresh command would, without the previous call's
    garbage."""
    setup_seconds, seconds, slowness, results = [], [], [], []
    for item in inputs:
        gc.collect()
        with host.sampling():
            setups = [host.timed(setup, item)[1] for _ in range(SETUP_REPEATS)]
            result, call_seconds = host.timed(call, item)
            scale = host.scale()
        setup_seconds += [s * scale for s in setups]
        seconds.append(call_seconds * scale)
        slowness.append(1.0 / scale)
        results.append(result)
    return setup_seconds, seconds, slowness, results


class CTCSampler:
    """Keeps every `every`-th (grid, labels, loss) that training passes to
    `objective.ctc_loss`, up to `limit` of them."""

    def __init__(self, objective, every: int, limit: int):
        self.objective = objective
        self.every = every
        self.limit = limit
        self.samples = []
        self.calls = 0
        self.original = objective.ctc_loss

    def __enter__(self):
        self.objective.ctc_loss = self._sampled
        return self

    def __exit__(self, *exc):
        self.objective.ctc_loss = self.original

    def _sampled(self, grid, labels):
        out = self.original(grid, labels)
        self.calls += 1
        if (self.calls - 1) % self.every == 0 and len(self.samples) < self.limit:
            self.samples.append((np.array(getattr(grid, "data", grid)), tuple(labels),
                                 out.item()))
        return out


def fresh_dir(name: str) -> Path:
    OUTPUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUTPUT))


def run_train(name: str, workload: Workload, args, tracer, host) -> dict:
    extra = f"loss.variant={args.variant}\n" if args.variant else ""
    cfgs = [RunConfig.parse(train_config(workload, args.seed * CALLS + index,
                                         args.seconds * workload.utts_per_s / CALLS,
                                         workload.epochs, workload.dev_size, extra))
            for index in range(CALLS)]
    warm = RunConfig.parse(train_config(workload, 10**6 + args.seed,
                                        WARMUP_S * workload.utts_per_s, 1,
                                        workload.dev_size, extra))
    out = fresh_dir(name)
    try:
        trainer.run_training(warm, out / "warmup")
        if tracer:
            tracer.install()
        every = max(1, len(cfgs) * cfgs[0].epochs * cfgs[0].task.train_size
                    // (CTC_SAMPLES // 2))
        with CTCSampler(objective, every, CTC_SAMPLES) as sampler:
            setup, seconds, slowness, results = timed_calls(
                setup_training, lambda cfg: trainer.run_training(cfg, out / str(cfg.seed)),
                cfgs, host)
        if tracer:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        sets = [(data.generate_dataset(cfg.task, "train"), data.generate_dataset(cfg.task, "dev"))
                for cfg in cfgs]
        problems = check_training(cfgs[-1], results[-1], sets[-1][0], sampler.samples,
                                  args.seed)
        for cfg, result in zip(cfgs[:-1], results[:-1]):
            problems += check_checkpoints(cfg, result)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    summary = "  ".join(f"epoch {e}: loss {loss:.4f} dev_ter {ter:.4f}"
                        for e, loss, ter in results[-1].metrics)
    return dict(problems=problems, summary=summary, seconds=seconds,
                utterances=[cfg.epochs * (len(t) + len(d)) for cfg, (t, d) in zip(cfgs, sets)],
                frames=[cfg.epochs * (frames(t) + frames(d)) for cfg, (t, d) in zip(cfgs, sets)],
                failed=sum(r.skipped_utterances for r in results),
                setup=setup, slowness=slowness, peak_rss_mb=peak_rss_mb,
                generated=(SETUP_REPEATS + 1) * sum(len(t) + len(d) for t, d in sets))


def setup_training(cfg) -> None:
    """What `run_training` does before its first step."""
    data.generate_dataset(cfg.task, "train")
    data.generate_dataset(cfg.task, "dev")
    trainer.Model.from_run_config(cfg)


def setup_decode(checkpoint: Path) -> None:
    """What `ctclab eval` does before its first decode."""
    ckpt = trainer.load_checkpoint(checkpoint)
    cfg = RunConfig.parse(ckpt.config_echo)
    data.generate_dataset(cfg.task, "test")
    trainer.load_model_state(trainer.Model.from_run_config(cfg), ckpt)


def tape_gradient(model, utterances, spec, plan):
    """The eval-mode total loss summed over `utterances` as a function of the
    model's current parameters, those parameters' arrays, and the tape
    gradient of the loss at them."""
    def total():
        losses = [objective.total_loss(model.trace(utt.features), utt.labels, spec,
                                       model.heads, plan=plan).total for utt in utterances]
        out = losses[0]
        for loss in losses[1:]:
            out = add(out, loss)
        return out

    params = model.parameters()
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = total()
    tape.backward(loss)
    return (lambda: total().item(), {name: p.data for name, p in params.items()},
            {name: p.grad.copy() for name, p in params.items()})


def check_checkpoints(cfg, result) -> list[str]:
    """The averaged checkpoint is the mean of the last window, and the train
    loss fell."""
    window = result.checkpoint_paths[-min(cfg.average_last, cfg.epochs):]
    return (reference.check_average([p.read_bytes() for p in window],
                                    result.averaged_path.read_bytes())
            + reference.check_loss_falls([loss for _, loss, _ in result.metrics]))


def check_training(cfg, result, train_set, samples, seed) -> list[str]:
    rng = np.random.default_rng([seed, 5])
    spec = cfg.loss_spec()
    model = trainer.Model.from_run_config(cfg, dtype=np.float64)
    trainer.load_model_state(model, trainer.load_checkpoint(result.checkpoint_paths[-1]))
    picked = [train_set[i] for i in rng.choice(len(train_set), FD_UTTERANCES, replace=False)]

    program = [(grid, labels, loss, ctc.ctc_forward_backward(grid, labels)[1])
               for grid, labels, loss in samples]
    problems = reference.check_ctc(program)

    plan = objective.plan_step(spec, cfg.layers, rng)
    problems += reference.check_directional_gradient(
        *tape_gradient(model, picked, spec, plan), rng)

    return problems + check_checkpoints(cfg, result)


def run_decode(name: str, workload: Workload, args, tracer, host) -> dict:
    size = max(1, round(args.seconds * workload.utts_per_s / CALLS))
    out = fresh_dir(name)
    try:
        config = out / "train.cfg"
        config.write_text(train_config(
            workload, args.seed, DECODE_TRAIN_UTTERANCES + workload.dev_size,
            workload.epochs, workload.dev_size, f"task.test_size={size}\n"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-m", "ctclab.cli", "train", "--config", str(config),
                        "--out", str(out / "model")], env=env, check=True,
                       capture_output=True, timeout=150)
        checkpoint = out / "model" / "averaged.ckpt"

        task = RunConfig.parse(trainer.load_checkpoint(checkpoint).config_echo).task
        warm = data.generate_dataset(task, "dev")
        for _ in range(round(WARMUP_S * workload.utts_per_s / len(warm))):
            trainer.evaluate(trainer.load_checkpoint(checkpoint), warm)
        dataset = data.generate_dataset(task, "test")
        if tracer:
            tracer.install()
        setup, seconds, slowness, results = timed_calls(
            setup_decode,
            lambda path: trainer.evaluate(trainer.load_checkpoint(path), dataset),
            [checkpoint] * CALLS, host)
        if tracer:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = results[0]
        problems, excused = reference.check_decode(checkpoint.read_bytes(), dataset,
                                                   result.decodes, result.rate)
        if any(r.decodes != result.decodes for r in results):
            problems.append("repeated evaluate calls gave different hypotheses")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return dict(problems=problems, seconds=seconds,
                summary=f"test_ter {result.rate:.4f}  near-tie mismatches excused: {excused}",
                utterances=[len(dataset)] * CALLS, frames=[frames(dataset)] * CALLS,
                failed=0, setup=setup, slowness=slowness, peak_rss_mb=peak_rss_mb,
                generated=SETUP_REPEATS * CALLS * len(dataset))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the timed work: seconds x the workload's reference rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--variant", choices=("none", "middle"),
                        help="train-default only: override loss.variant, for the "
                             "InterCTC overhead figure in README.md")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.variant and args.workload != "train-default":
        parser.error("--variant applies to train-default only")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(trainer.__file__).resolve().is_relative_to(SOURCE):
        print(f"ctclab was imported from {trainer.__file__}, not {SOURCE}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    runner = run_decode if args.workload == "decode" else run_train
    host = HostSpeed(sample=tracer is None)
    run = runner(args.workload, WORKLOADS[args.workload], args, tracer, host)

    print(run["summary"])
    attempted = sum(run["utterances"])
    if tracer:
        values = tracer.report(attempted, run["generated"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.metric_names()}
        idle = [name for name, value in values.items() if value == 0]
        print(f"traced timed phase: {sum(run['seconds']):.3f} s")
        print("unmeasured (wrapped function missing): " + (", ".join(tracer.unmeasured) or "none"))
        print("not exercised on this workload: " + (", ".join(idle) or "none"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(run["setup"]), "unit": "s"},
            "utts_per_s": {"value": statistics.median(
                n / s for n, s in zip(run["utterances"], run["seconds"])), "unit": "utt/s"},
            "frames_per_s": {"value": statistics.median(
                n / s for n, s in zip(run["frames"], run["seconds"])), "unit": "frame/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    for problem in run["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not run["problems"]
    print("set-up calls (s): " + " ".join(f"{s:.4f}" for s in run["setup"]))
    print("timed calls (s): " + " ".join(f"{s:.3f}" for s in run["seconds"]))
    print("host slowness in each call: " + " ".join(f"{s:.3f}" for s in run["slowness"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
