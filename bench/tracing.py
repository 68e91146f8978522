"""Outside-in per-layer trace of ctclab: wraps the entry points of each
module (and the encoder's sub-block functions), counts op results at
`tensor._finish`, and times the cyclic garbage collector through
`gc.callbacks`.

Spans nest; a span's self time is its duration minus its child spans and
the collections that ran inside it.  Op results, tape entries and the time
of each op's backward function are attributed to the innermost span open
when the op ran.  A wrapped function missing from the program is reported
as unmeasured rather than failing the run.
"""
from __future__ import annotations

import gc
import importlib
import sys
import time
from collections import Counter, defaultdict

# (metric, module, attribute path) of every timed span.
SPANS = (
    ("data.generate", "ctclab.data", "generate_dataset"),
    ("encoder.forward", "ctclab.encoder", "Encoder.forward"),
    ("encoder.frontend", "ctclab.encoder", "Encoder.input_frontend"),
    ("encoder.attention", "ctclab.encoder", "self_attention"),
    ("encoder.ffn", "ctclab.encoder", "_feed_forward"),
    ("encoder.conv", "ctclab.encoder", "_conv_module"),
    ("tensor.backward", "ctclab.tensor", "Tape.backward"),
    ("ctc.head", "ctclab.ctc", "CTCHead.__call__"),
    ("ctc.forward_backward", "ctclab.ctc", "ctc_forward_backward"),
    ("ctc.greedy_decode", "ctclab.ctc", "greedy_decode"),
    ("objective.total_loss", "ctclab.objective", "total_loss"),
    ("trainer.run_training", "ctclab.trainer", "run_training"),
    ("trainer.adam", "ctclab.trainer", "OptimizerState.apply_gradients"),
    ("trainer.eval", "ctclab.trainer", "evaluate_model"),
    ("trainer.checkpoint_save", "ctclab.trainer", "save_checkpoint"),
    ("trainer.checkpoint_load", "ctclab.trainer", "load_checkpoint"),
    ("trainer.average", "ctclab.trainer", "average_checkpoints"),
    ("metrics.corpus_rate", "ctclab.metrics", "corpus_rate"),
)
OP_COUNTER = ("ctclab.tensor", "_finish")

# Innermost span -> the sub-block its ops are attributed to.
SCOPES = {
    "encoder.frontend": "frontend",
    "encoder.attention": "attention",
    "encoder.ffn": "ffn",
    "encoder.conv": "conv",
    "encoder.forward": "layer",  # norms, residual adds and skip draws
    "ctc.head": "head",
    "objective.total_loss": "loss",
}
SCOPE_NAMES = ("frontend", "attention", "ffn", "conv", "layer", "head", "loss", "other")

# Spans whose count is reported per utterance next to their time.
COUNTED = {"ctc.forward_backward": "ctc.calls", "trainer.adam": "trainer.steps"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(f"{span}_ms", "ms/utt") for span, _, _ in SPANS]
    names += [("tensor.gc_ms", "ms/utt"), ("tensor.gc_collections", "count/utt")]
    names += [(count, "count/utt") for count in COUNTED.values()]
    names += [("tensor.ops", "count/utt"), ("tensor.tape_entries", "count/utt")]
    for scope in SCOPE_NAMES:
        names += [(f"tensor.ops.{scope}", "count/utt"),
                  (f"tensor.tape_entries.{scope}", "count/utt"),
                  (f"tensor.backward_ms.{scope}", "ms/utt")]
    return names


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Install with `install()`, run the workload, then `uninstall()`."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.ops: Counter[str] = Counter()
        self.entries: Counter[str] = Counter()
        self.backward_s: defaultdict[str, float] = defaultdict(float)
        self.gc_collections = 0
        self.unmeasured: list[str] = []
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def _span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapped

    def _on_gc(self, phase: str, info) -> None:
        if phase == "start":
            self._enter("tensor.gc")
        elif self._stack and self._stack[-1][0] == "tensor.gc":
            self._exit()
            self.gc_collections += 1

    def _scope(self) -> str:
        for frame in reversed(self._stack):
            scope = SCOPES.get(frame[0])
            if scope:
                return scope
        return "other"

    def _op_counter(self, finish):
        def counted(data, inputs, backward_fn):
            scope = self._scope()
            self.ops[scope] += 1

            def timed_backward(g):
                start = time.perf_counter()
                try:
                    return backward_fn(g)
                finally:
                    self.backward_s[scope] += time.perf_counter() - start

            out = finish(data, inputs, timed_backward)
            if getattr(out, "_tape", None) is not None:
                self.entries[scope] += 1
            return out
        return counted

    # -- patching -----------------------------------------------------------

    def _patch(self, module_name: str, path: str, make) -> None:
        try:
            owner, attr, original = _resolve(module_name, path)
        except (ImportError, AttributeError):
            self.unmeasured.append(f"{module_name}.{path}")
            return
        replacement = make(original)
        if isinstance(owner, type):
            targets = [owner]
        else:  # also rebind every `from .x import name` copy in the package
            targets = [m for name, m in list(sys.modules.items())
                       if name.split(".")[0] == "ctclab" and m is not None
                       and getattr(m, attr, None) is original]
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, replacement)

    def install(self) -> None:
        for name, module_name, path in SPANS:
            self._patch(module_name, path, lambda fn, name=name: self._span(name, fn))
        self._patch(*OP_COUNTER, self._op_counter)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- report ---------------------------------------------------------------

    def report(self, utterances: int, generated: int) -> dict[str, float]:
        """Per-layer values: self ms and counts per utterance processed in
        the timed phase (`data.generate_ms` per utterance generated)."""
        values = {f"{span}_ms": 1e3 * self.self_s[span] / utterances
                  for span, _, _ in SPANS}
        values["data.generate_ms"] = 1e3 * self.self_s["data.generate"] / max(1, generated)
        values["tensor.gc_ms"] = 1e3 * self.self_s["tensor.gc"] / utterances
        values["tensor.gc_collections"] = self.gc_collections / utterances
        for span, count in COUNTED.items():
            values[count] = self.calls[span] / utterances
        values["tensor.ops"] = sum(self.ops.values()) / utterances
        values["tensor.tape_entries"] = sum(self.entries.values()) / utterances
        for scope in SCOPE_NAMES:
            values[f"tensor.ops.{scope}"] = self.ops[scope] / utterances
            values[f"tensor.tape_entries.{scope}"] = self.entries[scope] / utterances
            values[f"tensor.backward_ms.{scope}"] = 1e3 * self.backward_s[scope] / utterances
        return values
