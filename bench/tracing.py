"""Span tracing for the benchmark's traced run.

Wrappers are installed on the module attributes that arec's own callers
look up (``arec.model.embed_batch``, ``arec.training.adam_update``, ...),
so the program under test is not edited.  Each wrapped call records one
span: name, start, end, parent span and an optional note (rows handled,
whether a gradient was clipped).  Spans stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import statistics
import time

# Spans that only group other spans.  Their self time is loop and glue code
# no layer wrapper covers, so it counts as unattributed.
STRUCTURAL = ("training.train_epoch",)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    note: object = None


class Recorder:
    """In-memory span store; one per traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """`fn` with a span around every call; `note(args, result)` annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec.note = note(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.note]) + "\n")


def _rows(args, _result) -> int:
    return int(args[0].n)


def _clipped(args, norm) -> int:
    # clip_gradients(grads, max_norm) returns the pre-clip global norm
    return int(args[1] > 0 and norm > args[1])


# (owner, attribute, span name, note).  Every entry names the attribute the
# caller resolves at call time, so the wrapper is what actually runs.
def _targets(arec):
    cli, training, metrics, model = arec.cli, arec.training, arec.metrics, arec.model
    return [
        (cli, "parse_movielens", "data.parse_movielens", None),
        (cli, "prepare_dataset", "data.prepare_dataset", None),
        (cli, "save_cache", "data.save_cache", None),
        (cli, "load_cache", "data.load_cache", None),
        (cli, "load_modality_features", "losses.load_modality_features", None),
        (cli, "save_checkpoint", "cli.save_checkpoint", None),
        (cli, "load_checkpoint", "cli.load_checkpoint", None),
        (training, "init_state", "training.init_state", None),
        (training, "train_epoch", "training.train_epoch", None),
        (training, "_eval_columnar", "training.val_eval", None),
        (training, "adam_update", "training.adam_update", None),
        (training, "clip_gradients", "training.clip_gradients", _clipped),
        (training, "logloss", "losses.logloss", None),
        (training, "similarity_loss", "losses.similarity_loss", None),
        (training, "difference_loss", "losses.difference_loss", None),
        (training, "compute_auc", "metrics.auc", None),
        (training.ModalityBatcher, "batch_terms", "training.modality_terms", None),
        (metrics, "score_split", "metrics.score_split", None),
        (metrics, "auc", "metrics.auc", None),
        (metrics, "logloss", "losses.logloss", None),
        (arec.embedding.Columnar, "from_examples", "embedding.columnar_build", None),
        (arec.embedding.Columnar, "take", "embedding.take", None),
        (model, "embed_batch", "embedding.embed_batch", None),
        (model, "embed_batch_backward", "embedding.embed_batch_backward", None),
        (model, "branches_forward_batch", "interaction.forward", None),
        (model, "branches_backward_batch", "interaction.backward", None),
        (model, "deep_forward_batch", "model.deep_forward", None),
        (model, "deep_backward_batch", "model.deep_backward", None),
        (model, "relu", "numerics.relu", None),
        (arec.interaction, "softmax_rows", "numerics.softmax_rows", None),
        (arec.interaction, "relu", "numerics.relu", None),
    ]


@contextlib.contextmanager
def installed(recorder: Recorder, arec):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, note in _targets(arec):
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = recorder.wrap(name, fn, note)
            setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            saved.append((owner, attr, raw))

        ops_for = arec.cli.ops_for

        def traced_ops_for(kind):
            ops = ops_for(kind)
            return dataclasses.replace(
                ops,
                init=recorder.wrap("model.init", ops.init),
                forward_batch=recorder.wrap("model.forward", ops.forward_batch, _rows),
                backward_batch=recorder.wrap("model.backward", ops.backward_batch),
            )

        arec.cli.ops_for = traced_ops_for
        saved.append((arec.cli, "ops_for", ops_for))
        yield recorder
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# aggregation


def summarize(spans: list, rounds: int) -> dict:
    """Per-layer figures per traced round, keyed by metric name."""
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += dur[i]
    total, self_t, calls = {}, {}, {}
    for i, s in enumerate(spans):
        total[s.name] = total.get(s.name, 0.0) + dur[i]
        self_t[s.name] = self_t.get(s.name, 0.0) + dur[i] - child[i]
        calls[s.name] = calls.get(s.name, 0) + 1

    def per_round(table, name):
        return table.get(name, 0) / rounds

    out = {}
    for name in (
        "numerics.softmax_rows", "numerics.relu",
        "data.parse_movielens", "data.prepare_dataset", "data.save_cache", "data.load_cache",
        "embedding.columnar_build", "embedding.take", "embedding.embed_batch",
        "embedding.embed_batch_backward",
        "interaction.forward", "interaction.backward",
        "model.deep_forward", "model.deep_backward", "model.init",
        "losses.logloss", "losses.difference_loss", "losses.similarity_loss",
        "losses.load_modality_features",
        "training.init_state", "training.adam_update", "training.clip_gradients",
        "training.val_eval",
        "metrics.score_split", "metrics.auc",
        "cli.save_checkpoint", "cli.load_checkpoint",
    ):
        out[name + ".s"] = per_round(total, name)
    out["model.forward.self_s"] = per_round(self_t, "model.forward")
    out["model.backward.self_s"] = per_round(self_t, "model.backward")
    out["training.modality_terms.self_s"] = per_round(self_t, "training.modality_terms")
    out["model.forward.rows"] = sum(s.note for s in spans if s.name == "model.forward") / rounds
    out["interaction.calls"] = per_round(calls, "interaction.forward") + per_round(
        calls, "interaction.backward")
    out["losses.difference_loss.calls"] = per_round(calls, "losses.difference_loss")

    clips = [s.note for s in spans if s.name == "training.clip_gradients"]
    out["training.clip_rate"] = sum(clips) / len(clips) if clips else 0.0

    steps = step_times(spans)
    out["training.steps"] = len(steps) / rounds
    out["training.step_ms.p50"] = 1e3 * statistics.median(steps)
    out["training.step_ms.p90"] = 1e3 * statistics.quantiles(steps, n=10, method="inclusive")[8]

    for command in ("prepare", "train", "eval"):
        out[f"cli.{command}.unattributed_share"] = unattributed_share(
            spans, dur, child, "cli." + command)
    return out


def step_times(spans: list) -> list:
    """Seconds per training step: from one batch `take` in an epoch to the next.

    The last step of an epoch ends with the epoch span.
    """
    epochs = {}
    for s in spans:
        if s.name == "embedding.take" and s.parent >= 0 \
                and spans[s.parent].name == "training.train_epoch":
            epochs.setdefault(s.parent, []).append(s.start)
    out = []
    for parent, starts in epochs.items():
        bounds = starts + [spans[parent].end]
        out.extend(b - a for a, b in zip(bounds, bounds[1:]))
    return out


def unattributed_share(spans, dur, child, name) -> float:
    """Share of a command's wall time that no layer span covers."""
    top = {i for i, s in enumerate(spans) if s.name == name}
    if not top:
        return 0.0
    wall = sum(dur[i] for i in top)
    loose = sum(dur[i] - child[i] for i in top)
    for i, s in enumerate(spans):
        if s.name in STRUCTURAL and _root(spans, i) in top:
            loose += dur[i] - child[i]
    return loose / wall


def _root(spans, i) -> int:
    while spans[i].parent >= 0:
        i = spans[i].parent
    return i
