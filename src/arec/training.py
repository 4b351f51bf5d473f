"""Mini-batch training: Adam with global-norm clipping, seeded shuffling,
early stopping on validation AUC, and the embedding-dimension sweep driver.

Everything is deterministic under a fixed seed: shuffles come from one
seeded stream, batches are consecutive slices of the permutation, and all
reductions run in a fixed order.  Two runs with identical config and data
produce bit-identical parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import CATEGORICAL, Columnar, ConfigError, FeatureSchema
from .losses import (
    ModalityTable,
    difference_loss,
    logloss,
    logloss_d_logits,
    similarity_loss,
)
from .metrics import (DivergenceError, MetricUndefinedError, auc as compute_auc, evaluate,
                      score_split)
from .model import MODES, ModelOps, ops_for
from .numerics import Rng, one_blas_thread


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def parse_int_tuple(raw: str) -> tuple:
    """Comma-separated integers; blank text is the empty tuple."""
    return tuple(int(tok) for tok in raw.split(",")) if raw.strip() else ()


# one text parser per annotated TrainConfig field type
_PARSERS = {"int": int, "float": float, "str": str.strip, "bool": _parse_bool,
            "tuple[int, ...]": parse_int_tuple,
            "int | None": lambda raw: None if raw.strip().lower() in ("", "none") else int(raw)}


def _as_text(value) -> str:
    """The key=value text of a config value read back from JSON."""
    if isinstance(value, list):
        return ",".join(map(_as_text, value))
    return value if isinstance(value, str) else str(value).lower()


@dataclass
class TrainConfig:
    """Every training and model hyperparameter; its fields are the config keys."""

    batch_size: int = 256
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_epochs: int = 15
    patience: int = 3
    seed: int = 0
    lambda_sim: float = 0.1
    lambda_diff: float = 0.1
    dim: int = 16
    mode: str = "combined"
    heads: int = 2
    ac_hidden: int = 32
    deep_hidden: tuple[int, ...] = (64, 64)
    attn_dim: int | None = None
    first_order: bool = False
    clip_norm: float = 10.0

    def set(self, key: str, raw: str) -> None:
        """Parse `raw` by the annotated type of field `key` and store it."""
        spec = next((f for f in fields(self) if f.name == key), None)
        if spec is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            setattr(self, key, _PARSERS[spec.type](raw))
        except ValueError as exc:
            raise ConfigError(f"bad value for config key {key!r}: {raw!r} ({exc})") from None

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        """The inverse of `dataclasses.asdict`: every field, and no other key."""
        missing = [f.name for f in fields(cls) if f.name not in raw]
        if missing:
            raise ConfigError(f"missing config key {missing[0]!r}")
        config = cls()
        for key, value in raw.items():
            config.set(key, _as_text(value))
        return config

    def validate(self):
        """Raise ConfigError naming the first out-of-range field; return self."""
        width_key = "dim" if self.attn_dim is None else "attn_dim"
        width = getattr(self, width_key)
        rules = [(f.name, math.isfinite(getattr(self, f.name)), "must be finite")
                 for f in fields(self) if f.type == "float"]
        # learning_rate 0 freezes the parameters, which the contracts rely on
        # for frozen-parameter checks; clip_norm 0 turns clipping off
        minimum = {"batch_size": 1, "max_epochs": 1, "patience": 1, "dim": 1, "heads": 1,
                   "ac_hidden": 1, "seed": 0, "learning_rate": 0, "lambda_sim": 0,
                   "lambda_diff": 0, "clip_norm": 0}
        rules += [(key, getattr(self, key) >= lo, f"must be >= {lo}")
                  for key, lo in minimum.items()]
        rules += [
            ("beta1", 0 <= self.beta1 < 1, "must lie in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "must lie in [0, 1)"),
            ("epsilon", self.epsilon > 0, "must be > 0"),
            ("mode", self.mode in MODES, f"must be one of {MODES}"),
            (width_key, width >= 1 and width % max(self.heads, 1) == 0,
             f"(the attention width) must be >= 1 and divisible by heads={self.heads}"),
            ("deep_hidden", len(self.deep_hidden) > 0 and min(self.deep_hidden) >= 1,
             "must list one or more widths, each >= 1"),
        ]
        for key, ok, rule in rules:
            if not ok:
                raise ConfigError(f"{key} {rule}, got {getattr(self, key)!r}")
        return self

    def model_kwargs(self) -> dict:
        return {
            "heads": self.heads,
            "ac_hidden": self.ac_hidden,
            "deep_hidden": tuple(self.deep_hidden),
            "mode": self.mode,
            "first_order": self.first_order,
            "attn_dim": self.attn_dim,
        }


@dataclass
class BestSnapshot:
    params: object
    epoch: int
    val_auc: float
    val_logloss: float


@dataclass
class TrainState:
    """A fit's state.  `grads`, which every backward overwrites and Adam then
    leaves holding the step it applied, and Adam's moments `m` and `v` are
    containers of the parameters' layout; `m`, `v` and Adam's `scratch` row
    are the rows of one calloc'd block, whose pages the first step touches,
    not the set-up."""

    params: object
    grads: object
    m: object
    v: object
    scratch: np.ndarray
    t: int = 0
    epoch: int = 0
    rng: Rng = None
    best: BestSnapshot = None
    bad_epochs: int = 0


def init_state(ops: ModelOps, schema: FeatureSchema, config: TrainConfig) -> TrainState:
    config.validate()
    rng = Rng(config.seed)
    params = ops.init(schema, config.dim, rng.child(1), **config.model_kwargs())
    layout = params.layout
    rows = np.zeros((3, layout.size))
    return TrainState(params=params, grads=layout.zeros(), m=layout.bind(rows[0]),
                      v=layout.bind(rows[1]), scratch=rows[2], rng=rng.child(2))


def clip_gradients(grads, max_norm: float) -> float:
    """Scale all gradient tensors so their global norm is at most max_norm."""
    tensors = [g for _, g in grads.named_tensors()]
    # per tensor, in the same pairwise order as np.sum(g * g)
    total = 0.0
    for g in tensors:
        total += float(np.add.reduce(np.square(g), axis=None))
    norm = float(np.sqrt(total))
    if not math.isfinite(total) and all(np.isfinite(g).all() for g in tensors):
        # the squares overflowed: take the norm of the gradients over their peak
        peak = max(float(np.max(np.abs(g), initial=0.0)) for g in tensors)
        total = 0.0
        for g in tensors:
            total += float(np.add.reduce(np.square(g / peak), axis=None))
        norm = peak * float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in tensors:
            g *= scale
    return norm


def adam_update(state: TrainState, grads, config: TrainConfig):
    """One Adam step over the flat buffers of `grads`, the parameters and the
    state.  Each element gets the arithmetic, in the order, of the per-tensor
    form: `m = b1 m + (1-b1) g`, `v = b2 v + ((1-b2) g) g`,
    `p -= lr (m / corr1) / (sqrt(v / corr2) + eps)`.  The step is staged in
    the gradient buffer, so `grads` leaves holding the step applied to each
    parameter."""
    state.t += 1
    t = state.t
    b1, b2 = config.beta1, config.beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    m, v, s = state.m.flat, state.v.flat, state.scratch
    g, params = grads.flat, state.params.flat
    # v first, while the gradient is whole
    np.multiply(g, 1.0 - b2, out=s)
    s *= g
    v *= b2
    v += s
    g *= 1.0 - b1
    m *= b1
    m += g
    # the scratch takes the denominator, and the gradient buffer the step
    np.divide(v, corr2, out=s)
    np.sqrt(s, out=s)
    s += config.epsilon
    np.divide(m, corr1, out=g)
    np.multiply(config.learning_rate, g, out=g)
    g /= s
    params -= g


# ---------------------------------------------------------------------------
# modality loss bookkeeping


@dataclass
class ModalityBatcher:
    """Per-index modality terms aligned with the item field's vocabulary."""

    field_index: int
    shared_audio: np.ndarray  # (cardinality, d_m)
    shared_visual: np.ndarray
    difference: np.ndarray  # (cardinality,) difference loss of each present item
    present: np.ndarray  # (cardinality,) bool

    @staticmethod
    def build(schema: FeatureSchema, table: ModalityTable) -> "ModalityBatcher":
        idx = item_field_index(schema)
        if idx is None:
            raise ConfigError("modality features supplied but the schema has no item id field")
        spec = schema.fields[idx]
        key_rows = np.fromiter((_vocab_row(spec, key) for key in table.keys),
                               dtype=np.int64, count=len(table.keys))
        # a row that several keys map to takes the features of the key seen
        # last; row 0 (keys outside the training vocabulary) takes none
        rows, from_end = np.unique(key_rows[::-1], return_index=True)
        known = rows != 0
        if not known.any():
            raise ConfigError(f"none of the {len(key_rows)} modality feature keys is an item "
                              f"of the {spec.name} vocabulary")
        rows, items = rows[known], (len(key_rows) - 1 - from_end)[known]
        sa, sv, pa, pv = (table.vectors[items, t] for t in range(4))  # MODALITY_TAGS order
        card, d_m = spec.cardinality, table.vectors.shape[2]
        shared_audio, shared_visual = np.zeros((2, card, d_m))
        shared_audio[rows], shared_visual[rows] = sa, sv
        present = np.zeros(card, dtype=bool)
        present[rows] = True
        # the features are fixed, so each item's difference term is too: one
        # row-wise call per fit instead of one call per training row
        difference = np.zeros(card)
        difference[rows] = difference_loss(pa, sa, pv, sv)
        return ModalityBatcher(idx, shared_audio, shared_visual, difference, present)

    def batch_terms(self, col: Columnar):
        """(similarity, difference, count) over batch items with features."""
        rows = col.fields[self.field_index].idx
        rows = rows[self.present[rows]]
        if rows.size == 0:
            return 0.0, 0.0, 0
        l_s = similarity_loss(self.shared_audio[rows], self.shared_visual[rows])
        # summed strictly in row order, as a `+=` loop would: np.sum pairs
        # its terms, so its rounding differs
        l_d = float(np.add.accumulate(self.difference[rows])[-1])
        return l_s, l_d / rows.size, int(rows.size)


def _vocab_row(spec, key) -> int:
    row = spec.index_of(key)
    if row == 0 and isinstance(key, str):
        # feature files carry text keys; integer-id vocabularies (movie ids)
        # need the numeric form
        try:
            row = spec.index_of(int(key))
        except ValueError:
            pass
    return row


def item_field_index(schema: FeatureSchema):
    for i, spec in enumerate(schema.fields):
        if spec.kind == CATEGORICAL and spec.name in ("movie_id", "product_id", "item_id"):
            return i
    return None


# ---------------------------------------------------------------------------
# epoch and fit


@dataclass
class EpochMetrics:
    train_loss: float
    l_s: float = None
    l_d: float = None


def _non_finite_parameter(params) -> str:
    """Name the first parameter tensor holding NaN or Inf, for a divergence report;
    if there is none, the tensor holding the value of largest magnitude."""
    largest, where = -1.0, None
    for name, tensor in params.named_tensors():
        if not np.all(np.isfinite(tensor)):
            return f"first non-finite parameter tensor: {name}"
        peak = float(np.max(np.abs(tensor), initial=0.0))
        if peak > largest:
            largest, where = peak, name
    return f"all parameters are finite; the largest magnitude is {largest!r}, in {where}"


def train_epoch(ops: ModelOps, state: TrainState, train_col: Columnar,
                config: TrainConfig, modality: ModalityBatcher = None) -> EpochMetrics:
    n = train_col.n
    perm = state.rng.permutation(n)
    loss_sum = 0.0
    sim_sum = 0.0
    diff_sum = 0.0
    sim_n = 0
    for b, lo in enumerate(range(0, n, config.batch_size)):
        idx = perm[lo : lo + config.batch_size]
        batch = train_col.take(idx)
        probs, _, trace = ops.forward_batch(batch, state.params)
        batch_loss = logloss(probs, batch.labels)
        if not np.isfinite(batch_loss):
            raise DivergenceError(
                f"non-finite loss at epoch {state.epoch + 1}, batch {b}; "
                f"{_non_finite_parameter(state.params)}"
            )
        loss_sum += batch_loss * len(idx)
        grads = ops.backward_batch(trace, state.params, logloss_d_logits(probs, batch.labels),
                                   out=state.grads)
        clip_gradients(grads, config.clip_norm)
        adam_update(state, grads, config)
        if modality is not None:
            l_s, l_d, count = modality.batch_terms(batch)
            sim_sum += l_s * count
            diff_sum += l_d * count
            sim_n += count
    state.epoch += 1
    train_loss = loss_sum / n
    metrics = EpochMetrics(train_loss=train_loss)
    if modality is not None:
        metrics.l_s = sim_sum / sim_n if sim_n else 0.0
        metrics.l_d = diff_sum / sim_n if sim_n else 0.0
        metrics.train_loss = (
            train_loss + config.lambda_sim * metrics.l_s + config.lambda_diff * metrics.l_d
        )
    return metrics


@dataclass
class CurvePoint:
    epoch: int
    train_loss: float
    val_auc: float
    val_logloss: float
    dim: int
    seed: int
    l_s: float = None
    l_d: float = None

    def csv_row(self) -> str:
        row = (
            f"{self.epoch},{self.train_loss!r},{self.val_auc!r},"
            f"{self.val_logloss!r},{self.dim},{self.seed}"
        )
        if self.l_s is not None:
            row += f",{self.l_s!r},{self.l_d!r}"
        return row


def curve_csv_header(with_modality: bool = False) -> str:
    head = "epoch,train_loss,val_auc,val_logloss,d,seed"
    return head + ",l_s,l_d" if with_modality else head


@dataclass
class FitResult:
    state: TrainState
    curve: list
    epochs_run: int


def _eval_columnar(ops, params, col: Columnar):
    probs = score_split(ops, params, col)
    return compute_auc(probs, col.labels), logloss(probs, col.labels)


def fit(ops: ModelOps, schema: FeatureSchema, train: Columnar, validation: Columnar,
        config: TrainConfig, modality_table: ModalityTable = None) -> FitResult:
    """Train on the `train` split, scoring `validation` after each epoch; both
    must pass `Columnar.from_examples`, `train` must hold a row and
    `validation` both labels, since its AUC picks the best epoch."""
    config.validate()
    train_col = Columnar.from_examples(train, schema)
    val_col = Columnar.from_examples(validation, schema)
    if not train_col.n:
        raise ConfigError("the train split is empty; there is nothing to train on")
    n_pos = int(np.count_nonzero(val_col.labels))
    if not 0 < n_pos < val_col.n:
        raise MetricUndefinedError(
            f"the validation split holds {n_pos} positives and {val_col.n - n_pos} negatives; "
            "its AUC, which picks the best epoch, needs both"
        )
    state = init_state(ops, schema, config)
    modality = None
    if modality_table is not None:
        modality = ModalityBatcher.build(schema, modality_table)
    curve = []
    for _ in range(config.max_epochs):
        # a diverging run surfaces as one DivergenceError, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"), one_blas_thread():
            em = train_epoch(ops, state, train_col, config, modality)
            val_auc, val_ll = _eval_columnar(ops, state.params, val_col)
        if not np.isfinite(val_ll):
            raise DivergenceError(
                f"non-finite validation logloss after epoch {state.epoch}; "
                f"{_non_finite_parameter(state.params)}"
            )
        curve.append(
            CurvePoint(epoch=state.epoch, train_loss=em.train_loss, val_auc=val_auc,
                       val_logloss=val_ll, dim=config.dim, seed=config.seed,
                       l_s=em.l_s, l_d=em.l_d)
        )
        if state.best is None or val_auc > state.best.val_auc:
            snapshot = state.params.layout.bind(state.params.flat.copy())
            state.best = BestSnapshot(params=snapshot, epoch=state.epoch, val_auc=val_auc,
                                      val_logloss=val_ll)
            state.bad_epochs = 0
        else:
            state.bad_epochs += 1
            if state.bad_epochs >= config.patience:
                break
    return FitResult(state=state, curve=curve, epochs_run=state.epoch)


# ---------------------------------------------------------------------------
# embedding-dimension sweep


@dataclass
class SweepRow:
    dim: int
    auc: float
    logloss: float

    def csv_row(self) -> str:
        return f"{self.dim},{self.auc!r},{self.logloss!r}"


SWEEP_CSV_HEADER = "d,auc,logloss"


@dataclass
class SweepResult:
    rows: list  # SweepRow, successful dims in input order
    curves: dict  # dim -> list of CurvePoint
    failures: list  # (dim, message)


def sweep(kind: str, schema: FeatureSchema, train: Columnar, validation: Columnar,
          test: Columnar, config: TrainConfig, dims) -> SweepResult:
    dims = list(dims)
    if not dims:
        raise ConfigError("sweep needs a non-empty list of dims")
    # every dim's config, and the test split, are checked before the first fit
    configs = [replace(config, dim=int(d)).validate() for d in dims]
    ops = ops_for(kind)
    Columnar.from_examples(test, schema)
    rows, curves, failures = [], {}, []
    for cfg in configs:
        try:
            result = fit(ops, schema, train, validation, cfg)
            report = evaluate(ops, result.state.best.params, test, schema)
        except ArithmeticError as exc:
            failures.append((cfg.dim, str(exc)))
            continue
        rows.append(SweepRow(dim=cfg.dim, auc=report.auc, logloss=report.logloss))
        curves[cfg.dim] = result.curve
    return SweepResult(rows=rows, curves=curves, failures=failures)
