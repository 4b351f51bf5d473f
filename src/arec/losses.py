"""Training losses and the modality-feature machinery.

Covers the binary cross-entropy objective, the shared-feature similarity
loss, and the private-vs-shared KL difference loss (base-2, over
softmax-mapped distributions).  Modality features arrive precomputed, from
a text file or the synthetic generator; the upstream audio/visual
extractors are out of scope, so the two modality losses are reported terms
with gradients taken with respect to the feature vectors themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DomainError, ParseError, _read_lines
from .numerics import Rng, Tensor, softmax, softmax_backward, softmax_rows

# Predicted probabilities are clamped to [PROB_FLOOR, 1 - PROB_FLOOR]
# before taking logs, in training and evaluation alike.
PROB_FLOOR = 1e-7

# Softmax-mapped distributions are floored here before the KL ratio.
DIST_FLOOR = 1e-12

LN2 = math.log(2.0)


def clamp_probs(p: Tensor) -> Tensor:
    return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)


def logloss(preds, labels) -> float:
    """Mean negative log-likelihood, natural log, clamped probabilities."""
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 1 or p.size < 1:
        raise DomainError(f"logloss needs matching 1-d inputs, got {p.shape} and {y.shape}")
    pc = clamp_probs(p)
    return float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log1p(-pc)))


def logloss_d_logits(probs: Tensor, labels: Tensor) -> Tensor:
    """d(logloss)/d(logits) of sigmoid probabilities; zero where the clamp is active."""
    inside = (probs > PROB_FLOOR) & (probs < 1.0 - PROB_FLOOR)
    return (probs - labels) * inside / len(probs)


def similarity_loss(shared_a: Tensor, shared_v: Tensor) -> float:
    """Half mean squared distance between the two shared-domain feature batches."""
    a = np.atleast_2d(np.asarray(shared_a, dtype=np.float64))
    v = np.atleast_2d(np.asarray(shared_v, dtype=np.float64))
    if a.shape != v.shape or a.shape[0] < 1:
        raise DomainError(f"similarity_loss shape mismatch: {a.shape} vs {v.shape}")
    diff = a - v
    return float(np.sum(diff * diff) / (2.0 * a.shape[0]))


def similarity_loss_grad(shared_a: Tensor, shared_v: Tensor):
    a = np.atleast_2d(np.asarray(shared_a, dtype=np.float64))
    v = np.atleast_2d(np.asarray(shared_v, dtype=np.float64))
    diff = (a - v) / a.shape[0]
    da = diff.reshape(np.shape(shared_a))
    return da, -da


def _kl_base2(p_feat: Tensor, q_feat: Tensor):
    """Base-2 KL along the last axis: a float for vectors, one value per row otherwise."""
    p = np.maximum(softmax_rows(np.asarray(p_feat, dtype=np.float64)), DIST_FLOOR)
    q = np.maximum(softmax_rows(np.asarray(q_feat, dtype=np.float64)), DIST_FLOOR)
    kl = np.sum(p * (np.log(p) - np.log(q)) / LN2, axis=-1)
    return float(kl) if kl.ndim == 0 else kl


def _kl_base2_grad(p_feat: Tensor, q_feat: Tensor):
    p_raw = softmax(np.asarray(p_feat, dtype=np.float64))
    q_raw = softmax(np.asarray(q_feat, dtype=np.float64))
    p = np.maximum(p_raw, DIST_FLOOR)
    q = np.maximum(q_raw, DIST_FLOOR)
    dp = ((np.log(p) - np.log(q)) / LN2 + 1.0 / LN2) * (p_raw > DIST_FLOOR)
    dq = -(p / q) / LN2 * (q_raw > DIST_FLOOR)
    return softmax_backward(p_raw, dp), softmax_backward(q_raw, dq)


def difference_loss(private_a: Tensor, shared_a: Tensor,
                    private_v: Tensor, shared_v: Tensor):
    """Base-2 KL between softmax-mapped private and shared features, both modalities.

    Works on the last axis: 1-d vectors give a float, (n, d) rows give one
    value per row, each bit-identical to the one-row call.
    """
    pa, sa = np.asarray(private_a), np.asarray(shared_a)
    pv, sv = np.asarray(private_v), np.asarray(shared_v)
    if pa.shape != sa.shape or pv.shape != sv.shape:
        raise DomainError("difference_loss dimension mismatch within a modality")
    if pa.ndim < 1 or pa.shape[:-1] != pv.shape[:-1]:
        raise DomainError(f"difference_loss row mismatch: {pa.shape} vs {pv.shape}")
    return _kl_base2(pa, sa) + _kl_base2(pv, sv)


def difference_loss_grad(private_a, shared_a, private_v, shared_v):
    d_pa, d_sa = _kl_base2_grad(np.asarray(private_a), np.asarray(shared_a))
    d_pv, d_sv = _kl_base2_grad(np.asarray(private_v), np.asarray(shared_v))
    return d_pa, d_sa, d_pv, d_sv


# ---------------------------------------------------------------------------
# modality feature table


MODALITY_TAGS = ("sa", "sv", "pa", "pv")


@dataclass
class ModalityTable:
    """Every item's four fixed feature vectors, as one array.

    `keys` holds the item keys in first-appearance order, and `vectors[i, t]`
    is item i's vector for tag MODALITY_TAGS[t]: one (n_items, 4, d) float64
    array.  Building a table checks the whole array once: at least one item,
    distinct keys, one vector length d >= 1, and finite values.
    """

    keys: tuple
    vectors: np.ndarray  # or any nested sequence of that shape

    def __post_init__(self):
        self.keys = tuple(self.keys)
        try:
            self.vectors = np.asarray(self.vectors, dtype=np.float64)
        except ValueError:
            raise DomainError("modality vectors must share one length") from None
        n, shape = len(self.keys), self.vectors.shape
        if n < 1 or shape[:2] != (n, len(MODALITY_TAGS)) or len(shape) != 3 or shape[2] < 1:
            raise DomainError(f"{n} items need ({n}, 4, d >= 1) modality vectors, got {shape}")
        if len(set(self.keys)) != n:
            raise DomainError("modality table keys repeat")
        finite = np.isfinite(self.vectors).all(axis=(1, 2))
        if not finite.all():
            raise DomainError(f"item {self.keys[np.argmin(finite)]}: non-finite modality feature")


def load_modality_features(path) -> ModalityTable:
    """Parse `item_id tag v1,v2,...` lines into a ModalityTable.

    Each item needs all four tags, and a later line for the same item and
    tag replaces the earlier one.
    """
    raw: dict = {}
    for ln, line in _read_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ParseError(f"{path}:{ln}: expected `item_id tag v1,...`, got {len(parts)} tokens")
        item, tag, payload = parts
        if tag not in MODALITY_TAGS:
            raise ParseError(f"{path}:{ln}: unknown tag {tag!r}")
        try:
            vec = np.array(payload.split(","), dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"{path}:{ln}: bad vector: {exc}") from None
        raw.setdefault(item, {})[tag] = vec
    if not raw:
        raise ParseError(f"{path}: no modality feature lines")
    vectors = []
    for item, tags in raw.items():
        if len(tags) != len(MODALITY_TAGS):
            missing = [t for t in MODALITY_TAGS if t not in tags]
            raise DomainError(f"item {item}: missing modality tags {missing}")
        vectors.append([tags[t] for t in MODALITY_TAGS])
    return ModalityTable(tuple(raw), vectors)


def save_modality_features(table: ModalityTable, path) -> None:
    """Write a table as `item tag v1,...` lines: items by their text, values by repr.

    A key whose text would not read back as that key (empty, holding
    whitespace, not UTF-8, or the text of another key too) is a DomainError,
    raised before the file is opened.
    """
    texts = [str(key) for key in table.keys]
    for text in texts:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise DomainError(f"modality key {text!r} is not UTF-8 text") from None
        if text.split() != [text]:
            raise DomainError(f"modality key {text!r} is empty or holds whitespace")
    if len(set(texts)) != len(texts):
        raise DomainError("two modality keys have the same text")
    order = sorted(range(len(texts)), key=texts.__getitem__)
    with open(path, "w", encoding="utf-8") as fh:
        for i in order:
            for tag, vec in zip(MODALITY_TAGS, table.vectors[i].tolist()):
                fh.write(f"{texts[i]} {tag} {','.join(map(repr, vec))}\n")


def synthesize_modality_features(item_keys, dim: int, seed: int) -> ModalityTable:
    """Synthetic stand-in features: shared audio/visual correlated, private distinct.

    Item after item, the stream gives a base vector, the shared audio and
    visual noise, then the private audio and visual vectors.  A repeated key
    keeps its first place and its last draw.
    """
    keys = list(item_keys)
    draws = Rng(seed).normal((len(keys), 5, dim))
    base = draws[:, 0]
    vectors = np.stack([base + 0.1 * draws[:, 1], base + 0.1 * draws[:, 2],
                        draws[:, 3], draws[:, 4]], axis=1)
    last = {key: i for i, key in enumerate(keys)}
    return ModalityTable(tuple(last), vectors[list(last.values())])
