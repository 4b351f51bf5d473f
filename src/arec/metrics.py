"""Ranking and likelihood metrics.

AUC is computed by the rank formulation: sum the average ranks of the
positive examples and normalize by the number of positive/negative pairs.
Ties share their average rank, which makes the result identical to the
pairwise comparator that counts ties as one half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Columnar, DomainError
from .losses import logloss
from .numerics import one_blas_thread

EVAL_CSV_HEADER = "tag,auc,logloss,n_pos,n_neg"

# Scoring runs in chunks whose widest per-row intermediate (`row_floats()`)
# fills about this many bytes.  A few tensors of about that width are live at
# once (the pair products, scores and their ReLU, the attention projection),
# so a chunk's working set stays within a 2 MiB L2 cache.  A chunk holds a multiple of 32 rows, and at least 32: OpenBLAS
# rounds differently in its small-matrix kernels (chunks of up to about 20
# rows at the default widths) and in the edge kernels that take the rows past
# the last full 4-row tile, so other chunk sizes change scores in the last bit.
_CHUNK_BYTES = 1 << 19
_CHUNK_QUANTUM = 32


class MetricUndefinedError(ValueError):
    """Raised when a metric has no defined value, e.g. AUC on one class."""


class DivergenceError(ArithmeticError):
    """A model produced non-finite numbers: a training loss or a score."""


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1:
        raise DomainError(f"auc needs matching 1-d inputs, got {s.shape} and {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DomainError("labels must be 0 or 1")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError(
            f"AUC undefined with {n_pos} positives and {n_neg} negatives"
        )
    order = np.argsort(s, kind="mergesort")
    _, inverse, counts = np.unique(s[order], return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    avg_rank = (starts + ends) / 2.0
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = avg_rank[inverse]
    pos_rank_sum = float(ranks[y == 1.0].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass
class EvalReport:
    auc: float
    logloss: float
    n_pos: int
    n_neg: int
    tag: str = ""

    def csv_row(self) -> str:
        return f"{self.tag},{self.auc!r},{self.logloss!r},{self.n_pos},{self.n_neg}"


def chunk_rows(params) -> int:
    """Rows per scoring chunk: a multiple of 32 whose intermediates fit the budget."""
    fit = _CHUNK_BYTES // (8 * params.row_floats() * _CHUNK_QUANTUM)
    return _CHUNK_QUANTUM * max(1, fit)


def score_split(ops, params, col: Columnar) -> np.ndarray:
    """Predicted probabilities for every row of a columnar split, chunked.

    A tail shorter than 32 rows joins the chunk before it, so only a split
    that short is scored in a smaller chunk.
    """
    rows = chunk_rows(params)
    out = np.empty(col.n, dtype=np.float64)
    lo = 0
    while lo < col.n:
        hi = lo + rows
        if col.n - hi < _CHUNK_QUANTUM:
            hi = col.n
        probs, _, _ = ops.forward_batch(col.take(np.arange(lo, hi)), params)
        out[lo:hi] = probs
        lo = hi
    return out


def evaluate(ops, params, col: Columnar, schema, tag: str = "") -> EvalReport:
    """AUC and logloss of a split that passes `Columnar.from_examples`;
    non-finite scores raise DivergenceError."""
    Columnar.from_examples(col, schema)
    if col.n == 0:
        raise DomainError("cannot evaluate an empty split")
    # diverged parameters give NaN scores: one error, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"), one_blas_thread():
        scores = score_split(ops, params, col)
    bad = int(np.count_nonzero(~np.isfinite(scores)))
    if bad:
        raise DivergenceError(f"{bad} of {col.n} scores are not finite")
    n_pos = int(col.labels.sum())
    return EvalReport(
        auc=auc(scores, col.labels),
        logloss=logloss(scores, col.labels),
        n_pos=n_pos,
        n_neg=col.n - n_pos,
        tag=tag,
    )
