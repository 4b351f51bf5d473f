"""Per-field embedding layer.

Each categorical field owns a lookup table, multi-valued fields average the
rows of their active categories, and continuous fields scale one learned
vector by the normalized value.  All fields share the same output dimension
so the crossing layer downstream can multiply rows elementwise.

Lookups run on columnar batches; `embed` is the one-example view of the
same code.  `embed_batch` rejects indices outside a table and empty
multi-valued fields, since numpy would otherwise wrap or divide by zero.
`lookup_batch` skips that check, so a model embeds a checked batch into
its second table set (first-order weights) without checking it twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    CATEGORICAL,
    CONTINUOUS,
    MULTI_CATEGORICAL,
    Columnar,
    EncodingError,
    FeatureSchema,
    FieldColumn,
)
from .numerics import Rng, Tensor

# Normal(0, 0.01): read as variance, i.e. std 0.1.
INIT_STD = 0.1


@dataclass
class EmbeddingParams:
    """One table per schema field: (N_i, d) for categorical kinds, (d,) for continuous."""

    dim: int
    tables: list

    @property
    def n_fields(self) -> int:
        return len(self.tables)

    def named_tensors(self):
        for i, table in enumerate(self.tables):
            yield f"emb.f{i}", table


def init_embedding(schema: FeatureSchema, dim: int, rng: Rng) -> EmbeddingParams:
    tables = []
    for spec in schema.fields:
        if spec.kind == CONTINUOUS:
            tables.append(rng.normal((dim,), std=INIT_STD))
        else:
            tables.append(rng.normal((spec.cardinality, dim), std=INIT_STD))
    return EmbeddingParams(dim=dim, tables=tables)


def zeros_like_embedding(params: EmbeddingParams) -> EmbeddingParams:
    return EmbeddingParams(dim=params.dim, tables=[np.zeros_like(t) for t in params.tables])


def _one_row(example) -> Columnar:
    """One-row batch of `example`; each field's kind follows its payload type."""
    fields = []
    for payload in example.values:
        if isinstance(payload, tuple):
            fields.append(FieldColumn(
                kind=MULTI_CATEGORICAL,
                padded=np.array(payload, dtype=np.int64).reshape(1, -1),
                counts=np.array([len(payload)], dtype=np.int64),
            ))
        elif isinstance(payload, (int, np.integer)):
            fields.append(FieldColumn(kind=CATEGORICAL, idx=np.array([payload], dtype=np.int64)))
        else:
            fields.append(FieldColumn(kind=CONTINUOUS, vals=np.array([float(payload)])))
    return Columnar(fields=fields, labels=np.array([float(example.label)]), n=1)


def _check_rows(rows: np.ndarray, table: Tensor, field: int):
    n_rows = table.shape[0]
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        bad = rows[(rows < 0) | (rows >= n_rows)].flat[0]
        raise EncodingError(f"field {field}: index {bad} outside [0, {n_rows})")


def embed_batch(col: Columnar, params: EmbeddingParams) -> Tensor:
    """(B, n_fields, d) embeddings for a columnar batch, after checking its indices."""
    for i, fc in enumerate(col.fields):
        table = params.tables[i]
        if fc.kind == CATEGORICAL:
            _check_rows(fc.idx, table, i)
        elif fc.kind == MULTI_CATEGORICAL:
            if col.n and fc.counts.min() < 1:
                raise EncodingError(f"field {i}: multi-valued field with no indices")
            _check_rows(fc.padded, table, i)  # padding slots hold 0, always in range
    return lookup_batch(col, params)


def lookup_batch(col: Columnar, params: EmbeddingParams) -> Tensor:
    """`embed_batch` without the index check.

    Only for a batch that `embed_batch` has already accepted against a table
    set of the same schema, such as a model's first-order tables.
    """
    B = col.n
    out = np.empty((B, params.n_fields, params.dim), dtype=np.float64)
    for i, fc in enumerate(col.fields):
        table = params.tables[i]
        if fc.kind == CATEGORICAL:
            out[:, i, :] = table[fc.idx]
        elif fc.kind == MULTI_CATEGORICAL:
            gathered = table[fc.padded]  # (B, qmax, d)
            mask = (np.arange(fc.padded.shape[1]) < fc.counts[:, None])[:, :, None]
            out[:, i, :] = np.sum(gathered * mask, axis=1) / fc.counts[:, None]
        else:
            out[:, i, :] = fc.vals[:, None] * table[None, :]
    return out


def embed(example, params: EmbeddingParams) -> Tensor:
    """Dense (n_fields, d) representation of one encoded example."""
    return embed_batch(_one_row(example), params)[0]


def embed_batch_backward(col: Columnar, params: EmbeddingParams, upstream: Tensor) -> EmbeddingParams:
    """Dense gradient tables for a batch; untouched rows stay exactly zero."""
    grads = zeros_like_embedding(params)
    for i, fc in enumerate(col.fields):
        g = upstream[:, i, :]  # (B, d)
        if fc.kind == CATEGORICAL:
            _scatter_rows(grads.tables[i], fc.idx, g)
        elif fc.kind == MULTI_CATEGORICAL:
            qmax = fc.padded.shape[1]
            share = g / fc.counts[:, None]  # (B, d)
            mask = (np.arange(qmax) < fc.counts[:, None])[:, :, None]
            contrib = share[:, None, :] * mask  # (B, qmax, d); padding rows add 0
            _scatter_rows(grads.tables[i], fc.padded.ravel(), contrib)
        else:
            grads.tables[i] += fc.vals @ g
    return grads


def _scatter_rows(table: Tensor, rows: np.ndarray, values: Tensor):
    """`np.add.at(table, rows, values)` on the flattened (N, d) table.

    The 1-D scatter is numpy's fast path; each element still receives its
    additions in row order, so the sums are bit-identical to the 2-D one.
    """
    d = table.shape[1]
    flat = table.reshape(-1)  # a view: the table is a fresh contiguous array
    np.add.at(flat, (rows[:, None] * d + np.arange(d)).ravel(), values.ravel())
