"""Per-field embedding layer.

Each categorical field owns a lookup table, multi-valued fields average the
rows of their active categories, and continuous fields scale one learned
vector by the normalized value.  All fields share the same output dimension
so the crossing layer downstream can multiply rows elementwise.

Lookups run on columnar batches, whose indices were checked against the
schema by `Columnar.from_examples`, the one check every split passes when
`load_cache` reads it and when `fit` or `evaluate` takes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (CATEGORICAL, CONTINUOUS, MULTI_CATEGORICAL, Columnar, FeatureSchema,
                   active_slots)
from .numerics import Tensor

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


def init_embedding(schema: FeatureSchema, dim: int, blocks) -> EmbeddingParams:
    return EmbeddingParams(dim=dim, tables=[
        blocks.take((dim,) if spec.kind == CONTINUOUS else (spec.cardinality, dim), std=INIT_STD)
        for spec in schema.fields
    ])


def embed_batch(col: Columnar, params: EmbeddingParams) -> Tensor:
    """(B, n_fields, d) embeddings for a columnar batch of the tables' schema."""
    B = col.n
    out = np.empty((B, params.n_fields, params.dim), dtype=np.float64)
    for i, fc in enumerate(col.fields):
        table = params.tables[i]
        if fc.kind == CATEGORICAL:
            out[:, i, :] = table[fc.idx]
        elif fc.kind == MULTI_CATEGORICAL:
            gathered = table[fc.padded]  # (B, qmax, d)
            mask = active_slots(fc.counts, fc.padded.shape[1])[:, :, None]
            out[:, i, :] = np.sum(gathered * mask, axis=1) / fc.counts[:, None]
        else:
            out[:, i, :] = fc.vals[:, None] * table[None, :]
    return out


def embed_batch_backward(col: Columnar, params: EmbeddingParams, upstream: Tensor, *,
                         out: EmbeddingParams) -> None:
    """Dense gradient tables for a batch, into `out`: each is zeroed and takes
    the batch's rows, so untouched rows are zero."""
    for i, (fc, table) in enumerate(zip(col.fields, out.tables)):
        table.fill(0.0)
        g = upstream[:, i, :]  # (B, d)
        if fc.kind == CATEGORICAL:
            _scatter_rows(table, fc.idx, g)
        elif fc.kind == MULTI_CATEGORICAL:
            share = g / fc.counts[:, None]  # (B, d)
            mask = active_slots(fc.counts, fc.padded.shape[1])[:, :, None]
            contrib = share[:, None, :] * mask  # (B, qmax, d); padding rows add 0
            _scatter_rows(table, fc.padded.ravel(), contrib)
        else:
            table += fc.vals @ g


def _scatter_rows(table: Tensor, rows: np.ndarray, values: Tensor):
    """`np.add.at(table, rows, values)` on the flattened (N, d) table.

    The 1-D scatter is numpy's fast path; each element still receives its
    additions in row order, so the sums are bit-identical to the 2-D one.
    """
    d = table.shape[1]
    flat = table.reshape(-1)  # a view: every table is one contiguous block
    np.add.at(flat, (rows[:, None] * d + np.arange(d)).ravel(), values.ravel())
