"""Reference implementations the tests hold the engine to.

The engine encodes, splits and checks whole columns; these are the one-row
and record-at-a-time forms of the same work: the encoded example, its
encoder and its rating-to-label rule, decoder and row check, the
record-based schema fit, the record split, the builder of a `Columnar` from
a list of examples, the one-example crossing pool of the attention branch,
and the pair-at-a-time scatter of the crossing's backward.

`ac_attention` scores one example's pairs with einsum, and takes its softmax
denominator and pooled sum by exact (correctly rounded) summation, so its
pooled vector does not depend on pair enumeration order: permuting the
fields leaves it bitwise unchanged.  A BLAS product gives no such guarantee,
since the rounding of a row can depend on where the row sits in the operand.

The einsum kernels (`matmul`, `bmm` and its transposed forms, `mm_tn`,
`mm_nt`) are the oracle for the model's BLAS products: np.einsum without
optimization accumulates each output sequentially over the contracted axis,
so repeated calls are bit-identical and equal a hand-written triple loop.
`finite_diff_grad` and `rel_error` are the reference every backward pass of
the engine is checked against, and `adam_step`, the per-tensor Adam step, is
the reference for the engine's one-buffer Adam.

`softmax` and `softmax_backward`, over one vector, are the reference for the
engine's `softmax_rows`.  The gradients of the two modality losses are
checked against finite differences; the engine only reports those losses,
so nothing else needs them.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from arec.data import (
    CATEGORICAL,
    MULTI_CATEGORICAL,
    Columnar,
    DatasetSplit,
    DomainError,
    EncodingError,
    FeatureSchema,
    FieldColumn,
    FieldSpec,
    _float_column,
    _plan_for,
    _split_rows,
)
from arec.interaction import AcParams, pair_indices
from arec.losses import DIST_FLOOR, LN2
from arec.numerics import DimensionError, Tensor, relu


@dataclass(slots=True)
class EncodedExample:
    """One interaction under a schema.

    `values` holds one payload per schema field, in schema order:
    an int index for categorical, a strictly increasing tuple of indices for
    multi-categorical (never empty), a number in [0,1] for continuous.
    """

    values: tuple
    label: int


def build_schema(table) -> FeatureSchema:
    """Fit vocabularies and normalization bounds on a list of (training)
    records, field by field: the sorted distinct values of each categorical
    field, the sorted union of each multi-valued field's sets, and each
    continuous field's min and max."""
    if not table:
        raise DomainError("cannot build a schema from an empty table")
    fields = []
    for name, kind in _plan_for(table[0]):
        col = [row[name] for row in table]
        if kind == CATEGORICAL:
            fields.append(FieldSpec(name=name, kind=kind, vocab=tuple(sorted(set(col)))))
        elif kind == MULTI_CATEGORICAL:
            vocab = tuple(sorted(set().union(*set(col))))
            fields.append(FieldSpec(name=name, kind=kind, vocab=vocab))
        else:
            vals = _float_column(name, col)
            fields.append(FieldSpec(name=name, kind=kind, lo=float(vals.min()), hi=float(vals.max())))
    return FeatureSchema(fields=tuple(fields))


def binarize_label(rating: int) -> int:
    """Map a 1..5 star rating to the binary target: >= 4 stars is positive."""
    if not 1 <= rating <= 5:
        raise DomainError(f"rating {rating} outside [1, 5]")
    return 1 if rating >= 4 else 0


def encode_example(row, schema: FeatureSchema) -> EncodedExample:
    """Encode one raw record; out-of-vocabulary values land on index 0."""
    values = []
    for spec in schema.fields:
        if spec.kind == CATEGORICAL:
            values.append(spec.index_of(row[spec.name]))
        elif spec.kind == MULTI_CATEGORICAL:
            indices = sorted({spec.index_of(v) for v in row[spec.name]})
            if not indices:
                indices = [0]
            values.append(tuple(indices))
        else:
            span = spec.hi - spec.lo
            x = 0.0 if span == 0 else (float(row[spec.name]) - spec.lo) / span
            values.append(min(max(x, 0.0), 1.0))
    return EncodedExample(values=tuple(values), label=binarize_label(row["rating"]))


def value_of(spec: FieldSpec, index: int):
    """Inverse of `spec.index_of` for in-vocabulary indices; None for the reserved slot."""
    if index == 0:
        return None
    return spec.vocab[index - 1]


def decode_example(example: EncodedExample, schema: FeatureSchema) -> dict:
    """Recover raw values from an encoded example (None for reserved indices)."""
    out = {}
    for spec, payload in zip(schema.fields, example.values):
        if spec.kind == CATEGORICAL:
            out[spec.name] = value_of(spec, payload)
        elif spec.kind == MULTI_CATEGORICAL:
            out[spec.name] = tuple(value_of(spec, i) for i in payload)
        else:
            out[spec.name] = spec.lo + payload * (spec.hi - spec.lo)
    return out


def _is_index(payload) -> bool:
    # bool is an int subclass, and numpy's bool is not an np.integer
    return isinstance(payload, (int, np.integer)) and not isinstance(payload, bool)


def _is_number(payload) -> bool:
    return isinstance(payload, (int, float, np.integer, np.floating)) \
        and not isinstance(payload, bool)


def validate_example(example: EncodedExample, schema: FeatureSchema):
    """Raise EncodingError unless `example` conforms to `schema`.  An index
    is an integer (not a bool or a float), a multi-valued payload a tuple of
    strictly increasing indices, a continuous value a number (not a bool)."""
    if len(example.values) != schema.n_fields:
        raise EncodingError(
            f"example has {len(example.values)} fields, schema has {schema.n_fields}"
        )
    for spec, payload in zip(schema.fields, example.values):
        if spec.kind == CATEGORICAL:
            if not _is_index(payload):
                raise EncodingError(f"{spec.name}: index {payload!r} is not an integer")
            if not 0 <= payload < spec.cardinality:
                raise EncodingError(
                    f"{spec.name}: index {payload} outside [0, {spec.cardinality})"
                )
        elif spec.kind == MULTI_CATEGORICAL:
            if not isinstance(payload, tuple):
                raise EncodingError(f"{spec.name}: payload {payload!r} is not a tuple")
            if len(payload) < 1:
                raise EncodingError(f"{spec.name}: multi-valued field with no indices")
            for idx in payload:
                if not _is_index(idx):
                    raise EncodingError(f"{spec.name}: index {idx!r} is not an integer")
                if not 0 <= idx < spec.cardinality:
                    raise EncodingError(
                        f"{spec.name}: index {idx} outside [0, {spec.cardinality})"
                    )
            if any(a >= b for a, b in zip(payload, payload[1:])):
                raise EncodingError(f"{spec.name}: indices {payload} do not strictly increase")
        else:
            if not _is_number(payload):
                raise EncodingError(f"{spec.name}: value {payload!r} is not a number")
            if not 0.0 <= payload <= 1.0:
                raise EncodingError(f"{spec.name}: value {payload} outside [0, 1]")
    if isinstance(example.label, bool) or example.label not in (0, 1):
        raise EncodingError(f"label {example.label!r} is not binary")


def columnar(examples, schema: FeatureSchema) -> Columnar:
    """Columns of a list of encoded examples, each checked by
    `validate_example`, and the result by `Columnar.from_examples`.

    Over `encode_example` rows, this is the oracle for the columns that
    `prepare_dataset` builds."""
    for ex in examples:
        validate_example(ex, schema)
    n = len(examples)
    cols = []
    for i, spec in enumerate(schema.fields):
        if spec.kind == CATEGORICAL:
            cols.append(
                FieldColumn(
                    kind=spec.kind,
                    idx=np.fromiter(
                        (ex.values[i] for ex in examples), dtype=np.int64, count=n
                    ),
                )
            )
        elif spec.kind == MULTI_CATEGORICAL:
            counts = np.fromiter(
                (len(ex.values[i]) for ex in examples), dtype=np.int64, count=n
            )
            qmax = int(counts.max()) if n else 1
            padded = np.zeros((n, qmax), dtype=np.int64)
            for b, ex in enumerate(examples):
                active = ex.values[i]
                padded[b, : len(active)] = active
            cols.append(FieldColumn(kind=spec.kind, padded=padded, counts=counts))
        else:
            cols.append(
                FieldColumn(
                    kind=spec.kind,
                    vals=np.fromiter(
                        (ex.values[i] for ex in examples), dtype=np.float64, count=n
                    ),
                )
            )
    labels = np.fromiter((ex.label for ex in examples), dtype=np.float64, count=n)
    return Columnar.from_examples(Columnar(fields=cols, labels=labels, n=n), schema)


def split(table, ratios=(0.8, 0.1, 0.1), seed: int = 0) -> DatasetSplit:
    """Seeded uniform shuffle followed by a contiguous three-way cut, of a list."""
    train, validation, test = (
        [table[i] for i in rows] for rows in _split_rows(len(table), ratios, seed)
    )
    return DatasetSplit(train, validation, test, seed=seed, ratios=tuple(ratios))


def cross_pairs(emb: Tensor):
    """All elementwise products of distinct embedding rows, as (i, j, product) triples."""
    iu, ju = pair_indices(emb.shape[0])
    prods = emb[iu] * emb[ju]
    return [(int(i), int(j), prods[p]) for p, (i, j) in enumerate(zip(iu, ju))]


def ac_attention(pairs, params: AcParams):
    """Softmax attention over crossed pairs; returns (weights, pooled vector).

    `pairs` is the output of cross_pairs.  Each logit is contracted on its own
    and the softmax denominator and the pooled sum are computed with exact
    summation, so the result is the same for any enumeration order of the
    same pair set.
    """
    if len(pairs) < 1:
        raise DomainError("attention over an empty pair set")
    phi = np.stack([p[2] for p in pairs])
    z = np.einsum("bmd,td->bmt", phi[None], params.weight, optimize=False) + params.bias
    logits = np.einsum("bmt,t->bm", relu(z), params.proj, optimize=False)[0]
    ex = np.exp(logits - np.max(logits))
    weights = ex / math.fsum(ex)
    pooled = np.array([math.fsum(weights * phi[:, k]) for k in range(phi.shape[1])])
    return weights, pooled


def pair_scatter(d_emb: Tensor, d_phi: Tensor, emb: Tensor) -> None:
    """Add the crossing's pair terms into d_emb (B, n, d) in place, one pair
    at a time in pair order: the reference for the engine's slab scatter."""
    iu, ju = pair_indices(emb.shape[1])
    for p in range(iu.size):
        i, j = iu[p], ju[p]
        d_emb[:, i, :] += d_phi[:, p, :] * emb[:, j, :]
        d_emb[:, j, :] += d_phi[:, p, :] * emb[:, i, :]


# ---------------------------------------------------------------------------
# einsum kernels


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product with sequential (row-major) accumulation.

    Bit-identical to the entry-by-entry triple loop, unlike BLAS which
    reassociates partial sums.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    return np.einsum("ik,kj->ij", a, b, optimize=False)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """(B,m,k) @ (B,k,n) -> (B,m,n)."""
    return np.einsum("bik,bkj->bij", a, b, optimize=False)


def bmm_nt(a: Tensor, b: Tensor) -> Tensor:
    """(B,m,k) @ (B,n,k)^T -> (B,m,n)."""
    return np.einsum("bik,bjk->bij", a, b, optimize=False)


def bmm_tn(a: Tensor, b: Tensor) -> Tensor:
    """(B,m,k)^T @ (B,m,n) -> (B,k,n), batched."""
    return np.einsum("bik,bij->bkj", a, b, optimize=False)


def mm_tn(a: Tensor, b: Tensor) -> Tensor:
    """a^T @ b without materializing the transpose."""
    return np.einsum("ik,ij->kj", a, b, optimize=False)


def mm_nt(a: Tensor, b: Tensor) -> Tensor:
    """a @ b^T without materializing the transpose."""
    return np.einsum("ij,kj->ik", a, b, optimize=False)


# ---------------------------------------------------------------------------
# gradient verification


class NumericError(ArithmeticError):
    """A computation produced NaN/Inf from finite inputs."""


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar function at x.

    `f` must be pure and deterministic; eps is restricted to the range where
    central differences are trustworthy in float64.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros(x.size, dtype=np.float64)
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += eps
        xm = x.copy()
        xm.flat[i] -= eps
        fp = float(f(xp))
        fm = float(f(xm))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError(f"non-finite objective at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * eps)
    return grad.reshape(x.shape)


def rel_error(a: Tensor, b: Tensor, floor: float = 1e-3) -> float:
    """Worst-case elementwise relative difference between two gradients.

    The denominator is floored so near-zero entries compare by absolute
    error instead of blowing up.  A NaN entry counts as an infinite error,
    which `max(worst, ...)` keeps where it would drop a NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"rel_error shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    err = np.abs(a - b) / den
    return float(np.max(np.where(np.isnan(err), np.inf, err)))


# ---------------------------------------------------------------------------
# Adam, one tensor at a time


def adam_step(params: dict, m: dict, v: dict, grads: dict, t: int, config) -> None:
    """Step `t` of Adam on name -> tensor dicts, in place, one tensor at a
    time: the reference for the engine's `adam_update` over its arena."""
    b1, b2 = config.beta1, config.beta2
    lr = config.learning_rate
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    for name, p in params.items():
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        p -= lr * (m[name] / corr1) / (np.sqrt(v[name] / corr2) + config.epsilon)


# ---------------------------------------------------------------------------
# vector softmax and the modality-loss gradients


def softmax(x: Tensor) -> Tensor:
    """Softmax of a vector, max-subtracted for stability."""
    if x.ndim != 1 or x.size == 0:
        raise DimensionError(f"softmax expects a non-empty vector, got shape {x.shape}")
    e = np.exp(x - np.max(x))
    return e / np.sum(e)


def softmax_backward(out: Tensor, grad: Tensor) -> Tensor:
    """Backward through softmax given its forward output."""
    return out * (grad - np.dot(grad, out))


def similarity_loss_grad(shared_a: Tensor, shared_v: Tensor):
    a = np.atleast_2d(np.asarray(shared_a, dtype=np.float64))
    v = np.atleast_2d(np.asarray(shared_v, dtype=np.float64))
    diff = (a - v) / a.shape[0]
    da = diff.reshape(np.shape(shared_a))
    return da, -da


def _kl_base2_grad(p_feat: Tensor, q_feat: Tensor):
    p_raw = softmax(np.asarray(p_feat, dtype=np.float64))
    q_raw = softmax(np.asarray(q_feat, dtype=np.float64))
    p = np.maximum(p_raw, DIST_FLOOR)
    q = np.maximum(q_raw, DIST_FLOOR)
    dp = ((np.log(p) - np.log(q)) / LN2 + 1.0 / LN2) * (p_raw > DIST_FLOOR)
    dq = -(p / q) / LN2 * (q_raw > DIST_FLOOR)
    return softmax_backward(p_raw, dp), softmax_backward(q_raw, dq)


def difference_loss_grad(private_a, shared_a, private_v, shared_v):
    d_pa, d_sa = _kl_base2_grad(np.asarray(private_a), np.asarray(shared_a))
    d_pv, d_sv = _kl_base2_grad(np.asarray(private_v), np.asarray(shared_v))
    return d_pa, d_sa, d_pv, d_sv
