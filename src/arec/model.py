"""Predictor assembly: embeddings, both representation branches, and a deep
MLP combined into one logit, plus FM and DeepFM baselines sharing the same
data pipeline and embedding machinery.  DeepFM is the FM model with a deep
MLP over its flattened factor embeddings, so both run one forward/backward.

Every model kind has one implementation: a columnar batch forward and its
backward, which the trainer, the evaluator and the gradient checks all run;
one example is scored as a one-row batch.  Each model's tensors are views of
one flat buffer, whose `Layout` init works out from the schema and the config
before it draws.  A gradient container is the parameter dataclass over
another buffer of that layout, and only `Layout` builds one.  Every backward
overwrites all of its required `out`, its part of the container: a part's
backward returns only the gradient on its input, and a model's returns `out`.
So the trainer reuses one container per fit, and optimizer code can walk
(name, tensor) pairs, or the flat buffer, without caring which model it
updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FeatureSchema
from .embedding import (
    Columnar,
    EmbeddingParams,
    embed_batch,
    embed_batch_backward,
    init_embedding,
)
from .interaction import (
    AcParams,
    MhsaParams,
    branches_forward_batch,
    branches_backward_batch,
    init_ac,
    init_mhsa,
)
from .numerics import Layout, Rng, Tensor, relu, sigmoid

MODES = ("shallow", "deep", "combined")


# ---------------------------------------------------------------------------
# deep MLP


@dataclass
class DeepParams:
    """Fully connected stack; hidden layers ReLU, final layer linear scalar."""

    layers: list  # [(w (out, in), b (out,)), ...]

    def named_tensors(self):
        for l, (w, b) in enumerate(self.layers):
            yield f"deep.w{l}", w
            yield f"deep.b{l}", b

    def widest(self) -> int:
        """The largest layer width, input included."""
        return max(max(w.shape) for w, _ in self.layers)


def init_deep(in_dim: int, hidden, blocks) -> DeepParams:
    widths = [in_dim, *hidden, 1]
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        w = blocks.take((fan_out, fan_in), std=math.sqrt(2.0 / (fan_in + fan_out)))
        layers.append((w, blocks.take((fan_out,))))
    return DeepParams(layers=layers)


@dataclass
class DeepTrace:
    inputs: list  # activation entering each layer
    pres: list  # pre-activation of each layer


def deep_forward_batch(acts: Tensor, params: DeepParams):
    a = acts
    inputs, pres = [], []
    last = len(params.layers) - 1
    for l, (w, b) in enumerate(params.layers):
        inputs.append(a)
        z = a @ w.T + b
        pres.append(z)
        a = z if l == last else relu(z)
    return a[:, 0], DeepTrace(inputs=inputs, pres=pres)


def deep_backward_batch(trace: DeepTrace, params: DeepParams, d_logits: Tensor, *,
                        out: DeepParams) -> Tensor:
    """Layer grads into `out`; returns the gradient on the input."""
    d = d_logits[:, None]
    last = len(params.layers) - 1
    for l in range(last, -1, -1):
        w, _ = params.layers[l]
        g_w, g_b = out.layers[l]
        if l != last:
            d = d * (trace.pres[l] > 0)
        np.matmul(d.T, trace.inputs[l], out=g_w)
        np.sum(d, axis=0, out=g_b)
        d = d @ w
    return d


# ---------------------------------------------------------------------------
# main two-branch model


@dataclass
class ModelParams:
    embedding: EmbeddingParams
    mhsa: MhsaParams
    ac: AcParams
    w_internal: Tensor  # (n_fields * d,); None when mode == "deep", as are the two below
    w_cross: Tensor  # (d,)
    bias: Tensor  # (1,)
    deep: DeepParams  # None when mode == "shallow"
    first_order: EmbeddingParams  # optional linear term, None by default
    flat: Tensor = None  # the buffer every tensor is a view of
    layout: Layout = None

    def named_tensors(self):
        yield from self.embedding.named_tensors()
        yield from self.mhsa.named_tensors()
        yield from self.ac.named_tensors()
        if self.w_internal is not None:
            yield "shallow.internal", self.w_internal
            yield "shallow.cross", self.w_cross
            yield "shallow.bias", self.bias
        if self.deep is not None:
            yield from self.deep.named_tensors()
        if self.first_order is not None:
            for i, t in enumerate(self.first_order.tables):
                yield f"fo.f{i}", t

    def row_floats(self) -> int:
        """Floats per row of the widest forward intermediate: the (m, t) pair
        scores, the fused self-attention projection or a deep layer."""
        n = self.embedding.n_fields
        widths = [n * (n - 1) // 2 * self.ac.weight.shape[0], n * self.mhsa.w_in.shape[1]]
        if self.deep is not None:
            widths.append(self.deep.widest())
        return max(widths)


def init_model(schema: FeatureSchema, dim: int, rng: Rng, *, heads: int = 2,
               ac_hidden: int = 32, deep_hidden=(64, 64), mode: str = "combined",
               first_order: bool = False, attn_dim: int = None) -> ModelParams:
    """The model over one zeroed buffer, drawn from `rng` (with None, left zero)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    n = schema.n_fields

    def build(blocks):
        # blocks are taken, and drawn, in the seeded order
        emb = init_embedding(schema, dim, blocks)
        mhsa = init_mhsa(dim, heads, blocks, attn_dim=attn_dim)
        ac = init_ac(dim, ac_hidden, blocks)
        deep = None if mode == "shallow" else init_deep(n * dim + dim, deep_hidden, blocks)
        fo = init_embedding(schema, 1, blocks) if first_order else None
        shallow = [None] * 3 if mode == "deep" else [
            blocks.take((n * dim,), std=0.1), blocks.take((dim,), std=0.1), blocks.take((1,))]
        return ModelParams(emb, mhsa, ac, *shallow, deep=deep, first_order=fo)

    return Layout(build).zeros(rng)


@dataclass
class BatchTrace:
    col: Columnar
    emb: Tensor
    branch: object
    internal: Tensor  # (B, n*d)
    crossed: Tensor  # (B, d)
    deep: DeepTrace


def forward_batch(col: Columnar, params: ModelParams):
    emb = embed_batch(col, params.embedding)
    B, n, dim = emb.shape
    btrace = branches_forward_batch(emb, params.mhsa, params.ac)
    internal = btrace.mhsa.out.reshape(B, n * dim)
    crossed = btrace.ac.pooled
    logits = np.zeros(B)
    if params.w_internal is not None:
        logits += internal @ params.w_internal + crossed @ params.w_cross + params.bias[0]
    deep_trace = None
    if params.deep is not None:
        deep_logits, deep_trace = deep_forward_batch(
            np.concatenate([internal, crossed], axis=1), params.deep
        )
        logits += deep_logits
    if params.first_order is not None:
        logits += embed_batch(col, params.first_order).sum(axis=(1, 2))
    probs = sigmoid(logits)
    trace = BatchTrace(col=col, emb=emb, branch=btrace, internal=internal,
                       crossed=crossed, deep=deep_trace)
    return probs, logits, trace


def backward_batch(trace: BatchTrace, params: ModelParams, d_logits: Tensor, *,
                   out: ModelParams) -> ModelParams:
    """Gradients, overwriting all of `out`, which it returns."""
    B, n, dim = trace.emb.shape
    d_internal = np.zeros_like(trace.internal)
    d_crossed = np.zeros_like(trace.crossed)
    if params.w_internal is not None:
        np.matmul(d_logits, trace.internal, out=out.w_internal)
        np.matmul(d_logits, trace.crossed, out=out.w_cross)
        np.sum(d_logits, keepdims=True, out=out.bias)
        d_internal += d_logits[:, None] * params.w_internal[None, :]
        d_crossed += d_logits[:, None] * params.w_cross[None, :]
    if params.deep is not None:
        d_a0 = deep_backward_batch(trace.deep, params.deep, d_logits, out=out.deep)
        d_internal += d_a0[:, : n * dim]
        d_crossed += d_a0[:, n * dim :]
    d_emb = branches_backward_batch(trace.branch, params.mhsa, params.ac, d_internal, d_crossed,
                                    out=(out.mhsa, out.ac))
    embed_batch_backward(trace.col, params.embedding, d_emb, out=out.embedding)
    if params.first_order is not None:
        up = np.broadcast_to(d_logits[:, None, None], (B, n, 1))
        embed_batch_backward(trace.col, params.first_order, up, out=out.first_order)
    return out


# ---------------------------------------------------------------------------
# FM and DeepFM baselines


@dataclass
class FmParams:
    """FM; with `deep` set, DeepFM: an MLP over the flattened factor embeddings."""

    bias: Tensor  # (1,)
    first_order: EmbeddingParams  # dim 1
    factors: EmbeddingParams  # dim d
    deep: DeepParams = None
    flat: Tensor = None  # the buffer every tensor is a view of
    layout: Layout = None

    def named_tensors(self):
        yield "fm.bias", self.bias
        for i, t in enumerate(self.first_order.tables):
            yield f"fm.w.f{i}", t
        for i, t in enumerate(self.factors.tables):
            yield f"fm.v.f{i}", t
        if self.deep is not None:
            yield from self.deep.named_tensors()

    def row_floats(self) -> int:
        """Floats per row of the widest forward intermediate: the (n, d)
        factor embeddings or a deep layer."""
        width = self.factors.n_fields * self.factors.dim
        return width if self.deep is None else max(width, self.deep.widest())


def init_fm(schema: FeatureSchema, dim: int, rng: Rng, *, deep_hidden=None) -> FmParams:
    """The model over one zeroed buffer, drawn from `rng` (with None, left zero)."""

    def build(blocks):
        bias = blocks.take((1,))
        first_order = init_embedding(schema, 1, blocks)
        factors = init_embedding(schema, dim, blocks)
        deep = None if deep_hidden is None else init_deep(schema.n_fields * dim, deep_hidden,
                                                           blocks)
        return FmParams(bias, first_order, factors, deep)

    return Layout(build).zeros(rng)


@dataclass
class FmBatchTrace:
    col: Columnar
    emb: Tensor
    deep: DeepTrace  # None without the MLP


def forward_batch_fm(col: Columnar, params: FmParams):
    emb = embed_batch(col, params.factors)
    B, n, dim = emb.shape
    s = emb.sum(axis=1)  # (B, d)
    second = 0.5 * (np.sum(s * s, axis=1) - np.sum(emb * emb, axis=(1, 2)))
    fo = embed_batch(col, params.first_order).sum(axis=(1, 2))
    logits = params.bias[0] + fo + second
    deep_trace = None
    if params.deep is not None:
        deep_logits, deep_trace = deep_forward_batch(emb.reshape(B, n * dim), params.deep)
        logits = logits + deep_logits
    probs = sigmoid(logits)
    return probs, logits, FmBatchTrace(col=col, emb=emb, deep=deep_trace)


def backward_batch_fm(trace: FmBatchTrace, params: FmParams, d_logits: Tensor, *,
                      out: FmParams) -> FmParams:
    """Gradients, overwriting all of `out`, which it returns."""
    B, n, dim = trace.emb.shape
    np.sum(d_logits, keepdims=True, out=out.bias)
    up = np.broadcast_to(d_logits[:, None, None], (B, n, 1))
    embed_batch_backward(trace.col, params.first_order, up, out=out.first_order)
    s = trace.emb.sum(axis=1)
    d_emb = d_logits[:, None, None] * (s[:, None, :] - trace.emb)
    if params.deep is not None:
        d_flat = deep_backward_batch(trace.deep, params.deep, d_logits, out=out.deep)
        d_emb = d_emb + d_flat.reshape(B, n, dim)
    embed_batch_backward(trace.col, params.factors, d_emb, out=out.factors)
    return out


# ---------------------------------------------------------------------------
# uniform dispatch for the trainer and CLI


@dataclass(frozen=True)
class ModelOps:
    init: object
    forward_batch: object
    backward_batch: object


_OPS = {
    "ours": ModelOps(init_model, forward_batch, backward_batch),
    "fm": ModelOps(lambda schema, dim, rng, **kw: init_fm(schema, dim, rng),
                   forward_batch_fm, backward_batch_fm),
    "deepfm": ModelOps(
        lambda schema, dim, rng, **kw: init_fm(schema, dim, rng,
                                               deep_hidden=kw.get("deep_hidden", (64, 64))),
        forward_batch_fm, backward_batch_fm),
}
MODEL_KINDS = tuple(_OPS)


def ops_for(kind: str) -> ModelOps:
    if kind not in _OPS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {sorted(_OPS)}")
    return _OPS[kind]
