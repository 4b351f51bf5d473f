"""Two feature-representation branches over the field-embedding matrix.

The self-attention branch runs per-head scaled dot-product attention across
the field rows and flattens the result into one internal-representation
vector.  The crossing branch forms elementwise products of every unordered
field pair, scores each product with a small ReLU attention network, and
pools the products by softmax weight into a single vector.

Both branches run on (B, n, d) batches, with every contraction a BLAS
product: `@` on the batch flattened to 2-D rows, or on stacked 3-D operands
for the per-head (B, n, n) attention products.  The self-attention query,
key, value and residual maps run as one GEMM over their concatenated
weights, and their gradients are column slices of one GEMM.

`ac_attention` scores one example's pairs with einsum instead, and takes its
softmax denominator and pooled sum by exact (correctly rounded) summation,
so its pooled vector does not depend on pair enumeration order: permuting
the fields leaves it bitwise unchanged.  A BLAS product gives no such
guarantee, since the rounding of a row can depend on where the row sits in
the operand.  The batch path keeps plain vectorized reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DomainError
from .numerics import (
    DimensionError,
    Rng,
    Tensor,
    relu,
    softmax_rows,
    softmax_rows_backward,
)


@dataclass
class MhsaParams:
    """Per-head query/key/value projections plus output and residual maps."""

    wq: list  # H arrays (d, d_k)
    wk: list
    wv: list
    wo: Tensor  # (H*d_k, d)
    wres: Tensor  # (d, d)

    @property
    def n_heads(self) -> int:
        return len(self.wq)

    @property
    def head_dim(self) -> int:
        return self.wq[0].shape[1]

    def named_tensors(self):
        for h in range(self.n_heads):
            yield f"mhsa.q{h}", self.wq[h]
            yield f"mhsa.k{h}", self.wk[h]
            yield f"mhsa.v{h}", self.wv[h]
        yield "mhsa.out", self.wo
        yield "mhsa.res", self.wres


@dataclass
class AcParams:
    """Attention network scoring each crossed pair: proj.T relu(weight@phi + bias)."""

    weight: Tensor  # (t, d)
    bias: Tensor  # (t,)
    proj: Tensor  # (t,)

    def named_tensors(self):
        yield "ac.weight", self.weight
        yield "ac.bias", self.bias
        yield "ac.proj", self.proj


def _glorot(rng: Rng, fan_in: int, fan_out: int, shape) -> Tensor:
    return rng.normal(shape, std=math.sqrt(2.0 / (fan_in + fan_out)))


def init_mhsa(dim: int, n_heads: int, rng: Rng, attn_dim: int = None) -> MhsaParams:
    if attn_dim is None:
        attn_dim = dim
    if n_heads < 1 or attn_dim % n_heads != 0:
        raise DimensionError(f"attention width {attn_dim} not divisible into {n_heads} heads")
    dk = attn_dim // n_heads
    wq = [_glorot(rng, dim, dk, (dim, dk)) for _ in range(n_heads)]
    wk = [_glorot(rng, dim, dk, (dim, dk)) for _ in range(n_heads)]
    wv = [_glorot(rng, dim, dk, (dim, dk)) for _ in range(n_heads)]
    wo = _glorot(rng, attn_dim, dim, (attn_dim, dim))
    wres = _glorot(rng, dim, dim, (dim, dim))
    return MhsaParams(wq=wq, wk=wk, wv=wv, wo=wo, wres=wres)


def init_ac(dim: int, hidden: int, rng: Rng) -> AcParams:
    return AcParams(
        weight=_glorot(rng, dim, hidden, (hidden, dim)),
        bias=np.zeros(hidden),
        proj=rng.normal((hidden,), std=0.1),
    )


# ---------------------------------------------------------------------------
# pairwise crossing


def pair_indices(n: int):
    """Index arrays (iu, ju) enumerating unordered pairs i<j lexicographically."""
    if n < 2:
        raise DomainError(f"need at least 2 fields to cross, got {n}")
    iu, ju = np.triu_indices(n, k=1)
    return iu.astype(np.int64), ju.astype(np.int64)


def cross_pairs(emb: Tensor):
    """All elementwise products of distinct embedding rows, as (i, j, product) triples."""
    iu, ju = pair_indices(emb.shape[0])
    prods = emb[iu] * emb[ju]
    return [(int(i), int(j), prods[p]) for p, (i, j) in enumerate(zip(iu, ju))]


def _pair_scores(phi: Tensor, params: AcParams):
    """(z, relu(z), logits) of the scoring network over (B, m, d) pair products."""
    B, m, d = phi.shape
    z = phi.reshape(B * m, d) @ params.weight.T
    z += params.bias
    u = relu(z)
    return z.reshape(B, m, -1), u.reshape(B, m, -1), (u @ params.proj).reshape(B, m)


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


@dataclass
class AcTrace:
    iu: np.ndarray
    ju: np.ndarray
    phi: Tensor  # (B, m, d) pair products
    z: Tensor  # (B, m, t) pre-activation scores
    u: Tensor  # (B, m, t) relu(z)
    weights: Tensor  # (B, m) softmax over pair logits
    pooled: Tensor  # (B, d)


# ---------------------------------------------------------------------------
# multi-head self-attention


@dataclass
class MhsaTrace:
    emb: Tensor  # (B, n, d)
    q: list  # per head (B, n, d_k)
    k: list
    v: list
    att: list  # per head (B, n, n) softmax rows
    concat: Tensor  # (B, n, H*d_k)
    pre: Tensor  # (B, n, d) before relu
    out: Tensor  # (B, n, d)


def _fused_projection(params: MhsaParams) -> Tensor:
    """(d, 3*H*d_k + d): every head's query, then key, then value map, then the residual."""
    return np.concatenate([*params.wq, *params.wk, *params.wv, params.wres], axis=1)


def self_attention_batch(emb: Tensor, params: MhsaParams) -> MhsaTrace:
    """Internal representation: relu(attention(emb) + residual), per field row.

    The query, key, value and residual maps run as one GEMM; the per-head
    q, k and v in the trace are column slices of its output.
    """
    B, n, d = emb.shape
    H, dk = params.n_heads, params.head_dim
    A = H * dk
    scale = 1.0 / math.sqrt(dk)
    proj = (emb.reshape(B * n, d) @ _fused_projection(params)).reshape(B, n, 3 * A + d)
    qkv = proj[:, :, : 3 * A].reshape(B, n, 3, H, dk)
    qs, ks, vs, atts, heads = [], [], [], [], []
    for h in range(H):
        q, k, v = qkv[:, :, 0, h], qkv[:, :, 1, h], qkv[:, :, 2, h]
        att = softmax_rows((q @ k.transpose(0, 2, 1)) * scale)
        heads.append(att @ v)
        qs.append(q)
        ks.append(k)
        vs.append(v)
        atts.append(att)
    concat = np.concatenate(heads, axis=2)
    pre = (concat.reshape(B * n, A) @ params.wo).reshape(B, n, d) + proj[:, :, 3 * A :]
    return MhsaTrace(emb=emb, q=qs, k=ks, v=vs, att=atts, concat=concat, pre=pre,
                     out=relu(pre))


# ---------------------------------------------------------------------------
# both branches


@dataclass
class BatchBranchTrace:
    mhsa: MhsaTrace
    ac: AcTrace


def branches_forward_batch(emb: Tensor, mhsa_params: MhsaParams, ac_params: AcParams) -> BatchBranchTrace:
    mhsa = self_attention_batch(emb, mhsa_params)
    iu, ju = pair_indices(emb.shape[1])
    phi = emb[:, iu, :] * emb[:, ju, :]
    z, u, logits = _pair_scores(phi, ac_params)
    weights = softmax_rows(logits)
    pooled = (weights[:, None, :] @ phi)[:, 0, :]
    return BatchBranchTrace(
        mhsa=mhsa, ac=AcTrace(iu=iu, ju=ju, phi=phi, z=z, u=u, weights=weights, pooled=pooled),
    )


def branches_backward_batch(trace: BatchBranchTrace, mhsa_params: MhsaParams,
                            ac_params: AcParams, d_internal: Tensor, d_pooled: Tensor):
    """Batch gradients; parameter grads are summed over the batch axis.

    d_internal: (B, n*d) upstream on the flattened internal representation.
    d_pooled: (B, d) upstream on the pooled cross vector.
    Returns (mhsa grads, ac grads, d_emb (B, n, d)).
    """
    mt, at = trace.mhsa, trace.ac
    emb = mt.emb
    B, n, d = emb.shape
    H, dk = mhsa_params.n_heads, mhsa_params.head_dim
    A = H * dk
    scale = 1.0 / math.sqrt(dk)

    # upstream of the fused projection, laid out as its columns
    d_proj = np.empty((B, n, 3 * A + d))
    d_qkv = d_proj[:, :, : 3 * A].reshape(B, n, 3, H, dk)
    d_pre = d_proj[:, :, 3 * A :]
    np.multiply(d_internal.reshape(B, n, d), mt.pre > 0, out=d_pre)
    d_wo = mt.concat.reshape(B * n, A).T @ d_pre.reshape(B * n, d)
    d_concat = (d_pre.reshape(B * n, d) @ mhsa_params.wo.T).reshape(B, n, A)
    for h in range(H):
        d_head = d_concat[:, :, h * dk : (h + 1) * dk]
        att, q, k, v = mt.att[h], mt.q[h], mt.k[h], mt.v[h]
        d_scores = softmax_rows_backward(att, d_head @ v.transpose(0, 2, 1)) * scale
        d_qkv[:, :, 0, h] = d_scores @ k
        d_qkv[:, :, 1, h] = d_scores.transpose(0, 2, 1) @ q
        d_qkv[:, :, 2, h] = att.transpose(0, 2, 1) @ d_head
    d_proj = d_proj.reshape(B * n, 3 * A + d)
    g = emb.reshape(B * n, d).T @ d_proj  # every projection's gradient, as columns
    g_qkv = g[:, : 3 * A].reshape(d, 3, H, dk)
    mg = MhsaParams(wq=[g_qkv[:, 0, h] for h in range(H)], wk=[g_qkv[:, 1, h] for h in range(H)],
                    wv=[g_qkv[:, 2, h] for h in range(H)], wo=d_wo, wres=g[:, 3 * A :])
    d_emb = (d_proj @ _fused_projection(mhsa_params).T).reshape(B, n, d)

    m = len(at.iu)
    t = ac_params.weight.shape[0]
    d_weights = (at.phi @ d_pooled[:, :, None])[:, :, 0]
    d_logits = softmax_rows_backward(at.weights, d_weights)
    dz = np.multiply.outer(d_logits.reshape(B * m), ac_params.proj)
    dz *= at.z.reshape(B * m, t) > 0
    ag = AcParams(
        weight=dz.T @ at.phi.reshape(B * m, d),
        bias=np.ones(B * m) @ dz,
        proj=d_logits.reshape(B * m) @ at.u.reshape(B * m, t),
    )
    d_phi = (dz @ ac_params.weight).reshape(B, m, d)
    d_phi += at.weights[:, :, None] * d_pooled[:, None, :]
    for p in range(m):
        i, j = at.iu[p], at.ju[p]
        d_emb[:, i, :] += d_phi[:, p, :] * emb[:, j, :]
        d_emb[:, j, :] += d_phi[:, p, :] * emb[:, i, :]
    return mg, ag, d_emb
