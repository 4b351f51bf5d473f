"""Two feature-representation branches over the field-embedding matrix.

The self-attention branch runs per-head scaled dot-product attention across
the field rows and flattens the result into one internal-representation
vector.  The crossing branch forms elementwise products of every unordered
field pair, scores each product with a small ReLU attention network, and
pools the products by softmax weight into a single vector.

Both branches run on (B, n, d) batches, with every contraction a BLAS
product: `@` on the batch flattened to 2-D rows, or on (batch, head) stacks
for the (B, H, n, n) attention products, so heads are a tensor axis, not a
loop.  The self-attention query, key, value and residual maps are stored as
the one (d, 3*H*d_k + d) input map that runs them as one GEMM; their
gradient is one GEMM too, and each named map is a column view of it.

Neither branch needs the other until their outputs meet, so they run on two
threads: the self-attention forward, and then its backward and the crossing
parameter gradients, run on one worker thread while the calling thread runs
the rest of the crossing.  numpy releases the interpreter lock inside its
products, so the halves overlap.  The crossing's pair scatter adds into the
self-attention's d_emb after the worker is done, so every sum keeps the
order it has when the branches run in turn, and the results are the same
bits.  The scatter runs in n-1 rounds of two slab updates, not two updates
per pair, and each field still takes its terms in pair order.

The tests check the crossing branch against a one-example form of it that
scores by einsum and sums exactly, so its pooled vector does not depend on
the order of the pairs.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import os
import threading
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import DomainError
from .numerics import (
    DimensionError,
    Tensor,
    relu,
    softmax_rows,
    softmax_rows_backward,
)


@dataclass
class MhsaParams:
    """Self-attention maps, stored as the one GEMM that runs them.

    `w_in` holds every head's query columns, then every head's key columns,
    then every head's value columns, then the (d, d) residual map.
    `named_tensors` yields each map as a column view of it.
    """

    w_in: Tensor  # (d, 3*H*d_k + d)
    wo: Tensor  # (H*d_k, d)
    n_heads: int

    @property
    def head_dim(self) -> int:
        return self.wo.shape[0] // self.n_heads

    def named_tensors(self):
        dk = self.head_dim
        A = self.n_heads * dk
        for h in range(self.n_heads):
            for tag, base in (("q", 0), ("k", A), ("v", 2 * A)):
                yield f"mhsa.{tag}{h}", self.w_in[:, base + h * dk : base + (h + 1) * dk]
        yield "mhsa.out", self.wo
        yield "mhsa.res", self.w_in[:, 3 * A :]


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


def _glorot(fan_in: int, fan_out: int) -> float:
    return math.sqrt(2.0 / (fan_in + fan_out))


def init_mhsa(dim: int, n_heads: int, blocks, attn_dim: int = None) -> MhsaParams:
    if attn_dim is None:
        attn_dim = dim
    if n_heads < 1 or attn_dim % n_heads != 0:
        raise DimensionError(f"attention width {attn_dim} not divisible into {n_heads} heads")
    dk = attn_dim // n_heads
    A = n_heads * dk
    w_in = blocks.take((dim, 3 * A + dim))
    # the seeded draw order: every q, then every k, then every v, then wo, then res
    for col in range(0, 3 * A, dk):
        blocks.fill(w_in[:, col : col + dk], _glorot(dim, dk))
    wo = blocks.take((A, dim), std=_glorot(A, dim))
    blocks.fill(w_in[:, 3 * A :], _glorot(dim, dim))
    return MhsaParams(w_in=w_in, wo=wo, n_heads=n_heads)


def init_ac(dim: int, hidden: int, blocks) -> AcParams:
    return AcParams(
        weight=blocks.take((hidden, dim), std=_glorot(dim, hidden)),
        bias=blocks.take((hidden,)),
        proj=blocks.take((hidden,), std=0.1),
    )


# ---------------------------------------------------------------------------
# pairwise crossing


@functools.lru_cache(maxsize=None)
def pair_indices(n: int):
    """Index arrays (iu, ju) enumerating unordered pairs i<j lexicographically.

    Computed once per n; the arrays are shared, so they are read-only.
    """
    if n < 2:
        raise DomainError(f"need at least 2 fields to cross, got {n}")
    iu, ju = (a.astype(np.int64) for a in np.triu_indices(n, k=1))
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


@functools.lru_cache(maxsize=None)
def _scatter_plan(n: int):
    """Per round s < n-1: the pair block (s, s+1..n-1), as a slice, and the
    pair column (0..s, s+1), as indices.

    Round s gives fields after s their term with partner s, and fields up to
    s their term with partner s+1, so the rounds give each field its terms in
    increasing partner order.
    """
    iu, ju = pair_indices(n)
    pos = np.zeros((n, n), dtype=np.int64)
    pos[iu, ju] = np.arange(iu.size)
    plan = []
    for s in range(n - 1):
        column = pos[: s + 1, s + 1].copy()
        column.flags.writeable = False
        plan.append((slice(int(pos[s, s + 1]), int(pos[s, n - 1]) + 1), column))
    return tuple(plan)


def _pair_scores(phi: Tensor, params: AcParams):
    """(z, relu(z), logits) of the scoring network over (B, m, d) pair products."""
    B, m, d = phi.shape
    z = phi.reshape(B * m, d) @ params.weight.T
    z += params.bias
    u = relu(z)
    return z.reshape(B, m, -1), u.reshape(B, m, -1), (u @ params.proj).reshape(B, m)


@dataclass
class AcTrace:
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
    q: Tensor  # (B, H, n, d_k)
    k: Tensor
    v: Tensor
    att: Tensor  # (B, H, n, n) softmax rows
    concat: Tensor  # (B, n, H*d_k)
    pre: Tensor  # (B, n, d) before relu
    out: Tensor  # (B, n, d)


def self_attention_batch(emb: Tensor, params: MhsaParams) -> MhsaTrace:
    """Internal representation: relu(attention(emb) + residual), per field row.

    The query, key, value and residual maps run as one GEMM; q, k and v in
    the trace are (B, H, n, d_k) views of its output.
    """
    B, n, d = emb.shape
    H, dk = params.n_heads, params.head_dim
    A = H * dk
    scale = 1.0 / math.sqrt(dk)
    proj = (emb.reshape(B * n, d) @ params.w_in).reshape(B, n, 3 * A + d)
    q, k, v = proj[:, :, : 3 * A].reshape(B, n, 3, H, dk).transpose(2, 0, 3, 1, 4)
    att = softmax_rows((q @ k.swapaxes(2, 3)) * scale)
    concat = (att @ v).transpose(0, 2, 1, 3).reshape(B, n, A)
    pre = (concat.reshape(B * n, A) @ params.wo).reshape(B, n, d) + proj[:, :, 3 * A :]
    return MhsaTrace(emb=emb, q=q, k=k, v=v, att=att, concat=concat, pre=pre, out=relu(pre))


# ---------------------------------------------------------------------------
# the branch worker: one thread beside the caller's


_worker = None
_worker_lock = threading.Lock()


def _forget_worker():
    # a forked child has the pool object but not its thread
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


@contextlib.contextmanager
def _beside(fn, *args):
    """Run fn(*args) on the branch worker while the block runs; yield its future.

    The task runs in a copy of the caller's context, so the caller's
    `np.errstate` holds on the worker too.  The block does not exit before
    the task has finished, even when the block raises.
    """
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="arec-branch")
        pool = _worker
    future = pool.submit(contextvars.copy_context().run, fn, *args)
    try:
        yield future
    finally:
        futures.wait([future])


# ---------------------------------------------------------------------------
# both branches


@dataclass
class BatchBranchTrace:
    mhsa: MhsaTrace
    ac: AcTrace


def branches_forward_batch(emb: Tensor, mhsa_params: MhsaParams, ac_params: AcParams) -> BatchBranchTrace:
    iu, ju = pair_indices(emb.shape[1])
    with _beside(self_attention_batch, emb, mhsa_params) as mhsa:
        # np.take on the middle axis, not emb[:, iu, :], which is numpy's slow path
        phi = np.take(emb, iu, axis=1) * np.take(emb, ju, axis=1)
        z, u, logits = _pair_scores(phi, ac_params)
        weights = softmax_rows(logits)
        pooled = (weights[:, None, :] @ phi)[:, 0, :]
    return BatchBranchTrace(
        mhsa=mhsa.result(),
        ac=AcTrace(phi=phi, z=z, u=u, weights=weights, pooled=pooled),
    )


def self_attention_backward_batch(mt: MhsaTrace, params: MhsaParams, d_internal: Tensor,
                                  out: MhsaParams) -> Tensor:
    """Self-attention grads, summed over the batch, into `out`; returns d_emb (B, n, d).

    d_internal: (B, n*d) upstream on the flattened internal representation.
    """
    emb = mt.emb
    B, n, d = emb.shape
    H, dk = params.n_heads, params.head_dim
    A = H * dk
    scale = 1.0 / math.sqrt(dk)

    # upstream of the fused projection, laid out as its columns
    d_proj = np.empty((B, n, 3 * A + d))
    d_q, d_k, d_v = d_proj[:, :, : 3 * A].reshape(B, n, 3, H, dk).transpose(2, 0, 3, 1, 4)
    d_pre = d_proj[:, :, 3 * A :]
    np.multiply(d_internal.reshape(B, n, d), mt.pre > 0, out=d_pre)
    np.matmul(mt.concat.reshape(B * n, A).T, d_pre.reshape(B * n, d), out=out.wo)
    d_concat = (d_pre.reshape(B * n, d) @ params.wo.T).reshape(B, n, H, dk)
    d_heads = d_concat.transpose(0, 2, 1, 3)  # (B, H, n, d_k)
    d_scores = softmax_rows_backward(mt.att, d_heads @ mt.v.swapaxes(2, 3)) * scale
    d_q[...] = d_scores @ mt.k
    d_k[...] = d_scores.swapaxes(2, 3) @ mt.q
    d_v[...] = mt.att.swapaxes(2, 3) @ d_heads
    d_proj = d_proj.reshape(B * n, 3 * A + d)
    np.matmul(emb.reshape(B * n, d).T, d_proj, out=out.w_in)
    return (d_proj @ params.w_in.T).reshape(B, n, d)


def _crossing_param_grads(at: AcTrace, dz: Tensor, d_logits: Tensor, out: AcParams) -> None:
    B, m, d = at.phi.shape
    np.matmul(dz.T, at.phi.reshape(B * m, d), out=out.weight)
    np.matmul(np.ones(B * m), dz, out=out.bias)
    np.matmul(d_logits.reshape(B * m), at.u.reshape(B * m, -1), out=out.proj)


def _scatter_pairs(d_emb: Tensor, d_phi: Tensor, emb: Tensor) -> None:
    """Add each pair term d_phi[:, (i, j)] * emb[:, j] into d_emb[:, i], and
    its mirror into d_emb[:, j], in place: each field takes its terms in
    increasing partner order, as a loop over the pairs in order adds them."""
    for s, (block, column) in enumerate(_scatter_plan(emb.shape[1])):
        d_emb[:, s + 1 :] += d_phi[:, block] * emb[:, s, None]
        d_emb[:, : s + 1] += np.take(d_phi, column, axis=1) * emb[:, s + 1, None]


def branches_backward_batch(trace: BatchBranchTrace, mhsa_params: MhsaParams,
                            ac_params: AcParams, d_internal: Tensor, d_pooled: Tensor, *,
                            out: tuple) -> Tensor:
    """Batch gradients; parameter grads are summed over the batch axis.

    d_internal: (B, n*d) upstream on the flattened internal representation.
    d_pooled: (B, d) upstream on the pooled cross vector.
    out: the (mhsa, ac) gradient containers, overwritten.
    Returns d_emb (B, n, d).
    """
    at = trace.ac
    emb = trace.mhsa.emb
    B, m, d = at.phi.shape
    t = ac_params.weight.shape[0]
    g_mhsa, g_ac = out
    with _beside(self_attention_backward_batch, trace.mhsa, mhsa_params, d_internal,
                 g_mhsa) as mhsa:
        d_weights = (at.phi @ d_pooled[:, :, None])[:, :, 0]
        d_logits = softmax_rows_backward(at.weights, d_weights)
        dz = np.multiply.outer(d_logits.reshape(B * m), ac_params.proj)
        dz *= at.z.reshape(B * m, t) > 0
        with _beside(_crossing_param_grads, at, dz, d_logits, g_ac) as ac:
            d_phi = (dz @ ac_params.weight).reshape(B, m, d)
            d_phi += at.weights[:, :, None] * d_pooled[:, None, :]
            d_emb = mhsa.result()
            _scatter_pairs(d_emb, d_phi, emb)
    ac.result()  # re-raises the crossing task's exception, if it raised
    return d_emb
