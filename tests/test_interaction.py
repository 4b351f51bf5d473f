import contextlib
import itertools
import math
import threading
import warnings
from concurrent import futures

import numpy as np
import pytest

import arec.interaction as interaction
from arec.data import DomainError
from arec.interaction import (
    AcParams,
    branches_forward_batch,
    branches_backward_batch,
    init_ac,
    init_mhsa,
    pair_indices,
    self_attention_batch,
)
from arec.numerics import (
    DimensionError,
    Rng,
    relu,
    softmax_rows,
    softmax_rows_backward,
)

from helpers import FreshRng, nan_like
from oracle import (
    ac_attention,
    bmm,
    bmm_nt,
    bmm_tn,
    cross_pairs,
    finite_diff_grad,
    matmul,
    mm_nt,
    mm_tn,
    pair_scatter,
    rel_error,
    softmax,
)


def test_pair_count_matches_brute_force():
    for n in range(2, 21):
        iu, ju = pair_indices(n)
        pairs = list(zip(iu.tolist(), ju.tolist()))
        assert pairs == list(itertools.combinations(range(n), 2))
        assert len(pairs) == n * (n - 1) // 2


def test_pair_indices_are_shared_and_read_only():
    iu, ju = pair_indices(7)
    assert pair_indices(7)[0] is iu and pair_indices(7)[1] is ju
    with pytest.raises(ValueError):
        iu[0] = 3
    with pytest.raises(ValueError):
        ju[0] = 3


def test_slab_scatter_is_the_pair_loop_bit_for_bit():
    gen = np.random.default_rng(14)
    for n in range(2, 13):
        m = n * (n - 1) // 2
        for B in (1, 3, 64):
            emb = gen.standard_normal((B, n, 5)) * 10.0 ** gen.integers(-12, 12, (B, n, 5))
            d_phi = gen.standard_normal((B, m, 5)) * 10.0 ** gen.integers(-12, 12, (B, m, 5))
            start = gen.standard_normal((B, n, 5))
            got, want = start.copy(), start.copy()
            interaction._scatter_pairs(got, d_phi, emb)
            pair_scatter(want, d_phi, emb)
            assert got.tobytes() == want.tobytes(), (n, B)


def test_pairs_need_two_fields():
    with pytest.raises(DomainError):
        pair_indices(1)
    with pytest.raises(DomainError):
        cross_pairs(np.ones((1, 4)))


def test_cross_pairs_zero_row_annihilates():
    emb = Rng(0).normal((4, 3))
    emb[2] = 0.0
    for i, j, phi in cross_pairs(emb):
        if 2 in (i, j):
            assert np.all(phi == 0.0)
        else:
            assert np.array_equal(phi, emb[i] * emb[j])


def test_cross_pairs_identical_rows_square():
    emb = Rng(1).normal((2, 5))
    emb[1] = emb[0]
    (_, _, phi), = cross_pairs(emb)
    assert np.array_equal(phi, emb[0] ** 2)


def test_uniform_weights_for_identical_pairs():
    # three identical rows make all pair products equal
    emb = np.tile(Rng(2).normal((1, 4)), (3, 1))
    params = init_ac(4, 8, FreshRng(3))
    weights, pooled = ac_attention(cross_pairs(emb), params)
    assert np.max(np.abs(weights - 1.0 / 3.0)) < 1e-15
    assert np.max(np.abs(pooled - emb[0] ** 2)) < 1e-15


def test_zero_projection_gives_uniform_weights():
    emb = Rng(4).normal((5, 3))
    params = init_ac(3, 6, FreshRng(5))
    params.proj[:] = 0.0
    weights, _ = ac_attention(cross_pairs(emb), params)
    assert np.max(np.abs(weights - 0.1)) < 1e-15  # 10 pairs


def test_weights_are_a_distribution():
    gen = np.random.default_rng(6)
    for trial in range(25):
        n = int(gen.integers(2, 8))
        d = int(gen.integers(2, 6))
        emb = Rng(trial).normal((n, d))
        params = init_ac(d, int(gen.integers(1, 12)), FreshRng(trial + 50))
        weights, _ = ac_attention(cross_pairs(emb), params)
        assert np.all(weights >= 0.0)
        assert abs(weights.sum() - 1.0) <= 1e-10


def test_pooled_vector_direct_oracle():
    emb = Rng(7).normal((3, 4))
    params = init_ac(4, 5, FreshRng(8))
    weights, pooled = ac_attention(cross_pairs(emb), params)

    phis = [emb[i] * emb[j] for i, j in [(0, 1), (0, 2), (1, 2)]]
    logits = np.array([params.proj @ relu(params.weight @ f + params.bias) for f in phis])
    want_w = softmax(logits)
    want_p = sum(w * f for w, f in zip(want_w, phis))
    assert np.max(np.abs(weights - want_w)) < 1e-12
    assert np.max(np.abs(pooled - want_p)) < 1e-12


def test_attention_rejects_empty_pair_set():
    with pytest.raises(DomainError):
        ac_attention([], init_ac(3, 4, FreshRng(0)))


def test_mhsa_single_field():
    d = 4
    params = init_mhsa(d, 2, FreshRng(9))
    emb = Rng(10).normal((1, d))
    trace = self_attention_batch(emb[None], params)
    flat = trace.out[0].reshape(-1)
    assert np.array_equal(trace.att, np.ones((1, 2, 1, 1)))
    w = dict(params.named_tensors())
    concat = np.concatenate([emb @ w[f"mhsa.v{h}"] for h in range(2)], axis=1)
    want = relu(concat @ params.wo + emb @ w["mhsa.res"]).reshape(-1)
    assert np.max(np.abs(flat - want)) < 1e-12


def test_mhsa_equal_rows_give_uniform_attention():
    d = 6
    params = init_mhsa(d, 2, FreshRng(11))
    emb = np.tile(Rng(12).normal((1, d)), (4, 1))
    trace = self_attention_batch(emb[None], params)
    assert trace.att.shape == (1, 2, 4, 4)
    assert np.max(np.abs(trace.att - 0.25)) < 1e-12


def test_mhsa_per_head_loop_oracle():
    n, d, heads = 3, 4, 2
    params = init_mhsa(d, heads, FreshRng(13))
    emb = Rng(14).normal((n, d))
    flat = self_attention_batch(emb[None], params).out[0].reshape(-1)

    dk = d // heads
    w = dict(params.named_tensors())
    head_outs = []
    for h in range(heads):
        q = emb @ w[f"mhsa.q{h}"]
        k = emb @ w[f"mhsa.k{h}"]
        v = emb @ w[f"mhsa.v{h}"]
        out = np.zeros((n, dk))
        for i in range(n):
            scores = np.array([q[i] @ k[j] for j in range(n)]) / math.sqrt(dk)
            att = softmax(scores)
            out[i] = sum(att[j] * v[j] for j in range(n))
        head_outs.append(out)
    concat = np.concatenate(head_outs, axis=1)
    want = relu(concat @ params.wo + emb @ w["mhsa.res"]).reshape(-1)
    assert np.max(np.abs(flat - want)) < 1e-12
    assert flat.shape == (n * d,)


def test_mhsa_head_divisibility_enforced():
    with pytest.raises(DimensionError):
        init_mhsa(5, 2, FreshRng(0))
    with pytest.raises(DimensionError):
        init_mhsa(4, 0, FreshRng(0))
    p = init_mhsa(6, 3, FreshRng(0), attn_dim=12)
    assert p.head_dim == 4 and p.n_heads == 3


def test_pooled_cross_vector_permutation_invariant():
    # same pair set in a different enumeration order: exact same pooled vector
    gen = np.random.default_rng(15)
    for trial in range(10):
        n, d = int(gen.integers(3, 7)), int(gen.integers(2, 6))
        emb = Rng(trial).normal((n, d))
        params = init_ac(d, 8, FreshRng(trial + 30))
        perm = gen.permutation(n)
        _, pooled = ac_attention(cross_pairs(emb), params)
        _, pooled_perm = ac_attention(cross_pairs(emb[perm]), params)
        assert np.array_equal(pooled, pooled_perm)


def test_branch_outputs_shapes_and_weights():
    n, d = 5, 3
    mh = init_mhsa(d, 1, FreshRng(16))
    ac = init_ac(d, 4, FreshRng(17))
    emb = Rng(18).normal((n, d))
    trace = branches_forward_batch(emb[None], mh, ac)
    assert trace.mhsa.out[0].reshape(-1).shape == (n * d,)
    assert trace.ac.pooled[0].shape == (d,)
    assert trace.ac.weights[0].shape == (n * (n - 1) // 2,)
    assert abs(trace.ac.weights[0].sum() - 1.0) <= 1e-10


def _backward(trace, mh, ac, d_internal, d_pooled):
    """(mhsa grads, ac grads, d_emb): the branches' backward into NaN-filled containers."""
    mg, ag = nan_like(mh), nan_like(ac)
    d_emb = branches_backward_batch(trace, mh, ac, d_internal, d_pooled, out=(mg, ag))
    return mg, ag, d_emb


def test_branch_backward_zero_upstream():
    n, d = 4, 3
    mh = init_mhsa(d, 1, FreshRng(19))
    ac = init_ac(d, 4, FreshRng(20))
    emb = Rng(21).normal((n, d))
    trace = branches_forward_batch(emb[None], mh, ac)
    mg, ag, d_emb = _backward(trace, mh, ac, np.zeros((1, n * d)), np.zeros((1, d)))
    for _, t in mg.named_tensors():
        assert np.all(t == 0.0)
    for _, t in ag.named_tensors():
        assert np.all(t == 0.0)
    assert np.all(d_emb == 0.0)


def test_single_pair_product_rule():
    # with one pair the weight is identically 1, so d phi = upstream and
    # d e_0 = upstream * e_1, d e_1 = upstream * e_0 plus the mhsa path
    d = 3
    mh = init_mhsa(d, 1, FreshRng(22))
    ac = init_ac(d, 4, FreshRng(23))
    ac.proj[:] = 0.0  # keeps the weight path gradient-free
    emb = Rng(24).normal((2, d))
    trace = branches_forward_batch(emb[None], mh, ac)
    d_crossed = Rng(25).normal((d,))
    _, ag, d_emb = _backward(trace, mh, ac, np.zeros((1, 2 * d)), d_crossed[None])
    d_emb = d_emb[0]
    assert np.max(np.abs(d_emb[0] - d_crossed * emb[1])) < 1e-12
    assert np.max(np.abs(d_emb[1] - d_crossed * emb[0])) < 1e-12
    assert np.max(np.abs(ag.weight)) == 0.0


def _branch_objective(emb, mh, ac, gi, gc):
    trace = branches_forward_batch(emb[None], mh, ac)
    return float(np.dot(trace.mhsa.out[0].reshape(-1), gi) + np.dot(trace.ac.pooled[0], gc))


def test_branch_gradients_match_finite_differences():
    gen = np.random.default_rng(26)
    worst = 0.0
    for trial in range(50):
        n = int(gen.integers(2, 7))
        heads = int(gen.integers(1, 3))
        d = int(gen.integers(1, 5)) * heads  # keep divisible, d <= 8
        mh = init_mhsa(d, heads, FreshRng(trial))
        ac = init_ac(d, int(gen.integers(2, 9)), FreshRng(trial + 100))
        emb = Rng(trial + 200).normal((n, d))
        gi = Rng(trial + 300).normal((n * d,))
        gc = Rng(trial + 400).normal((d,))

        trace = branches_forward_batch(emb[None], mh, ac)
        mg, ag, d_emb = _backward(trace, mh, ac, gi[None], gc[None])
        d_emb = d_emb[0]
        analytic = dict(mg.named_tensors())
        analytic.update(ag.named_tensors())

        tensors = dict(mh.named_tensors())
        tensors.update(ac.named_tensors())
        for name, tensor in tensors.items():
            def obj(flat, tensor=tensor):
                saved = tensor.copy()
                tensor[...] = flat.reshape(tensor.shape)
                val = _branch_objective(emb, mh, ac, gi, gc)
                tensor[...] = saved
                return val

            fd = finite_diff_grad(obj, tensor.ravel()).reshape(tensor.shape)
            worst = max(worst, rel_error(analytic[name], fd))

        fd_emb = finite_diff_grad(
            lambda flat: _branch_objective(flat.reshape(emb.shape), mh, ac, gi, gc),
            emb.ravel(),
        ).reshape(emb.shape)
        worst = max(worst, rel_error(d_emb, fd_emb))
    assert worst <= 1e-4


def test_batched_branches_match_per_example():
    gen = np.random.default_rng(27)
    for trial in range(6):
        B = int(gen.integers(1, 6))
        n = int(gen.integers(2, 6))
        heads = int(gen.integers(1, 3))
        d = 2 * heads
        mh = init_mhsa(d, heads, FreshRng(trial))
        ac = init_ac(d, 5, FreshRng(trial + 10))
        emb = Rng(trial + 20).normal((B, n, d))

        btr = branches_forward_batch(emb, mh, ac)
        for b in range(B):
            one = branches_forward_batch(emb[b : b + 1], mh, ac)
            assert np.max(np.abs(btr.mhsa.out[b] - one.mhsa.out[0])) < 1e-12
            assert np.max(np.abs(btr.ac.pooled[b] - one.ac.pooled[0])) < 1e-12
            assert np.max(np.abs(btr.ac.weights[b] - one.ac.weights[0])) < 1e-12


def test_batched_backward_matches_per_example_sum():
    gen = np.random.default_rng(28)
    B, n, heads = 4, 4, 2
    d = 4
    mh = init_mhsa(d, heads, FreshRng(0))
    ac = init_ac(d, 6, FreshRng(1))
    emb = Rng(2).normal((B, n, d))
    gi = Rng(3).normal((B, n * d))
    gc = Rng(4).normal((B, d))

    btr = branches_forward_batch(emb, mh, ac)
    bmg, bag, bd_emb = _backward(btr, mh, ac, gi.reshape(B, n, d), gc)

    totals = {name: np.zeros_like(t) for p in (mh, ac) for name, t in p.named_tensors()}
    for b in range(B):
        trace = branches_forward_batch(emb[b : b + 1], mh, ac)
        mg, ag, d_emb = _backward(trace, mh, ac, gi[b : b + 1], gc[b : b + 1])
        for g in (mg, ag):
            for name, t in g.named_tensors():
                totals[name] += t
        assert np.max(np.abs(bd_emb[b] - d_emb[0])) < 1e-12
    for g in (bmg, bag):
        for name, got in g.named_tensors():
            assert np.max(np.abs(got - totals[name])) < 1e-12


def _einsum_branches(emb, mh, ac, d_internal, d_pooled):
    """Both branches, forward and backward, from the numerics einsum kernels only."""
    B, n, d = emb.shape
    H, dk = mh.n_heads, mh.head_dim
    scale = 1.0 / math.sqrt(dk)
    flat = emb.reshape(B * n, d)
    w = dict(mh.named_tensors())
    per_head, heads = [], []
    for h in range(H):
        q, k, v = (matmul(flat, w[f"mhsa.{tag}{h}"]).reshape(B, n, dk) for tag in "qkv")
        att = softmax_rows(bmm_nt(q, k) * scale)
        heads.append(bmm(att, v))
        per_head.append((q, k, v, att))
    concat = np.concatenate(heads, axis=2).reshape(B * n, H * dk)
    pre = (matmul(concat, mh.wo) + matmul(flat, w["mhsa.res"])).reshape(B, n, d)

    iu, ju = pair_indices(n)
    m = len(iu)
    phi = emb[:, iu, :] * emb[:, ju, :]
    z = mm_nt(phi.reshape(B * m, d), ac.weight) + ac.bias
    u = relu(z)
    weights = softmax_rows(matmul(u, ac.proj[:, None]).reshape(B, m))
    pooled = bmm(weights[:, None, :], phi)[:, 0, :]

    d_pre = (d_internal.reshape(B, n, d) * (pre > 0)).reshape(B * n, d)
    grads = {"mhsa.out": mm_tn(concat, d_pre), "mhsa.res": mm_tn(flat, d_pre)}
    d_emb = mm_nt(d_pre, w["mhsa.res"])
    d_concat = mm_nt(d_pre, mh.wo).reshape(B, n, H * dk)
    for h, (q, k, v, att) in enumerate(per_head):
        d_head = d_concat[:, :, h * dk : (h + 1) * dk]
        d_scores = softmax_rows_backward(att, bmm_nt(d_head, v)) * scale
        for tag, g in (("q", bmm(d_scores, k)), ("k", bmm_tn(d_scores, q)),
                       ("v", bmm_tn(att, d_head))):
            g = g.reshape(B * n, dk)
            grads[f"mhsa.{tag}{h}"] = mm_tn(flat, g)
            d_emb = d_emb + mm_nt(g, w[f"mhsa.{tag}{h}"])
    d_emb = d_emb.reshape(B, n, d)

    d_logits = softmax_rows_backward(weights, bmm(phi, d_pooled[:, :, None])[:, :, 0])
    dz = d_logits.reshape(B * m, 1) * ac.proj * (z > 0)
    grads["ac.weight"] = mm_tn(dz, phi.reshape(B * m, d))
    grads["ac.bias"] = mm_tn(dz, np.ones((B * m, 1)))[:, 0]
    grads["ac.proj"] = mm_tn(u, d_logits.reshape(B * m, 1))[:, 0]
    d_phi = matmul(dz, ac.weight).reshape(B, m, d) + weights[:, :, None] * d_pooled[:, None, :]
    for p, (i, j) in enumerate(zip(iu, ju)):
        d_emb[:, i] += d_phi[:, p] * emb[:, j]
        d_emb[:, j] += d_phi[:, p] * emb[:, i]
    return relu(pre), weights, pooled, grads, d_emb


def test_branches_match_einsum_oracle_at_training_shape():
    # attn_dim != dim, so every slice of the fused projection is exercised
    B, n, d, heads = 64, 7, 16, 2
    mh = init_mhsa(d, heads, FreshRng(40), attn_dim=24)
    ac = init_ac(d, 32, FreshRng(41))
    ac.bias[:] = Rng(42).normal((32,), std=0.1)
    emb = Rng(43).normal((B, n, d))
    d_internal = Rng(44).normal((B, n * d))
    d_pooled = Rng(45).normal((B, d))

    trace = branches_forward_batch(emb, mh, ac)
    mg, ag, d_emb = _backward(trace, mh, ac, d_internal, d_pooled)
    out, weights, pooled, grads, want_d_emb = _einsum_branches(emb, mh, ac, d_internal, d_pooled)

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    close(trace.mhsa.out, out)
    close(trace.ac.weights, weights)
    close(trace.ac.pooled, pooled)
    close(d_emb, want_d_emb)
    got = dict(mg.named_tensors())
    got.update(ag.named_tensors())
    assert sorted(got) == sorted(grads)
    for name, want in grads.items():
        close(got[name], want)


@contextlib.contextmanager
def _inline(fn, *args):
    """The branch worker's stand-in: the task runs at once, on the calling thread."""
    done = futures.Future()
    done.set_result(fn(*args))
    yield done


def _branch_arrays(trace, mg, ag, d_emb) -> dict:
    mt, at = trace.mhsa, trace.ac
    out = {f"mhsa.{k}": getattr(mt, k) for k in ("q", "k", "v", "att", "concat", "pre", "out")}
    out.update({f"ac.{k}": getattr(at, k) for k in ("phi", "z", "u", "weights", "pooled")})
    out.update({f"grad.{name}": t for g in (mg, ag) for name, t in g.named_tensors()})
    out["d_emb"] = d_emb
    return out


@pytest.mark.parametrize("B", [256, 1])
def test_threaded_branches_equal_the_serial_composition_bit_for_bit(monkeypatch, B):
    # the training shape of `ours` on MovieLens: 7 fields, d=16, 2 heads, 32 hidden
    n, d = 7, 16
    mh = init_mhsa(d, 2, FreshRng(50))
    ac = init_ac(d, 32, FreshRng(51))
    ac.bias[:] = Rng(52).normal((32,), std=0.1)
    emb = Rng(53).normal((B, n, d))
    d_internal = Rng(54).normal((B, n * d))
    d_pooled = Rng(55).normal((B, d))

    def both():
        trace = branches_forward_batch(emb, mh, ac)
        return _branch_arrays(trace, *_backward(trace, mh, ac, d_internal, d_pooled))

    threads = set()

    def recorded(*args):
        threads.add(threading.get_ident())
        return self_attention_batch(*args)

    with monkeypatch.context() as m:
        m.setattr(interaction, "self_attention_batch", recorded)
        threaded = both()
    assert threads and threading.get_ident() not in threads
    monkeypatch.setattr(interaction, "_beside", _inline)
    serial = both()
    assert sorted(threaded) == sorted(serial)
    for name, want in serial.items():
        assert np.array_equal(threaded[name], want), name


def test_the_worker_half_runs_under_the_callers_errstate():
    # huge self-attention maps overflow on the worker; the crossing stays finite
    n, d = 5, 4
    mh = init_mhsa(d, 2, FreshRng(60))
    mh.w_in *= 1e300
    ac = init_ac(d, 3, FreshRng(61))
    emb = Rng(62).normal((8, n, d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            trace = branches_forward_batch(emb, mh, ac)
            _backward(trace, mh, ac, np.ones((8, n * d)), np.ones((8, d)))
        assert not np.all(np.isfinite(trace.mhsa.pre))
        assert np.all(np.isfinite(trace.ac.pooled))
        with np.errstate(all="ignore", over="raise"), pytest.raises(FloatingPointError):
            branches_forward_batch(emb, mh, ac)
