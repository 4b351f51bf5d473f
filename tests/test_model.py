import math
from dataclasses import replace

import numpy as np
import pytest

from arec.data import EncodingError
from arec.interaction import branches_forward_batch
from arec.losses import logloss_d_logits
from arec.model import (
    DeepParams,
    backward_batch,
    deep_backward_batch,
    deep_forward_batch,
    forward_batch,
    init_deep,
    init_fm,
    init_model,
    ops_for,
)
from arec.numerics import Rng, relu

from helpers import (
    FreshRng,
    embed_one,
    fd_check_all_tensors,
    make_schema,
    nan_like,
    random_example,
    random_schema,
    relu_kink_margin,
    score_one,
)
from oracle import EncodedExample, columnar, matmul, mm_nt, mm_tn

SCHEMA = make_schema([
    ("user", "categorical", 4),
    ("item", "categorical", 5),
    ("tags", "multi_categorical", 3),
])


OURS, FM = ops_for("ours"), ops_for("fm")  # DeepFM runs the FM forward


def logit(ops, params, ex, schema=SCHEMA) -> float:
    return score_one(ops, params, schema, ex)[1]


def zeroed(params):
    for _, t in params.named_tensors():
        t[...] = 0.0
    return params


def test_all_zero_parameters_predict_half():
    for kind in ("ours", "fm", "deepfm"):
        ops = ops_for(kind)
        params = zeroed(ops.init(SCHEMA, 4, Rng(0)))
        ex = EncodedExample(values=(1, 2, (1, 2)), label=1.0)
        prob, z, _ = score_one(ops, params, SCHEMA, ex)
        assert prob == 0.5 and z == 0.0


def test_probability_is_sigmoid_of_logit():
    gen = np.random.default_rng(0)
    for kind in ("ours", "fm", "deepfm"):
        ops = ops_for(kind)
        params = ops.init(SCHEMA, 4, Rng(1))
        for _ in range(10):
            ex = random_example(SCHEMA, gen)
            prob, z, _ = score_one(ops, params, SCHEMA, ex)
            assert abs(prob - 1.0 / (1.0 + math.exp(-z))) < 1e-12


def test_ablation_cross_branch_removable():
    # shallow mode with the cross weight zeroed: AC parameters become inert
    params = init_model(SCHEMA, 4, Rng(2), mode="shallow")
    params.w_cross[:] = 0.0
    ex = EncodedExample(values=(2, 3, (1,)), label=1.0)
    before = logit(OURS, params, ex)
    params.ac.weight[:] += 3.7
    params.ac.proj[:] -= 1.9
    after = logit(OURS, params, ex)
    assert before == after


def test_straight_line_forward_oracle():
    dim = 4
    params = init_model(SCHEMA, dim, Rng(3), mode="combined", heads=2, ac_hidden=6,
                        deep_hidden=(5, 3))
    ex = EncodedExample(values=(1, 4, (1, 3)), label=1.0)
    z = logit(OURS, params, ex)

    emb = embed_one(params.embedding, SCHEMA, ex)
    branch = branches_forward_batch(emb[None], params.mhsa, params.ac)
    internal, crossed = branch.mhsa.out[0].reshape(-1), branch.ac.pooled[0]
    shallow = (params.w_internal @ internal + params.w_cross @ crossed
               + params.bias[0])
    a = np.concatenate([internal, crossed])
    for l, (w, b) in enumerate(params.deep.layers):
        a = w @ a + b
        if l < len(params.deep.layers) - 1:
            a = relu(a)
    want = shallow + a[0]
    assert abs(z - want) < 1e-10


def test_combined_equals_shallow_plus_deep():
    dim = 4
    combined = init_model(SCHEMA, dim, Rng(4), mode="combined")
    ex = EncodedExample(values=(3, 2, (2,)), label=0.0)

    shallow = init_model(SCHEMA, dim, Rng(99), mode="shallow")
    deep = init_model(SCHEMA, dim, Rng(99), mode="deep")
    # share every tensor with the combined model
    for (name, src) in combined.named_tensors():
        for target in (shallow, deep):
            for tname, t in target.named_tensors():
                if tname == name:
                    t[...] = src
    total = logit(OURS, shallow, ex) + logit(OURS, deep, ex)
    assert logit(OURS, combined, ex) == total


def test_shallow_mode_has_no_deep_block():
    params = init_model(SCHEMA, 4, Rng(5), mode="shallow")
    assert params.deep is None
    names = [n for n, _ in params.named_tensors()]
    assert not any(n.startswith("deep.") for n in names)
    deep_only = init_model(SCHEMA, 4, Rng(5), mode="deep")
    names = [n for n, _ in deep_only.named_tensors()]
    assert not any(n.startswith("shallow.") for n in names)


def test_mode_validation():
    with pytest.raises(ValueError):
        init_model(SCHEMA, 4, Rng(0), mode="wide")


def test_field_count_mismatch_rejected():
    with pytest.raises(EncodingError):
        columnar([EncodedExample(values=(1, 2), label=0.0)], SCHEMA)


def test_first_order_term_adds_row_sum():
    params = init_model(SCHEMA, 4, Rng(7), first_order=True)
    ex = EncodedExample(values=(1, 2, (1,)), label=1.0)
    with_fo = logit(OURS, params, ex)
    fo_rows = embed_one(params.first_order, SCHEMA, ex)
    params_no = init_model(SCHEMA, 4, Rng(7), first_order=True)
    for i in range(len(params_no.first_order.tables)):
        params_no.first_order.tables[i][...] = 0.0
    without = logit(OURS, params_no, ex)
    assert abs(with_fo - (without + fo_rows.sum())) < 1e-12


def test_fm_zero_factors_is_linear_model():
    params = init_fm(SCHEMA, 4, Rng(8))
    for t in params.factors.tables:
        t[...] = 0.0
    ex = EncodedExample(values=(2, 1, (1, 2)), label=1.0)
    fo = embed_one(params.first_order, SCHEMA, ex)
    want = params.bias[0] + fo.sum()
    assert abs(logit(FM, params, ex) - want) < 1e-12


def test_fm_matches_pairwise_double_loop():
    gen = np.random.default_rng(9)
    for trial in range(20):
        schema = random_schema(gen)
        params = init_fm(schema, 3, Rng(trial))
        ex = random_example(schema, gen)
        emb = embed_one(params.factors, schema, ex)
        n = emb.shape[0]
        pairwise = sum(
            float(emb[i] @ emb[j]) for i in range(n) for j in range(i + 1, n)
        )
        fo = embed_one(params.first_order, schema, ex)
        want = float(params.bias[0]) + float(fo.sum()) + pairwise
        assert abs(logit(FM, params, ex, schema) - want) < 1e-10


def test_fm_bias_only_example():
    # all embeddings zeroed: only the bias survives
    params = init_fm(SCHEMA, 4, Rng(10))
    for t in params.factors.tables:
        t[...] = 0.0
    for t in params.first_order.tables:
        t[...] = 0.0
    params.bias[0] = 1.25
    ex = EncodedExample(values=(1, 1, (1,)), label=1.0)
    prob, z, _ = score_one(FM, params, SCHEMA, ex)
    assert abs(z - 1.25) < 1e-15
    assert abs(prob - 1.0 / (1.0 + math.exp(-1.25))) < 1e-12


def test_deepfm_zero_mlp_equals_fm():
    params = init_fm(SCHEMA, 4, Rng(11), deep_hidden=(64, 64))
    for name, t in params.named_tensors():
        if name.startswith("deep."):
            t[...] = 0.0
    gen = np.random.default_rng(12)
    for _ in range(10):
        ex = random_example(SCHEMA, gen)
        assert logit(FM, params, ex) == logit(FM, replace(params, deep=None), ex)


def test_deepfm_zero_fm_is_pure_deep():
    params = init_fm(SCHEMA, 4, Rng(13), deep_hidden=(64, 64))
    params.bias[...] = 0.0
    for t in params.first_order.tables:
        t[...] = 0.0
    ex = EncodedExample(values=(1, 2, (1,)), label=1.0)
    emb = embed_one(params.factors, SCHEMA, ex)
    deep_logit = deep_forward_batch(emb.reshape(1, -1), params.deep)[0][0]
    want = deep_logit + 0.5 * float(
        np.sum(emb.sum(axis=0) ** 2) - np.sum(emb * emb)
    )
    assert abs(logit(FM, params, ex) - want) < 1e-10


def test_deepfm_composition_oracle():
    gen = np.random.default_rng(14)
    params = init_fm(SCHEMA, 3, Rng(15), deep_hidden=(6, 4))
    for _ in range(10):
        ex = random_example(SCHEMA, gen)
        fm_logit = logit(FM, replace(params, deep=None), ex)
        emb = embed_one(params.factors, SCHEMA, ex)
        deep_logit = deep_forward_batch(emb.reshape(1, -1), params.deep)[0][0]
        assert abs(logit(FM, params, ex) - (fm_logit + deep_logit)) < 1e-10


def test_bias_gradient_is_residual():
    params = init_model(SCHEMA, 4, Rng(16), mode="shallow")
    ex = EncodedExample(values=(1, 2, (1,)), label=1.0)
    prob, _, trace = score_one(OURS, params, SCHEMA, ex)
    probs = np.array([prob])
    grads = backward_batch(trace, params, logloss_d_logits(probs, np.array([1.0])),
                           out=params.layout.zeros())
    assert abs(grads.bias[0] - (prob - 1.0)) < 1e-12
    grads0 = backward_batch(trace, params, logloss_d_logits(probs, np.array([0.0])),
                            out=params.layout.zeros())
    assert abs(grads0.bias[0] - prob) < 1e-12


def test_saturated_prediction_has_zero_gradient():
    params = init_model(SCHEMA, 4, Rng(17), mode="shallow")
    params.bias[0] = 60.0  # sigmoid rounds to 1.0, where the clamp zeroes the gradient
    ex = EncodedExample(values=(1, 2, (1,)), label=1.0)
    prob, _, trace = score_one(OURS, params, SCHEMA, ex)
    assert prob == 1.0
    d_logits = logloss_d_logits(np.array([prob]), np.array([1.0]))
    grads = backward_batch(trace, params, d_logits, out=params.layout.zeros())
    for _, t in grads.named_tensors():
        assert np.all(t == 0.0)


def test_gradients_match_finite_differences_all_kinds():
    gen = np.random.default_rng(18)
    for kind, kwargs in [
        ("ours", dict(heads=2, ac_hidden=5, deep_hidden=(6, 4))),
        ("fm", {}),
        ("deepfm", dict(deep_hidden=(6, 4))),
    ]:
        ops = ops_for(kind)
        worst = 0.0
        checked = 0
        for trial in range(30):
            if checked >= 8:
                break
            schema = random_schema(gen)
            params = ops.init(schema, 4, Rng(trial), **kwargs)
            ex = random_example(schema, gen)
            if relu_kink_margin(score_one(ops, params, schema, ex)[2]) < 1e-4:
                continue
            checked += 1
            worst = max(worst, fd_check_all_tensors(ops, params, schema, ex, ex.label))
        assert checked == 8
        assert worst <= 1e-4, f"{kind}: worst fd mismatch {worst}"


def test_gradients_for_every_mode():
    gen = np.random.default_rng(19)
    ops = ops_for("ours")
    for mode in ("shallow", "deep", "combined"):
        for attempt in range(20):
            params = init_model(SCHEMA, 4, Rng(20 + attempt), mode=mode, ac_hidden=5,
                                deep_hidden=(6,), first_order=True)
            ex = random_example(SCHEMA, gen)
            if relu_kink_margin(score_one(ops, params, SCHEMA, ex)[2]) >= 1e-4:
                break
        worst = fd_check_all_tensors(ops, params, SCHEMA, ex, ex.label)
        assert worst <= 1e-4, f"mode {mode}: {worst}"


def test_fm_reduction_of_the_two_branch_model():
    # uniform pair attention and matched shallow weights collapse the cross
    # branch onto the plain pairwise dot-product sum
    gen = np.random.default_rng(21)
    for trial in range(100):
        schema = random_schema(gen)
        dim = int(gen.integers(2, 6))
        params = init_model(schema, dim, Rng(trial), mode="shallow", heads=1)
        n = schema.n_fields
        m = n * (n - 1) // 2
        params.ac.proj[:] = 0.0  # uniform weights over pairs
        params.w_internal[:] = 0.0
        params.w_cross[:] = float(m)
        params.bias[0] = 0.0
        ex = random_example(schema, gen)
        emb = embed_one(params.embedding, schema, ex)
        pairwise = sum(
            float(emb[i] @ emb[j]) for i in range(n) for j in range(i + 1, n)
        )
        assert abs(logit(OURS, params, ex, schema) - pairwise) < 1e-10


def test_batched_forward_matches_per_example():
    gen = np.random.default_rng(22)
    for kind in ("ours", "fm", "deepfm"):
        ops = ops_for(kind)
        params = ops.init(SCHEMA, 4, Rng(23))
        examples = [random_example(SCHEMA, gen) for _ in range(9)]
        col = columnar(examples, SCHEMA)
        probs, logits, _ = ops.forward_batch(col, params)
        for b, ex in enumerate(examples):
            prob, z, _ = score_one(ops, params, SCHEMA, ex)
            assert abs(logits[b] - z) < 1e-10
            assert abs(probs[b] - prob) < 1e-12
        # an int continuous payload scores as the float it equals, bit for bit
        params = ops.init(MIXED, 4, Rng(23))
        for x in (0, 1):
            as_int = EncodedExample(values=(1, 2, (1, 2), x), label=1)
            as_float = EncodedExample(values=(1, 2, (1, 2), float(x)), label=1)
            got = score_one(ops, params, MIXED, as_int)[:2]
            assert got == score_one(ops, params, MIXED, as_float)[:2], kind


def test_batched_backward_matches_per_example_sum():
    gen = np.random.default_rng(24)
    for kind in ("ours", "fm", "deepfm"):
        ops = ops_for(kind)
        params = ops.init(SCHEMA, 4, Rng(25))
        examples = [random_example(SCHEMA, gen) for _ in range(5)]
        labels = np.array([ex.label for ex in examples])
        col = columnar(examples, SCHEMA)
        probs, _, trace = ops.forward_batch(col, params)
        d_logits = (probs - labels) / len(examples)
        batch_grads = dict(ops.backward_batch(trace, params, d_logits,
                                              out=params.layout.zeros()).named_tensors())

        totals = {name: np.zeros_like(t) for name, t in params.named_tensors()}
        for b in range(len(examples)):
            one = col.take([b])
            p, _, tr = ops.forward_batch(one, params)
            frag = ops.backward_batch(tr, params, p - one.labels, out=params.layout.zeros())
            for name, t in frag.named_tensors():
                totals[name] += t / len(examples)
        for name in totals:
            assert np.max(np.abs(batch_grads[name] - totals[name])) < 1e-10, (kind, name)


def test_ops_registry():
    assert ops_for("ours").init is init_model
    with pytest.raises(ValueError) as err:
        ops_for("xgboost")
    assert "deepfm" in str(err.value)


def test_deep_mlp_matches_einsum_oracle_at_training_shape():
    # the ours deep input at n=7, d=16: 7*16 internal + 16 crossed
    B, width = 64, 7 * 16 + 16
    params = init_deep(width, (64, 64), FreshRng(30))
    for l, (_, b) in enumerate(params.layers):
        b[:] = Rng(31 + l).normal(b.shape, std=0.1)
    acts = Rng(35).normal((B, width))
    d_logits = Rng(36).normal((B,))

    logits, trace = deep_forward_batch(acts, params)
    grads = nan_like(params)
    d_acts = deep_backward_batch(trace, params, d_logits, out=grads)

    a, inputs, pres = acts, [], []
    for w, b in params.layers:
        inputs.append(a)
        pres.append(mm_nt(a, w) + b)
        a = relu(pres[-1])
    want_logits = pres[-1][:, 0]
    want = []
    g = d_logits[:, None]
    for l in range(len(params.layers) - 1, -1, -1):
        if l != len(params.layers) - 1:
            g = g * (pres[l] > 0)
        want.append((mm_tn(g, inputs[l]), mm_tn(g, np.ones((B, 1)))[:, 0]))
        g = matmul(g, params.layers[l][0])
    want.reverse()

    def close(got, ref):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    close(logits, want_logits)
    close(d_acts, g)
    for (gw, gb), (ww, wb) in zip(grads.layers, want):
        close(gw, ww)
        close(gb, wb)


MIXED = make_schema([
    ("user", "categorical", 4),
    ("item", "categorical", 5),
    ("tags", "multi_categorical", 3),
    ("age", "continuous", (0.0, 1.0)),
])

# every model kind, and for ours every mode with and without the linear term
STEP_CASES = [("ours", dict(mode=mode, first_order=fo, deep_hidden=(6, 4)))
              for mode in ("shallow", "deep", "combined") for fo in (False, True)]
STEP_CASES += [("fm", {}), ("deepfm", dict(deep_hidden=(6, 4)))]


def test_training_step_runs_without_einsum(monkeypatch):
    # the einsum kernels are the tests' oracle; a contraction that drifts back
    # onto the training step fails here
    def no_einsum(*args, **kwargs):
        raise AssertionError(f"np.einsum called on the training step: {args[0]!r}")

    gen = np.random.default_rng(37)
    col = columnar([random_example(MIXED, gen) for _ in range(6)], MIXED)
    monkeypatch.setattr(np, "einsum", no_einsum)
    for kind, kwargs in STEP_CASES:
        ops = ops_for(kind)
        params = ops.init(MIXED, 4, Rng(38), **kwargs)
        probs, _, trace = ops.forward_batch(col, params)
        grads = ops.backward_batch(trace, params, logloss_d_logits(probs, col.labels),
                                   out=params.layout.zeros())
        assert all(np.all(np.isfinite(t)) for _, t in grads.named_tensors())


@pytest.mark.parametrize("kind,kwargs", STEP_CASES, ids=[
    "-".join([k, *(f"{key}={val}" for key, val in kw.items() if key != "deep_hidden")])
    for k, kw in STEP_CASES
])
def test_gradient_layout_matches_parameters(kind, kwargs):
    # adam_update pairs parameters with gradients by position, and
    # clip_gradients scales the gradients in place
    gen = np.random.default_rng(39)
    col = columnar([random_example(MIXED, gen) for _ in range(6)], MIXED)
    ops = ops_for(kind)
    params = ops.init(MIXED, 4, Rng(40), **kwargs)
    probs, _, trace = ops.forward_batch(col, params)
    grads = ops.backward_batch(trace, params, logloss_d_logits(probs, col.labels),
                               out=params.layout.zeros())
    layout = [(name, t.shape) for name, t in params.named_tensors()]
    assert [(name, g.shape) for name, g in grads.named_tensors()] == layout
    for (_, p), (name, g) in zip(params.named_tensors(), grads.named_tensors()):
        assert g.flags.writeable and not np.shares_memory(g, p), name


def test_fm_and_deepfm_checkpoint_layout():
    fm = ["fm.bias", "fm.w.f0", "fm.w.f1", "fm.w.f2", "fm.v.f0", "fm.v.f1", "fm.v.f2"]
    deep = ["deep.w0", "deep.b0", "deep.w1", "deep.b1", "deep.w2", "deep.b2"]
    assert [name for name, _ in ops_for("fm").init(SCHEMA, 4, Rng(41)).named_tensors()] == fm
    params = ops_for("deepfm").init(SCHEMA, 4, Rng(41), deep_hidden=(6, 4))
    assert [name for name, _ in params.named_tensors()] == fm + deep
    assert [t.shape for _, t in params.deep.named_tensors()] == [
        (6, 12), (6,), (4, 6), (4,), (1, 4), (1,)
    ]


def test_ours_checkpoint_layout():
    params = ops_for("ours").init(SCHEMA, 4, Rng(41), heads=2, attn_dim=6, ac_hidden=5,
                                  deep_hidden=(3,))
    assert [(name, t.shape) for name, t in params.named_tensors()] == [
        ("emb.f0", (5, 4)), ("emb.f1", (6, 4)), ("emb.f2", (4, 4)),
        ("mhsa.q0", (4, 3)), ("mhsa.k0", (4, 3)), ("mhsa.v0", (4, 3)),
        ("mhsa.q1", (4, 3)), ("mhsa.k1", (4, 3)), ("mhsa.v1", (4, 3)),
        ("mhsa.out", (6, 4)), ("mhsa.res", (4, 4)),
        ("ac.weight", (5, 4)), ("ac.bias", (5,)), ("ac.proj", (5,)),
        ("shallow.internal", (12,)), ("shallow.cross", (4,)), ("shallow.bias", (1,)),
        ("deep.w0", (3, 16)), ("deep.b0", (3,)), ("deep.w1", (1, 3)), ("deep.b1", (1,)),
    ]
