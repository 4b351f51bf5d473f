import math
import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import arec.metrics as metrics
import arec.numerics as numerics
import arec.training as training
from arec.data import (
    CATEGORICAL,
    CONTINUOUS,
    MULTI_CATEGORICAL,
    ConfigError,
    DomainError,
    EncodingError,
    FeatureSchema,
    FieldColumn,
    FieldSpec,
)
from arec.losses import (
    ModalityTable,
    difference_loss,
    logloss,
    logloss_d_logits,
    similarity_loss,
    synthesize_modality_features,
)
from arec.metrics import evaluate
from arec.model import MODES, ops_for
from arec.numerics import Rng
from arec.training import (
    SWEEP_CSV_HEADER,
    DivergenceError,
    ModalityBatcher,
    TrainConfig,
    adam_update,
    clip_gradients,
    curve_csv_header,
    fit,
    init_state,
    item_field_index,
    sweep,
    train_epoch,
)

from helpers import (
    field_named,
    make_schema,
    parts,
    random_example,
    score_one,
    separable_examples,
)
from oracle import EncodedExample, adam_step, columnar, value_of


def tiny_config(**kw):
    base = dict(batch_size=16, learning_rate=1e-3, max_epochs=3, patience=2,
                seed=0, dim=4, mode="shallow", heads=2, ac_hidden=4,
                deep_hidden=(8,))
    base.update(kw)
    return TrainConfig(**base)


def tiny_dataset(n=48, seed=0):
    schema = make_schema([
        ("user_id", "categorical", 6),
        ("item_id", "categorical", 8),
        ("tags", "multi_categorical", 4),
    ])
    gen = np.random.default_rng(seed)
    examples = [random_example(schema, gen) for _ in range(n)]
    labels = [ex.label for ex in examples]
    if sum(labels) in (0, len(labels)):
        raise AssertionError("degenerate fixture")
    return schema, examples


def snapshot_tensors(params):
    return {name: t.copy() for name, t in params.named_tensors()}


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(batch_size=0).validate()
    with pytest.raises(ConfigError):
        tiny_config(learning_rate=-1e-3).validate()
    with pytest.raises(ConfigError):
        tiny_config(patience=0).validate()
    with pytest.raises(ConfigError):
        tiny_config(max_epochs=0).validate()
    with pytest.raises(ConfigError):
        tiny_config(beta1=1.0).validate()
    with pytest.raises(ConfigError):
        tiny_config(dim=0).validate()
    for bad in (dict(mode="bogus"), dict(heads=3), dict(heads=0), dict(attn_dim=0),
                dict(attn_dim=7), dict(ac_hidden=-2), dict(ac_hidden=0),
                dict(deep_hidden=(8, -1)), dict(deep_hidden=()), dict(deep_hidden=(0,)),
                dict(seed=-1), dict(learning_rate=math.nan), dict(learning_rate=math.inf),
                dict(beta2=math.nan), dict(epsilon=0.0), dict(clip_norm=-1.0),
                dict(lambda_sim=math.nan), dict(lambda_diff=-0.1)):
        with pytest.raises(ConfigError):
            tiny_config(**bad).validate()
    tiny_config(learning_rate=0.0).validate()  # frozen-optimizer case is legal
    tiny_config(learning_rate=1e100, clip_norm=0.0).validate()  # clipping off
    tiny_config(dim=6, heads=3, attn_dim=None).validate()


def test_zero_learning_rate_freezes_parameters():
    schema, examples = tiny_dataset()
    ops = ops_for("ours")
    config = tiny_config(learning_rate=0.0)
    state = init_state(ops, schema, config)
    before = snapshot_tensors(state.params)
    col = columnar(examples, schema)
    metrics = train_epoch(ops, state, col, config)
    for name, t in state.params.named_tensors():
        assert np.array_equal(t, before[name]), name
    # with frozen parameters the epoch loss is the plain evaluation loss
    probs, _, _ = ops.forward_batch(col, state.params)
    assert abs(metrics.train_loss - logloss(probs, col.labels)) < 1e-12


def test_single_example_memorization():
    schema = make_schema([("user_id", "categorical", 3), ("item_id", "categorical", 3)])
    ops = ops_for("ours")
    config = tiny_config(learning_rate=0.1, batch_size=1, mode="shallow")
    state = init_state(ops, schema, config)
    ex = EncodedExample(values=(1, 2), label=1.0)
    col = columnar([ex], schema)
    for _ in range(200):
        train_epoch(ops, state, col, config)
    prob = score_one(ops, state.params, schema, ex)[0]
    assert logloss([prob], [1.0]) < 0.01


def test_same_seed_is_bit_identical():
    schema, examples = tiny_dataset()
    ops = ops_for("ours")
    runs = []
    for _ in range(2):
        config = tiny_config(seed=11, max_epochs=3, mode="combined")
        result = fit(ops, schema, *parts(schema, examples, 40), config)
        runs.append((snapshot_tensors(result.state.params), result.curve))
    a, b = runs
    assert set(a[0]) == set(b[0])
    for name in a[0]:
        assert np.array_equal(a[0][name], b[0][name]), name
    assert [(p.epoch, p.train_loss, p.val_auc, p.val_logloss) for p in a[1]] == \
           [(p.epoch, p.train_loss, p.val_auc, p.val_logloss) for p in b[1]]


def test_different_seed_changes_parameters():
    schema, examples = tiny_dataset()
    ops = ops_for("ours")
    r0 = fit(ops, schema, *parts(schema, examples, 40), tiny_config(seed=0, max_epochs=1))
    r1 = fit(ops, schema, *parts(schema, examples, 40), tiny_config(seed=1, max_epochs=1))
    t0 = snapshot_tensors(r0.state.params)
    t1 = snapshot_tensors(r1.state.params)
    assert any(not np.array_equal(t0[n], t1[n]) for n in t0)


def test_patience_one_stops_after_two_flat_epochs():
    # frozen optimizer keeps validation AUC constant, which never improves
    schema, examples = tiny_dataset()
    ops = ops_for("ours")
    config = tiny_config(learning_rate=0.0, max_epochs=10, patience=1)
    result = fit(ops, schema, *parts(schema, examples, 40), config)
    assert result.epochs_run == 2
    assert result.state.best.epoch == 1


def test_stops_on_worsening_validation_auc(monkeypatch):
    schema, examples = tiny_dataset()
    ops = ops_for("ours")
    series = iter([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])

    def fake_eval(ops_, params, col):
        return next(series), 0.5

    monkeypatch.setattr(training, "_eval_columnar", fake_eval)
    config = tiny_config(max_epochs=6, patience=1)
    result = fit(ops, schema, *parts(schema, examples, 40), config)
    assert result.epochs_run == 2
    assert result.state.best.val_auc == 0.9 and result.state.best.epoch == 1


def test_best_snapshot_dominates_curve():
    schema, examples = tiny_dataset(n=80, seed=4)
    ops = ops_for("ours")
    config = tiny_config(max_epochs=6, patience=6, learning_rate=5e-3, mode="combined")
    result = fit(ops, schema, *parts(schema, examples, 64), config)
    best = result.state.best
    assert best.val_auc == max(p.val_auc for p in result.curve)
    assert best.epoch in [p.epoch for p in result.curve]


def test_separable_dataset_reaches_perfect_validation_auc():
    schema, examples = separable_examples(n_users=20, per_user=10)
    ops = ops_for("ours")
    config = tiny_config(learning_rate=0.05, batch_size=32, max_epochs=25,
                         patience=25, dim=4, mode="shallow")
    result = fit(ops, schema, *parts(schema, examples, 160), config)
    assert result.state.best.val_auc == 1.0


def test_frozen_batch_loss_decreases_over_first_steps():
    ops = ops_for("ours")
    wins = 0
    for trial in range(40):
        schema = make_schema([
            ("user_id", "categorical", 5),
            ("item_id", "categorical", 5),
        ])
        gen = np.random.default_rng(trial)
        examples = [random_example(schema, gen) for _ in range(16)]
        config = tiny_config(seed=trial, learning_rate=1e-3, batch_size=16,
                             mode="combined")
        state = init_state(ops, schema, config)
        col = columnar(examples, schema)
        losses = []
        for _ in range(6):
            probs, _, trace = ops.forward_batch(col, state.params)
            losses.append(logloss(probs, col.labels))
            d_logits = (probs - col.labels) / col.n
            grads = ops.backward_batch(trace, state.params, d_logits, out=state.grads)
            clip_gradients(grads, config.clip_norm)
            adam_update(state, grads, config)
        if all(losses[i + 1] < losses[i] for i in range(5)):
            wins += 1
    assert wins >= 38, f"loss decreased in only {wins}/40 trials"


def test_clip_gradients_scales_to_max_norm():
    schema = make_schema([("user_id", "categorical", 3), ("item_id", "categorical", 3)])
    ops = ops_for("fm")
    params = ops.init(schema, 4, Rng(0))
    grads = ops.init(schema, 4, Rng(1))
    for _, t in grads.named_tensors():
        t[...] = 1.0
    pre = math.sqrt(sum(t.size for _, t in grads.named_tensors()))
    reported = clip_gradients(grads, 1.0)
    assert abs(reported - pre) < 1e-12
    post = math.sqrt(sum(float(np.sum(t * t)) for _, t in grads.named_tensors()))
    assert abs(post - 1.0) < 1e-12
    # under the threshold: untouched
    reported2 = clip_gradients(grads, 10.0)
    assert abs(reported2 - 1.0) < 1e-12
    post2 = math.sqrt(sum(float(np.sum(t * t)) for _, t in grads.named_tensors()))
    assert abs(post2 - 1.0) < 1e-12


def test_clip_norm_equals_the_sum_of_per_tensor_squares_bit_for_bit():
    # one table as tall as the 6040-user one, and MHSA maps that are column views
    schema = make_schema([("user_id", "categorical", 6027), ("item_id", "categorical", 40),
                          ("tags", "multi_categorical", 5)])
    gen = np.random.default_rng(12)
    for kind in ("fm", "ours"):
        ops = ops_for(kind)
        grads = ops.init(schema, 16, Rng(3), **tiny_config(mode="combined", dim=16).model_kwargs())
        named = dict(grads.named_tensors())
        for t in named.values():
            t[...] = gen.standard_normal(t.shape) * 10.0 ** gen.uniform(-6, 6, t.shape)
        if kind == "ours":
            assert not named["mhsa.q0"].flags.c_contiguous
        total = 0.0
        for t in named.values():
            total += float(np.sum(t * t))
        assert clip_gradients(grads, 0.0) == float(np.sqrt(total))


class _Grads:
    """A gradient container of bare tensors, for `clip_gradients`."""

    def __init__(self, *tensors):
        self.tensors = tensors

    def named_tensors(self):
        return ((f"g{i}", t) for i, t in enumerate(self.tensors))


def test_clip_gradients_survives_overflowing_squares():
    grads = _Grads(np.array([1e200, 3.0]), np.array([2.0]))
    with np.errstate(over="ignore"):
        norm = clip_gradients(grads, 10.0)
    assert norm == 1e200
    a, b = grads.tensors
    assert np.allclose(a, [10.0, 3e-199], rtol=1e-15, atol=0.0)
    assert np.allclose(b, [2e-199], rtol=1e-15, atol=0.0)
    # a gradient that is itself not finite keeps the non-finite norm
    grads = _Grads(np.array([np.inf, 3.0]))
    assert clip_gradients(grads, 0.0) == math.inf


# every model kind, and for ours every mode with and without the linear term
MODEL_CASES = [("ours", dict(mode=mode, first_order=fo)) for mode in MODES for fo in (False, True)]
MODEL_CASES += [("fm", {}), ("deepfm", {})]
each_model = pytest.mark.parametrize("kind,kwargs", MODEL_CASES, ids=[
    "-".join([k, *(f"{key}={val}" for key, val in kw.items())]) for k, kw in MODEL_CASES
])


@pytest.mark.parametrize("chunk", [training._STEP_CHUNK, 7])
@each_model
def test_arena_adam_matches_the_per_tensor_formula(monkeypatch, kind, kwargs, chunk):
    # a chunk of 7 floats runs the last Adam pass in many slices
    monkeypatch.setattr(training, "_STEP_CHUNK", chunk)
    schema = make_schema([("user_id", "categorical", 5), ("item_id", "categorical", 6),
                          ("tags", "multi_categorical", 4), ("age", "continuous", (0.0, 1.0))])
    ops = ops_for(kind)
    config = tiny_config(learning_rate=0.01, **kwargs)
    state = init_state(ops, schema, config)
    assert state.step.size == min(chunk, state.params.flat.size)
    params = snapshot_tensors(state.params)
    m = {name: np.zeros_like(t) for name, t in params.items()}
    v = {name: np.zeros_like(t) for name, t in params.items()}
    if kwargs.get("mode") == "deep":  # deep mode has, and trains, no shallow weights
        assert state.params.w_internal is None and state.params.w_cross is None
        assert state.params.bias is None
    gen = np.random.default_rng(71)
    for step in range(1, 6):
        grads = ops.init(schema, config.dim, Rng(step), **config.model_kwargs())
        for _, g in grads.named_tensors():
            g[...] = gen.standard_normal(g.shape) * 10.0 ** gen.uniform(-6, 2, g.shape)
        adam_step(params, m, v, dict(grads.named_tensors()), step, config)
        adam_update(state, grads, config)
        state_m, state_v = dict(state.m.named_tensors()), dict(state.v.named_tensors())
        for name, t in state.params.named_tensors():
            assert t.tobytes() == params[name].tobytes(), (step, name)
            assert state_m[name].tobytes() == m[name].tobytes(), (step, name)
            assert state_v[name].tobytes() == v[name].tobytes(), (step, name)


def _placement(container):
    """(name, shape, strides, byte offset in the container's flat buffer) of
    each named tensor, every one a view of that buffer."""
    start = container.flat.__array_interface__["data"][0]
    placed = []
    for name, t in container.named_tensors():
        assert np.shares_memory(t, container.flat), name
        placed.append((name, t.shape, t.strides, t.__array_interface__["data"][0] - start))
    return placed


@each_model
def test_parameters_gradients_moments_and_snapshots_share_one_layout(monkeypatch, kind, kwargs):
    schema = make_schema([("user_id", "categorical", 5), ("item_id", "categorical", 6),
                          ("tags", "multi_categorical", 4), ("age", "continuous", (0.0, 1.0))])
    gen = np.random.default_rng(5)
    examples = [random_example(schema, gen) for _ in range(60)]
    config = tiny_config(learning_rate=0.05, batch_size=8, max_epochs=3, patience=3, **kwargs)
    ops = ops_for(kind)
    seen = []  # the gradient container of every step

    def backward(*args, **kw):
        seen.append(ops.backward_batch(*args, **kw))
        return seen[-1]

    # epoch 1 scores best, so its snapshot then sits through two epochs of Adam steps
    at_eval, aucs = [], iter([0.9, 0.5, 0.4])

    def eval_columnar(_ops, params, _col):
        at_eval.append(params.flat.copy())
        return next(aucs), 0.5

    monkeypatch.setattr(training, "_eval_columnar", eval_columnar)
    state = fit(replace(ops, backward_batch=backward), schema, *parts(schema, examples, 48),
                config).state
    layout = _placement(state.params)
    for other in (state.grads, state.m, state.v, state.best.params):
        assert _placement(other) == layout
    assert len(seen) == 3 * 6 and all(grads is state.grads for grads in seen)
    snapshot = state.best.params.flat
    assert state.best.epoch == 1 and snapshot.tobytes() == at_eval[0].tobytes()
    assert not np.shares_memory(snapshot, state.params.flat)
    assert snapshot.tobytes() != state.params.flat.tobytes()
    # a backward overwrites all of a dirty reused container: the bits it writes into zeros
    col = columnar(examples[:12], schema)
    probs, _, trace = ops.forward_batch(col, state.params)
    d_logits = logloss_d_logits(probs, col.labels)
    clean = state.params.layout.zeros()
    assert ops.backward_batch(trace, state.params, d_logits, out=clean) is clean
    state.grads.flat[...] = np.nan
    assert ops.backward_batch(trace, state.params, d_logits, out=state.grads) is state.grads
    assert state.grads.flat.tobytes() == clean.flat.tobytes()


@st.composite
def schemas_and_configs(draw):
    """A random schema of 2-9 fields of any kinds, a training config, and a
    seed for the rows."""
    plan = []
    for i in range(draw(st.sampled_from(range(2, 10)), label="fields")):
        kind = draw(st.sampled_from([CATEGORICAL, MULTI_CATEGORICAL, CONTINUOUS]))
        plan.append((f"f{i}", kind, (0.0, 1.0) if kind == CONTINUOUS
                     else draw(st.integers(1, 9), label="vocab")))
    heads = draw(st.integers(1, 2), label="heads")
    config = tiny_config(
        batch_size=draw(st.integers(1, 8), label="batch_size"), learning_rate=0.05,
        dim=heads * draw(st.integers(1, 3), label="head_dim"), heads=heads,
        seed=draw(st.integers(0, 2**16), label="seed"), deep_hidden=(5, 3))
    return make_schema(plan), config, draw(st.integers(0, 2**16), label="rows_seed")


# nine fields: self-attention rows past the fold width, and a longer scatter plan
NINE_FIELDS = (make_schema([(f"f{i}", kind, (0.0, 1.0) if kind == CONTINUOUS else 6)
                            for i, kind in enumerate([CATEGORICAL, MULTI_CATEGORICAL,
                                                      CONTINUOUS] * 3)]),
               tiny_config(batch_size=4, learning_rate=0.05, dim=4, heads=2, deep_hidden=(5, 3)),
               9)


@each_model
@settings(derandomize=True, max_examples=25, deadline=None)
@given(setup=schemas_and_configs())
@example(setup=NINE_FIELDS)
def test_trained_models_score_rows_alike_over_random_schemas(kind, kwargs, setup):
    schema, config, rows_seed = setup
    config = replace(config, **kwargs)
    gen = np.random.default_rng(rows_seed)
    examples = [random_example(schema, gen) for _ in range(int(gen.integers(1, 10)))]
    col = columnar(examples, schema)
    ops = ops_for(kind)

    def trained():
        state = init_state(ops, schema, config)
        train_epoch(ops, state, col, config)
        return state.params, ops.forward_batch(col, state.params)[0]

    params, probs = trained()
    again, probs_again = trained()
    assert probs.tobytes() == probs_again.tobytes()
    for (name, t), (_, u) in zip(params.named_tensors(), again.named_tensors()):
        assert t.tobytes() == u.tobytes(), name
    assert np.all((probs >= 0.0) & (probs <= 1.0))
    for b, ex in enumerate(examples):
        assert abs(score_one(ops, params, schema, ex)[0] - probs[b]) <= 1e-12, b


def test_adam_single_step_closed_form():
    schema = make_schema([("user_id", "categorical", 2), ("item_id", "categorical", 2)])
    ops = ops_for("ours")
    config = tiny_config(learning_rate=0.01)
    state = init_state(ops, schema, config)
    bias_before = float(state.params.bias[0])
    cross_before = state.params.w_cross.copy()
    grads = ops_for("ours").init(schema, config.dim, Rng(5), **config.model_kwargs())
    for _, t in grads.named_tensors():
        t[...] = 0.0
    grads.bias[0] = 0.5
    adam_update(state, grads, config)
    g = 0.5
    mhat = g  # (1-b1)g / (1-b1)
    vhat = g * g
    want = bias_before - 0.01 * mhat / (math.sqrt(vhat) + config.epsilon)
    assert abs(float(state.params.bias[0]) - want) < 1e-14
    assert state.t == 1
    # tensors with zero gradient stay exactly put
    assert np.array_equal(state.params.w_cross, cross_before)


def test_divergence_raises_with_location():
    # step size is bounded by the learning rate and the loss is clamped, so a
    # merely large rate stalls at saturated probabilities; overflow to inf
    # needs parameters whose squared products leave float64 range
    schema, examples = tiny_dataset(n=64, seed=9)
    ops = ops_for("ours")
    config = tiny_config(learning_rate=1e100, clip_norm=0.0, max_epochs=5,
                         patience=5, mode="combined", batch_size=8)
    state = init_state(ops, schema, config)
    col = columnar(examples, schema)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        for _ in range(5):
            train_epoch(ops, state, col, config)
    assert "non-finite loss at epoch" in str(err.value)


def test_divergence_with_finite_parameters_says_so(monkeypatch):
    schema, examples = tiny_dataset()
    ops = ops_for("fm")
    config = tiny_config()
    state = init_state(ops, schema, config)
    monkeypatch.setattr(training, "logloss", lambda probs, labels: math.nan)
    with pytest.raises(DivergenceError) as err:
        train_epoch(ops, state, columnar(examples, schema), config)
    peak, where = max((float(np.abs(t).max()), name) for name, t in state.params.named_tensors())
    assert str(err.value) == (
        "non-finite loss at epoch 1, batch 0; all parameters are finite; "
        f"the largest magnitude is {peak!r}, in {where}"
    )


def test_item_field_detection():
    ml = make_schema([("user_id", "categorical", 3), ("movie_id", "categorical", 4)])
    assert item_field_index(ml) == 1
    amz = make_schema([("reviewer_id", "categorical", 3), ("product_id", "categorical", 4)])
    assert item_field_index(amz) == 1
    none = make_schema([("a", "categorical", 3), ("b", "categorical", 4)])
    assert item_field_index(none) is None


def test_modality_batcher_terms_match_direct_losses():
    schema = make_schema([("user_id", "categorical", 4), ("item_id", "categorical", 5)])
    spec = field_named(schema, "item_id")
    table = synthesize_modality_features(list(spec.vocab), dim=6, seed=1)
    batcher = ModalityBatcher.build(schema, table)
    assert batcher.field_index == 1
    assert batcher.present[1:].all() and not batcher.present[0]

    examples = [EncodedExample(values=(1, i), label=1.0) for i in (1, 3, 3, 0)]
    col = columnar(examples, schema)
    l_s, l_d, count = batcher.batch_terms(col)
    assert count == 3  # index 0 carries no features

    features = dict(zip(table.keys, table.vectors))
    sa, sv, pa, pv = np.stack([features[value_of(spec, i)] for i in (1, 3, 3)], axis=1)
    assert abs(l_s - similarity_loss(sa, sv)) < 1e-12
    want_d = np.mean([difference_loss(*rows) for rows in zip(pa, sa, pv, sv)])
    assert abs(l_d - want_d) < 1e-12


def test_modality_batcher_terms_of_a_batch_without_features_are_zero():
    schema = make_schema([("user_id", "categorical", 4), ("item_id", "categorical", 5)])
    spec = field_named(schema, "item_id")
    table = synthesize_modality_features(list(spec.vocab)[:2], dim=6, seed=1)
    batcher = ModalityBatcher.build(schema, table)
    # index 0 and items 3 and 4 carry no features
    col = columnar([EncodedExample(values=(1, i), label=1.0) for i in (0, 3, 4, 0)], schema)
    assert batcher.batch_terms(col) == (0.0, 0.0, 0)


@pytest.mark.parametrize("d_m", [16, 13])
def test_modality_batcher_difference_is_the_per_row_loop_bit_for_bit(d_m):
    schema = make_schema([("user_id", "categorical", 4), ("item_id", "categorical", 12)])
    spec = field_named(schema, "item_id")
    # the last item has no features, like index 0
    table = synthesize_modality_features(list(spec.vocab)[:-1], dim=d_m, seed=d_m)
    batcher = ModalityBatcher.build(schema, table)
    gen = np.random.default_rng(d_m)
    items = gen.integers(0, spec.cardinality, size=256)  # repeats and index-0 rows
    assert (items == 0).any() and (items == spec.cardinality - 1).any()
    col = columnar(
        [EncodedExample(values=(1, int(i)), label=1.0) for i in items], schema)
    _, l_d, count = batcher.batch_terms(col)

    # the oracle: one difference_loss call per row, summed in row order
    features = dict(zip(table.keys, table.vectors))
    want, want_count = 0.0, 0
    for i in items:
        key = value_of(spec, int(i))
        if key in features:
            sa, sv, pa, pv = features[key]
            want += difference_loss(pa, sa, pv, sv)
            want_count += 1
    assert count == want_count
    assert l_d == want / want_count


def test_fit_computes_the_difference_table_once(monkeypatch):
    schema, examples = tiny_dataset()
    table = synthesize_modality_features(list(field_named(schema, "item_id").vocab),
                                         dim=8, seed=2)
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return difference_loss(*args)

    monkeypatch.setattr(training, "difference_loss", counted)
    config = tiny_config(max_epochs=3, patience=3)
    result = fit(ops_for("fm"), schema, *parts(schema, examples, 40), config,
                 modality_table=table)
    assert result.epochs_run == 3
    assert calls == [len(table.keys)]


def test_modality_batcher_requires_item_field():
    schema = make_schema([("a", "categorical", 3), ("b", "categorical", 3)])
    with pytest.raises(ConfigError):
        ModalityBatcher.build(schema, synthesize_modality_features(["x"], 4, 0))


def test_modality_batcher_maps_keys_to_rows_and_the_later_key_wins():
    schema = FeatureSchema((FieldSpec("user_id", "categorical", ("u",)),
                            FieldSpec("movie_id", "categorical", (7, 8))))
    # "08" and 8 both land on row 2 (text keys fall back to int), and the key
    # first seen later wins; "x" and "9" are outside the vocabulary
    keys = ["08", "x", 7, 8, "9"]
    vectors = np.arange(len(keys) * 4 * 3, dtype=np.float64).reshape(len(keys), 4, 3) / 50.0
    batcher = ModalityBatcher.build(schema, ModalityTable(keys, vectors))
    assert batcher.present.tolist() == [False, True, True]
    assert np.array_equal(batcher.shared_audio, [np.zeros(3), vectors[2, 0], vectors[3, 0]])
    assert np.array_equal(batcher.shared_visual, [np.zeros(3), vectors[2, 1], vectors[3, 1]])
    want = [0.0] + [difference_loss(v[2], v[0], v[3], v[1]) for v in vectors[[2, 3]]]
    assert batcher.difference.tolist() == want
    # the same keys in the other order: now "08" is seen later and wins row 2
    batcher = ModalityBatcher.build(schema, ModalityTable(keys[::-1], vectors[::-1]))
    assert np.array_equal(batcher.shared_audio[2], vectors[0, 0])


def test_modality_batcher_rejects_a_table_that_matches_no_item():
    schema = FeatureSchema((FieldSpec("user_id", "categorical", ("u",)),
                            FieldSpec("movie_id", "categorical", (7, 8))))
    table = ModalityTable(["x", "9", "zz"], np.zeros((3, 4, 2)))
    with pytest.raises(ConfigError, match="none of the 3 modality feature keys is an item "
                                          "of the movie_id vocabulary"):
        ModalityBatcher.build(schema, table)


def test_fit_with_modality_table_reports_terms():
    schema, examples = tiny_dataset()
    spec = field_named(schema, "item_id")
    table = synthesize_modality_features(list(spec.vocab), dim=8, seed=2)
    ops = ops_for("ours")
    config = tiny_config(max_epochs=2, patience=2)
    result = fit(ops, schema, *parts(schema, examples, 40), config, modality_table=table)
    for point in result.curve:
        assert point.l_s is not None and point.l_s > 0.0
        assert point.l_d is not None and point.l_d > 0.0
        row = point.csv_row()
        assert row.count(",") == 7
    assert curve_csv_header(True).endswith(",l_s,l_d")
    assert curve_csv_header(False) == "epoch,train_loss,val_auc,val_logloss,d,seed"

    # reported training loss carries the weighted modality terms
    plain = fit(ops, schema, *parts(schema, examples, 40),
                tiny_config(max_epochs=2, patience=2))
    p0, q0 = result.curve[0], plain.curve[0]
    want = q0.train_loss + config.lambda_sim * p0.l_s + config.lambda_diff * p0.l_d
    assert abs(p0.train_loss - want) < 1e-12


def test_sweep_emits_rows_and_curves_per_dim():
    schema, examples = tiny_dataset(n=60, seed=3)
    config = tiny_config(max_epochs=2, patience=2)
    result = sweep("ours", schema, *parts(schema, examples, 40, 50),
                   config, dims=(8, 16))
    assert [r.dim for r in result.rows] == [8, 16]
    assert set(result.curves) == {8, 16}
    for d, curve in result.curves.items():
        assert all(p.dim == d for p in curve)
    assert result.failures == []
    assert SWEEP_CSV_HEADER == "d,auc,logloss"
    for r in result.rows:
        assert 0.0 <= r.auc <= 1.0 and r.logloss > 0.0
        assert r.csv_row().startswith(f"{r.dim},")


@pytest.mark.parametrize("kind", ["ours", "fm"])
def test_sweep_scores_the_test_split_as_evaluate_does(kind):
    schema, examples = tiny_dataset(n=60, seed=3)
    train, validation, test = parts(schema, examples, 40, 50)
    config = tiny_config(max_epochs=2, patience=2)
    result = sweep(kind, schema, train, validation, test, config, dims=(4, 8))
    assert [r.dim for r in result.rows] == [4, 8]
    ops = ops_for(kind)
    for row in result.rows:
        best = fit(ops, schema, train, validation, replace(config, dim=row.dim)).state.best
        report = evaluate(ops, best.params, test, schema)
        assert (row.auc.hex(), row.logloss.hex()) == (report.auc.hex(), report.logloss.hex())


def test_sweep_of_an_empty_test_split_is_refused_as_evaluate_refuses_it():
    schema, examples = tiny_dataset(n=60, seed=3)
    train, validation = parts(schema, examples, 40)
    empty = columnar([], schema)
    with pytest.raises(DomainError, match="cannot evaluate an empty split"):
        sweep("fm", schema, train, validation, empty, tiny_config(max_epochs=1), dims=(4,))


def test_sweep_records_non_finite_test_scores_as_a_failed_dim(monkeypatch):
    schema, examples = tiny_dataset(n=60, seed=3)
    # `evaluate` scores through the metrics module; `fit` keeps the real scorer
    monkeypatch.setattr(metrics, "score_split", lambda ops, params, col: np.full(col.n, np.nan))
    result = sweep("fm", schema, *parts(schema, examples, 40, 50), tiny_config(max_epochs=1),
                   dims=(4,))
    assert result.rows == [] and result.curves == {}
    assert result.failures == [(4, "10 of 10 scores are not finite")]


def test_sweep_validates_dims():
    schema, examples = tiny_dataset()
    config = tiny_config()
    train, rest = parts(schema, examples, 40)
    with pytest.raises(ConfigError):
        sweep("ours", schema, train, rest, rest, config, dims=())
    with pytest.raises(ConfigError):
        sweep("ours", schema, train, rest, rest, config, dims=(0,))


def test_sweep_records_failures_without_raising():
    schema, examples = tiny_dataset(n=60, seed=5)
    config = tiny_config(learning_rate=1e100, clip_norm=0.0, max_epochs=5, patience=5,
                         batch_size=4, mode="combined")
    with np.errstate(all="ignore"):
        result = sweep("ours", schema, *parts(schema, examples, 48, 54),
                       config, dims=(8,))
    assert result.rows == []
    assert len(result.failures) == 1
    dim, message = result.failures[0]
    assert dim == 8 and "non-finite loss" in message


def test_init_state_moments_match_parameters():
    schema, _ = tiny_dataset()
    ops = ops_for("ours")
    state = init_state(ops, schema, tiny_config())
    names = [n for n, _ in state.params.named_tensors()]
    m, v = dict(state.m.named_tensors()), dict(state.v.named_tensors())
    assert list(m) == names and list(v) == names
    for name, t in state.params.named_tensors():
        assert m[name].shape == t.shape
        assert np.all(m[name] == 0.0) and np.all(v[name] == 0.0)
    assert state.t == 0 and state.epoch == 0


# ---------------------------------------------------------------------------
# the one check of a split


CHECK_SCHEMA = make_schema([("user_id", "categorical", 4), ("tags", "multi_categorical", 4),
                            ("t", "continuous", (0.0, 1.0))])
CHECK_ROWS = [EncodedExample(values=(u % 4, (1, 3) if u % 2 else (2,), u / 8), label=u % 2)
              for u in range(8)]


def broken_split(case):
    """A hand-built split of CHECK_SCHEMA that breaks one rule of the check."""
    col = columnar(CHECK_ROWS, CHECK_SCHEMA)
    user, tags, t = col.fields
    if case == "index -1":
        user.idx[1] = -1
    elif case == "float index column":
        user.idx = user.idx.astype(np.float64)
    elif case == "bool index column":
        user.idx = user.idx.astype(bool)
    elif case == "unsorted multi-valued row":
        tags.padded[1, :2] = (3, 1)
    elif case == "repeated multi-valued row":
        tags.padded[1, :2] = (1, 1)
    elif case == "count of 0":
        tags.counts[1] = 0
    elif case == "label 2":
        col.labels[1] = 2.0
    elif case == "continuous NaN":
        t.vals[1] = np.nan
    elif case == "continuous 7.0":
        t.vals[1] = 7.0
    elif case == "field-kind mismatch":
        col.fields[2] = FieldColumn(kind=CATEGORICAL, idx=np.zeros(col.n, dtype=np.int64))
    elif case == "one field fewer":
        col.fields.pop()
    elif case == "float row count":
        col.n = float(col.n)
    elif case == "list of examples":
        return CHECK_ROWS
    return col


BROKEN = {
    "index -1": "field 0: index -1 outside",
    "float index column": "field 0: expected a 1-D int64 array",
    "bool index column": "field 0: expected a 1-D int64 array",
    "unsorted multi-valued row": r"field 1: the indices \[3, 1\] do not strictly increase",
    "repeated multi-valued row": r"field 1: the indices \[1, 1\] do not strictly increase",
    "count of 0": "field 1: a multi-valued row of 0 indices",
    "label 2": "label 2;",
    "continuous NaN": "field 2: value nan outside",
    "continuous 7.0": "field 2: value 7.0 outside",
    "field-kind mismatch": "field 2: a categorical column for the continuous field",
    "one field fewer": "the split has 2 fields, the schema 3",
    "float row count": "the row count 8.0 is not an integer",
    "list of examples": "a split must be a Columnar, not a list",
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_fit_evaluate_and_sweep_refuse_a_split_that_breaks_the_check(case):
    good = columnar(CHECK_ROWS, CHECK_SCHEMA)
    ops, config = ops_for("ours"), tiny_config(max_epochs=1)
    match = BROKEN[case]
    with pytest.raises(EncodingError, match=match):
        fit(ops, CHECK_SCHEMA, broken_split(case), good, config)
    with pytest.raises(EncodingError, match=match):
        fit(ops, CHECK_SCHEMA, good, broken_split(case), config)
    with pytest.raises(EncodingError, match=match):
        evaluate(ops, ops.init(CHECK_SCHEMA, 4, Rng(0)), broken_split(case), CHECK_SCHEMA)
    with pytest.raises(EncodingError, match=match):
        sweep("ours", CHECK_SCHEMA, good, good, broken_split(case), config, dims=(4,))


def test_the_check_passes_the_hand_built_split_unbroken():
    good = columnar(CHECK_ROWS, CHECK_SCHEMA)
    result = fit(ops_for("ours"), CHECK_SCHEMA, good, good, tiny_config(max_epochs=1))
    assert result.epochs_run == 1


def test_a_forked_child_fits_after_its_parent_did():
    # the parent's fit starts the branch worker; a forked child has no such thread
    schema, examples = tiny_dataset()
    ops = ops_for("ours")
    config = tiny_config(seed=4, max_epochs=1, mode="combined")
    want = fit(ops, schema, *parts(schema, examples, 40), config).curve

    def child():
        got = fit(ops, schema, *parts(schema, examples, 40), config).curve
        if got != want:
            raise SystemExit(2)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=10)
    assert not proc.is_alive()
    assert proc.exitcode == 0


def test_two_fits_in_two_threads_give_the_parameters_of_two_serial_fits():
    schema, examples = tiny_dataset()
    ops = ops_for("ours")
    splits = parts(schema, examples, 40)
    configs = [tiny_config(seed=seed, mode="combined") for seed in (0, 1)]
    calls = numerics._openblas_thread_calls()
    before = calls[0]() if calls else None
    serial = [fit(ops, schema, *splits, config) for config in configs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = [f.result(timeout=120) for f in [pool.submit(fit, ops, schema, *splits, config)
                                                    for config in configs]]
    for want, got in zip(serial, threaded):
        a, b = snapshot_tensors(want.state.params), snapshot_tensors(got.state.params)
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name
        assert got.curve == want.curve
    if calls:
        assert calls[0]() == before


def test_an_evaluate_beside_a_fit_gives_the_solo_results():
    schema, examples = tiny_dataset()
    ops = ops_for("ours")
    train, val = parts(schema, examples, 40)
    config = tiny_config(seed=3, mode="combined")
    calls = numerics._openblas_thread_calls()
    before = calls[0]() if calls else None
    want = fit(ops, schema, train, val, config)
    params = want.state.best.params
    solo = evaluate(ops, params, val, schema)
    with ThreadPoolExecutor(max_workers=1) as pool:
        fitting = pool.submit(fit, ops, schema, train, val, config)
        reports = [evaluate(ops, params, val, schema)]
        while not fitting.done():
            reports.append(evaluate(ops, params, val, schema))
        got = fitting.result(timeout=120)
    for report in reports:
        assert (report.auc.hex(), report.logloss.hex()) == (solo.auc.hex(), solo.logloss.hex())
        assert (report.n_pos, report.n_neg) == (solo.n_pos, solo.n_neg)
    a, b = snapshot_tensors(want.state.params), snapshot_tensors(got.state.params)
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name
    assert got.curve == want.curve
    if calls:
        assert calls[0]() == before
