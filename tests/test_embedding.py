import numpy as np
import pytest

from arec.data import CATEGORICAL, MULTI_CATEGORICAL, EncodingError
from arec.embedding import (
    EmbeddingParams,
    embed_batch,
    embed_batch_backward,
    init_embedding,
    zeros_like_embedding,
)
from arec.numerics import Rng

from helpers import embed_one, make_schema, random_example, random_schema
from oracle import EncodedExample, columnar, finite_diff_grad, rel_error


def small_setup(dim=4, seed=0):
    schema = make_schema([
        ("user", "categorical", 5),
        ("tags", "multi_categorical", 6),
        ("when", "continuous", (0.0, 1.0)),
    ])
    params = init_embedding(schema, dim, Rng(seed))
    return schema, params


def test_init_shapes_follow_schema():
    schema, params = small_setup(dim=3)
    assert params.dim == 3 and params.n_fields == 3
    assert params.tables[0].shape == (6, 3)  # vocab 5 + reserved slot
    assert params.tables[1].shape == (7, 3)
    assert params.tables[2].shape == (3,)
    names = [name for name, _ in params.named_tensors()]
    assert names == ["emb.f0", "emb.f1", "emb.f2"]


def test_init_statistics_match_declared_std():
    schema = make_schema([("big", "categorical", 4000)])
    params = init_embedding(schema, 8, Rng(0))
    table = params.tables[0][1:]  # skip nothing special, just lots of draws
    assert abs(table.std() - 0.1) < 0.005
    assert abs(table.mean()) < 0.005


def test_categorical_row_lookup_exact():
    schema, params = small_setup()
    ex = EncodedExample(values=(3, (1,), 0.5), label=1)
    out = embed_one(params, schema, ex)
    assert np.array_equal(out[0], params.tables[0][3])


def test_multi_hot_average_of_rows():
    schema, params = small_setup()
    ex = EncodedExample(values=(0, (2, 5), 0.0), label=0)
    out = embed_one(params, schema, ex)
    want = (params.tables[1][2] + params.tables[1][5]) / 2.0
    assert np.max(np.abs(out[1] - want)) < 1e-15


def test_continuous_zero_gives_zero_row():
    schema, params = small_setup()
    ex = EncodedExample(values=(0, (1,), 0.0), label=0)
    out = embed_one(params, schema, ex)
    assert np.all(out[2] == 0.0)
    ex2 = EncodedExample(values=(0, (1,), 0.25), label=0)
    out2 = embed_one(params, schema, ex2)
    assert np.max(np.abs(out2[2] - 0.25 * params.tables[2])) < 1e-15


def test_output_shape_independent_of_multi_count():
    schema, params = small_setup(dim=5)
    for payload in [(1,), (1, 2), (1, 2, 3, 4)]:
        ex = EncodedExample(values=(0, payload, 0.3), label=0)
        assert embed_one(params, schema, ex).shape == (3, 5)


def one_row_grads(schema, ex, params, upstream):
    """Gradient tables of a one-row batch of `ex` under `upstream` (n, d)."""
    return embed_batch_backward(columnar([ex], schema), params, upstream[None])


def test_embed_rejects_out_of_range_index():
    # the columns refuse such a row before any lookup runs
    schema, _ = small_setup()
    bad = [
        EncodedExample(values=(99, (1,), 0.0), label=0),
        EncodedExample(values=(-1, (1,), 0.0), label=0),
        EncodedExample(values=(0, (1, 42), 0.0), label=0),
        EncodedExample(values=(0, (), 0.0), label=0),  # empty multi-valued field
    ]
    good = EncodedExample(values=(1, (2,), 0.5), label=0)
    for ex in bad:
        with pytest.raises(EncodingError):
            columnar([ex], schema)
        with pytest.raises(EncodingError):
            columnar([good, ex], schema)


def test_backward_single_row_equals_upstream():
    schema, params = small_setup(dim=4)
    ex = EncodedExample(values=(2, (3,), 0.4), label=1)
    upstream = Rng(1).normal((3, 4))
    grads = one_row_grads(schema, ex, params, upstream)
    assert np.array_equal(grads.tables[0][2], upstream[0])
    assert np.flatnonzero(np.any(grads.tables[0] != 0.0, axis=1)).tolist() == [2]


def test_backward_multi_hot_splits_upstream():
    schema, params = small_setup(dim=4)
    ex = EncodedExample(values=(0, (2, 5), 0.0), label=0)
    upstream = Rng(2).normal((3, 4))
    grads = one_row_grads(schema, ex, params, upstream)
    assert np.max(np.abs(grads.tables[1][2] - upstream[1] / 2.0)) < 1e-15
    assert np.max(np.abs(grads.tables[1][5] - upstream[1] / 2.0)) < 1e-15


def test_backward_continuous_scales_upstream():
    schema, params = small_setup(dim=4)
    ex = EncodedExample(values=(0, (1,), 0.7), label=0)
    upstream = Rng(3).normal((3, 4))
    grads = one_row_grads(schema, ex, params, upstream)
    assert np.max(np.abs(grads.tables[2] - 0.7 * upstream[2])) < 1e-15


def test_backward_untouched_rows_exactly_zero():
    schema, params = small_setup(dim=4)
    ex = EncodedExample(values=(2, (3, 4), 0.5), label=1)
    upstream = Rng(4).normal((3, 4))
    dense = one_row_grads(schema, ex, params, upstream)
    touched = {0: {2}, 1: {3, 4}}
    for f, table in enumerate(dense.tables[:2]):
        for row in range(table.shape[0]):
            if row not in touched[f]:
                assert np.all(table[row] == 0.0)


def test_backward_matches_finite_differences_50_draws():
    gen = np.random.default_rng(10)
    worst = 0.0
    for trial in range(50):
        schema = random_schema(gen)
        dim = int(gen.integers(2, 6))
        params = init_embedding(schema, dim, Rng(trial))
        ex = random_example(schema, gen)
        target = Rng(trial + 100).normal((schema.n_fields, dim))

        def objective_at(values, field):
            saved = params.tables[field]
            params.tables[field] = values.reshape(saved.shape)
            out = float(np.sum(embed_one(params, schema, ex) * target))
            params.tables[field] = saved
            return out

        dense = one_row_grads(schema, ex, params, target)
        for f in range(schema.n_fields):
            fd = finite_diff_grad(
                lambda v, f=f: objective_at(v, f), params.tables[f].ravel()
            ).reshape(params.tables[f].shape)
            worst = max(worst, rel_error(dense.tables[f], fd))
    assert worst <= 1e-4


def test_densify_matches_sparse_content():
    schema, params = small_setup(dim=3)
    ex = EncodedExample(values=(1, (2,), 0.9), label=1)
    upstream = Rng(5).normal((3, 3))
    dense = one_row_grads(schema, ex, params, upstream)
    assert np.array_equal(dense.tables[0][1], upstream[0])
    assert np.array_equal(dense.tables[1][2], upstream[1])
    assert np.max(np.abs(dense.tables[2] - 0.9 * upstream[2])) < 1e-15
    z = zeros_like_embedding(params)
    assert all(np.all(t == 0.0) for t in z.tables)


def test_duplicate_categorical_rows_accumulate():
    # two fields sharing nothing; duplicate index inside one example's multi set
    schema = make_schema([("a", "categorical", 3), ("b", "categorical", 3)])
    params = init_embedding(schema, 2, Rng(0))
    ex = EncodedExample(values=(1, 1), label=0)
    upstream = np.ones((2, 2))
    grads = one_row_grads(schema, ex, params, upstream)
    assert np.array_equal(grads.tables[0][1], upstream[0])
    assert np.array_equal(grads.tables[1][1], upstream[1])


def test_batched_forward_matches_per_example():
    gen = np.random.default_rng(20)
    for trial in range(10):
        schema = random_schema(gen)
        dim = int(gen.integers(2, 6))
        params = init_embedding(schema, dim, Rng(trial))
        examples = [random_example(schema, gen) for _ in range(7)]
        col = columnar(examples, schema)
        batch = embed_batch(col, params)
        assert batch.shape == (7, schema.n_fields, dim)
        for b, ex in enumerate(examples):
            assert np.max(np.abs(batch[b] - embed_one(params, schema, ex))) < 1e-14
    # an int continuous payload embeds as the float it equals, bit for bit
    schema, params = small_setup()
    for x in (0, 1):
        as_int = EncodedExample(values=(2, (1, 3), x), label=1)
        as_float = EncodedExample(values=(2, (1, 3), float(x)), label=1)
        assert np.array_equal(embed_one(params, schema, as_int), embed_one(params, schema, as_float))


def test_batched_backward_matches_per_example_sum():
    gen = np.random.default_rng(21)
    schema = random_schema(gen)
    dim = 4
    params = init_embedding(schema, dim, Rng(0))
    examples = [random_example(schema, gen) for _ in range(6)]
    col = columnar(examples, schema)
    upstream = Rng(9).normal((6, schema.n_fields, dim))

    dense_batch = embed_batch_backward(col, params, upstream)
    total = zeros_like_embedding(params)
    for b in range(len(examples)):
        frag = embed_batch_backward(col.take([b]), params, upstream[b : b + 1])
        for t, f in zip(total.tables, frag.tables):
            t += f
    for got, want in zip(dense_batch.tables, total.tables):
        assert np.max(np.abs(got - want)) < 1e-12


def test_columnar_take_subsets():
    gen = np.random.default_rng(22)
    schema = random_schema(gen)
    params = init_embedding(schema, 3, Rng(1))
    examples = [random_example(schema, gen) for _ in range(8)]
    col = columnar(examples, schema)
    sub = col.take(np.array([5, 1, 6]))
    batch = embed_batch(sub, params)
    for row, src in enumerate([5, 1, 6]):
        assert np.max(np.abs(batch[row] - embed_one(params, schema, examples[src]))) < 1e-14
    assert np.array_equal(sub.labels, np.array([examples[i].label for i in [5, 1, 6]], dtype=np.float64))


def add_at_2d(col, params, upstream):
    """The row scatter as `np.add.at` on each 2-D table: the bitwise oracle."""
    grads = zeros_like_embedding(params)
    for i, fc in enumerate(col.fields):
        g = upstream[:, i, :]
        if fc.kind == CATEGORICAL:
            np.add.at(grads.tables[i], fc.idx, g)
        elif fc.kind == MULTI_CATEGORICAL:
            mask = (np.arange(fc.padded.shape[1]) < fc.counts[:, None])[:, :, None]
            contrib = (g / fc.counts[:, None])[:, None, :] * mask
            np.add.at(grads.tables[i], fc.padded.ravel(), contrib.reshape(-1, params.dim))
        else:
            grads.tables[i] += fc.vals @ g
    return grads


def test_backward_scatter_equals_2d_add_at_bit_for_bit():
    # few categories over many rows: every row repeats, and multi-valued rows
    # of 1 to 5 picks leave padding slots that add zeros to row 0
    schema = make_schema([
        ("user", "categorical", 3),
        ("tags", "multi_categorical", 6),
        ("when", "continuous", (0.0, 1.0)),
    ])
    gen = np.random.default_rng(31)
    params = init_embedding(schema, 8, Rng(2))
    col = columnar([random_example(schema, gen) for _ in range(256)], schema)
    assert col.fields[1].counts.min() < col.fields[1].padded.shape[1]
    # magnitudes over 16 decades, so any change in addition order shows
    upstream = gen.standard_normal((256, 3, 8)) * 10.0 ** gen.uniform(-8, 8, (256, 3, 8))
    got = embed_batch_backward(col, params, upstream)
    want = add_at_2d(col, params, upstream)
    for g, w in zip(got.tables, want.tables):
        assert np.array_equal(g, w)
    flipped = add_at_2d(col.take(np.arange(255, -1, -1)), params, upstream[::-1])
    assert not np.array_equal(flipped.tables[0], want.tables[0])
