import dataclasses
import itertools
import math

import numpy as np
import pytest

import arec.metrics as metrics
from arec.data import Columnar, DomainError, parse_movielens, prepare_dataset
from arec.metrics import (
    EVAL_CSV_HEADER,
    EvalReport,
    MetricUndefinedError,
    auc,
    chunk_rows,
    evaluate,
    score_split,
)
from arec.model import MODES, ops_for
from arec.numerics import Rng
from arec.training import TrainConfig

import mlsynth
from helpers import make_schema, random_example, score_one, separable_examples
from oracle import columnar


def pairwise_auc(scores, labels):
    """O(P*N) comparison oracle: wins count 1, ties count one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_perfect_ranking():
    assert auc([0.9, 0.1], [1, 0]) == 1.0
    assert auc([0.1, 0.9], [1, 0]) == 0.0


def test_all_equal_scores_half():
    assert auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5


def test_matches_pairwise_oracle_200_random():
    gen = np.random.default_rng(0)
    scores = gen.uniform(size=200)
    # quantize some scores so ties actually occur
    scores[::3] = np.round(scores[::3], 1)
    labels = gen.integers(0, 2, size=200).astype(float)
    assert abs(auc(scores, labels) - pairwise_auc(scores, labels)) < 1e-12


def test_matches_pairwise_oracle_exhaustive_small():
    # every binary labeling with both classes present, n <= 6, tied score pools
    gen = np.random.default_rng(1)
    pool = np.array([0.1, 0.2, 0.2, 0.5, 0.5, 0.9])
    for n in range(2, 7):
        scores = pool[:n]
        for bits in itertools.product([0, 1], repeat=n):
            labels = np.array(bits, dtype=float)
            if labels.sum() in (0, n):
                continue
            assert abs(auc(scores, labels) - pairwise_auc(scores, labels)) < 1e-12


def test_matches_pairwise_oracle_n50_and_n500():
    gen = np.random.default_rng(2)
    for n in (50, 500):
        scores = np.round(gen.uniform(size=n), 2)  # heavy ties
        labels = gen.integers(0, 2, size=n).astype(float)
        if labels.sum() in (0, n):
            labels[0] = 1.0 - labels[0]
        assert abs(auc(scores, labels) - pairwise_auc(scores, labels)) < 1e-12


def test_monotone_transform_invariance():
    gen = np.random.default_rng(3)
    scores = gen.uniform(size=80)
    labels = gen.integers(0, 2, size=80).astype(float)
    base = auc(scores, labels)
    assert auc(3.0 * scores + 2.0, labels) == base
    assert auc(np.exp(scores), labels) == base
    assert auc(np.log(scores + 1e-9), labels) == base


def test_negated_scores_flip():
    gen = np.random.default_rng(4)
    scores = gen.uniform(size=60)
    labels = gen.integers(0, 2, size=60).astype(float)
    assert abs(auc(scores, labels) - (1.0 - auc(-scores, labels))) < 1e-12


def test_single_class_is_undefined():
    with pytest.raises(MetricUndefinedError) as err:
        auc([0.1, 0.9], [1, 1])
    assert "0 negatives" in str(err.value)
    with pytest.raises(MetricUndefinedError):
        auc([0.1, 0.9], [0, 0])


def test_label_and_shape_validation():
    with pytest.raises(DomainError):
        auc([0.1, 0.9], [0, 2])
    with pytest.raises(DomainError):
        auc([0.1, 0.9, 0.5], [0, 1])


def test_evaluate_all_zero_model():
    schema = make_schema([("u", "categorical", 3), ("i", "categorical", 3)])
    ops = ops_for("ours")
    params = ops.init(schema, 4, Rng(0))
    for _, t in params.named_tensors():
        t[...] = 0.0
    gen = np.random.default_rng(5)
    examples = [random_example(schema, gen) for _ in range(40)]
    labels = [ex.label for ex in examples]
    if sum(labels) in (0, len(labels)):
        pytest.fail("degenerate fixture")
    report = evaluate(ops, params, columnar(examples, schema), schema, tag="zeros")
    assert abs(report.logloss - math.log(2.0)) < 1e-12
    assert report.auc == 0.5
    assert report.n_pos + report.n_neg == 40
    assert report.tag == "zeros"


def test_evaluate_perfect_model_fixture():
    # shallow model with a hand-set bias-per-user embedding reaches AUC 1
    schema, examples = separable_examples(n_users=6, per_user=5)
    ops = ops_for("ours")
    params = ops.init(schema, 4, Rng(1))
    for _, t in params.named_tensors():
        t[...] = 0.0
    # drive the logit through the first-order style route: internal branch off,
    # cross branch off, bias 0; embed users so that relu(res-projection) ranks them
    params.embedding.tables[0][1:4, 0] = 5.0  # clicking users
    params.embedding.tables[0][4:, 0] = -5.0
    dict(params.mhsa.named_tensors())["mhsa.res"][0, 0] = 1.0
    params.w_internal[0] = 1.0
    report = evaluate(ops, params, columnar(examples[:30], schema), schema, tag="sep")
    assert report.auc == 1.0


def test_evaluate_empty_split_rejected():
    schema = make_schema([("u", "categorical", 3), ("i", "categorical", 3)])
    ops = ops_for("ours")
    params = ops.init(schema, 4, Rng(2))
    with pytest.raises(DomainError):
        evaluate(ops, params, columnar([], schema), schema)


def test_evaluate_propagates_single_class():
    schema = make_schema([("u", "categorical", 3), ("i", "categorical", 3)])
    ops = ops_for("fm")
    params = ops.init(schema, 4, Rng(3))
    gen = np.random.default_rng(6)
    examples = [random_example(schema, gen, label=1.0) for _ in range(10)]
    with pytest.raises(MetricUndefinedError):
        evaluate(ops, params, columnar(examples, schema), schema)


def test_report_serialization():
    report = EvalReport(auc=0.75, logloss=0.5, n_pos=30, n_neg=70, tag="val")
    d = dataclasses.asdict(report)
    assert d == {"tag": "val", "auc": 0.75, "logloss": 0.5, "n_pos": 30, "n_neg": 70}
    row = report.csv_row()
    assert row == "val,0.75,0.5,30,70"
    assert EVAL_CSV_HEADER == "tag,auc,logloss,n_pos,n_neg"


def test_evaluate_matches_per_example_scoring():
    schema = make_schema([
        ("u", "categorical", 4),
        ("i", "categorical", 5),
        ("g", "multi_categorical", 3),
    ])
    gen = np.random.default_rng(7)
    for kind in ("ours", "fm", "deepfm"):
        ops = ops_for(kind)
        params = ops.init(schema, 4, Rng(8))
        examples = [random_example(schema, gen) for _ in range(25)]
        labels = np.array([ex.label for ex in examples])
        if labels.sum() in (0, len(labels)):
            continue
        report = evaluate(ops, params, columnar(examples, schema), schema, tag=kind)
        scores = np.array([score_one(ops, params, schema, ex)[0] for ex in examples])
        from arec.losses import logloss

        assert abs(report.auc - auc(scores, labels)) < 1e-10
        assert abs(report.logloss - logloss(scores, labels)) < 1e-10


# ---------------------------------------------------------------------------
# chunked scoring


@pytest.fixture(scope="module")
def ml_dataset(tmp_path_factory):
    raw = tmp_path_factory.mktemp("chunks") / "raw"
    mlsynth.write_ml1m(str(raw), n_users=40, n_movies=60, n_ratings=1500, seed=4)
    table = parse_movielens(str(raw / "ratings.dat"), str(raw / "users.dat"),
                            str(raw / "movies.dat"))
    return prepare_dataset(table, ratios=(0.8, 0.1, 0.1), seed=3, tag="chunks")


MODEL_CONFIGS = [("ours", TrainConfig(mode=mode)) for mode in MODES] + [
    ("fm", TrainConfig()),
    ("deepfm", TrainConfig()),
]


def scored_in_chunks(ops, params, col, monkeypatch, budget):
    """score_split under a byte budget, and the row count of each chunk."""
    sizes = []

    def forward(chunk, p):
        sizes.append(chunk.n)
        return ops.forward_batch(chunk, p)

    monkeypatch.setattr(metrics, "_CHUNK_BYTES", budget)
    return score_split(dataclasses.replace(ops, forward_batch=forward), params, col), sizes


def assert_chunking_is_exact(ops, params, col, monkeypatch):
    """The rule's chunks and 32-row chunks score as 4096-row chunks do, bit for bit."""
    rows = chunk_rows(params)
    rule = metrics._CHUNK_BYTES
    parent, sizes = scored_in_chunks(ops, params, col, monkeypatch,
                                     4096 * 8 * params.row_floats())
    assert sizes == [col.n]  # the split fits one 4096-row chunk
    for budget, want in ((rule, rows), (1, 32)):
        scores, sizes = scored_in_chunks(ops, params, col, monkeypatch, budget)
        assert sum(sizes) == col.n and min(sizes) >= 32
        assert sizes[:-1] == [want] * (len(sizes) - 1)
        assert np.array_equal(scores, parent)
    return rows


@pytest.mark.parametrize("kind, config", MODEL_CONFIGS,
                         ids=[f"{k}-{c.mode}" for k, c in MODEL_CONFIGS])
def test_chunked_scores_equal_one_chunk_bit_for_bit(ml_dataset, monkeypatch, kind, config):
    ops = ops_for(kind)
    schema = ml_dataset.schema
    params = ops.init(schema, 16, Rng(5), **config.model_kwargs())
    col = Columnar.from_examples(ml_dataset.split.train, schema)
    rows = assert_chunking_is_exact(ops, params, col, monkeypatch)
    # the benchmark's shapes: 7 fields at d=16, 21 pairs scored by a 32-wide
    # network, so 512 KiB holds 97 rows of `ours` and 585 of FM, rounded down
    assert schema.n_fields == 7
    assert rows == {"ours": 96, "fm": 576, "deepfm": 576}[kind]


def test_a_wide_schema_scores_at_the_32_row_floor(monkeypatch):
    # 40 fields cross as 780 pairs: 780 * 32 floats a row, 2 rows to 512 KiB
    schema = make_schema([(f"f{i}", "categorical", 5) for i in range(40)])
    ops = ops_for("ours")
    params = ops.init(schema, 8, Rng(6), **TrainConfig().model_kwargs())
    gen = np.random.default_rng(7)
    col = columnar([random_example(schema, gen) for _ in range(150)], schema)
    assert params.row_floats() == 780 * 32
    assert assert_chunking_is_exact(ops, params, col, monkeypatch) == 32


def test_a_short_tail_joins_the_chunk_before_it(monkeypatch):
    schema = make_schema([("u", "categorical", 4), ("i", "categorical", 4)])
    ops = ops_for("fm")
    params = ops.init(schema, 4, Rng(3))
    gen = np.random.default_rng(8)
    examples = [random_example(schema, gen) for _ in range(100)]
    for n, want in ((31, [31]), (64, [32, 32]), (95, [32, 63]), (100, [32, 32, 36])):
        col = columnar(examples[:n], schema)
        _, sizes = scored_in_chunks(ops, params, col, monkeypatch, 1)
        assert sizes == want
