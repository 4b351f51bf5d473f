import itertools
import math

import numpy as np
import pytest

from arec.data import DomainError
from arec.metrics import EVAL_CSV_HEADER, EvalReport, MetricUndefinedError, auc, evaluate
from arec.model import ops_for
from arec.numerics import Rng

from helpers import make_schema, random_example, separable_examples


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
    report = evaluate(ops, params, examples, schema, tag="zeros")
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
    report = evaluate(ops, params, examples[:30], schema, tag="sep")
    assert report.auc == 1.0


def test_evaluate_empty_split_rejected():
    schema = make_schema([("u", "categorical", 3), ("i", "categorical", 3)])
    ops = ops_for("ours")
    params = ops.init(schema, 4, Rng(2))
    with pytest.raises(DomainError):
        evaluate(ops, params, [], schema)


def test_evaluate_propagates_single_class():
    schema = make_schema([("u", "categorical", 3), ("i", "categorical", 3)])
    ops = ops_for("fm")
    params = ops.init(schema, 4, Rng(3))
    gen = np.random.default_rng(6)
    examples = [random_example(schema, gen, label=1.0) for _ in range(10)]
    with pytest.raises(MetricUndefinedError):
        evaluate(ops, params, examples, schema)


def test_report_serialization():
    report = EvalReport(auc=0.75, logloss=0.5, n_pos=30, n_neg=70, tag="val")
    d = report.to_dict()
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
        report = evaluate(ops, params, examples, schema, tag=kind)
        scores = np.array([ops.predict(ex, params).probability for ex in examples])
        from arec.losses import logloss

        assert abs(report.auc - auc(scores, labels)) < 1e-10
        assert abs(report.logloss - logloss(scores, labels)) < 1e-10
