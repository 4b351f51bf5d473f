"""The benchmark's span tracer wraps arec attributes by name, and `arec`
exports its public names; these tests fail as soon as one of those names is
deleted or renamed."""

import numpy as np

import arec
import arec.cli  # noqa: F401  (the tracer patches attributes of every module)
from arec.model import ops_for
from arec.numerics import Rng

from helpers import load_bench, make_schema, random_example
from oracle import columnar


def test_every_traced_hook_exists_and_is_restored():
    tracing = load_bench("tracing")
    targets = [(owner, attr) for owner, attr, _, _ in tracing._targets(arec)]
    before = [owner.__dict__[attr] for owner, attr in targets]
    with tracing.installed(tracing.Recorder(), arec):
        during = [owner.__dict__[attr] for owner, attr in targets]
    assert all(w is not raw for w, raw in zip(during, before))
    assert [owner.__dict__[attr] for owner, attr in targets] == before


def test_traced_forward_records_layer_spans():
    tracing = load_bench("tracing")
    schema = make_schema([("user_id", "categorical", 4), ("item_id", "categorical", 5),
                          ("tags", "multi_categorical", 3)])
    gen = np.random.default_rng(0)
    col = columnar([random_example(schema, gen) for _ in range(3)], schema)
    ops = ops_for("ours")
    params = ops.init(schema, 4, Rng(0))
    recorder = tracing.Recorder()
    with tracing.installed(recorder, arec):
        arec.cli.ops_for("ours").forward_batch(col, params)
    names = {s.name for s in recorder.spans}
    assert {"model.forward", "embedding.embed_batch", "interaction.forward",
            "model.deep_forward", "numerics.softmax_rows"} <= names


def test_every_public_name_resolves():
    assert [name for name in arec.__all__ if not hasattr(arec, name)] == []
