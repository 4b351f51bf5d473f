"""Property tests for the two binary formats: the dataset cache and the
checkpoint.  Writes round-trip and every truncated prefix is a CacheError.  A
single corrupted byte makes a cache a CacheError, and a checkpoint a CacheError
or a clean load."""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arec.cli import CKPT_MAGIC, load_checkpoint, rebuild_params, save_checkpoint
from arec.data import (
    CACHE_MAGIC,
    CacheError,
    CachedDataset,
    Columnar,
    DatasetSplit,
    load_cache,
    parse_movielens,
    prepare_dataset,
    save_cache,
)
from arec.model import MODEL_KINDS, MODES, ops_for
from arec.numerics import Rng
from arec.training import BestSnapshot, TrainConfig, init_state

import mlsynth
from helpers import assert_columns_equal, encoded_rows, records_of

PROPS = settings(derandomize=True, max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("persistence")


@pytest.fixture(scope="module")
def table(workdir):
    raw = workdir / "raw"
    mlsynth.write_ml1m(str(raw), n_users=12, n_movies=16, n_ratings=150, seed=1)
    return parse_movielens(str(raw / "ratings.dat"), str(raw / "users.dat"),
                           str(raw / "movies.dat"))


@pytest.fixture(scope="module")
def dataset(table):
    return prepare_dataset(table, ratios=(0.8, 0.1, 0.1), seed=3, tag="props")


@pytest.fixture(scope="module")
def rows(table):
    """The dataset's splits as lists of encoded examples."""
    return encoded_rows(records_of(table), (0.8, 0.1, 0.1), seed=3)[1]


def snapshot(ops, schema, config, gen):
    """A best-epoch snapshot with random moments, so every block carries data."""
    state = init_state(ops, schema, config)
    m = {name: gen.standard_normal(t.shape) for name, t in state.m.items()}
    v = {name: gen.random(t.shape) for name, t in state.v.items()}
    return BestSnapshot(params=state.params, m=m, v=v, t=int(gen.integers(0, 1000)),
                        rng_state=state.rng.get_state(), epoch=int(gen.integers(1, 20)),
                        val_auc=float(gen.random()), val_logloss=float(gen.random() * 3))


@pytest.fixture(scope="module")
def files(workdir, dataset):
    """(loader, bytes, length of the part before the bulk data) per format."""
    cache = workdir / "base.cache"
    save_cache(str(cache), dataset)
    empty = dataclasses.replace(dataset, split=dataclasses.replace(
        dataset.split, train=[], validation=[], test=[]))
    save_cache(str(workdir / "empty.cache"), empty)

    ckpt = workdir / "base.ckpt"
    config = TrainConfig(dim=4, heads=2, ac_hidden=3, deep_hidden=(5,), first_order=True)
    save_checkpoint(str(ckpt), "ours", config, dataset.schema.hash_hex(),
                    snapshot(ops_for("ours"), dataset.schema, config,
                             np.random.default_rng(0)))
    blob = ckpt.read_bytes()
    pos = len(CKPT_MAGIC) + 4 + 32
    for _ in range(2):  # the header and RNG-state JSON blocks
        pos += 8 + struct.unpack_from("<Q", blob, pos)[0]
    return {
        "cache": (load_cache, cache.read_bytes(), (workdir / "empty.cache").stat().st_size),
        "checkpoint": (load_checkpoint, blob, pos),
    }


@PROPS
# one-, two-, three- and four-byte UTF-8 characters
@given(tag=st.text(alphabet="a :\x00é€😀", max_size=12), seed=st.integers(0, 2**64 - 1),
       keep=st.integers(0, 120), ratios=st.tuples(*[st.floats(0, 1)] * 3))
def test_cache_roundtrip(workdir, dataset, rows, tag, seed, keep, ratios):
    train, validation, test = rows
    cached = CachedDataset(schema=dataset.schema, tag=tag, split=DatasetSplit(
        train=train[:keep], validation=validation, test=test[keep % 7 :],
        seed=seed, ratios=ratios))
    path = workdir / "roundtrip.cache"
    save_cache(str(path), cached)
    loaded = load_cache(str(path))
    assert loaded.schema.to_json() == cached.schema.to_json()
    assert loaded.tag == tag
    assert (loaded.split.seed, loaded.split.ratios) == (seed, ratios)
    for part in ("train", "validation", "test"):
        want = Columnar.from_examples(getattr(cached.split, part), dataset.schema)
        assert_columns_equal(getattr(loaded.split, part), want)


@st.composite
def configs(draw):
    heads = draw(st.integers(1, 3))
    return TrainConfig(
        dim=heads * draw(st.integers(1, 2)),
        heads=heads,
        attn_dim=draw(st.none() | st.sampled_from([heads, 2 * heads])),
        ac_hidden=draw(st.integers(1, 4)),
        deep_hidden=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))),
        mode=draw(st.sampled_from(MODES)),
        first_order=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32)),
        learning_rate=draw(st.floats(0, 1)),
        clip_norm=draw(st.floats(0, 100)),
    )


@PROPS
@given(kind=st.sampled_from(MODEL_KINDS), config=configs(), data_seed=st.integers(0, 2**32))
def test_checkpoint_roundtrip(workdir, dataset, kind, config, data_seed):
    best = snapshot(ops_for(kind), dataset.schema, config, np.random.default_rng(data_seed))
    path = workdir / "roundtrip.ckpt"
    save_checkpoint(str(path), kind, config, dataset.schema.hash_hex(), best)
    ckpt = load_checkpoint(str(path))
    assert (ckpt.kind, ckpt.config, ckpt.schema_hash) == (kind, config, dataset.schema.hash_hex())
    assert (ckpt.t, ckpt.best_epoch, ckpt.val_auc, ckpt.val_logloss, ckpt.rng_state) == (
        best.t, best.epoch, best.val_auc, best.val_logloss, best.rng_state)
    named = dict(best.params.named_tensors())
    for stored, want in ((ckpt.tensors, named), (ckpt.m, best.m), (ckpt.v, best.v)):
        assert list(stored) == list(want)
        for name, arr in want.items():
            assert np.array_equal(stored[name], arr)


@pytest.mark.parametrize("kind", ["cache", "checkpoint"])
@PROPS
@given(data=st.data())
def test_every_truncated_prefix_is_a_cache_error(workdir, files, kind, data):
    load, blob, _ = files[kind]
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    path = workdir / f"truncated.{kind}"
    path.write_bytes(blob[:cut])
    with pytest.raises(CacheError):
        load(str(path))


@pytest.mark.parametrize("kind", ["cache", "checkpoint"])
@settings(PROPS, max_examples=300)
@given(data=st.data())
def test_single_byte_corruption_is_a_cache_error_or_a_clean_load(workdir, files, kind, data):
    load, blob, head = files[kind]
    # half the draws land in the header, where a flip changes structure
    pos = data.draw(st.integers(0, head - 1) | st.integers(0, len(blob) - 1), label="pos")
    mask = data.draw(st.integers(1, 255), label="mask")
    corrupt = bytearray(blob)
    corrupt[pos] ^= mask
    path = workdir / f"corrupt.{kind}"
    path.write_bytes(bytes(corrupt))
    if kind == "cache":  # every cache byte is checked, by a SHA-256 or a header test
        with pytest.raises(CacheError):
            load(str(path))
        return
    try:
        load(str(path))
    except CacheError:
        pass


def test_huge_row_count_is_a_cache_error_before_any_allocation(workdir, files):
    _, blob, _ = files["cache"]
    pos = len(CACHE_MAGIC) + 4 + 32  # magic, version, schema hash
    pos += 8 + struct.unpack_from("<Q", blob, pos)[0]  # schema JSON
    pos += 8 + struct.unpack_from("<Q", blob, pos)[0] + 32  # header section
    assert struct.unpack_from("<Q", blob, pos)[0] == 8  # the train row-count section
    count = struct.pack("<Q", 2**63)
    # a valid checksum, so only the section-length check stands in the way
    bad = blob[: pos + 8] + count + hashlib.sha256(count).digest() + blob[pos + 48 :]
    path = workdir / "huge.cache"
    path.write_bytes(bad)
    with pytest.raises(CacheError, match=f"expected {2**63} values"):
        load_cache(str(path))


def test_impossible_tensor_shape_is_a_cache_error(workdir, files):
    _, blob, head = files["checkpoint"]
    pos = head + 4  # past the tensor count, at the first tensor's name
    pos += 2 + struct.unpack_from("<H", blob, pos)[0]
    assert blob[pos] == 2  # a table: two dims follow
    # zero rows need no data bytes, so only the reshape can see the shape
    bad = blob[: pos + 1] + struct.pack("<2Q", 0, 2**64 - 1) + blob[pos + 17 :]
    path = workdir / "bad_shape.ckpt"
    path.write_bytes(bad)
    with pytest.raises(CacheError, match="impossible shape"):
        load_checkpoint(str(path))


REBUILDS = [
    ("ours", TrainConfig(dim=4, heads=2, ac_hidden=3, deep_hidden=(5,), first_order=True)),
    ("ours", TrainConfig(dim=4, heads=2, ac_hidden=3, deep_hidden=(5,), mode="deep")),
    ("fm", TrainConfig(dim=4)),
    ("deepfm", TrainConfig(dim=4, deep_hidden=(5, 3))),
]


@pytest.fixture(params=REBUILDS, ids=[f"{k}-{c.mode}" for k, c in REBUILDS])
def saved(request, workdir, dataset):
    kind, config = request.param
    path = workdir / f"rebuild-{kind}-{config.mode}.ckpt"
    save_checkpoint(str(path), kind, config, dataset.schema.hash_hex(),
                    snapshot(ops_for(kind), dataset.schema, config, np.random.default_rng(4)))
    return load_checkpoint(str(path))


def test_rebuild_draws_nothing_and_copies_every_tensor(saved, dataset, monkeypatch):
    def no_draw(*_args, **_kwargs):
        raise AssertionError("rebuild_params drew a random number")

    monkeypatch.setattr(Rng, "normal", no_draw)
    _, params = rebuild_params(saved, dataset.schema)
    named = dict(params.named_tensors())
    assert list(named) == list(saved.tensors)
    for name, stored in saved.tensors.items():
        assert np.array_equal(named[name], stored)
    if saved.config.mode == "deep":  # shallow weights are not saved: zeros, not garbage
        for t in (params.w_internal, params.w_cross, params.bias):
            assert not t.any()


def test_rebuild_rejects_a_tensor_the_model_does_not_fit(saved, dataset):
    name, first = next(iter(saved.tensors.items()))
    damaged = {
        "missing tensor": {k: v for k, v in saved.tensors.items() if k != name},
        "unknown tensors": {**saved.tensors, "extra.w": np.zeros(3)},
        "has shape": {**saved.tensors, name: np.zeros(first.shape + (1,))},
    }
    for message, tensors in damaged.items():
        with pytest.raises(CacheError, match=message):
            rebuild_params(dataclasses.replace(saved, tensors=tensors), dataset.schema)
