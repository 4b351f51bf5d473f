"""Property tests for the two binary files, the dataset cache and the
checkpoint, which share one layout: magic, version, a JSON header section and
checksummed array sections.  Writes round-trip, and every truncated prefix or
single corrupted byte of either file is a CacheError, as is a header whose
checksum holds but whose values are wrong."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arec import cli
from arec.cli import CKPT_MAGIC, load_checkpoint, rebuild_params, save_checkpoint
from arec.data import (
    CACHE_MAGIC,
    CACHE_VERSION,
    CacheError,
    CachedDataset,
    DatasetSplit,
    load_cache,
    parse_movielens,
    prepare_dataset,
    save_cache,
    write_section,
)
from arec.model import MODEL_KINDS, MODES, ops_for
from arec.numerics import Rng
from arec.training import BestSnapshot, TrainConfig, init_state

import mlsynth
from helpers import (assert_columns_equal, corruptions, encoded_rows, header_end, records_of,
                     rewrite_file)
from oracle import columnar

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
    """A best-epoch snapshot with random parameters, so every tensor carries data."""
    params = init_state(ops, schema, config).params
    for _, t in params.named_tensors():
        t[...] = gen.standard_normal(t.shape)
    return BestSnapshot(params=params, epoch=int(gen.integers(1, 20)),
                        val_auc=float(gen.random()), val_logloss=float(gen.random() * 3))


@pytest.fixture(scope="module")
def files(workdir, dataset):
    """(loader, bytes, where the header section ends) per file kind."""
    cache = workdir / "base.cache"
    save_cache(str(cache), dataset)
    ckpt = workdir / "base.ckpt"
    config = TrainConfig(dim=4, heads=2, ac_hidden=3, deep_hidden=(5,), first_order=True)
    save_checkpoint(str(ckpt), "ours", config, dataset.schema.hash_hex(),
                    snapshot(ops_for("ours"), dataset.schema, config,
                             np.random.default_rng(0)))
    return {kind: (load, path.read_bytes(), header_end(path.read_bytes()))
            for kind, load, path in (("cache", load_cache, cache),
                                     ("checkpoint", load_checkpoint, ckpt))}


@PROPS
# one-, two-, three- and four-byte UTF-8 characters
@given(tag=st.text(alphabet="a :\x00é€😀", max_size=12),
       seed=st.integers(0, 2**64 - 1) | st.integers(0, 2**64 - 1).map(np.uint64),
       keep=st.integers(0, 120), ratios=st.tuples(*[st.floats(0, 1)] * 3))
def test_cache_roundtrip(workdir, dataset, rows, tag, seed, keep, ratios):
    train, validation, test = rows
    train, validation, test = (columnar(part, dataset.schema)
                               for part in (train[:keep], validation, test[keep % 7 :]))
    cached = CachedDataset(schema=dataset.schema, tag=tag, split=DatasetSplit(
        train=train, validation=validation, test=test, seed=seed, ratios=ratios))
    path = workdir / "roundtrip.cache"
    save_cache(str(path), cached)
    loaded = load_cache(str(path))
    assert loaded.schema.to_json() == cached.schema.to_json()
    assert loaded.tag == tag
    assert (loaded.split.seed, loaded.split.ratios) == (seed, ratios)
    for part in ("train", "validation", "test"):
        assert_columns_equal(getattr(loaded.split, part), getattr(cached.split, part))


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
    assert (ckpt.best_epoch, ckpt.val_auc, ckpt.val_logloss) == (
        best.epoch, best.val_auc, best.val_logloss)
    assert ckpt.flat.dtype == np.float64
    assert ckpt.flat.tobytes() == best.params.flat.tobytes()


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
def test_single_byte_corruption_is_a_cache_error(workdir, files, kind, data):
    load, blob, head = files[kind]
    # half the draws land in the header, where a flip changes structure
    pos = data.draw(st.integers(0, head - 1) | st.integers(0, len(blob) - 1), label="pos")
    mask = data.draw(st.integers(1, 255), label="mask")
    corrupt = bytearray(blob)
    corrupt[pos] ^= mask
    path = workdir / f"corrupt.{kind}"
    path.write_bytes(bytes(corrupt))
    # every byte after the version is under a SHA-256; the magic and version are tested
    with pytest.raises(CacheError):
        load(str(path))


@PROPS
@given(data=st.data())
def test_a_damaged_cache_is_a_cache_error_whichever_splits_are_decoded(workdir, files, data):
    _, blob, _ = files["cache"]
    path = workdir / "damaged.cache"
    path.write_bytes(data.draw(corruptions(blob), label="blob"))
    splits = data.draw(st.lists(st.sampled_from(("train", "validation", "test")), unique=True,
                                max_size=2), label="splits")
    with pytest.raises(CacheError):
        load_cache(str(path), splits=tuple(splits))


def test_huge_row_count_is_a_cache_error_before_any_allocation(workdir, files):
    _, blob, _ = files["cache"]
    # a valid checksum, so only the section-length check stands in the way
    bad = rewrite_file(blob, lambda h, _: h["rows"].__setitem__(0, 2**63))
    path = workdir / "huge.cache"
    path.write_bytes(bad)
    with pytest.raises(CacheError, match=f"expected {2**63} values"):
        load_cache(str(path))


# each edit keeps the header valid JSON under a valid checksum
BAD_HEADERS = {
    "short-schema_hash": lambda h, _: h.update(schema_hash="ab" * 31),
    "non-hex-schema_hash": lambda h, _: h.update(schema_hash="z" * 64),
    "numeric-schema_hash": lambda h, _: h.update(schema_hash=7),
    "string-best_epoch": lambda h, _: h.update(best_epoch="3"),
    "fractional-best_epoch": lambda h, _: h.update(best_epoch=1.5),
    "string-val_auc": lambda h, _: h.update(val_auc="0.5"),
    "null-val_logloss": lambda h, _: h.update(val_logloss=None),
    "unknown-kind": lambda h, _: h.update(kind="lr"),
    "extra-key": lambda h, _: h.update(t=3),
    "version-2-tensor-list": lambda h, _: h.update(tensors=[["fm.bias", [1]]]),
}


@pytest.mark.parametrize("edit", BAD_HEADERS.values(), ids=BAD_HEADERS.keys())
def test_bad_header_value_is_a_cache_error_and_eval_exits_two(workdir, files, edit, capsys):
    _, blob, _ = files["checkpoint"]
    path = workdir / "bad_header.ckpt"
    path.write_bytes(rewrite_file(blob, edit))
    with pytest.raises(CacheError, match="bad checkpoint header"):
        load_checkpoint(str(path))
    code = cli.main(["eval", "--cache", str(workdir / "base.cache"), "--ckpt", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and "Traceback" not in captured.err


# each edit keeps the parameters section under a valid checksum
RAGGED_PARAMETERS = {
    "one-byte-short": lambda p: p[:-1],
    "seven-bytes-short": lambda p: p[:-7],
    "one-byte-long": lambda p: p + b"\0",
    "one-byte": lambda p: p[:1],
}


@pytest.mark.parametrize("edit", RAGGED_PARAMETERS.values(), ids=RAGGED_PARAMETERS.keys())
def test_parameters_section_of_a_ragged_length_is_a_cache_error_and_eval_exits_two(
        workdir, files, edit, capsys):
    _, blob, _ = files["checkpoint"]
    path = workdir / "ragged.ckpt"
    path.write_bytes(rewrite_file(blob, lambda _, arrays: arrays.__setitem__(0, edit(arrays[0]))))
    with pytest.raises(CacheError, match="not a whole number of 8-byte values"):
        load_checkpoint(str(path))
    code = cli.main(["eval", "--cache", str(workdir / "base.cache"), "--ckpt", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and "Traceback" not in captured.err


# each edit leaves a valid config that lays out a different number of parameters
RESIZED_CONFIGS = {
    "dim": lambda c: c.update(dim=6),
    "ac_hidden": lambda c: c.update(ac_hidden=4),
    "first_order": lambda c: c.update(first_order=False),
}


@pytest.mark.parametrize("edit", RESIZED_CONFIGS.values(), ids=RESIZED_CONFIGS.keys())
def test_config_edited_under_a_valid_checksum_fails_the_size_check_and_eval_exits_two(
        workdir, files, edit, capsys):
    _, blob, _ = files["checkpoint"]
    path = workdir / "resized.ckpt"
    path.write_bytes(rewrite_file(blob, lambda h, _: edit(h["config"])))
    load_checkpoint(str(path))  # the file itself is well formed
    code = cli.main(["eval", "--cache", str(workdir / "base.cache"), "--ckpt", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: checkpoint holds ") and "parameters" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("payload", [b"{", b"\xff", b"[" * 100_000, b"[]"],
                         ids=["truncated", "not-utf8", "deeply-nested", "not-an-object"])
def test_header_that_is_not_a_json_object_is_a_cache_error(workdir, payload):
    for magic, version, load, what in ((CKPT_MAGIC, cli.CKPT_VERSION, load_checkpoint, "checkpoint"),
                                       (CACHE_MAGIC, CACHE_VERSION, load_cache, "cache")):
        blob = bytearray(magic + version.to_bytes(4, "little"))
        write_section(blob, payload)
        path = workdir / f"bad_json.{what}"
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheError, match=f"bad JSON in {what}|bad {what} header"):
            load(str(path))


def _field(name):
    return lambda h: next(f for f in h["schema"]["fields"] if f["name"] == name)


# each edit keeps the cache header valid JSON under a valid checksum
BAD_CACHE_HEADERS = {
    "schema-not-json-text": lambda h, _: h.update(schema='{"fields": ['),
    "schema-empty-object": lambda h, _: h.update(schema={}),
    "schema-a-list": lambda h, _: h.update(schema=[]),
    "vocab-not-a-list": lambda h, _: _field("gender")(h).update(vocab="FM"),
    "unknown-field-kind": lambda h, _: _field("age")(h).update(kind="ordinal"),
    "vocab-of-lists": lambda h, _: _field("genres")(h).update(vocab=[["Drama"]]),
    "continuous-with-vocab": lambda h, _: _field("timestamp")(h).update(vocab=["x"]),
    "string-bound": lambda h, _: _field("timestamp")(h).update(hi="9"),
    "field-missing-key": lambda h, _: _field("age")(h).pop("lo"),
    "duplicate-field-name": lambda h, _: _field("age")(h).update(name="gender"),
    "tag-not-a-string": lambda h, _: h.update(tag=5),
    "negative-seed": lambda h, _: h.update(seed=-1),
    "boolean-seed": lambda h, _: h.update(seed=True),
    "seed-past-u64": lambda h, _: h.update(seed=2**64),
    "two-ratios": lambda h, _: h.update(ratios=[0.5, 0.5]),
    "negative-row-count": lambda h, _: h["rows"].__setitem__(0, -1),
    "fractional-row-count": lambda h, _: h["rows"].__setitem__(1, 2.0),
    "row-count-off-by-one": lambda h, _: h["rows"].__setitem__(2, h["rows"][2] + 1),
    "missing-key": lambda h, _: h.pop("tag"),
    "extra-key": lambda h, _: h.update(version=3),
}


@pytest.mark.parametrize("edit", BAD_CACHE_HEADERS.values(), ids=BAD_CACHE_HEADERS.keys())
def test_bad_cache_header_is_a_cache_error_and_train_and_eval_exit_two(workdir, files, edit,
                                                                        capsys):
    _, blob, _ = files["cache"]
    path = workdir / "bad_header.cache"
    path.write_bytes(rewrite_file(blob, edit))
    with pytest.raises(CacheError, match="bad cache header|expected"):
        load_cache(str(path))
    for argv in (["train", "--out", str(workdir / "never-written.ckpt")],
                 ["eval", "--ckpt", str(workdir / "base.ckpt")]):
        code = cli.main([argv[0], "--cache", str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {path}: ") and "Traceback" not in captured.err
    assert not (workdir / "never-written.ckpt").exists()


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
    assert params.flat.tobytes() == saved.flat.tobytes()
    assert params.flat.flags.writeable and not np.shares_memory(params.flat, saved.flat)
    if saved.config.mode == "deep":  # deep mode has no shallow weights to save
        assert params.w_internal is None and params.w_cross is None and params.bias is None


@pytest.mark.parametrize("extra", [1, -1], ids=["one-float-too-many", "one-float-too-few"])
def test_rebuild_rejects_a_buffer_the_model_does_not_fit(saved, dataset, extra):
    n = saved.flat.size
    flat = np.resize(saved.flat, n + extra)
    with pytest.raises(CacheError, match=f"checkpoint holds {n + extra} parameters, its "
                                         f"{saved.kind} model over this schema has {n}"):
        rebuild_params(dataclasses.replace(saved, flat=flat), dataset.schema)
