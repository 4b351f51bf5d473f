import contextlib
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from arec import cli, metrics, training
from arec.data import (CacheError, EncodingError, InputError, ParseError, load_cache, parse_amazon,
                       save_cache, write_section)
from arec.losses import save_modality_features, synthesize_modality_features
from arec.model import ops_for
from arec.numerics import one_blas_thread
from arec.training import BestSnapshot, TrainConfig, init_state

import mlsynth
from helpers import corruptions, field_named, rewrite_file, rewrite_split, split_bytes
from oracle import split


USERS = [
    "1::F::1::10::48067",
    "2::M::56::16::70072",
    "3::M::25::15::55117",
]
MOVIES = [
    "1193::One Flew Over the Cuckoo's Nest (1975)::Drama",
    "661::James and the Giant Peach (1996)::Animation|Children's|Musical",
    "914::My Fair Lady (1964)::Musical|Romance",
    "3408::Erin Brockovich (2000)::Drama",
]
RATINGS = [
    "1::1193::5::978300760",
    "1::661::3::978302109",
    "1::914::3::978301968",
    "2::1193::4::978298413",
    "2::3408::1::978297039",
    "2::914::5::978297512",
    "3::661::2::978298147",
    "3::3408::4::978298652",
    "3::1193::4::978299000",
    "3::914::1::978299620",
]


def write_raw(base, ratings=RATINGS):
    os.makedirs(base, exist_ok=True)
    for name, lines in (("users.dat", USERS), ("movies.dat", MOVIES), ("ratings.dat", ratings)):
        with open(os.path.join(base, name), "w", encoding="latin-1") as fh:
            fh.write("\n".join(lines) + "\n")
    return base


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def ml_cache(workdir):
    raw = workdir / "raw"
    mlsynth.write_ml1m(str(raw), n_users=30, n_movies=40, n_ratings=700, seed=0)
    cache = workdir / "ml.cache"
    code = cli.main(["prepare", "--dataset", "movielens", "--input", str(raw),
                     "--out", str(cache), "--seed", "7"])
    assert code == 0
    return cache


TRAIN_SETTINGS = ["--set", "max_epochs=2", "--set", "patience=2",
                  "--set", "dim=8", "--set", "batch_size=64"]


@pytest.fixture(scope="module")
def ours_ckpt(workdir, ml_cache):
    ckpt = workdir / "ours.ckpt"
    code = cli.main(["train", "--cache", str(ml_cache), "--model", "ours",
                     "--out", str(ckpt), "--seed", "3", *TRAIN_SETTINGS])
    assert code == 0
    return ckpt


def test_prepare_writes_cache_and_summary(tmp_path, capsys):
    raw = write_raw(tmp_path / "raw")
    out = tmp_path / "tiny.cache"
    code = cli.main(["prepare", "--dataset", "movielens", "--input", str(raw),
                     "--out", str(out), "--seed", "0", "--tag", "tiny"])
    captured = capsys.readouterr()
    assert code == 0
    assert out.exists()
    assert "interactions: 10" in captured.out
    assert "splits: train=8 val=1 test=1" in captured.out
    dataset = load_cache(str(out))
    assert dataset.tag == "tiny"
    assert len(dataset.split.train) == 8
    names = [f.name for f in dataset.schema.fields]
    assert names[0] == "user_id" and "genres" in names


def test_prepare_reports_bad_line_with_location(tmp_path, capsys):
    bad = RATINGS[:1] + ["1::1193:5::978300760"] + RATINGS[2:]
    raw = write_raw(tmp_path / "raw", ratings=bad)
    code = cli.main(["prepare", "--dataset", "movielens", "--input", str(raw),
                     "--out", str(tmp_path / "x.cache")])
    captured = capsys.readouterr()
    assert code == 2
    assert "ratings.dat:2" in captured.err
    assert "error:" in captured.err


@pytest.mark.parametrize("option, value", [
    ("--ratios", "a,b,c"), ("--ratios", "0.8,0.1,nan"), ("--seed", "-1"),
], ids=["ratios-not-numbers", "ratio-nan", "seed-negative"])
def test_prepare_bad_option_exits_two_without_traceback(tmp_path, capsys, option, value):
    raw = write_raw(tmp_path / "raw")
    out = tmp_path / "bad.cache"
    code = cli.main(["prepare", "--dataset", "movielens", "--input", str(raw),
                     "--out", str(out), option, value])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert not out.exists()


def amazon_lines(n=90):
    """A review file with repeated reviewers and products, float and int
    ratings, flat, nested, empty and missing categories, and non-ASCII text."""
    cats = ["Books", "Bücher", "Kindle Store", "日本語", "Mystery", "Sci-Fi & Fantasy"]
    lines = []
    for i in range(n):
        rating = 1 + (i * 3) % 5
        obj = {
            "reviewerID": f"A{(i * 7) % 23}" if i % 5 else f"Ré{(i * 7) % 23}",
            "asin": f"B{(i * 11) % 31:03d}",
            "overall": float(rating) if i % 3 == 0 else rating,
            "unixReviewTime": 1400000000 + 3600 * ((i * 13) % 97),
        }
        if i % 4 == 0:
            obj["category"] = [cats[i % 6], cats[(i * 5) % 6]]
        elif i % 4 == 1:
            obj["categories"] = [[cats[i % 6]], [cats[(i + 1) % 6], cats[(i + 3) % 6]]]
        elif i % 4 == 2:
            obj["category"] = []
        lines.append(json.dumps(obj, ensure_ascii=i % 2 == 0))
    return lines


def _golden_tiny(base):
    write_raw(base / "raw")
    return ["--dataset", "movielens", "--input", "raw", "--seed", "0", "--tag", "tiny"]


def _golden_mlsynth(base):
    mlsynth.write_ml1m(str(base / "raw"), n_users=30, n_movies=40, n_ratings=700, seed=0)
    return ["--dataset", "movielens", "--input", "raw", "--seed", "7"]


def _golden_amazon(base):
    (base / "reviews.json").write_text("\n".join(amazon_lines()) + "\n", encoding="utf-8")
    return ["--dataset", "amazon", "--input", "reviews.json", "--seed", "3",
            "--ratios", "0.6,0.2,0.2"]


def cache_digest(path) -> str:
    """SHA-256 of what a cache loads to: the schema JSON, then the tag, seed
    and ratios, then each column's dtype, shape and bytes, split by split and
    field by field, each split's labels last."""
    dataset = load_cache(str(path))
    digest = hashlib.sha256(dataset.schema.to_json().encode("utf-8"))
    sp = dataset.split
    digest.update(json.dumps([dataset.tag, sp.seed, list(sp.ratios)]).encode("utf-8"))
    for part in (sp.train, sp.validation, sp.test):
        for col in part.fields:
            for a in (col.idx, col.padded, col.counts, col.vals):
                if a is not None:
                    digest.update(f"{a.dtype.str}{a.shape}".encode("utf-8"))
                    digest.update(a.tobytes())
        digest.update(part.labels.tobytes())
    return digest.hexdigest()


# `cache_digest` of the cache, and SHA-256 of the stdout, that `arec prepare`
# writes for each input.  The stdout digests were recorded before
# `prepare_dataset` encoded whole columns: the columnar path must reproduce
# the row-by-row encoder's output.  The cache digests were computed with the
# version-2 loader from the version-2 caches, whose file digests were recorded
# in the same way, so they pin the cached content across the change of layout.
GOLDEN_PREPARE = {
    "tiny": (_golden_tiny,
             "d95ae900e42aedebbc0a1524b94c9e49dfbdc1fea207d06853b972fb37db6e3f",
             "3c9fcadb1a586c2c19be75a43499e9496b1a89d48cfd2ad78d791228605b9d6b"),
    "mlsynth": (_golden_mlsynth,
                "aef7774934513733334ebcf4b1e5ed6434946758eedaf56aeb2a4527ae724575",
                "7008a3a9dd1e897af78c3863c03b8eb4202ce8e168d483bce2a8199d09c6cecc"),
    "amazon": (_golden_amazon,
               "b245fd9758a7c695bc573bc311428abe5f1b8ab7df2103711c721cdf1a5b3bf4",
               "9526b84990627f20a5031bc2e8762d51d6f56b8155b9548e3ee32703f43bb491"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PREPARE))
def test_prepare_bytes_are_golden(tmp_path, monkeypatch, capsys, name):
    write_input, cache_sha, stdout_sha = GOLDEN_PREPARE[name]
    monkeypatch.chdir(tmp_path)  # relative paths keep stdout free of tmp_path
    code = cli.main(["prepare", *write_input(tmp_path), "--out", "golden.cache"])
    out = capsys.readouterr().out
    assert code == 0
    got = (cache_digest(tmp_path / "golden.cache"), hashlib.sha256(out.encode("utf-8")).hexdigest())
    assert got == (cache_sha, stdout_sha)


def test_prepare_rejects_a_tag_that_is_not_utf8_before_reading(tmp_path, monkeypatch, capsys):
    raw = write_raw(tmp_path / "raw")

    def no_read(*_args):
        raise AssertionError("prepare read its input")

    monkeypatch.setattr(cli, "parse_movielens", no_read)
    out = tmp_path / "never.cache"
    code = cli.main(["prepare", "--dataset", "movielens", "--input", str(raw),
                     "--out", str(out), "--tag", "ab\udcff"])  # argv byte 0xff, escaped
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: --tag must be UTF-8 text")
    assert "Traceback" not in captured.err and not out.exists()


@pytest.mark.parametrize("bad, message", [
    ({"validation": [(0, 0)]}, "rating 0 outside [1, 5]"),
    ({"test": [(0, 6)]}, "rating 6 outside [1, 5]"),
    ({"validation": [(0, 8)], "test": [(0, 7)]}, "rating 8 outside [1, 5]"),
    ({"train": [(7, 9), (1, 0)], "test": [(0, 7)]}, "rating 0 outside [1, 5]"),
], ids=["validation-only", "test-only", "validation-before-test", "train-split-order"])
def test_prepare_reports_the_first_bad_rating_in_split_order(tmp_path, capsys, bad, message):
    # `bad` maps a split to (position in that split, rating) pairs; the message
    # names the first bad rating met in train, then validation, then test order
    parts = split(list(range(len(RATINGS))), seed=0)
    ratings = list(RATINGS)
    for part, cells in bad.items():
        for pos, rating in cells:
            line = getattr(parts, part)[pos]
            uid, mid, _, ts = ratings[line].split("::")
            ratings[line] = f"{uid}::{mid}::{rating}::{ts}"
    raw = write_raw(tmp_path / "raw", ratings=ratings)
    out = tmp_path / "bad.cache"
    code = cli.main(["prepare", "--dataset", "movielens", "--input", str(raw),
                     "--out", str(out), "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


BAD_AMAZON_VALUES = [
    ("overall", "NaN"), ("overall", "Infinity"), ("overall", "1e400"), ("overall", "true"),
    ("overall", "1" * 5000),
    ("unixReviewTime", '"abc"'), ("unixReviewTime", "NaN"), ("unixReviewTime", "null"),
    ("unixReviewTime", "[1]"), ("unixReviewTime", "1e400"), ("unixReviewTime", "1.5"),
    ("unixReviewTime", "1" * 400),
    ("reviewerID", "null"), ("reviewerID", "7"), ("asin", "[1]"), ("asin", '{"a": "B9"}'),
    ("category", "null"), ("category", '"Books"'), ("category", "[1]"),
    ("category", '[["Books"], "Fiction"]'), ("categories", '{"Books": 1}'),
]


@pytest.mark.parametrize("key, value", BAD_AMAZON_VALUES,
                         ids=[f"{k}={v[:12]}" for k, v in BAD_AMAZON_VALUES])
def test_prepare_rejects_a_bad_amazon_value_with_its_line(tmp_path, capsys, key, value):
    fields = {"reviewerID": '"A9"', "asin": '"B9"', "overall": "4", "unixReviewTime": "1400000000"}
    fields[key] = value
    bad = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    path = tmp_path / "reviews.json"
    path.write_text("\n".join([amazon_lines(1)[0], bad]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"reviews\.json:2: "):
        parse_amazon(str(path))
    code = cli.main(["prepare", "--dataset", "amazon", "--input", str(path),
                     "--out", str(tmp_path / "bad.cache")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {path}:2: ") and "Traceback" not in captured.err
    assert not (tmp_path / "bad.cache").exists()


def test_prepare_amazon_reads_reviews_json_from_a_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw").mkdir()
    (tmp_path / "raw" / "reviews.json").write_text("\n".join(amazon_lines()) + "\n",
                                                   encoding="utf-8")
    (tmp_path / "reviews.json").write_text("\n".join(amazon_lines()) + "\n", encoding="utf-8")
    argv = ["prepare", "--dataset", "amazon", "--seed", "3", "--ratios", "0.6,0.2,0.2"]
    assert cli.main([*argv, "--input", "raw", "--out", "dir.cache"]) == 0
    from_dir = capsys.readouterr().out
    assert cli.main([*argv, "--input", "reviews.json", "--out", "file.cache"]) == 0
    from_file = capsys.readouterr().out
    assert from_dir.replace("dir.cache", "file.cache") == from_file
    assert (tmp_path / "dir.cache").read_bytes() == (tmp_path / "file.cache").read_bytes()


@pytest.mark.parametrize("line", ["[1, 2]", "5", '"reviewerID asin overall unixReviewTime"'])
def test_prepare_rejects_an_amazon_line_that_is_not_an_object(tmp_path, capsys, line):
    path = tmp_path / "reviews.json"
    path.write_text(line + "\n", encoding="utf-8")
    code = cli.main(["prepare", "--dataset", "amazon", "--input", str(path),
                     "--out", str(tmp_path / "bad.cache")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {path}:1: ") and "Traceback" not in captured.err


def test_prepare_rejects_undecodable_amazon_bytes_with_their_line(tmp_path, capsys):
    path = tmp_path / "reviews.json"
    lines = [line.encode("utf-8") for line in amazon_lines(400)]
    lines[300] = lines[300].replace(b"asin", b"as\xffin")
    path.write_bytes(b"\n".join(lines) + b"\n")
    code = cli.main(["prepare", "--dataset", "amazon", "--input", str(path),
                     "--out", str(tmp_path / "bad.cache")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {path}:301: not utf-8 text")
    assert "Traceback" not in captured.err


def test_prepare_rejects_a_timestamp_outside_the_float_range(tmp_path, capsys):
    raw = write_raw(tmp_path / "raw", ratings=RATINGS + ["1::914::4::" + "1" * 400])
    code = cli.main(["prepare", "--dataset", "movielens", "--input", str(raw),
                     "--out", str(tmp_path / "bad.cache")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: a timestamp value is outside the float range\n"


def test_train_writes_checkpoint_curve_and_json(workdir, ml_cache, ours_ckpt, capsys):
    # a fresh run so the json lands in this test's captured stdout
    out = workdir / "ours2.ckpt"
    code = cli.main(["train", "--cache", str(ml_cache), "--model", "ours",
                     "--out", str(out), "--seed", "3", *TRAIN_SETTINGS])
    captured = capsys.readouterr()
    assert code == 0
    summary = json.loads(captured.out.splitlines()[0])
    assert summary["model"] == "ours"
    assert summary["epochs_run"] == 2
    assert 0.0 <= summary["val_auc"] <= 1.0
    assert summary["val_logloss"] > 0.0
    assert summary["best_epoch"] in (1, 2)

    curve = (workdir / "ours2.ckpt.curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,train_loss,val_auc,val_logloss,d,seed"
    assert len(curve) == 3
    assert curve[1].startswith("1,") and curve[2].startswith("2,")
    assert all(tok.strip() for tok in curve[1].split(","))


def test_train_same_seed_checkpoints_byte_identical(workdir, ml_cache, ours_ckpt):
    twin = workdir / "ours_twin.ckpt"
    code = cli.main(["train", "--cache", str(ml_cache), "--model", "ours",
                     "--out", str(twin), "--seed", "3", *TRAIN_SETTINGS])
    assert code == 0
    assert twin.read_bytes() == ours_ckpt.read_bytes()


def test_train_bytes_do_not_depend_on_blas_threads(ml_cache, tmp_path):
    # batch 256 at dim 16 makes the fused projection GEMMs large enough for
    # OpenBLAS to split them over two threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.ckpt"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-c", "import sys; from arec.cli import main; sys.exit(main())",
             "train", "--cache", str(ml_cache), "--model", "ours", "--out", str(out),
             "--seed", "5", "--set", "max_epochs=1", "--set", "dim=16",
             "--set", "batch_size=256"],
            env=env, check=True, capture_output=True,
        )
        outputs.append((out.read_bytes(), (tmp_path / f"threads{threads}.ckpt.curve.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_train_fm_with_explicit_curve_path(workdir, ml_cache, capsys):
    ckpt = workdir / "fm.ckpt"
    curve = workdir / "fm_curve.csv"
    code = cli.main(["train", "--cache", str(ml_cache), "--model", "fm",
                     "--out", str(ckpt), "--curve", str(curve), "--seed", "1",
                     *TRAIN_SETTINGS])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out.splitlines()[0])["model"] == "fm"
    assert curve.exists() and not (workdir / "fm.ckpt.curve.csv").exists()


def test_train_with_modality_features_adds_curve_columns(workdir, ml_cache, capsys):
    dataset = load_cache(str(ml_cache))
    vocab = field_named(dataset.schema, "movie_id").vocab
    table = synthesize_modality_features(list(vocab), dim=6, seed=4)
    feats = workdir / "modality.txt"
    save_modality_features(table, str(feats))

    ckpt = workdir / "ours_mod.ckpt"
    code = cli.main(["train", "--cache", str(ml_cache), "--model", "ours",
                     "--out", str(ckpt), "--seed", "3",
                     "--modality-features", str(feats), *TRAIN_SETTINGS])
    capsys.readouterr()
    assert code == 0
    lines = (workdir / "ours_mod.ckpt.curve.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_auc,val_logloss,d,seed,l_s,l_d"
    # loaded string keys must land on the integer movie-id vocabulary
    for row in lines[1:]:
        l_s, l_d = (float(tok) for tok in row.split(",")[-2:])
        assert l_s > 0.0 and l_d > 0.0


def test_train_with_modality_keys_that_match_no_item_exits_two(workdir, ml_cache, capsys):
    feats = workdir / "unmatched.txt"
    save_modality_features(synthesize_modality_features(["zz", "yy"], dim=4, seed=1), str(feats))
    ckpt = workdir / "unmatched.ckpt"
    code = cli.main(["train", "--cache", str(ml_cache), "--model", "fm", "--out", str(ckpt),
                     "--modality-features", str(feats), *TRAIN_SETTINGS])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: none of the 2 modality feature keys is an item of the "
                            "movie_id vocabulary\n")
    assert not ckpt.exists() and not (workdir / "unmatched.ckpt.curve.csv").exists()


# SHA-256 of the modality file that `save_modality_features` writes for the
# synthesized table (how the benchmark makes its modality input), of the
# trained parameters of an `fm` train on it, and of its curve.  The file and
# curve digests were recorded while the features were still held as one
# object per item; the parameter digest (each tensor's name, then its `<f8`
# bytes, in `named_tensors()` order) was recorded from the version-1
# checkpoint, so it pins the trained values across the changes of file
# format.  Movies 41-45 are not in the vocabulary, so the batcher's skip path
# is pinned too.
GOLDEN_MODALITY = ("589e26954a22a7cb11a6c1d69f9604c6b75647aa33bb18a136475c193319f536",
                   "22d798f0583afe3177ee229d8ec65c391a63b3ebda2e3195c2b8f06d98935f47",
                   "ed020e91b3f8c82255daaa1c23a62d55d828c3a9c3f20010dc2cb50768ef93c3")


def params_digest(path, schema) -> str:
    digest = hashlib.sha256()
    _, params = cli.rebuild_params(cli.load_checkpoint(str(path)), schema)
    for name, tensor in params.named_tensors():
        digest.update(name.encode("utf-8"))
        digest.update(tensor.astype("<f8").tobytes())
    return digest.hexdigest()


def test_modality_train_bytes_are_golden(ml_cache, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    table = synthesize_modality_features([str(m) for m in range(1, 46)], 6, 11)
    save_modality_features(table, "modality.txt")
    code = cli.main(["train", "--cache", str(ml_cache), "--model", "fm", "--out", "golden.ckpt",
                     "--seed", "3", "--modality-features", "modality.txt", *TRAIN_SETTINGS])
    capsys.readouterr()
    assert code == 0
    file_digest = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("modality.txt", "golden.ckpt.curve.csv")]
    schema = load_cache(str(ml_cache)).schema
    got = (file_digest[0], params_digest(tmp_path / "golden.ckpt", schema), file_digest[1])
    assert got == GOLDEN_MODALITY


def _run_quietly(argv):
    """(exit code, stderr) of one command, with its stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


DAMAGE = settings(derandomize=True, max_examples=40, deadline=None)


@pytest.mark.parametrize("name", ["ratings.dat", "users.dat", "movies.dat"])
@DAMAGE
@given(data=st.data())
def test_prepare_on_a_damaged_movielens_file_exits_zero_or_two(tmp_path_factory, name, data):
    base = tmp_path_factory.getbasetemp() / "damaged_movielens"
    raw = write_raw(base / "raw")
    blob = (base / "raw" / name).read_bytes()
    (base / "raw" / name).write_bytes(data.draw(corruptions(blob)))
    code, err = _run_quietly(["prepare", "--dataset", "movielens", "--input", str(raw),
                              "--out", str(base / "out.cache")])
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error: ") and "Traceback" not in err


MODALITY_LINES = "".join(f"{m} {tag} 0.{m},-{m}.5\n"
                         for m in (1, 2, 3) for tag in ("sa", "sv", "pa", "pv"))


@DAMAGE
@given(blob=corruptions(MODALITY_LINES.encode("utf-8")))
def test_train_on_a_damaged_modality_file_exits_zero_or_two(tmp_path_factory, ml_cache, blob):
    base = tmp_path_factory.getbasetemp()
    (base / "damaged_modality.txt").write_bytes(blob)
    code, err = _run_quietly(["train", "--cache", str(ml_cache), "--model", "fm",
                              "--out", str(base / "damaged_modality.ckpt"),
                              "--modality-features", str(base / "damaged_modality.txt"),
                              "--set", "max_epochs=1", "--set", "dim=4"])
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("blob, where", [
    (MODALITY_LINES.encode("utf-8").replace(b"1 sv", b"1 s\xff"), ":2: not utf-8 text"),
    (b"", ": no modality feature lines"),
], ids=["undecodable", "empty"])
def test_train_names_where_a_modality_file_is_bad(ml_cache, tmp_path, capsys, blob, where):
    path = tmp_path / "modality.txt"
    path.write_bytes(blob)
    code = cli.main(["train", "--cache", str(ml_cache), "--model", "fm",
                     "--out", str(tmp_path / "m.ckpt"), "--modality-features", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {path}{where}")
    assert not (tmp_path / "m.ckpt").exists()


def test_eval_reports_metrics_and_appends_csv(workdir, ml_cache, ours_ckpt, capsys):
    csv_path = workdir / "reports.csv"
    for _ in range(2):
        code = cli.main(["eval", "--cache", str(ml_cache), "--ckpt", str(ours_ckpt),
                         "--split", "test", "--csv", str(csv_path)])
        assert code == 0
    captured = capsys.readouterr()
    first, second = (json.loads(ln) for ln in captured.out.splitlines())
    assert first == second  # checkpoint evaluation is reproducible
    assert first["tag"] == "test"
    assert set(first) == {"tag", "auc", "logloss", "n_pos", "n_neg"}
    assert first["n_pos"] > 0 and first["n_neg"] > 0

    rows = csv_path.read_text().splitlines()
    assert rows[0] == "tag,auc,logloss,n_pos,n_neg"
    assert len(rows) == 3 and rows[1] == rows[2]


def test_eval_csv_into_an_empty_file_writes_the_header(workdir, ml_cache, ours_ckpt, capsys):
    csv_path = workdir / "empty_reports.csv"
    csv_path.write_bytes(b"")
    for _ in range(2):
        assert cli.main(["eval", "--cache", str(ml_cache), "--ckpt", str(ours_ckpt),
                         "--split", "test", "--csv", str(csv_path)]) == 0
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "tag,auc,logloss,n_pos,n_neg"
    assert len(rows) == 3 and rows[1] == rows[2]
    assert capsys.readouterr().out.count("\n") == 2


def test_eval_val_split_differs_from_test(workdir, ml_cache, ours_ckpt, capsys):
    code = cli.main(["eval", "--cache", str(ml_cache), "--ckpt", str(ours_ckpt),
                     "--split", "val"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out.splitlines()[0])
    assert report["tag"] == "val"


@pytest.mark.parametrize("model, mode", [("ours", "combined"), ("ours", "deep"),
                                         ("fm", "combined"), ("deepfm", "combined")])
def test_eval_val_reproduces_the_trained_val_auc_across_chunkings(ml_cache, tmp_path, monkeypatch,
                                                                  capsys, model, mode):
    # train scores the validation split as one chunk; eval in 32-row chunks
    ckpt = tmp_path / "model.ckpt"
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", 1 << 40)
    assert cli.main(["train", "--cache", str(ml_cache), "--model", model, "--out", str(ckpt),
                     "--set", f"mode={mode}", *TRAIN_SETTINGS]) == 0
    trained = json.loads(capsys.readouterr().out.splitlines()[0])
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", 1)
    assert len(load_cache(str(ml_cache)).split.validation.labels) >= 64  # two chunks or more
    assert cli.main(["eval", "--cache", str(ml_cache), "--ckpt", str(ckpt), "--split", "val"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert float(shown["auc"]).hex() == float(trained["val_auc"]).hex()
    assert float(shown["logloss"]).hex() == float(trained["val_logloss"]).hex()


@pytest.mark.parametrize("model", ["ours", "deepfm"])
def test_eval_val_reproduces_the_trained_val_auc_at_a_narrow_width(ml_cache, tmp_path,
                                                                     monkeypatch, capsys, model):
    # at deep_hidden=16 chunked scores may differ in their last bits from
    # one-batch scores, so train and eval score the split in the same chunks
    ckpt = tmp_path / "narrow.ckpt"
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", 1)
    assert cli.main(["train", "--cache", str(ml_cache), "--model", model, "--out", str(ckpt),
                     "--set", "deep_hidden=16", *TRAIN_SETTINGS]) == 0
    trained = json.loads(capsys.readouterr().out.splitlines()[0])
    assert cli.main(["eval", "--cache", str(ml_cache), "--ckpt", str(ckpt), "--split", "val"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert float(shown["auc"]).hex() == float(trained["val_auc"]).hex()
    assert float(shown["logloss"]).hex() == float(trained["val_logloss"]).hex()


DEFAULT_WIDTHS = dict(dim=16, heads=2, attn_dim=None, ac_hidden=32, deep_hidden=(64, 64))


@st.composite
def layer_widths(draw):
    heads = draw(st.integers(1, 3), label="heads")
    return dict(dim=heads * draw(st.integers(1, 8), label="head_dim"), heads=heads,
                attn_dim=draw(st.none() | st.integers(1, 8).map(lambda k: heads * k),
                              label="attn_dim"),
                ac_hidden=draw(st.integers(1, 64), label="ac_hidden"),
                deep_hidden=tuple(draw(st.lists(st.integers(1, 128), min_size=1, max_size=2),
                                       label="deep_hidden")))


@pytest.mark.parametrize("model", ["ours", "fm", "deepfm"])
@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(widths=layer_widths(), quanta=st.integers(1, 8))
@example(widths=DEFAULT_WIDTHS, quanta=1)
@example(widths=DEFAULT_WIDTHS, quanta=5)
def test_chunked_scoring_contract_over_random_widths(ml_cache, tmp_path, monkeypatch, capsys,
                                                     model, widths, quanta):
    # the README's two promises: `eval --split val` reproduces the trained
    # val_auc, since train and eval score in the same chunks; and chunks of
    # 32 * quanta rows give one-batch bits for FM and at the default widths,
    # and one-batch scores within 1e-12 at any other
    dataset = load_cache(str(ml_cache))
    config = TrainConfig(max_epochs=2, patience=2, batch_size=64, **widths)
    rows = 32 * quanta
    shape = ops_for(model).init(dataset.schema, config.dim, None, **config.model_kwargs())
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", rows * 8 * shape.row_floats())
    ckpt = tmp_path / "model.ckpt"
    overrides = [f"{key}={','.join(map(str, value)) if key == 'deep_hidden' else value}"
                 for key, value in widths.items() if value is not None]
    assert cli.main(["train", "--cache", str(ml_cache), "--model", model, "--out", str(ckpt),
                     "--set", "max_epochs=2", "--set", "patience=2", "--set", "batch_size=64",
                     *(arg for item in overrides for arg in ("--set", item))]) == 0
    trained = json.loads(capsys.readouterr().out.splitlines()[0])
    assert cli.main(["eval", "--cache", str(ml_cache), "--ckpt", str(ckpt), "--split", "val"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert float(shown["auc"]).hex() == float(trained["val_auc"]).hex()
    assert float(shown["logloss"]).hex() == float(trained["val_logloss"]).hex()
    ops, params = cli.rebuild_params(cli.load_checkpoint(str(ckpt)), dataset.schema)
    col = dataset.split.train
    assert metrics.chunk_rows(params) == rows and col.n > rows + 32
    with one_blas_thread():
        one = ops.forward_batch(col, params)[0]
        chunked = metrics.score_split(ops, params, col)
    if model == "fm" or widths == DEFAULT_WIDTHS:
        assert chunked.tobytes() == one.tobytes()
    else:
        assert np.max(np.abs(chunked - one)) <= 1e-12


def test_eval_rejects_mismatched_schema(workdir, ours_ckpt, tmp_path, capsys):
    raw = tmp_path / "raw2"
    mlsynth.write_ml1m(str(raw), n_users=25, n_movies=30, n_ratings=400, seed=5)
    other = tmp_path / "other.cache"
    assert cli.main(["prepare", "--dataset", "movielens", "--input", str(raw),
                     "--out", str(other)]) == 0
    capsys.readouterr()
    code = cli.main(["eval", "--cache", str(other), "--ckpt", str(ours_ckpt)])
    captured = capsys.readouterr()
    assert code == 2
    assert "schema mismatch" in captured.err
    assert captured.err.startswith("error: schema mismatch: checkpoint ") and captured.out == ""
    assert "Traceback" not in captured.err


def test_config_file_and_set_overrides(workdir, ml_cache, capsys):
    cfg = workdir / "train.cfg"
    cfg.write_text(
        "# training settings\n"
        "max_epochs = 1\n"
        "dim = 8\n"
        "batch_size = 64\n"
    )
    ckpt = workdir / "cfg.ckpt"
    code = cli.main(["train", "--cache", str(ml_cache), "--config", str(cfg),
                     "--set", "max_epochs=2", "--model", "fm",
                     "--out", str(ckpt), "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out.splitlines()[0])["epochs_run"] == 2  # --set wins


def test_unknown_config_key_fails_cleanly(workdir, ml_cache, capsys):
    code = cli.main(["train", "--cache", str(ml_cache), "--set", "learn_rate=0.1",
                     "--out", str(workdir / "nope.ckpt")])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown config key" in captured.err


def test_bad_config_file_line_is_located(workdir, ml_cache, capsys):
    cfg = workdir / "broken.cfg"
    cfg.write_text("dim = 8\njust words\n")
    code = cli.main(["train", "--cache", str(ml_cache), "--config", str(cfg),
                     "--out", str(workdir / "nope2.ckpt")])
    captured = capsys.readouterr()
    assert code == 2
    assert "broken.cfg:2" in captured.err


def test_config_file_that_is_not_utf8_is_named(workdir, ml_cache, capsys):
    cfg = workdir / "latin1.cfg"
    cfg.write_bytes("dim = 8\n# Café\n".encode("latin-1"))
    code = cli.main(["train", "--cache", str(ml_cache), "--config", str(cfg),
                     "--out", str(workdir / "latin1.ckpt")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {cfg}: not UTF-8 text")
    assert "Traceback" not in captured.err and not (workdir / "latin1.ckpt").exists()


def test_sweep_writes_aggregate_and_per_dim_curves(workdir, ml_cache, capsys):
    out = workdir / "sweep"
    code = cli.main(["sweep", "--cache", str(ml_cache), "--model", "ours",
                     "--dims", "4,8", "--seed", "2",
                     "--set", "max_epochs=2", "--set", "patience=2",
                     "--set", "batch_size=64", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    agg = (out / "sweep.csv").read_text().splitlines()
    assert agg[0] == "d,auc,logloss"
    assert [ln.split(",")[0] for ln in agg[1:]] == ["4", "8"]
    for d in (4, 8):
        lines = (out / f"curve_d{d}.csv").read_text().splitlines()
        assert len(lines) == 3
        assert all(ln.split(",")[4] == str(d) for ln in lines[1:])
    assert "sweep results written to" in captured.out


def test_sweep_where_every_dim_diverges_writes_only_the_header(workdir, ml_cache, capsys):
    out = workdir / "sweep_diverged"
    code = cli.main(["sweep", "--cache", str(ml_cache), "--model", "fm", "--dims", "4,8",
                     "--set", "learning_rate=1e300", "--set", "max_epochs=2",
                     "--set", "batch_size=64", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    failed = captured.err.splitlines()
    assert [line.split(":")[0] for line in failed] == ["dim 4 failed", "dim 8 failed"]
    assert all("non-finite" in line for line in failed) and "Traceback" not in captured.err
    assert (out / "sweep.csv").read_text(encoding="utf-8") == training.SWEEP_CSV_HEADER + "\n"
    assert sorted(p.name for p in out.iterdir()) == ["sweep.csv"]


def test_sweep_rejects_malformed_dims(workdir, ml_cache, capsys):
    code = cli.main(["sweep", "--cache", str(ml_cache), "--dims", "8,x",
                     "--out", str(workdir / "s2")])
    captured = capsys.readouterr()
    assert code == 2
    assert "--dims" in captured.err
    code = cli.main(["sweep", "--cache", str(ml_cache), "--dims", "",
                     "--out", str(workdir / "s3")])
    captured = capsys.readouterr()
    assert code == 2


def test_missing_cache_file_is_an_input_error(workdir, capsys):
    code = cli.main(["train", "--cache", str(workdir / "ghost.cache"),
                     "--out", str(workdir / "ghost.ckpt")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


@pytest.mark.parametrize("setting", [
    "mode=bogus", "heads=3", "heads=0", "attn_dim=0", "attn_dim=7", "ac_hidden=-2",
    "deep_hidden=8,-1", "seed=-1", "learning_rate=nan", "epsilon=0", "ac_hidden=0",
    "clip_norm=-1", "deep_hidden=", "deep_hidden=0", "lambda_sim=nan", "first_order=maybe",
])
def test_bad_setting_exits_two_without_traceback(workdir, ml_cache, capsys, setting):
    code = cli.main(["train", "--cache", str(ml_cache), "--out", str(workdir / "bad.ckpt"),
                     "--set", "dim=8", "--set", setting])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert setting.split("=")[0] in captured.err
    assert not (workdir / "bad.ckpt").exists()


def test_any_input_error_exits_two_with_one_line(ml_cache, tmp_path, monkeypatch, capsys):
    class UnheardOfError(InputError):
        """An input error that no command names."""

    def refuse(*args, **kwargs):
        raise UnheardOfError("a kind of bad input the commands never name")

    monkeypatch.setattr(cli, "load_cache", refuse)
    code = cli.main(["train", "--cache", str(ml_cache), "--out", str(tmp_path / "x.ckpt")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: a kind of bad input the commands never name\n"
    assert not (tmp_path / "x.ckpt").exists()


def test_sweep_validates_every_dim_before_training(workdir, ml_cache, capsys):
    out = workdir / "sweep_heads"
    code = cli.main(["sweep", "--cache", str(ml_cache), "--dims", "4,6",
                     "--set", "heads=4", "--set", "max_epochs=1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "divisible by heads=4, got 6" in captured.err and "Traceback" not in captured.err
    assert not (out / "curve_d4.csv").exists()


# The `ours` cases keep the ids they had before the model axis was added.
@pytest.mark.parametrize("model, field, payload", [
    pytest.param(model, field, payload, id=case if model == "ours" else f"{model}-{case}")
    for model in ("ours", "fm", "deepfm")
    for field, payload, case in (("movie_id", 10000, "movie_id-10000"),
                                 ("genres", (), "genres-payload1"))
])
def test_train_rejects_cache_with_unembeddable_row(workdir, ml_cache, tmp_path, capsys,
                                                    model, field, payload):
    dataset = load_cache(str(ml_cache))
    i = [f.name for f in dataset.schema.fields].index(field)
    column = dataset.split.train.fields[i]
    if isinstance(payload, tuple):  # the first row's indices become `payload`
        column.padded[0] = 0
        column.padded[0, : len(payload)] = payload
        column.counts[0] = len(payload)
    else:
        column.idx[0] = payload
    bad = tmp_path / "bad.cache"
    with pytest.raises(EncodingError, match=f"field {i}:"):
        save_cache(str(bad), dataset)
    assert not bad.exists()

    def edit(columns):  # the same row, stored with every checksum right
        if isinstance(payload, tuple):
            offsets, values = columns[i]
            columns[i][1] = np.concatenate([np.array(payload, "<u4"), values[offsets[1]:]])
            offsets[1:] -= int(offsets[1]) - len(payload)
        else:
            columns[i][0][0] = payload

    bad.write_bytes(rewrite_split(ml_cache.read_bytes(), "train", edit))
    with pytest.raises(CacheError) as err:
        load_cache(str(bad))
    assert f"field {i}:" in str(err.value)

    code = cli.main(["train", "--cache", str(bad), "--model", model,
                     "--out", str(tmp_path / "bad.ckpt"), *TRAIN_SETTINGS])
    captured = capsys.readouterr()
    assert code == 2
    assert f"field {i}:" in captured.err and "Traceback" not in captured.err

    # eval decodes only the split it scores, so it gets past this cache to
    # the checkpoint, which is missing
    missing = tmp_path / "none.ckpt"
    code = cli.main(["eval", "--cache", str(bad), "--ckpt", str(missing)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    # the same row in the test split is refused before any checkpoint is read
    bad.write_bytes(rewrite_split(ml_cache.read_bytes(), "test", edit))
    code = cli.main(["eval", "--cache", str(bad), "--ckpt", str(missing)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"the test split: field {i}:" in captured.err and "Traceback" not in captured.err


def test_train_rejects_cache_with_empty_train_split(ml_cache, tmp_path, capsys):
    dataset = load_cache(str(ml_cache))
    dataset.split.train = dataset.split.train.take(np.arange(0))
    bad = tmp_path / "empty.cache"
    save_cache(str(bad), dataset)

    code = cli.main(["train", "--cache", str(bad), "--model", "fm",
                     "--out", str(tmp_path / "empty.ckpt"), *TRAIN_SETTINGS])
    captured = capsys.readouterr()
    assert code == 2
    assert "train split is empty" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("keep", ["no-rows", "one-row", "positives-only", "negatives-only"])
def test_train_rejects_a_validation_split_without_both_labels_before_training(
        ml_cache, tmp_path, capsys, monkeypatch, keep):
    dataset = load_cache(str(ml_cache))
    labels = dataset.split.validation.labels
    rows = {"no-rows": [], "one-row": [0], "positives-only": np.flatnonzero(labels == 1),
            "negatives-only": np.flatnonzero(labels == 0)}[keep]
    dataset.split.validation = dataset.split.validation.take(np.asarray(rows, dtype=np.int64))
    n_pos = int(dataset.split.validation.labels.sum())
    n_neg = dataset.split.validation.n - n_pos
    bad = tmp_path / "val.cache"
    save_cache(str(bad), dataset)

    def no_epoch(*_args, **_kwargs):
        raise AssertionError("train_epoch ran")

    monkeypatch.setattr(training, "train_epoch", no_epoch)
    ckpt = tmp_path / "val.ckpt"
    code = cli.main(["train", "--cache", str(bad), "--model", "fm", "--out", str(ckpt),
                     *TRAIN_SETTINGS])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not ckpt.exists()
    assert captured.err == (f"error: the validation split holds {n_pos} positives and {n_neg} "
                            "negatives; its AUC, which picks the best epoch, needs both\n")


def test_cache_with_label_outside_zero_one_is_an_input_error(ml_cache, tmp_path, capsys):
    dataset = load_cache(str(ml_cache))
    dataset.split.train.labels[0] = 7
    bad = tmp_path / "label7.cache"
    with pytest.raises(EncodingError, match="label 7"):
        save_cache(str(bad), dataset)
    assert not bad.exists()

    def edit(columns):
        columns[-1][0][0] = 7

    bad.write_bytes(rewrite_split(ml_cache.read_bytes(), "train", edit))
    with pytest.raises(CacheError) as err:
        load_cache(str(bad))
    assert str(bad) in str(err.value) and "label 7" in str(err.value)

    code = cli.main(["train", "--cache", str(bad), "--model", "fm",
                     "--out", str(tmp_path / "label7.ckpt"), *TRAIN_SETTINGS])
    captured = capsys.readouterr()
    assert code == 2
    assert "label 7" in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "label7.ckpt").exists()


@pytest.mark.parametrize("value", [float("nan"), 7.0, -1.0], ids=["nan", "7.0", "-1.0"])
def test_cache_with_continuous_value_outside_zero_one_is_an_input_error(
        ml_cache, ours_ckpt, tmp_path, capsys, value):
    dataset = load_cache(str(ml_cache))
    assert dataset.schema.fields[6].kind == "continuous"
    dataset.split.validation.fields[6].vals[0] = value
    bad = tmp_path / "ts.cache"
    with pytest.raises(EncodingError, match="field 6:"):
        save_cache(str(bad), dataset)
    assert not bad.exists()

    def edit(columns):
        columns[6][0][0] = value

    bad.write_bytes(rewrite_split(ml_cache.read_bytes(), "validation", edit))
    with pytest.raises(CacheError) as err:
        load_cache(str(bad))
    assert str(bad) in str(err.value) and "field 6:" in str(err.value)

    # loaded, the NaN row would score as a divergence (exit 3), not bad input
    for argv in (["train", "--cache", str(bad), "--model", "fm",
                  "--out", str(tmp_path / "ts.ckpt"), *TRAIN_SETTINGS],
                 ["eval", "--cache", str(bad), "--ckpt", str(ours_ckpt), "--split", "val"]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "field 6:" in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "ts.ckpt").exists()


@pytest.mark.parametrize("damaged", ["cache", "checkpoint"])
def test_a_byte_after_the_last_section_is_an_input_error(ml_cache, ours_ckpt, tmp_path, capsys,
                                                         damaged):
    files = {"cache": ml_cache, "checkpoint": ours_ckpt}
    bad = tmp_path / f"trailing.{damaged}"
    bad.write_bytes(files[damaged].read_bytes() + b"\x00")
    files[damaged] = bad
    load = load_cache if damaged == "cache" else cli.load_checkpoint
    with pytest.raises(CacheError, match=f"trailing bytes in {damaged}"):
        load(str(bad))
    code = cli.main(["eval", "--cache", str(files["cache"]), "--ckpt", str(files["checkpoint"])])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {bad}: trailing bytes in {damaged}\n"


@pytest.mark.parametrize("case", ["first offset 1", "offsets fall"])
def test_multi_valued_offsets_that_do_not_rise_from_zero_are_an_input_error(
        ml_cache, ours_ckpt, tmp_path, capsys, case):
    genres = [f.name for f in load_cache(str(ml_cache)).schema.fields].index("genres")

    def edit(columns):
        offsets = columns[genres][0]
        if case == "first offset 1":
            offsets[0] = 1
        else:  # every row holds at least one index, so offsets[2] > offsets[1]
            offsets[1], offsets[2] = offsets[2], offsets[1]

    bad = tmp_path / "offsets.cache"
    bad.write_bytes(rewrite_split(ml_cache.read_bytes(), "test", edit))
    with pytest.raises(CacheError, match="the test genres offsets do not rise from 0"):
        load_cache(str(bad))
    for argv in (["train", "--cache", str(bad), "--model", "fm",
                  "--out", str(tmp_path / "offsets.ckpt"), *TRAIN_SETTINGS],
                 ["eval", "--cache", str(bad), "--ckpt", str(ours_ckpt)]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "the test genres offsets do not rise from 0" in captured.err
        assert "Traceback" not in captured.err
    assert not (tmp_path / "offsets.ckpt").exists()


# `eval --split` names a split as the cache header does
SPLIT_OF = {"val": "validation", "test": "test"}
UNSCORED = [(scored, other) for scored in SPLIT_OF
            for other in ("train", "validation", "test") if other != SPLIT_OF[scored]]


# the field whose value rule each breach breaks; a label breach names no field
BREACHES = {"index": "movie_id", "set": "genres", "value": "timestamp", "label": None}


def _breach(cache, kind):
    """An edit of a stored split of `cache` that breaks one value rule of
    `Columnar.from_examples` in its first row, and what the refusal names."""
    fields = load_cache(str(cache)).schema.fields
    i = [f.name for f in fields].index(BREACHES[kind]) if BREACHES[kind] else -1  # -1: labels

    def edit(columns):
        if kind == "index":
            columns[i][0][0] = fields[i].cardinality
        elif kind == "set":  # the first row's indices become [3, 1]
            offsets, values = columns[i]
            columns[i][1] = np.concatenate([np.array([3, 1], "<u4"), values[offsets[1]:]])
            shifted = offsets.astype(np.int64)
            shifted[1:] += 2 - shifted[1]
            columns[i][0] = shifted.astype("<u8")
        else:  # a continuous value or a label
            columns[i][0][0] = 7

    return edit, "label 7" if kind == "label" else f"field {i}:"


@pytest.mark.parametrize("kind", BREACHES)
@pytest.mark.parametrize("scored", list(SPLIT_OF))
def test_eval_refuses_a_value_rule_breach_in_the_split_it_scores(ml_cache, tmp_path, capsys,
                                                                  scored, kind):
    edit, named = _breach(ml_cache, kind)
    bad = tmp_path / "breach.cache"
    bad.write_bytes(rewrite_split(ml_cache.read_bytes(), SPLIT_OF[scored], edit))
    # the checkpoint does not exist: the cache is refused before it is read
    code = cli.main(["eval", "--cache", str(bad), "--ckpt", str(tmp_path / "none.ckpt"),
                     "--split", scored])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {bad}: the {SPLIT_OF[scored]} split: {named}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind", BREACHES)
@pytest.mark.parametrize("scored, other", UNSCORED)
def test_eval_of_a_split_ignores_a_value_rule_breach_in_another(ml_cache, ours_ckpt, tmp_path,
                                                                 capsys, scored, other, kind):
    argv = ["--ckpt", str(ours_ckpt), "--split", scored]
    assert cli.main(["eval", "--cache", str(ml_cache), *argv]) == 0
    clean = capsys.readouterr()
    bad = tmp_path / "breach.cache"
    bad.write_bytes(rewrite_split(ml_cache.read_bytes(), other, _breach(ml_cache, kind)[0]))
    assert cli.main(["eval", "--cache", str(bad), *argv]) == 0
    assert capsys.readouterr() == clean


@pytest.mark.parametrize("scored, other", UNSCORED)
@DAMAGE
@given(data=st.data())
def test_eval_refuses_a_damaged_byte_in_a_split_it_does_not_score(tmp_path_factory, ml_cache,
                                                                   ours_ckpt, scored, other, data):
    blob = ml_cache.read_bytes()
    start, end = split_bytes(blob, other)
    bad = tmp_path_factory.getbasetemp() / "damaged_split.cache"
    bad.write_bytes(blob[:start] + data.draw(corruptions(blob[start:end])) + blob[end:])
    code, err = _run_quietly(["eval", "--cache", str(bad), "--ckpt", str(ours_ckpt),
                              "--split", scored])
    assert code == 2
    assert err.startswith(f"error: {bad}: ") and "Traceback" not in err


@pytest.mark.parametrize("section", ["movie_id", "genres offsets", "genres values",
                                     "timestamp", "labels"])
@pytest.mark.parametrize("scored, other", UNSCORED)
def test_eval_refuses_a_section_length_mismatch_in_a_split_it_does_not_score(
        ml_cache, ours_ckpt, tmp_path, capsys, scored, other, section):
    names = [f.name for f in load_cache(str(ml_cache)).schema.fields]
    field, _, part = section.partition(" ")
    column = -1 if field == "labels" else names.index(field)
    k = int(part == "values")  # a multi-valued field stores its offsets, then its values

    def edit(columns):  # one value short, every checksum right
        columns[column][k] = columns[column][k][:-1]

    bad = tmp_path / "short.cache"
    bad.write_bytes(rewrite_split(ml_cache.read_bytes(), other, edit))
    code = cli.main(["eval", "--cache", str(bad), "--ckpt", str(ours_ckpt), "--split", scored])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {bad}: the {other} {section} section of the cache "
                                   f"holds ")


def test_divergence_names_the_first_non_finite_tensor(ml_cache, tmp_path, monkeypatch,
                                                       capsys):
    real_init_state = training.init_state

    def poisoned(ops, schema, config):
        state = real_init_state(ops, schema, config)
        dict(state.params.named_tensors())["fm.v.f1"][...] = np.nan
        return state

    monkeypatch.setattr(training, "init_state", poisoned)
    code = cli.main(["train", "--cache", str(ml_cache), "--model", "fm",
                     "--out", str(tmp_path / "nan.ckpt"), *TRAIN_SETTINGS])
    captured = capsys.readouterr()
    assert code == 3
    assert "training diverged: non-finite loss at epoch 1, batch 0" in captured.err
    assert "first non-finite parameter tensor: fm.v.f1" in captured.err


def test_divergent_training_exits_three(workdir, ml_cache, capsys):
    with np.errstate(all="ignore"):
        code = cli.main(["train", "--cache", str(ml_cache), "--model", "ours",
                         "--out", str(workdir / "boom.ckpt"), "--seed", "0",
                         "--set", "learning_rate=1e100", "--set", "clip_norm=0",
                         "--set", "max_epochs=3", "--set", "dim=8",
                         "--set", "batch_size=64"])
    captured = capsys.readouterr()
    assert code == 3
    assert "training diverged" in captured.err


@pytest.mark.parametrize("model", ["ours", "fm"])
def test_divergence_at_the_last_update_exits_three(ml_cache, tmp_path, capsys, model):
    # one batch, one epoch: the only update makes the validation logloss NaN
    ckpt = tmp_path / "last.ckpt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["train", "--cache", str(ml_cache), "--model", model,
                         "--out", str(ckpt), "--set", "learning_rate=1e300",
                         "--set", "max_epochs=1", "--set", "batch_size=100000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("training diverged: non-finite validation logloss")
    assert [str(w.message) for w in caught] == []
    assert not ckpt.exists() and not (tmp_path / "last.ckpt.curve.csv").exists()


def test_eval_of_a_diverged_checkpoint_exits_three(ml_cache, tmp_path, capsys):
    from arec.cli import load_checkpoint, rebuild_params

    dataset = load_cache(str(ml_cache))
    config = TrainConfig(dim=8)
    state = init_state(ops_for("fm"), dataset.schema, config)
    best = BestSnapshot(params=state.params, epoch=1, val_auc=0.5, val_logloss=0.7)
    ckpt = tmp_path / "nan.ckpt"
    cli.save_checkpoint(str(ckpt), "fm", config, dataset.schema.hash_hex(), best)
    _, params = rebuild_params(load_checkpoint(str(ckpt)), dataset.schema)
    dict(params.named_tensors())["fm.v.f1"][...] = np.nan
    cli.save_checkpoint(str(ckpt), "fm", config, dataset.schema.hash_hex(),
                        replace(best, params=params))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["eval", "--cache", str(ml_cache), "--ckpt", str(ckpt),
                         "--split", "test"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("evaluation diverged: ")
    assert "scores are not finite" in captured.err and "Traceback" not in captured.err
    assert [str(w.message) for w in caught] == []


def _old_cache(version: int, schema) -> bytes:
    """A cache in the version-1 or version-2 layout: schema, tag "ml", seed
    and ratios, then three empty splits."""
    schema_json = schema.to_json().encode("utf-8")
    head = (b"AREC1" + struct.pack("<I", version) + hashlib.sha256(schema_json).digest()
            + struct.pack("<Q", len(schema_json)) + schema_json)
    header = struct.pack("<H", 2) + b"ml" + struct.pack("<Q3d", 7, 0.8, 0.1, 0.1)
    if version == 1:
        return head + header + struct.pack("<3Q", 0, 0, 0)
    out = bytearray(head)
    write_section(out, header)
    for _ in range(3):  # a row count, each field's columns, then the labels
        write_section(out, struct.pack("<Q", 0))
        for spec in schema.fields:
            if spec.kind == "multi_categorical":
                write_section(out, struct.pack("<Q", 0))  # the offsets
            write_section(out, b"")
        write_section(out, b"")
    return bytes(out)


def test_version_one_cache_exits_two_asking_for_prepare(ml_cache, tmp_path, capsys):
    # and a version-2 cache
    for version in (1, 2):
        old = tmp_path / f"v{version}.cache"
        old.write_bytes(_old_cache(version, load_cache(str(ml_cache)).schema))
        for argv in (["train", "--out", str(tmp_path / "old.ckpt")],
                     ["eval", "--ckpt", str(tmp_path / "never-read.ckpt")]):
            code = cli.main([argv[0], "--cache", str(old), *argv[1:]])
            captured = capsys.readouterr()
            assert code == 2
            assert str(old) in captured.err and f"cache version {version} " in captured.err
            assert "re-run prepare" in captured.err
            assert "Traceback" not in captured.err and captured.out == ""


def test_version_one_and_two_checkpoints_exit_two_asking_for_retrain(ml_cache, ours_ckpt,
                                                                      tmp_path, capsys):
    # the version-1 layout: schema hash, then length-prefixed header JSON
    header = json.dumps({"kind": "fm", "config": {}}).encode("utf-8")
    v1 = (cli.CKPT_MAGIC + struct.pack("<I", 1)
          + bytes.fromhex(load_cache(str(ml_cache)).schema.hash_hex())
          + struct.pack("<Q", len(header)) + header)
    # and the version-2 layout: a header with a `tensors` list, one section per tensor
    def per_tensor(h, arrays):
        h["tensors"] = [["fm.bias", [1]]]
        arrays[:] = [bytes(8)]

    v2 = rewrite_file(ours_ckpt.read_bytes(), per_tensor)
    v2 = v2[:len(cli.CKPT_MAGIC)] + struct.pack("<I", 2) + v2[len(cli.CKPT_MAGIC) + 4 :]
    for version, blob in ((1, v1), (2, v2)):
        old = tmp_path / f"v{version}.ckpt"
        old.write_bytes(blob)
        code = cli.main(["eval", "--cache", str(ml_cache), "--ckpt", str(old)])
        captured = capsys.readouterr()
        assert code == 2
        assert str(old) in captured.err and f"checkpoint version {version} " in captured.err
        assert "re-run train" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


def test_checkpoint_roundtrip_matches_library_eval(workdir, ml_cache, ours_ckpt, capsys):
    from arec.cli import load_checkpoint, rebuild_params
    from arec.metrics import evaluate

    dataset = load_cache(str(ml_cache))
    ckpt = load_checkpoint(str(ours_ckpt))
    ops, params = rebuild_params(ckpt, dataset.schema)
    report = evaluate(ops, params, dataset.split.test, dataset.schema, tag="test")

    code = cli.main(["eval", "--cache", str(ml_cache), "--ckpt", str(ours_ckpt),
                     "--split", "test"])
    captured = capsys.readouterr()
    assert code == 0
    shown = json.loads(captured.out.splitlines()[0])
    assert shown["auc"] == report.auc
    assert shown["logloss"] == report.logloss


# every TrainConfig field, each away from its default
ALL_FIELDS_CONFIG = """
batch_size = 32
learning_rate = 0.002
beta1 = 0.8
beta2 = 0.99
epsilon = 1e-7
max_epochs = 4
patience = 2
seed = 9
lambda_sim = 0.2
lambda_diff = 0.3
dim = 12
mode = deep
heads = 3
ac_hidden = 5
deep_hidden = 7,5
attn_dim = 6
first_order = yes
clip_norm = 5.0
"""


def test_every_config_field_roundtrips_through_checkpoint(ml_cache, tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text(ALL_FIELDS_CONFIG)
    config = cli.read_config(str(cfg)).validate()
    default = TrainConfig()
    assert [f.name for f in fields(TrainConfig)
            if getattr(config, f.name) == getattr(default, f.name)] == []

    dataset = load_cache(str(ml_cache))
    state = init_state(ops_for("ours"), dataset.schema, config)
    best = BestSnapshot(params=state.params, epoch=1, val_auc=0.5, val_logloss=0.7)
    path = tmp_path / "all.ckpt"
    cli.save_checkpoint(str(path), "ours", config, dataset.schema.hash_hex(), best)
    assert cli.load_checkpoint(str(path)).config == config


@pytest.mark.parametrize("edit, key", [
    # the header of a checkpoint written while the config still had this key
    (lambda c: c.update(deterministic=True), "deterministic"),
    (lambda c: c.pop("heads"), "heads"),
    (lambda c: c.update(deep_hidden="wide"), "deep_hidden"),
], ids=["unknown", "missing", "unparseable"])
def test_eval_rejects_bad_checkpoint_config(ml_cache, ours_ckpt, tmp_path, capsys, edit, key):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(rewrite_file(ours_ckpt.read_bytes(), lambda h, _: edit(h["config"])))
    code = cli.main(["eval", "--cache", str(ml_cache), "--ckpt", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "bad config in checkpoint" in captured.err and f"config key {key!r}" in captured.err
    assert "Traceback" not in captured.err
