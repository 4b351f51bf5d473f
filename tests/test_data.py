import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import arec.data as data_module
from arec.data import (
    CATEGORICAL,
    CONTINUOUS,
    MULTI_CATEGORICAL,
    CacheError,
    CachedDataset,
    Columnar,
    ConfigError,
    DatasetSplit,
    DomainError,
    EncodingError,
    Factor,
    FeatureSchema,
    FieldSpec,
    ParseError,
    ReferentialError,
    load_cache,
    parse_amazon,
    parse_movielens,
    prepare_dataset,
    save_cache,
)

import mlsynth
from helpers import (
    assert_columns_equal,
    assert_tables_equal,
    columns_of,
    corruptions,
    decoded,
    encoded_rows,
    factor_of,
    field_named,
    records_of,
)
from oracle import (
    EncodedExample,
    binarize_label,
    build_schema,
    columnar,
    decode_example,
    encode_example,
    split,
    validate_example,
)

USERS = """1::F::1::10::48067
2::M::56::16::70072
3::M::25::15::55117
"""

MOVIES = """1193::One Flew Over the Cuckoo's Nest (1975)::Drama
661::James and the Giant Peach (1996)::Animation|Children's|Musical
914::My Fair Lady (1964)::Musical|Romance
3408::Erin Brockovich (2000)::Drama
"""

RATINGS = """1::1193::5::978300760
1::661::3::978302109
1::914::3::978301968
2::1193::4::978298413
2::3408::4::978297600
3::661::1::978298147
3::914::2::978299000
3::3408::5::978299200
1::3408::4::978301777
2::661::2::978299809
"""


@pytest.fixture
def ml_files(tmp_path):
    paths = {}
    for name, text in [("users.dat", USERS), ("movies.dat", MOVIES), ("ratings.dat", RATINGS)]:
        p = tmp_path / name
        p.write_text(text, encoding="latin-1")
        paths[name] = str(p)
    return paths


def parse_fixture(paths):
    return parse_movielens(paths["ratings.dat"], paths["users.dat"], paths["movies.dat"])


def fixture_records(paths):
    return records_of(parse_fixture(paths))


ML_FIELDS = ["user_id", "movie_id", "rating", "timestamp", "gender", "age", "occupation", "genres"]


def test_movielens_first_line_transcription(ml_files):
    cols = decoded(parse_fixture(ml_files))
    assert list(cols) == ML_FIELDS
    assert {len(col) for col in cols.values()} == {10}
    assert cols["user_id"][0] == 1 and cols["movie_id"][0] == 1193
    assert cols["rating"][0] == 5 and cols["timestamp"][0] == 978300760
    assert cols["gender"][0] == "F" and cols["age"][0] == 1 and cols["occupation"][0] == 10
    assert cols["genres"][0] == ("Drama",)


def test_movielens_join_hand_transcription(ml_files):
    cols = decoded(parse_fixture(ml_files))
    assert cols["user_id"][5] == 3 and cols["movie_id"][5] == 661 and cols["rating"][5] == 1
    assert cols["gender"][5] == "M" and cols["age"][5] == 25 and cols["occupation"][5] == 15
    assert cols["genres"][5] == ("Animation", "Children's", "Musical")
    # file order preserved
    assert cols["movie_id"][:4].tolist() == [1193, 661, 914, 1193]


def test_movielens_empty_ratings_file(ml_files, tmp_path):
    empty = tmp_path / "none.dat"
    empty.write_text("", encoding="latin-1")
    cols = parse_movielens(str(empty), ml_files["users.dat"], ml_files["movies.dat"])
    assert list(cols) == ML_FIELDS and all(len(col) == 0 for col in cols.values())


def test_movielens_latin1_title(ml_files, tmp_path):
    movies = tmp_path / "m2.dat"
    movies.write_bytes("99::Les Mis\xe9rables (1998)::Drama\n".encode("latin-1"))
    ratings = tmp_path / "r2.dat"
    ratings.write_text("1::99::4::978300000\n", encoding="latin-1")
    cols = decoded(parse_movielens(str(ratings), ml_files["users.dat"], str(movies)))
    assert cols["movie_id"][0] == 99


def test_movielens_malformed_line_reports_position(ml_files, tmp_path):
    bad = tmp_path / "bad.dat"
    bad.write_text("1::1193::5::978300760\n1::661::oops\n", encoding="latin-1")
    with pytest.raises(ParseError) as err:
        parse_movielens(str(bad), ml_files["users.dat"], ml_files["movies.dat"])
    assert ":2:" in str(err.value)


def test_movielens_non_integer_field(ml_files, tmp_path):
    bad = tmp_path / "bad.dat"
    bad.write_text("1::x::5::978300760\n", encoding="latin-1")
    with pytest.raises(ParseError) as err:
        parse_movielens(str(bad), ml_files["users.dat"], ml_files["movies.dat"])
    assert ":1:" in str(err.value)


def test_movielens_unknown_ids_are_referential_errors(ml_files, tmp_path):
    bad = tmp_path / "bad.dat"
    bad.write_text("77::1193::5::978300760\n", encoding="latin-1")
    with pytest.raises(ReferentialError):
        parse_movielens(str(bad), ml_files["users.dat"], ml_files["movies.dat"])
    bad.write_text("1::4242::5::978300760\n", encoding="latin-1")
    with pytest.raises(ReferentialError):
        parse_movielens(str(bad), ml_files["users.dat"], ml_files["movies.dat"])


AMAZON_LINES = [
    '{"reviewerID": "A1", "asin": "B001", "overall": 5.0, "unixReviewTime": 1400000000, "category": ["Books", "Fiction"]}',
    '{"reviewerID": "A2", "asin": "B002", "overall": 3, "unixReviewTime": 1400000060, "category": ["Books"]}',
    '{"reviewerID": "A1", "asin": "B002", "overall": 1.0, "unixReviewTime": 1400000120, "categories": [["Books", "Mystery"]]}',
    '{"reviewerID": "A3", "asin": "B001", "overall": 4.0, "unixReviewTime": 1400000180, "category": []}',
]


@pytest.fixture
def amazon_file(tmp_path):
    p = tmp_path / "reviews.json"
    p.write_text("\n".join(AMAZON_LINES) + "\n", encoding="utf-8")
    return str(p)


def test_amazon_transcription(amazon_file):
    records = records_of(parse_amazon(amazon_file))
    assert len(records) == 4
    assert records[0] == {
        "reviewer_id": "A1",
        "product_id": "B001",
        "rating": 5,
        "timestamp": 1400000000,
        "category": ("Books", "Fiction"),
    }
    # float-typed integral rating copies through as an int
    assert records[0]["rating"] == 5 and isinstance(records[0]["rating"], int)
    # nested category paths flatten
    assert records[2]["category"] == ("Books", "Mystery")
    assert records[3]["category"] == ()


@pytest.mark.parametrize("layout", ["movielens", "amazon"])
def test_each_parser_returns_a_column_table_of_its_plan(ml_files, amazon_file, layout):
    if layout == "movielens":
        table, plan = parse_fixture(ml_files), data_module._MOVIELENS_PLAN
    else:
        table, plan = parse_amazon(amazon_file), data_module._AMAZON_PLAN
    assert isinstance(table, dict)
    assert set(table) == {name for name, _ in plan} | {"rating"}
    for name, kind in plan + (("rating", CONTINUOUS),):
        col = table[name]
        if kind == CONTINUOUS:  # and rating: plain arrays
            assert isinstance(col, np.ndarray) and col.ndim == 1, name
        else:
            assert isinstance(col, Factor) and col.values.ndim == 1, name
            assert col.codes.dtype == np.int64 and col.codes.ndim == 1, name
            assert len(set(col.values.tolist())) == len(col.values), name
            assert col.codes.min() >= 0 and col.codes.max() < len(col.values), name
    assert len({len(col) for col in table.values()}) == 1 and len(table["rating"]) > 0
    assert prepare_dataset(table, ratios=(0.5, 0.25, 0.25), seed=0, tag="t").schema.n_fields \
        == len(plan)
    with pytest.raises(DomainError, match="a raw table must be a dict of columns, not a list"):
        prepare_dataset(records_of(table), ratios=(0.5, 0.25, 0.25), seed=0, tag="t")


def test_amazon_missing_field_named(amazon_file, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"reviewerID": "A1", "asin": "B9", "unixReviewTime": 1}\n')
    with pytest.raises(ParseError) as err:
        parse_amazon(str(p))
    assert "overall" in str(err.value)


def test_amazon_rejects_fractional_rating(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"reviewerID": "A1", "asin": "B9", "overall": 4.5, "unixReviewTime": 1}\n')
    with pytest.raises(ParseError):
        parse_amazon(str(p))


def test_amazon_invalid_json_reports_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"reviewerID": "A1", "asin": "B9", "overall": 4, "unixReviewTime": 1}\n{nope\n')
    with pytest.raises(ParseError) as err:
        parse_amazon(str(p))
    assert ":2:" in str(err.value)


def test_binarize_label():
    assert binarize_label(5) == 1
    assert binarize_label(4) == 1
    assert binarize_label(3) == 0
    assert binarize_label(1) == 0
    for bad in (0, 6):
        with pytest.raises(DomainError):
            binarize_label(bad)


def test_build_schema_movielens_layout(ml_files):
    schema = build_schema(fixture_records(ml_files))
    names = [f.name for f in schema.fields]
    assert names == ["user_id", "movie_id", "gender", "age", "occupation", "genres", "timestamp"]
    kinds = {f.name: f.kind for f in schema.fields}
    assert kinds["genres"] == MULTI_CATEGORICAL
    assert kinds["timestamp"] == CONTINUOUS
    assert kinds["user_id"] == CATEGORICAL
    # vocab sizes from the fixture: 3 users, 4 movies, 2 genders
    assert field_named(schema, "user_id").cardinality == 4
    assert field_named(schema, "movie_id").cardinality == 5
    assert field_named(schema, "gender").cardinality == 3


def test_build_schema_single_user_reserved_slot():
    table = [
        {"user_id": 1, "movie_id": m, "rating": 4, "timestamp": m, "gender": "F",
         "age": 1, "occupation": 0, "genres": ("Drama",)}
        for m in (10, 11)
    ]
    schema = build_schema(table)
    assert field_named(schema, "user_id").cardinality == 2


def test_build_schema_empty_table():
    with pytest.raises(DomainError):
        build_schema([])


def test_schema_rejects_duplicate_names():
    with pytest.raises(DomainError):
        FeatureSchema(fields=(
            FieldSpec(name="a", kind=CATEGORICAL, vocab=(1,)),
            FieldSpec(name="a", kind=CATEGORICAL, vocab=(2,)),
        ))


def test_continuous_field_has_no_cardinality():
    spec = FieldSpec(name="t", kind=CONTINUOUS, lo=0.0, hi=9.0)
    with pytest.raises(DomainError):
        spec.cardinality


def test_encode_decode_roundtrip(ml_files):
    records = fixture_records(ml_files)
    schema = build_schema(records)
    for row in records:
        ex = encode_example(row, schema)
        validate_example(ex, schema)
        back = decode_example(ex, schema)
        for name in ("user_id", "movie_id", "gender", "age", "occupation"):
            assert back[name] == row[name]
        assert set(back["genres"]) == set(row["genres"])
        assert abs(back["timestamp"] - row["timestamp"]) < 1e-6
        assert ex.label == (1 if row["rating"] >= 4 else 0)


def test_encode_out_of_vocabulary_maps_to_zero(ml_files):
    records = fixture_records(ml_files)
    schema = build_schema(records[:4])  # users {1,2}, movies {661,914,1193,3408}
    row = dict(records[0], user_id=999, genres=("Documentary",))
    ex = encode_example(row, schema)
    assert ex.values[0] == 0
    assert ex.values[5] == (0,)


def test_encode_multi_count_is_exact(ml_files):
    records = fixture_records(ml_files)
    schema = build_schema(records)
    ex = encode_example(records[5], schema)  # three genres
    assert len(ex.values[5]) == 3
    assert all(i > 0 for i in ex.values[5])


def test_encode_continuous_normalized(ml_files):
    records = fixture_records(ml_files)
    schema = build_schema(records)
    spec = field_named(schema, "timestamp")
    ts = [r["timestamp"] for r in records]
    assert spec.lo == min(ts) and spec.hi == max(ts)
    for row in records:
        x = encode_example(row, schema).values[6]
        assert 0.0 <= x <= 1.0
    lo_row = next(r for r in records if r["timestamp"] == min(ts))
    hi_row = next(r for r in records if r["timestamp"] == max(ts))
    assert encode_example(lo_row, schema).values[6] == 0.0
    assert encode_example(hi_row, schema).values[6] == 1.0


def test_train_only_fitting(ml_files):
    records = fixture_records(ml_files)
    schema = build_schema(records[:4])
    # user 3 never appears in the fitting rows
    assert field_named(schema, "user_id").index_of(3) == 0
    ex = encode_example(records[5], schema)
    assert ex.values[0] == 0


def test_validate_example_errors(ml_files):
    records = fixture_records(ml_files)
    schema = build_schema(records)
    good = encode_example(records[0], schema)

    with pytest.raises(EncodingError):
        validate_example(EncodedExample(values=good.values[:-1], label=good.label), schema)
    bad_idx = (999,) + good.values[1:]
    with pytest.raises(EncodingError):
        validate_example(EncodedExample(values=bad_idx, label=good.label), schema)
    empty_multi = good.values[:5] + ((),) + good.values[6:]
    with pytest.raises(EncodingError):
        validate_example(EncodedExample(values=empty_multi, label=good.label), schema)
    bad_cont = good.values[:6] + (1.5,)
    with pytest.raises(EncodingError):
        validate_example(EncodedExample(values=bad_cont, label=good.label), schema)
    with pytest.raises(EncodingError):
        validate_example(EncodedExample(values=good.values, label=2), schema)


@pytest.mark.parametrize("field, payload", [(0, 1.5), (0, True), (6, True), (5, (2, 1)),
                                            (5, (1, 1, 1))],
                         ids=["index 1.5", "index True", "value True", "multi (2, 1)",
                              "multi (1, 1, 1)"])
def test_the_example_builder_refuses_a_payload_before_the_check(ml_files, monkeypatch,
                                                                field, payload):
    records = fixture_records(ml_files)
    schema = build_schema(records)
    good = encode_example(records[0], schema)
    values = good.values[:field] + (payload,) + good.values[field + 1 :]
    bad = EncodedExample(values=values, label=good.label)
    with pytest.raises(EncodingError):
        validate_example(bad, schema)

    def unreachable(rows, schema):
        raise AssertionError("the builder handed the payload to the check")

    monkeypatch.setattr(Columnar, "from_examples", staticmethod(unreachable))
    with pytest.raises(EncodingError):
        columnar([good, bad], schema)


def test_split_sizes_ten_rows():
    part = split(list(range(10)), ratios=(0.8, 0.1, 0.1), seed=0)
    assert (len(part.train), len(part.validation), len(part.test)) == (8, 1, 1)
    assert sorted(part.train + part.validation + part.test) == list(range(10))


def test_split_same_seed_reproduces():
    rows = list(range(100))
    a = split(rows, seed=7)
    b = split(rows, seed=7)
    assert a.train == b.train and a.validation == b.validation and a.test == b.test


def test_split_different_seeds_differ():
    rows = list(range(1000))
    a = split(rows, seed=0)
    b = split(rows, seed=1)
    assert a.train != b.train


def test_split_partitions_are_disjoint():
    rows = list(range(57))
    part = split(rows, seed=3)
    seen = part.train + part.validation + part.test
    assert len(seen) == 57 and len(set(seen)) == 57


def test_split_ratio_validation():
    rows = list(range(10))
    with pytest.raises(ConfigError):
        split(rows, ratios=(0.8, 0.1))
    with pytest.raises(ConfigError):
        split(rows, ratios=(0.9, 0.2, -0.1))
    with pytest.raises(ConfigError):
        split(rows, ratios=(0.5, 0.2, 0.2))
    with pytest.raises(ConfigError):
        split(rows, ratios=(0.8, 0.1, float("nan")))


def test_split_seed_must_fit_the_cache():
    rows = list(range(10))
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError):
            split(rows, seed=seed)
    assert len(split(rows, seed=2**64 - 1).train) == 8


def test_prepare_and_cache_roundtrip(ml_files, tmp_path):
    dataset = prepare_dataset(parse_fixture(ml_files), ratios=(0.8, 0.1, 0.1), seed=5,
                              tag="fixture")
    assert dataset.tag == "fixture"
    assert len(dataset.split.train) == 8

    path = tmp_path / "data.cache"
    save_cache(str(path), dataset)
    loaded = load_cache(str(path))
    assert loaded.schema.to_json() == dataset.schema.to_json()
    assert loaded.schema.hash_hex() == dataset.schema.hash_hex()
    assert loaded.tag == "fixture"
    assert loaded.split.seed == 5
    assert tuple(loaded.split.ratios) == (0.8, 0.1, 0.1)
    assert_columns_equal(loaded.split.train, dataset.split.train)
    assert_columns_equal(loaded.split.validation, dataset.split.validation)
    assert_columns_equal(loaded.split.test, dataset.split.test)


def test_loaded_columns_equal_the_encoded_rows(ml_files, tmp_path):
    table = parse_fixture(ml_files)
    path = tmp_path / "data.cache"
    save_cache(str(path), prepare_dataset(table, ratios=(0.6, 0.2, 0.2), seed=4, tag="t"))
    loaded = load_cache(str(path))
    schema, rows = encoded_rows(records_of(table), (0.6, 0.2, 0.2), seed=4)
    assert loaded.schema.to_json() == schema.to_json()
    parts = (loaded.split.train, loaded.split.validation, loaded.split.test)
    for got, want in zip(parts, rows):
        assert isinstance(got, Columnar) and len(got) == len(want) > 0
        assert_columns_equal(got, columnar(want, schema))


@pytest.mark.parametrize("splits", [(), ("train",), ("validation",), ("test",),
                                    ("validation", "test")])
def test_load_cache_decodes_only_the_named_splits(ml_files, tmp_path, splits):
    path = tmp_path / "data.cache"
    save_cache(str(path), prepare_dataset(parse_fixture(ml_files), ratios=(0.6, 0.2, 0.2),
                                          seed=4, tag="t"))
    full, some = load_cache(str(path)), load_cache(str(path), splits=splits)
    assert (some.schema.to_json(), some.tag) == (full.schema.to_json(), full.tag)
    assert (some.split.seed, some.split.ratios) == (full.split.seed, full.split.ratios)
    for part in ("train", "validation", "test"):
        if part in splits:
            assert_columns_equal(getattr(some.split, part), getattr(full.split, part))
        else:
            assert getattr(some.split, part) is None


def test_cache_write_is_deterministic(ml_files, tmp_path):
    dataset = prepare_dataset(parse_fixture(ml_files), ratios=(0.8, 0.1, 0.1), seed=5,
                              tag="fixture")
    p1, p2 = tmp_path / "a.cache", tmp_path / "b.cache"
    save_cache(str(p1), dataset)
    save_cache(str(p2), dataset)
    assert p1.read_bytes() == p2.read_bytes()


def test_cache_truncation_detected(ml_files, tmp_path):
    dataset = prepare_dataset(parse_fixture(ml_files), ratios=(0.8, 0.1, 0.1), seed=0, tag="t")
    path = tmp_path / "data.cache"
    save_cache(str(path), dataset)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CacheError):
        load_cache(str(path))


def test_cache_corruption_detected(ml_files, tmp_path):
    dataset = prepare_dataset(parse_fixture(ml_files), ratios=(0.8, 0.1, 0.1), seed=0, tag="t")
    path = tmp_path / "data.cache"
    save_cache(str(path), dataset)
    blob = bytearray(path.read_bytes())
    blob[60] ^= 0xFF  # inside the header section
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError):
        load_cache(str(path))


def test_cache_bad_magic(tmp_path):
    path = tmp_path / "junk.cache"
    path.write_bytes(b"NOPE1" + b"\x00" * 64)
    with pytest.raises(CacheError):
        load_cache(str(path))


def test_prepare_keeps_values_apart_that_numpy_arrays_would_merge():
    # a 'U' array drops trailing NULs, and -1 next to 2**63 makes a float64 array
    records = [{"user_id": uid, "movie_id": mid, "rating": 4, "timestamp": 1, "gender": gender,
                "age": 1, "occupation": 0, "genres": ("a",)}
               for uid, mid, gender in [(-1, 2**63, "a"), (2**63, 2**63 + 1, "a\x00")] * 5]
    schema = prepare_dataset(columns_of(records), ratios=(0.8, 0.1, 0.1), seed=0, tag="t").schema
    assert field_named(schema, "user_id").vocab == (-1, 2**63)
    assert field_named(schema, "movie_id").vocab == (2**63, 2**63 + 1)
    assert field_named(schema, "gender").vocab == ("a", "a\x00")


def test_prepare_dataset_rejects_empty(tmp_path):
    empty = tmp_path / "reviews.json"
    empty.write_text("", encoding="utf-8")
    table = parse_amazon(str(empty))
    assert table and all(len(col) == 0 for col in table.values())
    with pytest.raises(DomainError, match="no interactions to prepare"):
        prepare_dataset(table, ratios=(0.8, 0.1, 0.1), seed=0, tag="x")


def test_prepare_dataset_rejects_unknown_layout_and_empty_train(ml_files):
    with pytest.raises(DomainError, match="unrecognized record layout"):
        prepare_dataset(columns_of([{"item": 1, "rating": 4}]), ratios=(0.8, 0.1, 0.1), seed=0,
                        tag="x")
    one = columns_of(fixture_records(ml_files)[:1])
    with pytest.raises(DomainError, match="cannot build a schema from an empty table"):
        prepare_dataset(one, ratios=(0.2, 0.2, 0.6), seed=0, tag="x")


def test_prepare_names_a_bad_rating_of_an_object_column(ml_files):
    # a rating beyond int64 makes the column an object array
    table = parse_fixture(ml_files)
    ratings = [2**70] + table["rating"].tolist()[1:]
    table["rating"] = data_module._column(ratings)
    assert table["rating"].dtype == object
    with pytest.raises(DomainError, match=rf"^rating {2**70} outside \[1, 5\]$"):
        prepare_dataset(table, ratios=(0.5, 0.25, 0.25), seed=0, tag="x")


def _edit_codes(col, at, code):
    codes = col.codes.copy()
    codes[at] = code
    return Factor(col.values, codes)


# id: (the bad table, built from the fixture's MovieLens and Amazon tables,
# and the DomainError's message)
BAD_TABLES = {
    "only movie_id and rating": (
        lambda ml, az: {"movie_id": ml["movie_id"], "rating": ml["rating"]},
        "the raw table has no 'user_id', 'gender', 'age', 'occupation', 'genres', 'timestamp' "
        "column"),
    "only product_id": (
        lambda ml, az: {"product_id": az["product_id"]},
        "the raw table has no 'reviewer_id', 'category', 'timestamp', 'rating' column"),
    "a short Amazon column": (
        lambda ml, az: {**az, "timestamp": az["timestamp"][:-1]},
        "field 'timestamp' has 3 rows, 'reviewer_id' has 4"),
    "short Amazon codes": (
        lambda ml, az: {**az, "category": Factor(az["category"].values, az["category"].codes[1:])},
        "field 'category' has 3 rows, 'reviewer_id' has 4"),
    "no rating": (
        lambda ml, az: {name: col for name, col in ml.items() if name != "rating"},
        "the raw table has no 'rating' column"),
    "a short rating": (
        lambda ml, az: {**ml, "rating": ml["rating"][:-1]},
        "field 'rating' has 9 rows, 'user_id' has 10"),
    "a plain array for a factor": (
        lambda ml, az: {**ml, "user_id": decoded(ml)["user_id"]},
        "field 'user_id': expected a Factor, got int64 array of shape (10,)"),
    "a list for a factor": (
        lambda ml, az: {**az, "category": records_of(az)},
        "field 'category': expected a Factor, got list"),
    "int32 codes": (
        lambda ml, az: {**ml, "age": Factor(ml["age"].values, ml["age"].codes.astype(np.int32))},
        "field 'age': expected 1-D values and 1-D int64 codes, got int64 array of shape (3,) "
        "and int32 array of shape (10,)"),
    "2-D values": (
        lambda ml, az: {**ml, "age": Factor(ml["age"].values[:, None], ml["age"].codes)},
        "field 'age': expected 1-D values and 1-D int64 codes, got int64 array of shape (3, 1) "
        "and int64 array of shape (10,)"),
    "a factor for a plain column": (
        lambda ml, az: {**ml, "timestamp": factor_of(ml["timestamp"])},
        "field 'timestamp': expected a 1-D array, got Factor"),
    "a list for a rating": (
        lambda ml, az: {**ml, "rating": ml["rating"].tolist()},
        "field 'rating': expected a 1-D array, got list"),
    "a code past the values": (
        lambda ml, az: {**ml, "gender": _edit_codes(ml["gender"], 3, 2)},
        "field 'gender': code 2 outside [0, 2)"),
    "a negative code": (
        lambda ml, az: {**az, "product_id": _edit_codes(az["product_id"], -1, -1)},
        "field 'product_id': code -1 outside [0, 2)"),
}


@pytest.mark.parametrize("case", BAD_TABLES)
def test_prepare_dataset_checks_a_table_against_its_plan(ml_files, amazon_file, case):
    build, message = BAD_TABLES[case]
    table = build(parse_fixture(ml_files), parse_amazon(amazon_file))
    with pytest.raises(DomainError) as err:
        prepare_dataset(table, ratios=(0.5, 0.25, 0.25), seed=0, tag="x")
    assert str(err.value) == message


def test_amazon_accepts_integral_numbers_and_nested_paths(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text('{"reviewerID": "A7", "asin": "B1", "overall": 2.0, "unixReviewTime": 1.4e9, '
                 '"categories": [["Books", "Mystery"], [], ["Bücher"]]}\n', encoding="utf-8")
    (record,) = records_of(parse_amazon(str(p)))
    assert record == {"reviewer_id": "A7", "product_id": "B1", "rating": 2,
                      "timestamp": 1400000000, "category": ("Books", "Mystery", "Bücher")}
    assert type(record["rating"]) is int and type(record["timestamp"]) is int


# ---------------------------------------------------------------------------
# properties

PROPS = settings(derandomize=True, max_examples=150, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**450), 10**450)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# and literal JSON texts, some of which json.dumps never writes (1e400, 1E2, -0)
json_texts = json_values.map(json.dumps) | st.sampled_from(
    ["1e400", "-1e400", "1.5", "4.0", "1E2", "-0", "0.0", "[]", "[[]]", '[["a"], "b"]', "{}"])


@PROPS
@given(values=st.fixed_dictionaries(
    {k: json_texts for k in ("reviewerID", "asin", "overall", "unixReviewTime")},
    optional={"category": json_texts, "categories": json_texts}))
def test_amazon_line_gives_a_record_or_a_parse_error(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "property.json"
    path.write_text("{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in values.items()) + "}\n",
                    encoding="utf-8")
    try:
        (record,) = records_of(parse_amazon(str(path)))
    except ParseError as exc:
        assert str(exc).startswith(f"{path}:1: ")
        return
    assert (record["reviewer_id"], record["product_id"]) == (
        json.loads(values["reviewerID"]), json.loads(values["asin"]))
    assert type(record["reviewer_id"]) is str and type(record["product_id"]) is str
    assert type(record["rating"]) is int and type(record["timestamp"]) is int
    assert isinstance(float(record["timestamp"]), float)
    assert all(type(c) is str for c in record["category"])


ML_TEXTS = {"users.dat": USERS, "movies.dat": MOVIES, "ratings.dat": RATINGS}


def damaged_ml_files(tmp_path_factory, name, data) -> dict:
    """The fixture's three files, with `name` damaged by a drawn corruption."""
    base = tmp_path_factory.getbasetemp() / "ml_property"
    base.mkdir(exist_ok=True)
    for other, text in ML_TEXTS.items():
        (base / other).write_bytes(text.encode("latin-1"))
    (base / name).write_bytes(data.draw(corruptions(ML_TEXTS[name].encode("latin-1"))))
    return {other: str(base / other) for other in ML_TEXTS}


@PROPS
@given(name=st.sampled_from(sorted(ML_TEXTS)), data=st.data())
def test_a_damaged_movielens_file_gives_records_or_an_input_error(tmp_path_factory, name, data):
    paths = damaged_ml_files(tmp_path_factory, name, data)
    try:
        cols = decoded(parse_fixture(paths))
    except (ParseError, ReferentialError) as exc:
        assert str(exc).startswith(tuple(f"{p}:" for p in paths.values()))
        return
    except DomainError:
        return
    for k in ("user_id", "movie_id", "rating", "timestamp"):
        assert all(type(v) is int for v in cols[k].tolist())
    assert all(type(g) is str for genres in cols["genres"] for g in genres)


def parse_line_by_line(paths):
    """`parse_movielens` with the one-call ratings parse turned off."""
    with mock.patch.object(data_module, "_bulk_ratings", return_value=None):
        return parse_fixture(paths)


def assert_readers_agree(paths):
    """The bulk and the line-by-line reader give equal column tables, or raise
    the same exception type with the same message."""
    outcomes = []
    for parse in (parse_fixture, parse_line_by_line):
        try:
            outcomes.append(parse(paths))
        except Exception as exc:  # whatever one raises, the other must raise too
            outcomes.append((type(exc), str(exc)))
    bulk, lines = outcomes
    if isinstance(lines, tuple) or isinstance(bulk, tuple):
        assert bulk == lines
    else:
        assert_tables_equal(bulk, lines)
    return bulk


@PROPS
@given(name=st.sampled_from(sorted(ML_TEXTS)), data=st.data())
def test_bulk_and_line_readers_agree_on_damaged_files(tmp_path_factory, name, data):
    assert_readers_agree(damaged_ml_files(tmp_path_factory, name, data))


BIG = 2**63
READER_CASES = {
    # id: (ratings text, extra users.dat lines, extra movies.dat lines)
    "plain": (RATINGS, "", ""),
    "crlf and lone cr": ("1::1193::5::1\r\n2::661::4::2\r3::914::1::3", "", ""),
    "a vertical tab between lines": ("1::1193::5::1\x0b2::661::4::2\n", "", ""),
    "blank lines mid-file": ("\n1::1193::5::1\n\n\n2::661::4::2\n\n", "", ""),
    "blank lines then a bad line": ("1::1193::5::1\n\n\n2::661::x::2\n", "", ""),
    "ids at and above 2**63": (f"{BIG}::1193::5::1\n{BIG - 1}::{BIG + 1}::4::2\n",
                               f"{BIG}::F::1::2::0\n{BIG - 1}::M::1::2::0\n",
                               f"{BIG + 1}::X::Drama\n"),
    "int64 bounds": (f"1::1193::5::{BIG - 1}\n2::661::4::{-BIG}\n", "", ""),
    "an id beyond int64": ("99999999999999999999::1193::5::1\n", "", ""),
    "a known id beyond int64": ("99999999999999999999::1193::5::1\n",
                                "99999999999999999999::F::1::2::0\n", ""),
    "underscore": ("1_0::1193::5::1\n", "10::F::1::2::0\n", ""),
    "signs": ("+1::1193::+5::-1\n-2::661::4::2\n", "-2::M::1::2::0\n", ""),
    "lone sign": ("1::1193::5::-\n", "", ""),
    "lone sign mid-line": ("1::-::1193::5\n", "", ""),
    "surrounding whitespace": (" 1::1193 ::5::\t1\n", "", ""),
    "inner whitespace": ("1::1193::5::1 2\n1::1193::5::1\n", "", ""),
    "a space for a separator": ("1 1193::5::1\n", "", ""),
    "unicode digits": ("\u0661::1193::5::1\n", "", ""),
    "trailing separator": ("1::1193::5::1::\n", "", ""),
    "empty field": ("1::::5::1\n", "", ""),
    "empty field beside an extra one": ("1::::5::1\n1::1193::5::1::2\n", "", ""),
    "triple colon": ("1:::1193::5::1\n", "", ""),
    "unknown user": ("1::1193::5::1\n77::1193::5::1\n", "", ""),
    "unknown movie": ("1::1193::5::1\n1::4242::5::1\n", "", ""),
    "unknown id before a bad line": ("77::1193::5::1\n1::x::5::1\n", "", ""),
    "bad line before an unknown id": ("1::x::5::1\n77::1193::5::1\n", "", ""),
    "only blank lines": ("\n\n", "", ""),
    "empty": ("", "", ""),
    # side files: of two bad lines the first in file order is named, and of
    # two lines with one id the later wins
    "users: a bad age before a short line": ("1::1193::5::1\n", "4::F::x::1::0\n5::F::1\n", ""),
    "users: a short line before a bad id": ("1::1193::5::1\n", "5::F::1\nx::F::1::2::0\n", ""),
    "users: a bad occupation before a bad id": ("1::1193::5::1\n",
                                                "4::F::1::+\n5::F::1::y::0\nz::F::1::2::0\n", ""),
    "users: a long line after blank CR lines": ("1::1193::5::1\n", "\r\n\r4::F::1::2::0::9\r", ""),
    "movies: a bad id before a long line": ("1::1193::5::1\n", "", "x::T::Drama\n5::T::Drama::X\n"),
    "movies: a short line before a bad id": ("1::1193::5::1\n", "", "5::T\n 6 ::T::Drama\nx::T::War\n"),
    "a repeated user id": ("1::1193::5::1\n2::661::4::2\n", "1::M::56::7::0\n", ""),
    "a repeated movie id": ("1::1193::5::1\n2::661::4::2\n", "", "1193::Again::Comedy||War|\n"),
    "side files with blank lines, CR and CRLF": (
        "1::1193::5::1\n4::5::4::2\n5::6::3::3\n",
        "\n\r\n4::F::18::3::0\r\n\r5::M::25::4::0\r",
        "\r\n\n5::T::Drama\r\r6::U::\r\n"),
}

# the error each bad side-file case raises: the file, then the line and message
SIDE_ERRORS = {
    "users: a bad age before a short line":
        ("users.dat", "4: non-integer id field: invalid literal for int() with base 10: 'x'"),
    "users: a short line before a bad id": ("users.dat", "4: expected 5 '::' fields, got 3"),
    "users: a bad occupation before a bad id":
        ("users.dat", "4: expected 5 '::' fields, got 4"),
    "users: a long line after blank CR lines": ("users.dat", "6: expected 5 '::' fields, got 6"),
    "movies: a bad id before a long line": ("movies.dat", "5: non-integer movie id 'x'"),
    "movies: a short line before a bad id": ("movies.dat", "5: expected 3 '::' fields, got 2"),
}


def reader_case_files(tmp_path, case) -> dict:
    """The paths of the three files of a READER_CASES case, written as UTF-8."""
    ratings, users, movies = READER_CASES[case]
    texts = {"ratings.dat": ratings, "users.dat": USERS + users, "movies.dat": MOVIES + movies}
    for name, text in texts.items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    return {name: str(tmp_path / name) for name in texts}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_bulk_and_line_readers_agree(tmp_path, case):
    assert_readers_agree(reader_case_files(tmp_path, case))


@pytest.mark.parametrize("case", sorted(SIDE_ERRORS))
def test_a_side_file_error_names_the_first_bad_line(tmp_path, case):
    paths = reader_case_files(tmp_path, case)
    name, message = SIDE_ERRORS[case]
    with pytest.raises(ParseError) as err:
        parse_fixture(paths)
    assert str(err.value) == f"{paths[name]}:{message}"


# the error each bad ratings file raises: the text, the error type, then the
# line and message.  A line is checked for its field count, then `int` of
# every field, then a known user, then a known movie.
RATINGS_ERRORS = {
    "unknown user": ("1::1193::5::1\n77::1193::5::1\n", ReferentialError, "2: unknown user id 77"),
    "unknown movie": ("1::1193::5::1\n1::4242::5::1\n", ReferentialError,
                      "2: unknown movie id 4242"),
    "unknown user and movie": ("77::4242::5::1\n", ReferentialError, "1: unknown user id 77"),
    "unknown id before a bad line": ("77::1193::5::1\n1::x::5::1\n", ReferentialError,
                                     "1: unknown user id 77"),
    "bad line before an unknown id": ("1::x::5::1\n77::1193::5::1\n", ParseError,
                                      "1: non-integer field in '1::x::5::1'"),
    "an unknown id on a bad line": ("77::x::5::1\n", ParseError,
                                    "1: non-integer field in '77::x::5::1'"),
    "an unknown id on a short line": ("1::1193::5::1\n77::x::5\n", ParseError,
                                      "2: expected 4 '::' fields, got 3"),
    "an unknown id beyond int64": ("1::1193::5::1\n99999999999999999999::1193::5::1\n",
                                   ReferentialError, "2: unknown user id 99999999999999999999"),
    "blank lines then a bad line": ("1::1193::5::1\n\n\n2::661::x::2\n", ParseError,
                                    "4: non-integer field in '2::661::x::2'"),
}


@pytest.mark.parametrize("reader", ["bulk", "by line"])
@pytest.mark.parametrize("case", sorted(RATINGS_ERRORS))
def test_a_ratings_file_error_names_the_first_bad_line(tmp_path, case, reader):
    ratings, error, message = RATINGS_ERRORS[case]
    texts = {"ratings.dat": ratings, "users.dat": USERS, "movies.dat": MOVIES}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="latin-1")
    paths = {name: str(tmp_path / name) for name in texts}
    with pytest.raises(ValueError) as err:
        (parse_fixture if reader == "bulk" else parse_line_by_line)(paths)
    assert type(err.value) is error
    assert str(err.value) == f"{paths['ratings.dat']}:{message}"


@pytest.mark.parametrize("text, bulk", [
    (RATINGS, True), ("1::2::3::4", True), ("\n1::2::3::4\n\n5::6::7::8\n", True),
    (f"1::2::3::{BIG - 2}\n", True), (f"1::2::3::{BIG - 1}\n", False),
    ("1::2::3::99999999999999999999\n", False), ("+1::2::3::4\n", False),
    ("-1::2::3::4\n", False), ("1::2::3::-\n", False), ("1_0::2::3::4\n", False),
    (" 1::2::3::4\n", False), ("1 2::3::4\n", False), ("1::2::3::4::\n", False), ("1::::3::4\n", False),
    ("1::::3::4\n1 2::3::4::5\n", False), ("1::2::::4\n5::6::7::8::9\n", False),
    ("1:::2::3::4\n", False), ("\u0661::2::3::4\n", False), ("", False),
    ("1::2::3::4\r\n5::6::7::8\r9::1::2::3\r", True), ("1::2::3::4\r\r\n\n\r5::6::7::8", True),
    ("1::2::3::4\x0b5::6::7::8\n", False),
    # colon runs of odd length: with six colons a line, only the count of
    # `::` tells 1:::2:3::4 (numpy reads four values) from a line of pairs
    ("1::2::3:4\n", False), ("1:2:3::4::5\n", False), ("1:::2:3::4\n", False),
    ("1:::2:::3\n", False), ("1::2:::3::4\n", False), ("1:::::2:3\n", False),
    ("1:::::2::3\n", False), ("1:::::::2\n", False), ("1::2::3::4\n5:::::::6\n", False),
    # an empty field beside a five-field line: the values would total four a line
    ("5::6::7::8::9\n1::::3::4\n", False), ("1::2::3::4\n::::\n1::2::3::4::5::6\n", False),
    # leading and trailing separators
    ("::1::2::3\n", False), ("1::2::3::\n", False), ("::1::2::3::4\n", False),
    ("1::2::3::4\n::\n", False),
    # no final newline, and CR-only and CRLF files with blank lines
    ("1::2::3::4\n5::6::7::8", True), ("\n\n1::2::3::4", True), ("1::2::3::4\n5::6::7", False),
    ("\r\r1::2::3::4\r\r\r5::6::7::8\r", True),
    ("\r\n1::2::3::4\r\n\r\n5::6::7::8\r\n\r\n", True), ("1::2::3::4\r\n\r\n5::6::7::8", True),
    ("\r\n", False), ("\r\r\n\n", False),
])
def test_the_bulk_parse_takes_only_what_it_can_prove(text, bulk):
    fields = data_module._bulk_ratings(text.encode("utf-8"))
    assert (fields is not None) == bulk
    if bulk:
        lines = [line.split("::") for line in text.splitlines() if line]
        assert fields.dtype == np.int64
        assert fields.T.tolist() == [[int(v) for v in line] for line in lines]


@st.composite
def _ratings_texts(draw):
    """Short texts over the bytes the bulk parse must judge (digits, `:`,
    LF, CR, space and signs): raw draws, and lines of four runs of digits
    joined by `::`, some with a field replaced by a raw draw, ending in any
    line break or none."""
    chars = "0123456789:\n\r +-"
    if draw(st.integers(0, 3)) == 3:  # not 0, which hypothesis draws most
        return draw(st.text(chars, max_size=30))
    text = ""
    for _ in range(draw(st.integers(1, 4))):
        fields = [draw(st.from_regex(r"[0-9]{1,19}", fullmatch=True)) for _ in range(4)]
        if draw(st.integers(0, 3)) == 3:
            fields[draw(st.integers(0, 3))] = draw(st.text(chars, max_size=3))
        text += "::".join(fields) + draw(st.sampled_from(["\n", "\r", "\r\n", "\n\n", ""]))
    return text


@PROPS
@given(text=_ratings_texts())
def test_the_bulk_parse_reads_what_the_line_reader_reads(tmp_path_factory, text):
    fields = data_module._bulk_ratings(text.encode("ascii"))
    if fields is None:
        return
    path = tmp_path_factory.getbasetemp() / "bulk.dat"
    path.write_bytes(text.encode("ascii"))
    lines = [line.split("::") for _, line in data_module._read_lines(str(path))]
    assert all(len(parts) == 4 for parts in lines)
    assert fields.dtype == np.int64
    assert fields.T.tolist() == [[int(v) for v in parts] for parts in lines]


def python_rows_of(index: dict, ids: list):
    """The sorted distinct ids, each id's position among them and each id's
    side row, in plain Python; None if an id is not a key."""
    if not set(ids) <= set(index):
        return None
    distinct = sorted(set(ids))
    code = {v: i for i, v in enumerate(distinct)}
    return distinct, [code[v] for v in ids], [index[v] for v in ids]


SPREAD = [2**40 + 3, 7, 2**40 - 5, 2**39, 7, 2**40 + 3, 12345]
ROWS_OF_CASES = {
    # id: (ids, whether np.unique's sort factors them)
    "dense": ([5, 9, 5, 60, 31, 9, 9, 17, 5, 60, 42, 31, 8, 8, 59, 30], False),
    "dense near 2**40": ([2**40 + v for v in (5, 9, 5, 0, 3, 9)], False),
    "one id": ([2**62], False),
    "a span one short of the bound": ([0, 7], False),
    "a span at the bound": ([0, 8], True),
    "spread near 2**40": (SPREAD, True),
    "spread up to int64 max - 1": ([2**63 - 2, 0, 2**63 - 2, 1], True),
}


@pytest.mark.parametrize("missing", [False, True])
@pytest.mark.parametrize("case", sorted(ROWS_OF_CASES))
def test_rows_of_gives_the_factor_and_rows_of_a_python_join(case, missing):
    ids, sorts = ROWS_OF_CASES[case]
    # side rows out of order, keys no id uses, and keys outside int64
    keys = sorted(set(ids), reverse=True) + [-1, 2**63, 2**70, 4, 2**41]
    index = {k: 3 * i + 1 for i, k in enumerate(keys)}
    if missing:
        del index[ids[-1]]
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        got = data_module._rows_of(index, np.array(ids, dtype=np.int64))
    assert unique.called == sorts
    want = python_rows_of(index, ids)
    if want is None:
        assert got is None
        return
    factor, rows = got
    assert factor.values.dtype == factor.codes.dtype == rows.dtype == np.int64
    assert (factor.values.tolist(), factor.codes.tolist(), rows.tolist()) == want


def test_both_column_sources_give_the_same_cache(tmp_path):
    raw = tmp_path / "raw"
    mlsynth.write_ml1m(str(raw), n_users=40, n_movies=60, n_ratings=2000, seed=2)
    paths = {name: str(raw / name) for name in ML_TEXTS}
    with open(paths["ratings.dat"], "rb") as fh:
        assert data_module._bulk_ratings(fh.read()) is not None
    blobs = []
    for table in (parse_fixture(paths), parse_line_by_line(paths)):
        save_cache(str(tmp_path / "c"), prepare_dataset(table, (0.8, 0.1, 0.1), seed=9, tag="t"))
        blobs.append((tmp_path / "c").read_bytes())
    assert blobs[0] == blobs[1]


def joined_records(users: str, movies: str, ratings: str) -> list:
    """The records of MovieLens file texts, joined line by line in plain
    Python: of two side lines with one id, the later wins."""
    rows = lambda text: [line.split("::") for line in text.splitlines() if line]
    user = {int(u): (g, int(a), int(o)) for u, g, a, o, _ in rows(users)}
    movie = {int(m): tuple(filter(None, genres.split("|"))) for m, _, genres in rows(movies)}
    records = []
    for u, m, r, t in (map(int, parts) for parts in rows(ratings)):
        gender, age, occupation = user[u]
        records.append({"user_id": u, "movie_id": m, "rating": r, "timestamp": t,
                        "gender": gender, "age": age, "occupation": occupation,
                        "genres": movie[m]})
    return records


JOIN_CASES = {
    # id: (users.dat, movies.dat) beside the fixture's ratings
    "a later user line wins": (USERS + "2::F::18::4::12345\n1::F::1::10::48067\n", MOVIES),
    "a later movie line wins": (USERS, MOVIES + "914::My Fair Lady (1964)::Comedy|War\n"),
    "side rows no rating uses": (USERS + "7::X::99::30::11111\n",
                                 "5::Unseen (1990)::Western|Film-Noir\n" + MOVIES),
    "unsorted ids": ("\n".join(reversed(USERS.splitlines())),
                     "\n".join(reversed(MOVIES.splitlines())) + "\n"),
    "equal genre tuples": (USERS, "1193::A (1)::Drama|Comedy\n661::B (2)::Drama|Comedy\n"
                                  "914::C (3)::Comedy|Drama\n3408::D (4)::Comedy|Drama|Comedy\n"),
    "blank lines, CR and CRLF": ("\r\n" + USERS.replace("\n", "\r\n\r"),
                                 "\n\r" + MOVIES.replace("\n", "\r\n")),
}


@pytest.mark.parametrize("reader", ["bulk", "by line"])
@pytest.mark.parametrize("case", JOIN_CASES)
def test_the_side_table_join_gives_the_cache_of_the_one_row_oracle(tmp_path, case, reader):
    users, movies = JOIN_CASES[case]
    texts = {"users.dat": users, "movies.dat": movies, "ratings.dat": RATINGS}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="latin-1")
    paths = {name: str(tmp_path / name) for name in texts}
    table = (parse_fixture if reader == "bulk" else parse_line_by_line)(paths)
    records = joined_records(users, movies, RATINGS)
    assert records_of(table) == records
    for ratios, seed in [((0.6, 0.2, 0.2), 4), ((0.8, 0.1, 0.1), 1)]:
        schema, rows = encoded_rows(records, ratios, seed)
        oracle = DatasetSplit(*(columnar(part, schema) for part in rows), seed=seed, ratios=ratios)
        save_cache(str(tmp_path / "want"), CachedDataset(schema=schema, tag="t", split=oracle))
        save_cache(str(tmp_path / "got"), prepare_dataset(table, ratios, seed=seed, tag="t"))
        assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


@pytest.mark.parametrize("reader", ["bulk", "by line"])
def test_the_movielens_table_holds_no_object_column_per_rating(tmp_path, reader):
    raw = tmp_path / "raw"
    n_users, n_movies = 40, 60
    mlsynth.write_ml1m(str(raw), n_users=n_users, n_movies=n_movies, n_ratings=2000, seed=2)
    paths = {name: str(raw / name) for name in ML_TEXTS}
    table = (parse_fixture if reader == "bulk" else parse_line_by_line)(paths)
    assert len(table["rating"]) == 2000
    for name, col in table.items():
        if isinstance(col, Factor):
            side = n_movies if name in ("movie_id", "genres") else n_users
            assert col.values.dtype != object or len(col.values) <= side, name
        else:
            assert col.dtype != object, name


def _ids():
    # exact ids: negatives next to values at and above 2**63 collapse in a float64 array
    return st.integers(-(2**70), 2**70) | st.sampled_from([-1, 0, 2**63, 2**63 + 1, 2**64])


def _words():
    return st.text(max_size=4)  # any code point, the empty string included


def _timestamps(n):
    return st.one_of(
        st.integers(-(2**70), 2**70).map(lambda t: [t] * n),  # constant: span 0
        st.lists(st.integers(-(2**70), 2**70) | st.integers(9 * 10**8, 10**9),
                 min_size=n, max_size=n),
    )


@st.composite
def record_tables(draw, layout):
    """Records of one layout, drawn from small pools so that values repeat,
    mixed with one-off values that validation and test rows may hold unseen."""
    n = draw(st.integers(3, 40))

    def column(values):
        pool = draw(st.lists(values, min_size=1, max_size=5))
        return draw(st.lists(st.sampled_from(pool) | values, min_size=n, max_size=n))

    sets = st.lists(_words(), max_size=4).map(tuple)  # empty and repeated values too
    if draw(st.booleans()):
        ratings = draw(st.lists(st.integers(-3, 9), min_size=n, max_size=n))
    else:
        ratings = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    if layout == "movielens":
        cols = {"user_id": column(_ids()), "movie_id": column(_ids()),
                "gender": column(_words()), "age": column(_ids()),
                "occupation": column(st.integers(0, 3)), "genres": column(sets)}
    else:
        cols = {"reviewer_id": column(_words()), "product_id": column(_words()),
                "category": column(sets)}
    cols["timestamp"] = draw(_timestamps(n))
    cols["rating"] = ratings
    return [{name: col[i] for name, col in cols.items()} for i in range(n)]


def _row_fit(train, schema):
    """The schema fitted row by row, as the oracle of the column fitter."""
    for spec in schema.fields:
        if spec.kind == CATEGORICAL:
            assert spec.vocab == tuple(sorted({row[spec.name] for row in train}))
        elif spec.kind == MULTI_CATEGORICAL:
            assert spec.vocab == tuple(sorted({v for row in train for v in row[spec.name]}))
        else:
            values = [float(row[spec.name]) for row in train]
            assert (spec.lo, spec.hi) == (min(values), max(values))


@PROPS
@given(layout=st.sampled_from(["movielens", "amazon"]), data=st.data(),
       ratios=st.sampled_from([(0.8, 0.1, 0.1), (0.5, 0.25, 0.25), (0.34, 0.33, 0.33)]),
       seed=st.integers(0, 2**64 - 1))
def test_prepared_columns_equal_the_encoded_rows(tmp_path_factory, layout, data, ratios, seed):
    records = data.draw(record_tables(layout))
    table = columns_of(records)
    try:
        schema, rows = encoded_rows(records, ratios, seed)
    except DomainError as exc:  # a rating outside [1, 5]
        with pytest.raises(DomainError) as err:
            prepare_dataset(table, ratios=ratios, seed=seed, tag="t")
        assert str(err.value) == str(exc)
        return
    _row_fit(split(records, ratios=ratios, seed=seed).train, schema)
    got = prepare_dataset(table, ratios=ratios, seed=seed, tag="t")
    assert got.schema.to_json() == schema.to_json()
    parts = (got.split.train, got.split.validation, got.split.test)
    want = [columnar(part, schema) for part in rows]
    for g, w in zip(parts, want):
        assert_columns_equal(g, w)
    oracle = CachedDataset(schema=schema, tag="t",
                           split=DatasetSplit(*want, seed=seed, ratios=ratios))
    base = tmp_path_factory.getbasetemp()
    save_cache(str(base / "got.cache"), got)
    save_cache(str(base / "want.cache"), oracle)
    assert (base / "got.cache").read_bytes() == (base / "want.cache").read_bytes()
