"""Raw interaction parsing, the feature schema, the columnar row layout and
its one check, and dataset caching.

Supports the two public rating corpora this engine targets: MovieLens-1M
("::"-delimited triplet files) and Amazon product reviews (JSON lines).
The parsers return raw column tables whose categorical and multi-valued
fields are already factorized (`Factor`).  Vocabularies are always fitted on
training rows only; anything unseen at encode time maps to the reserved
index 0 of its field.  `prepare_dataset` splits, fits and encodes whole
columns into `Columnar` splits, the one row type the engine takes, and
`Columnar.from_examples` is the one check of a split against its schema.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import index, itemgetter

import numpy as np

from .numerics import Rng

CATEGORICAL = "categorical"
MULTI_CATEGORICAL = "multi_categorical"
CONTINUOUS = "continuous"

CACHE_MAGIC = b"AREC1"
CACHE_VERSION = 3


class ParseError(ValueError):
    """Malformed input file; message carries file and line number."""


class ReferentialError(ValueError):
    """A rating refers to a user or item missing from the side files."""


class DomainError(ValueError):
    """A value outside its documented domain."""


class ConfigError(ValueError):
    """Invalid configuration (ratios, dims, key=value files)."""


class EncodingError(ValueError):
    """A split does not pass `Columnar.from_examples`, the check against its schema."""


class CacheError(ValueError):
    """Corrupt or mismatched dataset cache or checkpoint file."""


# ---------------------------------------------------------------------------
# schema


@dataclass(frozen=True)
class FieldSpec:
    """One feature slot: a categorical/multi-valued vocabulary or a continuous range.

    Index 0 of every categorical vocabulary is reserved for out-of-vocabulary
    values, so cardinality is len(vocab) + 1.
    """

    name: str
    kind: str
    vocab: tuple = ()
    lo: float = 0.0
    hi: float = 1.0

    @property
    def cardinality(self) -> int:
        if self.kind == CONTINUOUS:
            raise DomainError(f"continuous field {self.name!r} has no cardinality")
        return len(self.vocab) + 1

    def _table(self) -> dict:
        table = getattr(self, "_index", None)
        if table is None:
            # derived lookup map, cached on the frozen instance
            table = {v: i + 1 for i, v in enumerate(self.vocab)}
            object.__setattr__(self, "_index", table)
        return table

    def index_of(self, value) -> int:
        """Vocabulary index of `value`, 0 if unseen."""
        return self._table().get(value, 0)

    def indices(self, values) -> np.ndarray:
        """int64 vocabulary indices of a sequence of values, 0 for unseen ones."""
        lookup = map(self._table().get, values, repeat(0))
        return np.fromiter(lookup, dtype=np.int64, count=len(values))


@dataclass(frozen=True)
class FeatureSchema:
    fields: tuple

    def __post_init__(self):
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate field names in schema: {names}")

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    def to_dict(self) -> dict:
        return {
            "fields": [
                {"name": f.name, "kind": f.kind, "vocab": list(f.vocab), "lo": f.lo, "hi": f.hi}
                for f in self.fields
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_dict(payload: dict) -> "FeatureSchema":
        """The schema that `to_dict` describes."""
        return FeatureSchema(fields=tuple(
            FieldSpec(name=f["name"], kind=f["kind"], vocab=tuple(f["vocab"]), lo=f["lo"],
                      hi=f["hi"])
            for f in payload["fields"]
        ))

    def hash_hex(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


@dataclass
class FieldColumn:
    kind: str
    idx: np.ndarray = None        # (B,) int64, categorical
    padded: np.ndarray = None     # (B, qmax) int64, multi-categorical, 0-padded
    counts: np.ndarray = None     # (B,) int64
    vals: np.ndarray = None       # (B,) float64, continuous


@dataclass
class Columnar:
    """Column-major rows: one FieldColumn per schema field, and float64 labels."""

    fields: list
    labels: np.ndarray
    n: int

    def __len__(self) -> int:
        return self.n

    @staticmethod
    def from_examples(rows, schema: FeatureSchema) -> "Columnar":
        """`rows` itself, once it passes the one check of a split against
        `schema`: `load_cache` runs it on each split it decodes, and
        `save_cache`, `fit`, `sweep` and `evaluate` on each split they take.

        `rows` is a Columnar of an integer `n` rows, with one column of its
        field's kind per schema field: int64 indices in [0, cardinality), for
        a multi-valued field int64 counts in [1, qmax] with the first `count`
        indices of each row strictly increasing, float64 values in [0, 1],
        and float64 labels of 0 or 1.  Anything else (NaN included) is an
        EncodingError naming the first field that breaks a rule."""
        if not isinstance(rows, Columnar):
            raise EncodingError(f"a split must be a Columnar, not a {type(rows).__name__}")
        if len(rows.fields) != schema.n_fields:
            raise EncodingError(f"the split has {len(rows.fields)} fields, the schema "
                                f"{schema.n_fields}")
        n = rows.n
        if not isinstance(n, (int, np.integer)):
            raise EncodingError(f"the row count {n!r} is not an integer")
        for i, (spec, fc) in enumerate(zip(schema.fields, rows.fields)):
            where = f"field {i}"
            if fc.kind != spec.kind:
                raise EncodingError(f"{where}: a {fc.kind} column for the {spec.kind} field "
                                    f"{spec.name!r}")
            if spec.kind == CATEGORICAL:
                _check_index_range(_typed(fc.idx, np.int64, 1, n, where), spec.cardinality, where)
            elif spec.kind == MULTI_CATEGORICAL:
                _check_sets(_typed(fc.padded, np.int64, 2, n, where),
                            _typed(fc.counts, np.int64, 1, n, where), spec.cardinality, where)
            else:
                vals = _typed(fc.vals, np.float64, 1, n, where)
                # NaN fails both comparisons
                if n and not (vals.min() >= 0.0 and vals.max() <= 1.0):
                    bad = vals[~((vals >= 0.0) & (vals <= 1.0))][0]
                    raise EncodingError(f"{where}: value {bad} outside [0, 1]")
        labels = _typed(rows.labels, np.float64, 1, n, "labels")
        bad = (labels != 0.0) & (labels != 1.0)
        if np.count_nonzero(bad):
            raise EncodingError(f"label {labels[bad][0]:g}; labels are 0 or 1")
        return rows

    def take(self, indices) -> "Columnar":
        """Row subset in the given order (a mini-batch)."""
        out = []
        for col in self.fields:
            if col.kind == CATEGORICAL:
                out.append(FieldColumn(kind=col.kind, idx=col.idx[indices]))
            elif col.kind == MULTI_CATEGORICAL:
                out.append(
                    FieldColumn(
                        kind=col.kind,
                        padded=col.padded[indices],
                        counts=col.counts[indices],
                    )
                )
            else:
                out.append(FieldColumn(kind=col.kind, vals=col.vals[indices]))
        labels = self.labels[indices]
        return Columnar(fields=out, labels=labels, n=len(labels))


def _typed(a, dtype, ndim: int, n: int, where: str) -> np.ndarray:
    """`a`, if it is an `ndim`-D array of `dtype` with `n` rows."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == ndim and len(a) == n):
        raise EncodingError(f"{where}: expected a {ndim}-D {np.dtype(dtype)} array of {n} rows, "
                            f"got {_describe(a)}")
    return a


def _describe(a) -> str:
    return f"{a.dtype} array of shape {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__


def _check_index_range(idx: np.ndarray, cardinality: int, where: str) -> None:
    """Every int64 index lies in [0, cardinality): one max() pass, since a
    negative index read as uint64 lies above any cardinality."""
    if idx.size and idx.view(np.uint64).max() >= cardinality:
        bad = idx[(idx < 0) | (idx >= cardinality)][0]
        raise EncodingError(f"{where}: index {bad} outside [0, {cardinality})")


def _check_sets(padded: np.ndarray, counts: np.ndarray, cardinality: int, where: str) -> None:
    """Each row of a multi-valued column holds 1 to qmax indices, strictly
    increasing; every entry, padding included, is a valid table row."""
    if not len(counts):
        return
    qmax = padded.shape[1]
    if counts.min() < 1 or counts.max() > qmax:
        bad = counts[(counts < 1) | (counts > qmax)][0]
        raise EncodingError(f"{where}: a multi-valued row of {bad} indices; a row holds 1 to {qmax}")
    _check_index_range(padded, cardinality, where)
    # column by column, since a (B, qmax - 1) comparison runs numpy's inner
    # loop once per row; count_nonzero, since any() on a bool array is no faster
    # than a reduction over every element
    for j in range(1, qmax):
        falls = (padded[:, j] <= padded[:, j - 1]) & (counts > j)
        if np.count_nonzero(falls):
            row = int(np.argmax(falls))
            raise EncodingError(f"{where}: the indices {padded[row, :counts[row]].tolist()} do "
                                f"not strictly increase")


@dataclass
class Factor:
    """A categorical or multi-valued raw column: its distinct `values`, and
    for each rating the int64 `code` of its value, a position in `values`."""

    values: np.ndarray
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


@dataclass
class DatasetSplit:
    """The train, validation and test Columnar splits of a dataset, and the
    seed and ratios of the shuffle that made them."""

    train: object
    validation: object
    test: object
    seed: int
    ratios: tuple = (0.8, 0.1, 0.1)


# ---------------------------------------------------------------------------
# raw file parsing


def _read_lines(path):
    """The non-empty lines of a UTF-8 text file with their 1-based numbers.
    Bytes that are not UTF-8 are a ParseError naming the first such line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if line:
                    yield line_no, line
        except UnicodeDecodeError as exc:
            line_no = _undecodable_line(path)
            raise ParseError(f"{path}:{line_no}: not utf-8 text ({exc.reason})") from None


def _undecodable_line(path) -> int:
    # the reader decodes a block ahead of the line it yields, so find the line again
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if any("\udc80" <= ch <= "\udcff" for ch in line):
                return line_no


_INT64_MAX = int(np.iinfo(np.int64).max)


def _column(values) -> np.ndarray:
    """Field values as an array that holds each one exactly: int64 when every
    value is an int in that type's range, else object.  Not numpy's own
    choice: it turns -1 next to 2**63 into float64, drops a string's trailing
    NULs in a 'U' array, and spreads equal-length tuples over a second axis."""
    values = list(values)
    if set(map(type, values)) == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    return np.fromiter(values, dtype=object, count=len(values))


def _factorize(col: np.ndarray) -> Factor:
    """The factor of a column.  An int64 column goes through np.unique; an
    object column (strings, sets, ints beyond int64) through a dict, which
    hashes each row once where np.unique would sort the rows by Python
    comparisons."""
    if col.dtype != object:
        return Factor(*np.unique(col, return_inverse=True))
    codes = {value: i for i, value in enumerate(dict.fromkeys(col))}
    inverse = np.fromiter(map(codes.__getitem__, col), dtype=np.int64, count=len(col))
    return Factor(np.fromiter(codes, dtype=object, count=len(codes)), inverse)


def _gather(side: Factor, rows: np.ndarray) -> Factor:
    """The factor of a side-table column joined to the ratings: the code of
    each rating's side row."""
    return Factor(side.values, side.codes[rows])


def parse_movielens(ratings_path, users_path, movies_path) -> dict:
    """Join MovieLens-1M rating, user, and movie files into a column table.

    One entry per field, in this order, each holding one value per rating
    line in file order: user_id, movie_id, rating and timestamp from the
    rating, the user's gender, age bucket and occupation, and the movie's
    genre set.  rating and timestamp are plain arrays; every other field is
    a `Factor`.  The users and movies files are each read and split at once
    (`_side_columns`); of two lines with one id, the later wins.  gender, age
    and occupation are factorized over the rows of the users file and genres
    over the rows of the movies file (where a side row no rating uses still
    counts), then joined to the ratings by one gather of codes; user_id and
    movie_id take the factor of the ids and the side rows that `_rows_of`
    finds.  The ratings file is parsed in one call when `_bulk_ratings` can
    prove it holds only lines of four `::`-separated runs of digits, and
    `_rows_of` finds every id in the side files.  Any other file is read as
    the side files are, with every id checked against them, and its ids are
    factorized and joined by one dict lookup a rating: the same factors, or
    the error of its first bad line, and ids beyond int64 too.
    """
    uids, genders, ages, occupations, _ = _side_columns(
        users_path, 5, (0, 2, 3), "non-integer id field: {exc}")
    mids, _, genres = _side_columns(movies_path, 3, (0,), "non-integer movie id {field!r}")
    users = dict(zip(uids, range(len(uids))))  # a later line for the same id wins
    movies = dict(zip(mids, range(len(mids))))

    with open(ratings_path, "rb") as fh:
        fields = _bulk_ratings(fh.read())
    users_of = movies_of = None
    if fields is not None:
        users_of, movies_of = _rows_of(users, fields[0]), _rows_of(movies, fields[1])
    if users_of is None or movies_of is None:
        rated_users, rated_movies, *rest = _side_columns(
            ratings_path, 4, (0, 1, 2, 3), "non-integer field in {line!r}",
            known=((0, users, "user"), (1, movies, "movie")))
        users_of, movies_of = (
            (_factorize(_column(ids)),
             np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids)))
            for ids, index in ((rated_users, users), (rated_movies, movies)))
        rating, timestamp = map(_column, rest)
    else:
        rating, timestamp = fields[2:]
    (user_ids, user_rows), (movie_ids, movie_rows) = users_of, movies_of
    side = {"gender": genders, "age": ages, "occupation": occupations}
    genre_sets = [tuple(filter(None, g.split("|"))) for g in genres]
    return {
        "user_id": user_ids,
        "movie_id": movie_ids,
        "rating": rating,
        "timestamp": timestamp,
        **{name: _gather(_factorize(_column(col)), user_rows) for name, col in side.items()},
        "genres": _gather(_factorize(_column(genre_sets)), movie_rows),
    }


def _side_columns(path, width: int, ints: tuple, non_integer: str, known=()) -> list:
    """The `width` columns of a `::`-separated file, one entry per non-empty
    line in file order, the columns at `ints` read by `int`, each value of a
    column of `known` (column, dict, name) a key of that dict.  The file is
    read and split at once, in text mode.  Only when a check fails are the
    lines walked in file order for the first bad one, which raises naming the
    file and line: a line of another field count, one where `int` refuses a
    field at `ints` (`non_integer`, formatted with that `field`, the `exc`
    that `int` raised and the `line`, says which), or, a ReferentialError, a
    `known` column's value that is not a key."""
    with open(path, "r", encoding="latin-1") as fh:
        lines = fh.read().split("\n")
    rows = list(map(str.split, filter(None, lines), repeat("::")))
    if set(map(len, rows)) <= {width}:
        columns = list(zip(*rows)) or [()] * width
        try:
            for i in ints:
                columns[i] = list(map(int, columns[i]))
        except ValueError:
            pass
        else:
            if all(set(columns[i]).issubset(index) for i, index, _ in known):
                return columns
    for line_no, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("::")
        if len(parts) != width:
            raise ParseError(f"{path}:{line_no}: expected {width} '::' fields, got {len(parts)}")
        for i in ints:
            try:
                int(parts[i])
            except ValueError as exc:
                message = non_integer.format(field=parts[i], exc=exc, line=line)
                raise ParseError(f"{path}:{line_no}: {message}") from None
        for i, index, name in known:
            if int(parts[i]) not in index:
                raise ReferentialError(f"{path}:{line_no}: unknown {name} id {int(parts[i])}")
    raise AssertionError(f"{path}: a check failed on no line")


_COLON_TO_SPACE = bytes.maketrans(b":", b" ")


def _bulk_ratings(data: bytes):
    """The four fields of every ratings line as int64 arrays, parsed by one
    `np.fromstring` call; None unless each non-empty line is provably four
    `::`-separated runs of ASCII digits, which `int` reads to the same values.
    (Signs are left to the line reader: numpy reads a lone `-` as 0.)  Lines
    end at LF, CRLF or CR, as in text mode.  CRs are turned into LFs only
    when the file has them, and blank lines dropped only when the file as
    read fails the check below.

    The proof is on the bytes read: with the digits deleted every line is
    exactly six colons, and the file holds three `::` a line, so every colon
    sits in a `::` pair (a run of an odd length holds fewer pairs than half
    its colons).  A `::::` then still passes as an empty field, but yields
    one value fewer, which the count of values rejects: no line yields more
    than four.  Each `:` then becomes a space by one 1:1 translate."""
    if b"\r" in data:
        # a CRLF then ends one line and an empty one, and empty lines drop
        data = data.replace(b"\r", b"\n")
    n = _six_colon_lines(data)
    if n is None:
        # blank lines and a missing final newline may be all that is wrong
        data = b"\n".join(filter(None, data.split(b"\n"))) + b"\n"
        n = _six_colon_lines(data)
    if not n or data.count(b"::") != 3 * n:
        return None
    try:
        values = np.fromstring(data.translate(_COLON_TO_SPACE), dtype=np.int64, sep=" ")
    except ValueError:  # not expected after the check above
        return None
    # an empty field gives no value, and an overflow saturates silently:
    # 99999999999999999999 reads as int64 max
    if values.size != 4 * n or values.max() == _INT64_MAX:
        return None
    return values.reshape(-1, 4).T.copy()


def _six_colon_lines(data: bytes):
    """The number of lines of `data` if, with the digits deleted, each is
    exactly six colons ended by an LF; else None."""
    skeleton = data.translate(None, b"0123456789")
    n = len(skeleton) // 7
    return n if skeleton == b"::::::\n" * n else None


def _rows_of(index: dict, ids: np.ndarray):
    """The factor of the int64 `ids`, equal to the one np.unique gives, and
    the row `index` maps each id to; None if an id is not a key.

    When the ids span fewer than four values a rating, the factor comes from
    a table of the ids present over that span, with no sort: its bool and
    int64 entries then take at most 36 bytes a rating, about what np.unique's
    sort and its index arrays take.  A wider span takes np.unique.  Each
    distinct id is then found by one search among the sorted keys."""
    lo, hi = int(ids.min()), int(ids.max())
    if hi - lo < 4 * len(ids):
        offsets = ids - lo
        present = np.zeros(hi - lo + 1, dtype=bool)
        present[offsets] = True
        distinct = np.flatnonzero(present) + lo
        inverse = (np.cumsum(present, dtype=np.int64) - 1)[offsets]
    else:
        distinct, inverse = np.unique(ids, return_inverse=True)
    # only a key in the ids' range can equal one (a key beyond int64 cannot)
    keys = sorted(k for k in index if lo <= k <= hi)
    if not keys:
        return None
    table = np.array(keys, dtype=np.int64)
    pos = np.minimum(np.searchsorted(table, distinct), len(keys) - 1)
    if not np.array_equal(table[pos], distinct):
        return None
    rows = np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys))
    return Factor(distinct, inverse), rows[pos][inverse]


def _integral(value):
    """`value` as an int if it is a JSON number with an integral value, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if isinstance(value, float):
        if not value.is_integer():  # also False for NaN and the infinities
            return None
        value = int(value)
    return value


def parse_amazon(reviews_path) -> dict:
    """Parse a newline-delimited Amazon review dump into a column table.

    One entry per field, in this order, each holding one value per review
    line in file order: reviewer_id, product_id, rating, timestamp and the
    category set.  rating and timestamp are plain arrays; reviewer_id,
    product_id and category are each a `Factor` over the review lines.  Each
    line is a JSON object.  "reviewerID" and "asin" are JSON strings;
    "overall" and "unixReviewTime" are integral numbers (5 or 5.0); the
    timestamp must also fit a float.  Product categories, a flat "category"
    list of strings or a nested "categories" list of string paths, become the
    multi-valued field.  Anything else is a ParseError naming the line.
    """
    rows = []
    for line_no, line in _read_lines(reviews_path):
        where = f"{reviews_path}:{line_no}"
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # ValueError: also over-long integers
            raise ParseError(f"{where}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ParseError(f"{where}: expected a JSON object, got {type(obj).__name__}")
        for key in ("reviewerID", "asin", "overall", "unixReviewTime"):
            if key not in obj:
                raise ParseError(f"{where}: missing field {key!r}")
        if not (isinstance(obj["reviewerID"], str) and isinstance(obj["asin"], str)):
            raise ParseError(f"{where}: reviewerID and asin must be JSON strings")
        rating = _integral(obj["overall"])
        if rating is None:
            raise ParseError(f"{where}: non-integral rating {obj['overall']!r}")
        timestamp = _integral(obj["unixReviewTime"])
        if timestamp is None:
            raise ParseError(f"{where}: non-integral timestamp {obj['unixReviewTime']!r}")
        try:
            float(timestamp)
        except OverflowError:
            raise ParseError(f"{where}: timestamp outside the float range") from None
        categories = obj.get("category", obj.get("categories", []))
        if isinstance(categories, list) and all(isinstance(path, list) for path in categories):
            categories = [c for path in categories for c in path]
        if not isinstance(categories, list) or not all(isinstance(c, str) for c in categories):
            raise ParseError(f"{where}: categories must be a list of strings or of string lists")
        rows.append((obj["reviewerID"], obj["asin"], rating, timestamp, tuple(categories)))
    names = ("reviewer_id", "product_id", "rating", "timestamp", "category")
    # column i holds entry i of every row, exactly (see `_column`)
    table = {name: _column(map(itemgetter(i), rows)) for i, name in enumerate(names)}
    for name in ("reviewer_id", "product_id", "category"):
        table[name] = _factorize(table[name])
    return table


# ---------------------------------------------------------------------------
# schema building and encoding

# Field plans: (name, kind) in the fixed order used by both corpora.  Zip
# codes are deliberately excluded (near-unique noise); the timestamp serves
# as the one continuous field.
_MOVIELENS_PLAN = (
    ("user_id", CATEGORICAL),
    ("movie_id", CATEGORICAL),
    ("gender", CATEGORICAL),
    ("age", CATEGORICAL),
    ("occupation", CATEGORICAL),
    ("genres", MULTI_CATEGORICAL),
    ("timestamp", CONTINUOUS),
)

_AMAZON_PLAN = (
    ("reviewer_id", CATEGORICAL),
    ("product_id", CATEGORICAL),
    ("category", MULTI_CATEGORICAL),
    ("timestamp", CONTINUOUS),
)


def _plan_for(columns) -> tuple:
    """The field plan of a column table, told by its field names; anything
    but a dict is a DomainError."""
    if not isinstance(columns, dict):
        raise DomainError(f"a raw table must be a dict of columns, not a {type(columns).__name__}")
    keys = set(columns)
    if "movie_id" in keys:
        return _MOVIELENS_PLAN
    if "product_id" in keys:
        return _AMAZON_PLAN
    raise DomainError(f"unrecognized record layout: {sorted(keys)}")


def _float_column(name: str, values) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise DomainError(f"a {name} value is outside the float range") from None


# ---------------------------------------------------------------------------
# splitting


def _split_rows(n: int, ratios, seed: int) -> tuple:
    """Row indices of the train, validation and test parts of `n` rows: a
    seeded uniform shuffle followed by a contiguous three-way cut."""
    # `r > 0` rather than `r <= 0`: NaN fails every comparison
    if len(ratios) != 3 or not all(r > 0 for r in ratios):
        raise ConfigError(f"need three positive ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios {ratios} sum to {sum(ratios)}, expected 1")
    if not 0 <= seed < 2**64:  # the cache stores it as a u64
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    order = Rng(seed).permutation(n)
    c1 = int(round(n * ratios[0]))
    c2 = int(round(n * (ratios[0] + ratios[1])))
    return order[:c1], order[c1:c2], order[c2:]


# ---------------------------------------------------------------------------
# binary dataset cache


@dataclass
class CachedDataset:
    schema: FeatureSchema
    tag: str
    split: DatasetSplit  # of Columnar


class BinaryReader:
    """Little-endian reader over one cache or checkpoint file's bytes, framed
    by `write_section`.  A short read or a section whose SHA-256 or length
    does not match is a CacheError naming the file."""

    def __init__(self, blob: bytes, path, what: str):
        self.blob = blob
        self.pos = 0
        self.path = path
        self.what = what

    def error(self, message: str) -> CacheError:
        return CacheError(f"{self.path}: {message}")

    def take_bytes(self, size: int) -> bytes:
        if self.pos + size > len(self.blob):
            raise self.error(f"truncated {self.what}")
        chunk = self.blob[self.pos : self.pos + size]
        self.pos += size
        return chunk

    def section(self, name: str) -> bytes:
        """The bytes of a section: a u64 length, the bytes, then their SHA-256."""
        payload = self.take_bytes(int.from_bytes(self.take_bytes(8), "little"))
        if hashlib.sha256(payload).digest() != self.take_bytes(32):
            raise self.error(f"checksum mismatch in the {name} section of the {self.what}")
        return payload

    def array(self, name: str, dtype: str, count: int) -> np.ndarray:
        """A section as `count` values of `dtype`: a read-only view of its bytes."""
        payload = self.section(name)
        itemsize = np.dtype(dtype).itemsize
        if len(payload) != count * itemsize:
            raise self.error(
                f"the {name} section of the {self.what} holds {len(payload)} bytes, "
                f"expected {count} values of {itemsize} bytes"
            )
        return np.frombuffer(payload, dtype=dtype)

    def end(self) -> None:
        if self.pos != len(self.blob):
            raise self.error(f"trailing bytes in {self.what}")


# Caches and checkpoints share one layout: the magic, the u32 version, a
# sorted-key JSON header section, then one section per array.  A cache's
# header holds the schema, tag, seed, ratios and each split's row count; its
# arrays are, split by split, one section per field column, then the labels.


def write_section(out: bytearray, payload: bytes) -> None:
    """Append one section: a u64 byte length, the bytes, and their SHA-256."""
    out += len(payload).to_bytes(8, "little")
    out += payload
    out += hashlib.sha256(payload).digest()


def write_file(path, magic: bytes, version: int, header: dict, payloads) -> None:
    """Write a cache or checkpoint: magic, version, the header and each payload."""
    out = bytearray(magic)
    out += version.to_bytes(4, "little")
    write_section(out, json.dumps(header, sort_keys=True).encode("utf-8"))
    for payload in payloads:
        write_section(out, payload)
    with open(path, "wb") as fh:
        fh.write(out)


def read_file(path, magic: bytes, version: int, what: str, remedy: str) -> tuple:
    """The header object of a file `write_file` wrote and a reader at its first
    payload.  A wrong magic or version, or a header that is not JSON, is a
    CacheError; the header's values are the caller's to check."""
    with open(path, "rb") as fh:
        rd = BinaryReader(fh.read(), path, what)
    if rd.take_bytes(len(magic)) != magic:
        raise rd.error(f"not a {what} file (bad magic)")
    found = int.from_bytes(rd.take_bytes(4), "little")
    if found != version:
        raise rd.error(f"{what} version {found} is not the supported version {version}; {remedy}")
    payload = rd.section("header")
    try:
        return json.loads(payload), rd
    except (ValueError, RecursionError) as exc:
        raise rd.error(f"bad JSON in {what} ({exc})") from None


def check_header(rd: BinaryReader, header, checks: dict) -> None:
    """A header is outside input even when its checksum holds: it must be an
    object with exactly the keys of `checks`, each value passing its check."""
    if not isinstance(header, dict) or set(header) != set(checks):
        raise rd.error(f"bad {rd.what} header")
    bad = [key for key, ok in checks.items() if not ok(header[key])]
    if bad:
        raise rd.error(f"bad {rd.what} header: {', '.join(bad)}")


def _is_field(f) -> bool:
    """A field as `FeatureSchema.to_dict` writes it."""
    return (isinstance(f, dict) and set(f) == {"name", "kind", "vocab", "lo", "hi"}
            and isinstance(f["name"], str)
            and f["kind"] in (CATEGORICAL, MULTI_CATEGORICAL, CONTINUOUS)
            and isinstance(f["vocab"], list) and set(map(type, f["vocab"])) <= {str, int}
            and not (f["kind"] == CONTINUOUS and f["vocab"])
            and all(type(f[k]) is float and math.isfinite(f[k]) for k in ("lo", "hi")))


def _is_schema(s) -> bool:
    return (isinstance(s, dict) and set(s) == {"fields"} and isinstance(s["fields"], list)
            and all(map(_is_field, s["fields"]))
            and len({f["name"] for f in s["fields"]}) == len(s["fields"]))


_CACHE_HEADER = {
    "schema": _is_schema,
    "tag": lambda tag: isinstance(tag, str),
    "seed": lambda seed: type(seed) is int and 0 <= seed < 2**64,
    "ratios": lambda ratios: isinstance(ratios, list) and len(ratios) == 3
    and all(type(r) is float and 0.0 <= r <= 1.0 for r in ratios),
    "rows": lambda rows: isinstance(rows, list) and len(rows) == 3
    and all(type(n) is int and n >= 0 for n in rows),
}


def _int_bytes(values: np.ndarray, dtype: str) -> bytes:
    """`values` stored as `dtype`; a value that type cannot hold is an EncodingError."""
    stored = values.astype(dtype)
    if not np.array_equal(stored, values):
        raise EncodingError(f"a value does not fit the cache's {np.dtype(dtype).name} column")
    return stored.tobytes()


def _column_payloads(col: Columnar):
    """The sections of one split: each field's column, then the labels."""
    for fc in col.fields:
        if fc.kind == CATEGORICAL:
            yield _int_bytes(fc.idx, "<u4")
        elif fc.kind == MULTI_CATEGORICAL:
            offsets = np.zeros(col.n + 1, dtype=np.int64)
            np.cumsum(fc.counts, out=offsets[1:])
            active = np.arange(fc.padded.shape[1]) < fc.counts[:, None]
            yield _int_bytes(offsets, "<u8")
            yield _int_bytes(fc.padded[active], "<u4")
        else:
            yield fc.vals.astype("<f8").tobytes()
    yield _int_bytes(col.labels, "u1")


def _unpack_columns(rd: BinaryReader, schema: FeatureSchema, part: str, n: int,
                    decode: bool) -> Columnar | None:
    """One split's `n` rows, as stored, or None when not `decode`.  Either
    way every section's length and SHA-256 is checked, and a multi-valued
    field's offsets must rise from 0 to its values section's length, before
    anything is allocated.  A decoded split's values are
    `Columnar.from_examples`'s to check."""
    stored = []
    for spec in schema.fields:
        name = f"{part} {spec.name}"
        if spec.kind == MULTI_CATEGORICAL:
            offsets = rd.array(f"{name} offsets", "<u8", n + 1)
            if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]):
                raise rd.error(f"the {name} offsets do not rise from 0")
            stored.append((offsets, rd.array(f"{name} values", "<u4", int(offsets[-1]))))
        else:
            stored.append(rd.array(name, "<u4" if spec.kind == CATEGORICAL else "<f8", n))
    labels = rd.array(f"{part} labels", "u1", n)
    if not decode:
        return None
    cols = []
    for spec, column in zip(schema.fields, stored):
        if spec.kind == CATEGORICAL:
            cols.append(FieldColumn(kind=spec.kind, idx=column.astype(np.int64)))
        elif spec.kind == MULTI_CATEGORICAL:
            offsets, values = column
            counts = np.diff(offsets.astype(np.int64))
            padded = np.zeros((n, int(counts.max()) if n else 1), dtype=np.int64)
            padded[np.arange(padded.shape[1]) < counts[:, None]] = values
            cols.append(FieldColumn(kind=spec.kind, padded=padded, counts=counts))
        else:
            cols.append(FieldColumn(kind=spec.kind, vals=column.astype(np.float64)))
    col = Columnar(fields=cols, labels=labels.astype(np.float64), n=n)
    try:
        return Columnar.from_examples(col, schema)
    except EncodingError as exc:
        raise rd.error(f"the {part} split: {exc}") from None


def save_cache(path, cached: CachedDataset):
    """Write the versioned binary cache; byte-identical for identical inputs.
    Each split must pass `Columnar.from_examples`."""
    sp = cached.split
    parts = [Columnar.from_examples(p, cached.schema) for p in (sp.train, sp.validation, sp.test)]
    header = {
        "schema": cached.schema.to_dict(),
        "tag": cached.tag,
        "seed": index(sp.seed),  # a numpy integer seed too
        "ratios": [float(r) for r in sp.ratios],
        "rows": [part.n for part in parts],
    }
    write_file(path, CACHE_MAGIC, CACHE_VERSION, header,
               chain.from_iterable(map(_column_payloads, parts)))


_SPLITS = ("train", "validation", "test")


def load_cache(path, splits=_SPLITS) -> CachedDataset:
    """The cache at `path`, with the splits named in `splits` decoded and the
    others None.  Every byte of the file is checked either way: the header,
    and each section's length and SHA-256 (see `_unpack_columns`); a trailing
    byte is a CacheError.  Each decoded split passes `Columnar.from_examples`."""
    header, rd = read_file(path, CACHE_MAGIC, CACHE_VERSION, "cache", "re-run prepare")
    check_header(rd, header, _CACHE_HEADER)
    schema = FeatureSchema.from_dict(header["schema"])
    parts = [_unpack_columns(rd, schema, part, n, part in splits)
             for part, n in zip(_SPLITS, header["rows"])]
    rd.end()
    split_ = DatasetSplit(train=parts[0], validation=parts[1], test=parts[2],
                          seed=header["seed"], ratios=tuple(header["ratios"]))
    return CachedDataset(schema=schema, tag=header["tag"], split=split_)


def _labels(ratings: np.ndarray, parts) -> np.ndarray:
    """float64 binary targets of the 1..5 star ratings, in file order: 4 stars
    or more is positive.  A rating outside [1, 5] is a DomainError naming the
    first one met in train, validation, test order."""
    if ratings.min() < 1 or ratings.max() > 5:
        met = ratings[np.concatenate(parts)]
        bad = met[(met < 1) | (met > 5)][0]
        raise DomainError(f"rating {bad} outside [1, 5]")
    return (ratings >= 4).astype(np.float64)


def _encode_sets(spec: FieldSpec, sets: np.ndarray) -> tuple:
    """The 0-padded sorted distinct indices and the count of each value set:
    an empty or all-unseen set is encoded as (0,)."""
    encoded = [sorted({spec.index_of(v) for v in s}) or [0] for s in sets]
    counts = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    padded = np.zeros((len(encoded), int(counts.max())), dtype=np.int64)
    padded[np.arange(padded.shape[1]) < counts[:, None]] = list(chain(*encoded))
    return padded, counts


def _take_encoded(schema: FeatureSchema, encoded: list, labels, rows) -> Columnar:
    """The given rows of whole encoded columns, as the Columnar that
    `Columnar.from_examples` builds from those rows' encoded examples."""
    fields = []
    for spec, enc in zip(schema.fields, encoded):
        if spec.kind == MULTI_CATEGORICAL:
            row_set, padded, counts = enc
            ids = row_set[rows]
            qmax = int(counts[ids].max()) if len(rows) else 1
            fields.append(FieldColumn(kind=spec.kind, padded=padded[:, :qmax][ids], counts=counts[ids]))
        elif spec.kind == CATEGORICAL:
            fields.append(FieldColumn(kind=spec.kind, idx=enc[rows]))
        else:
            fields.append(FieldColumn(kind=spec.kind, vals=enc[rows]))
    return Columnar(fields=fields, labels=labels[rows], n=len(rows))


def _table_length(table: dict, plan) -> int:
    """The row count of a raw table that holds a column for each field of
    `plan` and for rating, all of one length: a `Factor` with int64 codes in
    [0, len(values)) for each categorical or multi-valued field, a 1-D array
    for the others.  Anything else is a DomainError naming the field."""
    names = [name for name, _ in plan] + ["rating"]
    missing = [name for name in names if name not in table]
    if missing:
        raise DomainError(f"the raw table has no {', '.join(map(repr, missing))} column")
    factors = {name for name, kind in plan if kind != CONTINUOUS}
    n = None
    for name in names:
        col = table[name]
        if name in factors:
            if not isinstance(col, Factor):
                raise DomainError(f"field {name!r}: expected a Factor, got {_describe(col)}")
            if not (_is_1d(col.values) and _is_1d(col.codes) and col.codes.dtype == np.int64):
                raise DomainError(f"field {name!r}: expected 1-D values and 1-D int64 codes, got "
                                  f"{_describe(col.values)} and {_describe(col.codes)}")
        elif not _is_1d(col):
            raise DomainError(f"field {name!r}: expected a 1-D array, got {_describe(col)}")
        n = len(col) if n is None else n
        if len(col) != n:
            raise DomainError(f"field {name!r} has {len(col)} rows, {names[0]!r} has {n}")
        if name in factors and n and col.codes.view(np.uint64).max() >= len(col.values):
            bad = col.codes[(col.codes < 0) | (col.codes >= len(col.values))][0]
            raise DomainError(f"field {name!r}: code {bad} outside [0, {len(col.values)})")
    return n


def _is_1d(a) -> bool:
    return isinstance(a, np.ndarray) and a.ndim == 1


def prepare_dataset(table, ratios, seed: int, tag: str) -> CachedDataset:
    """Split a raw table, fit the schema on the training part, encode everything.

    `table` is a column table as `parse_movielens` and `parse_amazon` return
    it: each categorical or multi-valued field a `Factor`, already factorized
    by the parser, and rating and timestamp plain arrays, one entry per
    rating.  A table that does not hold this is a DomainError naming the
    field (see `_table_length`).  The split is a seeded row permutation cut
    in three.  A field's vocabulary is fitted on the values whose codes occur
    in the training rows, found by one boolean mask over the codes, and each
    of its values is looked up, and each value set encoded, once; nothing
    here hashes a per-rating column.  The timestamp is scaled and clipped as
    one array.
    """
    plan = _plan_for(table)
    n = _table_length(table, plan)
    if not n:
        raise DomainError("no interactions to prepare")
    parts = _split_rows(n, ratios, seed)
    train = parts[0]
    if not len(train):
        raise DomainError("cannot build a schema from an empty table")
    fields, encoded = [], []
    for name, kind in plan:
        col = table[name]
        if kind == CONTINUOUS:
            vals = _float_column(name, col)
            spec = FieldSpec(name=name, kind=kind, lo=float(vals[train].min()),
                             hi=float(vals[train].max()))
            span = spec.hi - spec.lo
            x = np.zeros(n) if span == 0 else (vals - spec.lo) / span
            encoded.append(np.clip(x, 0.0, 1.0))
        else:
            in_train = np.zeros(len(col.values), dtype=bool)
            in_train[col.codes[train]] = True
            seen = col.values[in_train].tolist()
            if kind == CATEGORICAL:
                # a set, so that a value repeated in `values` is one vocabulary entry
                spec = FieldSpec(name=name, kind=kind, vocab=tuple(sorted(set(seen))))
                encoded.append(spec.indices(col.values.tolist())[col.codes])
            else:
                spec = FieldSpec(name=name, kind=kind, vocab=tuple(sorted(set().union(*seen))))
                encoded.append((col.codes, *_encode_sets(spec, col.values)))
        fields.append(spec)
    schema = FeatureSchema(fields=tuple(fields))
    labels = _labels(table["rating"], parts)
    train, validation, test = (_take_encoded(schema, encoded, labels, rows) for rows in parts)
    enc_split = DatasetSplit(train, validation, test, seed=seed, ratios=tuple(ratios))
    return CachedDataset(schema=schema, tag=tag, split=enc_split)
