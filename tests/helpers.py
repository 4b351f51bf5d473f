"""Shared utilities for the test suite: random schema/example generators,
finite-difference sweeps over whole parameter sets, and small fixtures."""

import copy
import importlib.util
import json
import pathlib
import struct
import sys
from dataclasses import replace
from operator import itemgetter

import numpy as np
from hypothesis import strategies as st

from arec.cli import CKPT_MAGIC
from arec.data import (
    CACHE_MAGIC,
    CATEGORICAL,
    CONTINUOUS,
    MULTI_CATEGORICAL,
    Factor,
    FeatureSchema,
    FieldSpec,
    _column,
    write_section,
)
from arec.embedding import EmbeddingParams, embed_batch
from arec.losses import logloss, logloss_d_logits
from arec.numerics import Rng

from oracle import (
    EncodedExample,
    build_schema,
    columnar,
    encode_example,
    finite_diff_grad,
    rel_error,
    split,
)


def corruptions(blob: bytes):
    """A strategy for one damaged copy of `blob`: a proper prefix, or one byte XORed."""
    def flip(where_mask):
        where, mask = where_mask
        return blob[:where] + bytes([blob[where] ^ mask]) + blob[where + 1 :]

    return (st.integers(0, len(blob) - 1).map(lambda cut: blob[:cut])
            | st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)).map(flip))


def _sections(blob: bytes) -> tuple:
    """A cache's or checkpoint's magic and version, and the payload of each of
    its sections, the header first."""
    pos = len(CKPT_MAGIC if blob.startswith(CKPT_MAGIC) else CACHE_MAGIC) + 4
    head, payloads = blob[:pos], []
    while pos < len(blob):
        (size,) = struct.unpack_from("<Q", blob, pos)
        payloads.append(blob[pos + 8 : pos + 8 + size])
        pos += 8 + size + 32
    return head, payloads


def header_end(blob: bytes) -> int:
    """The offset at which a cache's or checkpoint's header section ends."""
    head, payloads = _sections(blob)
    return len(head) + 8 + len(payloads[0]) + 32


def rewrite_file(blob: bytes, edit) -> bytes:
    """A cache or checkpoint `blob` after `edit(header, arrays)` changes its
    header object or its list of array section payloads in place, every
    section with a fresh SHA-256."""
    head, payloads = _sections(blob)
    header, arrays = json.loads(payloads[0]), payloads[1:]
    edit(header, arrays)
    out = bytearray(head)
    for payload in [json.dumps(header, sort_keys=True).encode("utf-8"), *arrays]:
        write_section(out, payload)
    return bytes(out)


# the stored arrays of one field of a cache split, as `_column_payloads` writes them
_STORED = {CATEGORICAL: ("<u4",), MULTI_CATEGORICAL: ("<u8", "<u4"), CONTINUOUS: ("<f8",)}


def _split_dtypes(header) -> list:
    """The stored dtypes of each column of one cache split, the labels last."""
    return [_STORED[f["kind"]] for f in header["schema"]["fields"]] + [("u1",)]


def _first_section(header, part: str) -> int:
    """The index, among a cache's array sections, of split `part`'s first one."""
    return ("train", "validation", "test").index(part) * sum(map(len, _split_dtypes(header)))


def split_bytes(blob: bytes, part: str) -> tuple:
    """The [start, end) byte offsets of split `part`'s sections, length
    prefixes and digests included, in a cache `blob`."""
    head, payloads = _sections(blob)
    header = json.loads(payloads[0])
    first = 1 + _first_section(header, part)
    last = first + sum(map(len, _split_dtypes(header)))
    start = len(head) + sum(8 + len(p) + 32 for p in payloads[:first])
    return start, start + sum(8 + len(p) + 32 for p in payloads[first:last])


def rewrite_split(blob: bytes, part: str, edit) -> bytes:
    """A cache `blob` after `edit(columns)` changes the stored arrays of split
    `part`, every checksum fresh.  `columns` holds a list of writable arrays
    per field (a multi-valued field's offsets and values), then [labels]; an
    entry may be replaced by an array of another length."""
    def apply(header, arrays):
        dtypes = _split_dtypes(header)
        start = _first_section(header, part)
        pos, columns = start, []
        for kinds in dtypes:
            columns.append([np.frombuffer(arrays[pos + k], dt).copy() for k, dt in enumerate(kinds)])
            pos += len(kinds)
        edit(columns)
        stored = [a.tobytes() for column in columns for a in column]
        arrays[start : start + len(stored)] = stored

    return rewrite_file(blob, apply)


BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load_bench(stem: str):
    """`bench/<stem>.py` as the module `arec_bench_<stem>`.  Its imports of
    `mlsynth` and `tracing` get the benchmark's own copies (this directory has
    another `mlsynth`), and no bytecode is written next to the benchmark."""
    spec = importlib.util.spec_from_file_location(f"arec_bench_{stem}", BENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    shadowed = {name: sys.modules.pop(name, None) for name in ("mlsynth", "tracing")}
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
        for name, shadow in shadowed.items():
            sys.modules.pop(name, None)
            if shadow is not None:
                sys.modules[name] = shadow
    return module


def field_named(schema, name):
    return {f.name: f for f in schema.fields}[name]


class FreshRng(Rng):
    """An `Rng` that answers the `take` and `fill` calls of a model part's
    init (`init_embedding`, `init_mhsa`, `init_ac`, `init_deep`) with fresh
    arrays, so the part can be built on its own, with the draws it makes
    inside a whole model."""

    def take(self, shape, std=None):
        return np.zeros(shape) if std is None else self.normal(shape, std)

    def fill(self, view, std):
        view[...] = self.normal(view.shape, std)
        return view


def nan_like(part):
    """A gradient container for a model part built on its own: a copy of the
    part with every tensor NaN, so an entry a backward leaves unwritten shows."""
    grads = copy.deepcopy(part)
    for _, t in grads.named_tensors():
        t.fill(np.nan)
    return grads


def zeros_like_embedding(params):
    return EmbeddingParams(dim=params.dim, tables=[np.zeros_like(t) for t in params.tables])


def make_schema(field_plan):
    """Build a schema from (name, kind, vocab_size_or_bounds) triples."""
    fields = []
    for name, kind, extra in field_plan:
        if kind == CONTINUOUS:
            lo, hi = extra
            fields.append(FieldSpec(name=name, kind=kind, vocab=(), lo=lo, hi=hi))
        else:
            vocab = tuple(f"{name}_{v}" for v in range(extra))
            fields.append(FieldSpec(name=name, kind=kind, vocab=vocab))
    return FeatureSchema(fields=tuple(fields))


def random_schema(gen, max_fields=6):
    """Random schema with 2..max_fields fields mixing all three kinds."""
    n = int(gen.integers(2, max_fields + 1))
    plan = []
    kinds = [CATEGORICAL, MULTI_CATEGORICAL, CONTINUOUS]
    for i in range(n):
        kind = kinds[int(gen.integers(0, 3))] if i >= 2 else CATEGORICAL
        if kind == CONTINUOUS:
            plan.append((f"f{i}", kind, (0.0, 1.0)))
        else:
            plan.append((f"f{i}", kind, int(gen.integers(2, 6))))
    return make_schema(plan)


def random_example(schema, gen, label=None):
    values = []
    for spec in schema.fields:
        if spec.kind == CATEGORICAL:
            values.append(int(gen.integers(0, spec.cardinality)))
        elif spec.kind == MULTI_CATEGORICAL:
            q = int(gen.integers(1, spec.cardinality))
            picks = gen.choice(spec.cardinality, size=q, replace=False)
            values.append(tuple(sorted(int(p) for p in picks)))
        else:
            values.append(float(gen.uniform()))
    if label is None:
        label = float(gen.integers(0, 2))
    return EncodedExample(values=tuple(values), label=label)


def encoded_rows(records, ratios, seed):
    """The schema and the train/validation/test lists of `encode_example` rows
    that `prepare_dataset` turns into columns: the oracle for those columns."""
    raw = split(records, ratios=ratios, seed=seed)
    schema = build_schema(raw.train)
    parts = (raw.train, raw.validation, raw.test)
    return schema, [[encode_example(r, schema) for r in part] for part in parts]


def decoded(table):
    """A raw table with each Factor replaced by the array of its values, one
    per row: `values[codes]`."""
    return {name: col.values[col.codes] if isinstance(col, Factor) else col
            for name, col in table.items()}


def records_of(table):
    """The records of a raw table, one dict of plain Python values per row."""
    columns = {name: col.tolist() for name, col in decoded(table).items()}
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def factor_of(col):
    """The Factor of a column, its values in order of first occurrence."""
    first = {}
    codes = [first.setdefault(value, len(first)) for value in col.tolist()]
    return Factor(values=_column(first), codes=np.array(codes, dtype=np.int64))


def columns_of(records):
    """The raw table of a list of records, as the parsers return one: each
    field's values, in record order, in an array that holds them exactly,
    and every field but rating and timestamp as its Factor."""
    table = {name: _column(map(itemgetter(name), records)) for name in records[0]}
    return {name: col if name in ("rating", "timestamp") else factor_of(col)
            for name, col in table.items()}


def assert_tables_equal(got, want):
    """Two raw tables hold the same fields, in order, the same of them as
    Factors, and decode to columns of equal dtypes and shapes, and values
    equal in type and value."""
    assert list(got) == list(want)
    for name in want:
        assert isinstance(got[name], Factor) == isinstance(want[name], Factor), name
    got, want = decoded(got), decoded(want)
    for name in want:
        g, w = got[name], want[name]
        assert g.dtype == w.dtype and g.shape == w.shape, name
        g, w = g.tolist(), w.tolist()
        assert g == w and list(map(type, g)) == list(map(type, w)), name


def assert_columns_equal(got, want):
    """Two Columnar sets hold the same arrays: equal values, dtypes and shapes."""
    assert got.n == want.n and len(got.fields) == len(want.fields)
    pairs = [(got.labels, want.labels)]
    for g, w in zip(got.fields, want.fields):
        assert g.kind == w.kind
        pairs += [(getattr(g, a), getattr(w, a)) for a in ("idx", "padded", "counts", "vals")]
    for g, w in pairs:
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


def parts(schema, examples, *cuts):
    """`examples` cut at the row numbers `cuts` into consecutive Columnar splits."""
    bounds = (0, *cuts, len(examples))
    return [columnar(examples[lo:hi], schema) for lo, hi in zip(bounds, bounds[1:])]


def named_arrays(params):
    return list(params.named_tensors())


def one_row(example, schema, label=None):
    """The one-row batch of `example` under `schema`, relabelled `label` if given."""
    if label is not None:
        example = replace(example, label=float(label))
    return columnar([example], schema)


def embed_one(tables, schema, example):
    """(n_fields, d) embeddings of `example` looked up as a one-row batch."""
    return embed_batch(one_row(example, schema), tables)[0]


def score_one(ops, params, schema, example):
    """(probability, logit, trace) of `example` scored as a one-row batch."""
    probs, logits, trace = ops.forward_batch(one_row(example, schema), params)
    return float(probs[0]), float(logits[0]), trace


def batch_loss(ops, params, col) -> float:
    probs, _, _ = ops.forward_batch(col, params)
    return logloss(probs, col.labels)


def relu_kink_margin(tr) -> float:
    """Smallest |pre-activation| across every relu in a forward trace.

    Central differences are only trustworthy when no perturbation can flip a
    relu gate, so finite-difference sweeps skip draws with a tiny margin.
    """
    margin = float("inf")
    branch = getattr(tr, "branch", None)
    if branch is not None:
        margin = min(margin, float(np.min(np.abs(branch.mhsa.pre))))
        margin = min(margin, float(np.min(np.abs(branch.ac.z))))
    deep = getattr(tr, "deep", None)
    if deep is not None:
        for z in deep.pres[:-1]:  # last layer is linear
            if z.size:
                margin = min(margin, float(np.min(np.abs(z))))
    return margin


def fd_check_all_tensors(ops, params, schema, example, label, eps=1e-5, floor=1e-3):
    """Worst relative error between the trainer's analytic gradients and
    central differences of the logloss, over every named tensor of `params`,
    on a one-row batch.  The backward runs as the trainer calls it: into a
    reused container, here one full of NaN."""
    col = one_row(example, schema, label)
    probs, _, trace = ops.forward_batch(col, params)
    d_logits = logloss_d_logits(probs, col.labels)
    out = params.layout.zeros()
    out.flat.fill(np.nan)
    grads = dict(ops.backward_batch(trace, params, d_logits, out=out).named_tensors())
    worst = 0.0
    for name, arr in params.named_tensors():
        def f(x, arr=arr):
            saved = arr.copy()
            arr[...] = x
            val = batch_loss(ops, params, col)
            arr[...] = saved
            return val
        fd = finite_diff_grad(f, arr.copy(), eps=eps)
        worst = max(worst, rel_error(grads[name], fd, floor=floor))
    return worst


def separable_examples(n_users=20, per_user=10):
    """Dataset whose label is decided by the user field alone: the first
    half of the users always click, the second half never do."""
    schema = make_schema([
        ("user_id", CATEGORICAL, n_users),
        ("item_id", CATEGORICAL, 10),
    ])
    gen = np.random.default_rng(123)
    examples = []
    for u in range(1, n_users + 1):
        for _ in range(per_user):
            item = int(gen.integers(1, 11))
            label = 1.0 if u <= n_users // 2 else 0.0
            examples.append(EncodedExample(values=(u, item), label=label))
    order = gen.permutation(len(examples))
    return schema, [examples[i] for i in order]
