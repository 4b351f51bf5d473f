"""Command-line entry point: dataset preparation, training, evaluation,
and the embedding-dimension sweep.

Configuration is `TrainConfig`: its fields are the keys of a `--config`
key=value file and of `--set`, each value parsed by the field's type, and
`validate()` rejects any out-of-range value before training starts.

Checkpoints have the dataset cache's layout (`data.write_file` and
`data.read_file`): the magic "ARECKPT1", the u32 version 3, a JSON header
section with the model kind, config, schema hash and best-epoch metrics,
then one `<f8` section holding the best parameters' flat buffer in layout
order.  The kind, the config and the schema decide that layout, so a change
to the order in which a model's `build` takes its blocks needs a new
version.  They hold the model only; no command resumes training, so no
optimizer state is saved.  A truncated or corrupt file, an older version, a
header field of the wrong type or range (config keys included), or a buffer
whose length the model does not fit is a CacheError.

Exit codes: 0 success, 2 input or config error (a `data.InputError` or an
OSError), 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .data import (
    CacheError,
    ConfigError,
    InputError,
    check_header,
    load_cache,
    parse_amazon,
    parse_movielens,
    prepare_dataset,
    read_file,
    save_cache,
    write_file,
)
from .losses import load_modality_features
from .metrics import EVAL_CSV_HEADER, evaluate
from .model import MODEL_KINDS, ops_for
from .training import (
    BestSnapshot,
    DivergenceError,
    SWEEP_CSV_HEADER,
    TrainConfig,
    curve_csv_header,
    fit,
    parse_int_tuple,
    sweep,
)

CKPT_MAGIC = b"ARECKPT1"
CKPT_VERSION = 3


# ---------------------------------------------------------------------------
# config files


def _apply_setting(config: TrainConfig, item: str) -> None:
    """Apply one `key=value` setting; the value is parsed by the field's type."""
    if "=" not in item:
        raise ConfigError(f"expected key=value, got {item!r}")
    key, raw = item.split("=", 1)
    config.set(key.strip(), raw)


def read_config(path) -> TrainConfig:
    """Flat key=value file, # comments and blank lines allowed."""
    config = TrainConfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for ln, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _apply_setting(config, line)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{ln}: {exc}") from None
    return config


def _config_from_args(args) -> TrainConfig:
    config = read_config(args.config) if args.config else TrainConfig()
    for item in args.set or []:
        try:
            _apply_setting(config, item)
        except ConfigError as exc:
            raise ConfigError(f"--set: {exc}") from None
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "dim", None) is not None:
        config.dim = args.dim
    return config.validate()


# ---------------------------------------------------------------------------
# checkpoint format


@dataclasses.dataclass
class Checkpoint:
    kind: str
    config: TrainConfig
    schema_hash: str
    flat: np.ndarray  # the parameters' buffer, in layout order
    best_epoch: int
    val_auc: float
    val_logloss: float


def save_checkpoint(path, kind: str, config: TrainConfig, schema_hash: str,
                    best: BestSnapshot) -> None:
    header = {
        "kind": kind,
        "config": dataclasses.asdict(config),
        "schema_hash": schema_hash,
        "best_epoch": best.epoch,
        "val_auc": best.val_auc,
        "val_logloss": best.val_logloss,
    }
    # a view of the buffer's bytes: a `tobytes()` copy would add the model's size to peak memory
    write_file(path, CKPT_MAGIC, CKPT_VERSION, header,
               [memoryview(best.params.flat.astype("<f8", copy=False)).cast("B")])


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# every header field with the type and range that `save_checkpoint` writes
_HEADER_CHECKS = {
    "kind": lambda kind: kind in MODEL_KINDS,
    "config": lambda config: isinstance(config, dict),
    "schema_hash": lambda digest: isinstance(digest, str) and len(digest) == 64
    and set(digest) <= set("0123456789abcdef"),
    "best_epoch": lambda epoch: type(epoch) is int,
    "val_auc": _is_number,
    "val_logloss": _is_number,
}


def load_checkpoint(path) -> Checkpoint:
    header, r = read_file(path, CKPT_MAGIC, CKPT_VERSION, "checkpoint", "re-run train")
    check_header(r, header, _HEADER_CHECKS)
    try:
        config = TrainConfig.from_dict(header.pop("config")).validate()
    except ConfigError as exc:
        raise r.error(f"bad config in checkpoint: {exc}") from None
    payload = r.section("parameters")
    if len(payload) % 8:
        raise r.error(f"the parameters section of the checkpoint holds {len(payload)} bytes, "
                      "not a whole number of 8-byte values")
    r.end()
    return Checkpoint(**header, config=config, flat=np.frombuffer(payload, dtype="<f8"))


def rebuild_params(ckpt: Checkpoint, schema):
    """Bind the model's layout to a zeroed buffer and copy the checkpoint's
    buffer in.  No random init is drawn."""
    ops = ops_for(ckpt.kind)
    params = ops.init(schema, ckpt.config.dim, None, **ckpt.config.model_kwargs())
    if ckpt.flat.size != params.flat.size:
        raise CacheError(f"checkpoint holds {ckpt.flat.size} parameters, "
                         f"its {ckpt.kind} model over this schema has {params.flat.size}")
    params.flat[...] = ckpt.flat
    return ops, params


# ---------------------------------------------------------------------------
# subcommands


def _write_csv(path, header: str, rows) -> None:
    """A CSV file of the header line, then each row's `csv_row()` line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")


def cmd_prepare(args) -> int:
    try:
        ratios = tuple(float(tok) for tok in args.ratios.split(","))
    except ValueError:
        raise ConfigError(f"--ratios expects comma-separated numbers, got {args.ratios!r}") from None
    tag = args.tag or args.dataset
    try:
        tag.encode("utf-8")
    except UnicodeEncodeError:  # a surrogate-escaped argv byte
        raise ConfigError(f"--tag must be UTF-8 text, got {tag!r}") from None
    if args.dataset == "movielens":
        base = args.input
        table = parse_movielens(
            os.path.join(base, "ratings.dat"),
            os.path.join(base, "users.dat"),
            os.path.join(base, "movies.dat"),
        )
    else:
        path = args.input
        if os.path.isdir(path):
            path = os.path.join(path, "reviews.json")
        table = parse_amazon(path)
    dataset = prepare_dataset(table, ratios=ratios, seed=args.seed, tag=tag)
    save_cache(args.out, dataset)
    s = dataset.split
    print(f"dataset: {tag}")
    print(f"interactions: {len(s.train) + len(s.validation) + len(s.test)}")
    for spec in dataset.schema.fields:
        if spec.kind == "continuous":
            print(f"  field {spec.name}: {spec.kind}, range [{spec.lo}, {spec.hi}]")
        else:
            print(f"  field {spec.name}: {spec.kind}, cardinality {spec.cardinality}")
    print(f"splits: train={len(s.train)} val={len(s.validation)} test={len(s.test)}")
    print(f"cache written to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _config_from_args(args)
    dataset = load_cache(args.cache)
    modality = None
    if args.modality_features:
        modality = load_modality_features(args.modality_features)
    ops = ops_for(args.model)
    result = fit(ops, dataset.schema, dataset.split.train, dataset.split.validation,
                 config, modality_table=modality)
    best = result.state.best
    save_checkpoint(args.out, args.model, config, dataset.schema.hash_hex(), best)
    curve_path = args.curve or args.out + ".curve.csv"
    _write_csv(curve_path, curve_csv_header(with_modality=modality is not None), result.curve)
    print(json.dumps(
        {
            "model": args.model,
            "best_epoch": best.epoch,
            "epochs_run": result.epochs_run,
            "val_auc": best.val_auc,
            "val_logloss": best.val_logloss,
        },
        sort_keys=True,
    ))
    print(f"checkpoint written to {args.out}")
    print(f"curve written to {curve_path}")
    return 0


def cmd_eval(args) -> int:
    part = "validation" if args.split == "val" else "test"
    dataset = load_cache(args.cache, splits=(part,))
    ckpt = load_checkpoint(args.ckpt)
    if ckpt.schema_hash != dataset.schema.hash_hex():
        raise CacheError(f"schema mismatch: checkpoint {ckpt.schema_hash[:12]} vs cache "
                         f"{dataset.schema.hash_hex()[:12]}")
    ops, params = rebuild_params(ckpt, dataset.schema)
    rows = getattr(dataset.split, part)
    try:
        report = evaluate(ops, params, rows, dataset.schema, tag=args.split)
    except DivergenceError as exc:
        print(f"evaluation diverged: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(dataclasses.asdict(report), sort_keys=True))
    if args.csv:
        fresh = not os.path.exists(args.csv) or os.path.getsize(args.csv) == 0
        with open(args.csv, "a", encoding="utf-8") as fh:
            if fresh:
                fh.write(EVAL_CSV_HEADER + "\n")
            fh.write(report.csv_row() + "\n")
    return 0


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    try:
        dims = parse_int_tuple(args.dims)
    except ValueError:
        raise ConfigError(f"--dims expects comma-separated integers, got {args.dims!r}") from None
    dataset = load_cache(args.cache)
    os.makedirs(args.out, exist_ok=True)
    result = sweep(args.model, dataset.schema, dataset.split.train,
                   dataset.split.validation, dataset.split.test, config, dims)
    agg = os.path.join(args.out, "sweep.csv")
    _write_csv(agg, SWEEP_CSV_HEADER, result.rows)
    for d, curve in sorted(result.curves.items()):
        _write_csv(os.path.join(args.out, f"curve_d{d}.csv"), curve_csv_header(), curve)
    for d, message in result.failures:
        print(f"dim {d} failed: {message}", file=sys.stderr)
    print(f"sweep results written to {agg}")
    if result.failures:
        return 3
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arec",
        description="Attention-based CTR model: prepare data, train, evaluate, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="parse raw data, encode, split, and cache")
    p.add_argument("--dataset", choices=("movielens", "amazon"), required=True)
    p.add_argument("--input", required=True, help="raw data directory")
    p.add_argument("--out", required=True, help="cache file to write")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--tag", default=None)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="fit a model on a prepared cache")
    p.add_argument("--cache", required=True)
    p.add_argument("--model", choices=MODEL_KINDS, default="ours")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--curve", default=None, help="curve CSV path (default <out>.curve.csv)")
    p.add_argument("--modality-features", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a cached split")
    p.add_argument("--cache", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", choices=("val", "test"), default="test")
    p.add_argument("--csv", default=None, help="append the report as a CSV row here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train once per embedding dimension")
    p.add_argument("--cache", required=True)
    p.add_argument("--model", choices=MODEL_KINDS, default="ours")
    p.add_argument("--dims", required=True, help="comma list, e.g. 8,16,32,64")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
