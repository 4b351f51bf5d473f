"""arec benchmark: the real CLI entry points on generated MovieLens-format data.

Run from the root of a checkout:

    python3 bench/run.py --workload ours_narrow --seed 1 --seconds 20 --trace 0

One process is the only client of a closed loop: it calls
``arec.cli.main(["prepare" | "train" | "eval", ...])`` in-process, back to
back, for ``--seconds`` seconds.  Every command and every correctness check
is one operation; a failed one is counted, never fatal.

``--trace 0`` reports the end-to-end metrics.  Each timing is scaled to a
reference host speed by a fixed probe that runs around every timed call (see
``Clock``).  ``--trace 1`` alternates
untraced rounds with rounds whose layer calls are wrapped in spans (see
tracing.py) and reports per-layer figures plus the tracing overhead.  The full
report, with an environment record, goes to
``.bench_work/results/<workload>-seed<seed>-trace<t>.json``; the last line
of standard output is the summary JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import mlsynth  # this directory is sys.path[0] when the file runs as a script
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

DIM = 16
# `prepare`, `train`, `eval --split test` and the set-up measurement each run
# this many times a round, so every timing has at least twice as many samples
# as there are rounds.
REPEATS = 2
# Timings are scaled to a host on which `host_probe` takes this long: a round
# figure near its 1.7-1.8 ms on a quiet 2-vCPU Intel Xeon VM.  See README.md.
PROBE_REF_S = 0.002
_PROBE_MATRIX = np.random.default_rng(0).random((48, 48))


@dataclass(frozen=True)
class Workload:
    """Corpus shape and training settings.  `patience == epochs`, so every
    round trains the same number of epochs and does the same work."""

    name: str
    model: str
    n_users: int
    n_movies: int
    n_ratings: int
    epochs: int
    auc_floor: float  # test AUC below this fails the quality gate
    modality_dim: int = 0  # > 0: train with a modality file covering every movie


# Why each workload exists is recorded in BENCHMARK.json; what it stresses,
# in layers.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ours_narrow", "ours", 240, 320, 9_600, epochs=2, auc_floor=0.60),
        Workload("fm_modality_bulk", "fm", 6_040, 3_706, 48_000, epochs=1, auc_floor=0.54,
                 modality_dim=16),
    )
}


class Gates:
    """Counts operations (command runs and correctness checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
            print(f"FAILED {what} {detail}".rstrip(), file=sys.stderr)
        return ok


@dataclass
class Files:
    raw: str
    cache: str
    ckpt: str
    curve: str
    modality: str


def host_probe() -> float:
    """Seconds of a fixed mix of interpreter and small-array numpy work; best of three.

    It shares no code with arec, so only the host moves it.  On a shared host
    other tenants slow every process down by up to 2x, in spells of seconds
    to minutes, and this probe slows down with the program.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table = {}
        for i in range(4000):
            table[i % 251] = str(i)
        for _ in range(30):
            np.einsum("ij,jk->ik", _PROBE_MATRIX, _PROBE_MATRIX, optimize=False)
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Wall times of the timed calls, each with the host speed it ran at.

    A probe runs right before every timed call, and the probe of the next
    timed call (or a closing one) follows it, so each sample has a probe on
    either side.  Their mean stands for the host's speed during the sample.
    """

    def __init__(self):
        self.samples = []  # [kind, seconds, probe before, probe after]

    def probe(self) -> float:
        p = host_probe()
        if self.samples and self.samples[-1][3] is None:
            self.samples[-1][3] = p
        return p

    @contextlib.contextmanager
    def timed(self, kind: str):
        """Time the block as one `kind` sample; the caller marks a failure in rec[0]."""
        gc.collect()  # untimed, so each sample starts from the same collector state
        rec = [kind, 0.0, self.probe(), None]
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec[1] = time.perf_counter() - t0
            self.samples.append(rec)

    def scaled(self, kind: str) -> list:
        """Seconds of each `kind` sample, scaled to a host where the probe takes PROBE_REF_S."""
        return [sec * 2 * PROBE_REF_S / (before + after)
                for k, sec, before, after in self.samples if k == kind and after is not None]


@dataclass
class Round:
    wall: float
    ratings: int
    train_rows: int
    epochs: int
    test_rows: int
    test_auc: float
    digests: dict


def load_arec():
    """Import arec from this checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "arec", "__init__.py")):
        print(f"error: no arec package under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import arec
    import arec.cli  # noqa: F401  (loads every module the wrappers patch)

    if not os.path.abspath(arec.__file__).startswith(SRC + os.sep):
        print(f"error: imported arec from {arec.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return arec


def make_inputs(arec, wl: Workload, seed: int) -> Files:
    run_dir = os.path.join(WORK, wl.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    files = Files(
        raw=os.path.join(run_dir, "raw"),
        cache=os.path.join(run_dir, "data.cache"),
        ckpt=os.path.join(run_dir, "model.ckpt"),
        curve=os.path.join(run_dir, "model.curve.csv"),
        modality=os.path.join(run_dir, "modality.txt") if wl.modality_dim else "",
    )
    mlsynth.write_ml1m(files.raw, wl.n_users, wl.n_movies, wl.n_ratings, seed=seed)
    if wl.modality_dim:
        table = arec.losses.synthesize_modality_features(
            [str(m) for m in range(1, wl.n_movies + 1)], wl.modality_dim, seed)
        arec.losses.save_modality_features(table, files.modality)
    return files


def run_cli(arec, argv, gates: Gates, clock: Clock, kind: str, span):
    """One command through the real entry point, timed as a `kind` sample.

    Returns its standard output, or None if it failed.
    """
    out, err = io.StringIO(), io.StringIO()
    with clock.timed(kind) as rec:
        try:
            with span("cli." + argv[0]), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = arec.cli.main(argv)
        except (Exception, SystemExit):  # a crash is a failed operation, not the end of the run
            rc = None
            err.write(traceback.format_exc())
    ok = gates.check(f"arec {argv[0]} exits 0", rc == 0,
                     f"(exit {rc}) {err.getvalue().strip()[-800:]}")
    if not ok:
        rec[0] += " (failed)"
    return out.getvalue() if ok else None


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_round(arec, wl: Workload, files: Files, seed: int, gates: Gates, clock: Clock,
              recorder=None):
    """prepare, train and eval --split test REPEATS times each, eval --split val once.

    Returns None if a command failed.
    """
    span = recorder.span if recorder is not None else (lambda _name: contextlib.nullcontext())
    t0 = time.perf_counter()

    summaries = []
    for _ in range(REPEATS):
        out = run_cli(arec, ["prepare", "--dataset", "movielens", "--input", files.raw,
                             "--out", files.cache, "--seed", str(seed)],
                      gates, clock, "prepare", span)
        if out is None:
            return None
        summaries.append(out)
    gates.check("repeated prepares print identical summaries", len(set(summaries)) == 1)
    ratings = int(re.search(r"^interactions: (\d+)$", out, re.M).group(1))
    train_rows = int(re.search(r"^splits: train=(\d+) ", out, re.M).group(1))
    gates.check("prepare reads every rating", ratings == wl.n_ratings,
                f"{ratings} of {wl.n_ratings}")

    argv = ["train", "--cache", files.cache, "--model", wl.model, "--out", files.ckpt,
            "--curve", files.curve, "--seed", str(seed), "--dim", str(DIM),
            "--set", f"max_epochs={wl.epochs}", "--set", f"patience={wl.epochs}"]
    if wl.model == "ours":
        argv += ["--set", "mode=combined"]
    if wl.modality_dim:
        argv += ["--modality-features", files.modality]
    summaries = []
    for _ in range(REPEATS):
        out = run_cli(arec, argv, gates, clock, "train", span)
        if out is None:
            return None
        summaries.append(out)
    gates.check("repeated trains print identical summaries", len(set(summaries)) == 1)
    trained = json.loads(out.splitlines()[0])
    gates.check("train runs every epoch", trained["epochs_run"] == wl.epochs,
                f"{trained['epochs_run']} of {wl.epochs}")

    evaluate = ["eval", "--cache", files.cache, "--ckpt", files.ckpt, "--split"]
    out = run_cli(arec, evaluate + ["val"], gates, clock, "eval-val", span)
    if out is None:
        return None
    val_auc = json.loads(out)["auc"]
    gates.check("eval --split val reproduces the best val_auc bit for bit",
                float(val_auc).hex() == float(trained["val_auc"]).hex(),
                f"{val_auc!r} != {trained['val_auc']!r}")

    reports = []
    for _ in range(REPEATS):
        out = run_cli(arec, evaluate + ["test"], gates, clock, "eval-test", span)
        if out is None:
            return None
        reports.append(out)
    test = json.loads(reports[0])
    gates.check("test AUC above floor", test["auc"] > wl.auc_floor,
                f"{test['auc']!r} <= {wl.auc_floor}")
    gates.check("repeated evals report identical bytes", len(set(reports)) == 1)

    return Round(
        wall=time.perf_counter() - t0, ratings=ratings, train_rows=train_rows, epochs=trained["epochs_run"],
        test_rows=test["n_pos"] + test["n_neg"], test_auc=test["auc"],
        digests={"cache": sha256(files.cache), "checkpoint": sha256(files.ckpt),
                 "curve": sha256(files.curve)},
    )


def check_determinism(gates: Gates, reference: Round, rnd: Round):
    for name, digest in rnd.digests.items():
        gates.check(f"{name} bytes identical across rounds", digest == reference.digests[name],
                    f"{digest[:12]} != {reference.digests[name][:12]}")


def measure_setup(arec, wl: Workload, cache: str, seed: int, clock: Clock) -> None:
    """What `arec train` pays before its first batch, called directly."""
    config = arec.training.TrainConfig(dim=DIM, seed=seed, max_epochs=wl.epochs,
                                       patience=wl.epochs)
    with clock.timed("setup"):
        dataset = arec.data.load_cache(cache)
        arec.embedding.Columnar.from_examples(dataset.split.train, dataset.schema)
        arec.embedding.Columnar.from_examples(dataset.split.validation, dataset.schema)
        arec.training.init_state(arec.model.ops_for(wl.model), dataset.schema, config)


def end_to_end(rounds, clock: Clock, gates: Gates) -> dict:
    """Each timing is the median of its samples, each scaled to the reference host speed.

    Every round does the same work, so the counts of the first round hold
    for all of them.
    """
    first = rounds[0]
    work = {
        "train_ex_per_s": ("train", first.train_rows * first.epochs),
        "eval_ex_per_s": ("eval-test", first.test_rows),
        "prepare_rows_per_s": ("prepare", first.ratings),
    }
    out = {name: statistics.median(n / sec for sec in clock.scaled(kind))
           for name, (kind, n) in work.items()}
    out.update({
        "setup_s": statistics.median(clock.scaled("setup")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_auc": statistics.median(r.test_auc for r in rounds),
        "failed_op_share": len(gates.failures) / gates.attempted,
    })
    return out


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count the bundled OpenBLAS will use, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _blas_threads(),
            "thread_env": {k: os.environ[k] for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "AREC_THREADS")
                if k in os.environ},
        },
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# entry point


def closed_loop(seconds: float, once) -> list:
    """Call `once` back to back for `seconds`; at least once.

    A call starts only if a call as long as the longest so far still ends in
    time, so a run lasts about `seconds` whatever the length of a call.
    """
    out = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        out.append(once())
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() + longest > start + seconds:
            return out


def declared_metrics(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    arec = load_arec()
    declared = declared_metrics(args.trace)
    wl = WORKLOADS[args.workload]
    env = environment(args)
    files = make_inputs(arec, wl, args.seed)
    gates = Gates()
    clock = Clock()

    reference = None  # the first complete round; every later one must match its bytes

    def checked(rnd):
        nonlocal reference
        if reference is None:
            reference = rnd
        elif rnd is not None:
            check_determinism(gates, reference, rnd)
        return rnd

    def plain_round():
        return checked(run_round(arec, wl, files, args.seed, gates, clock))

    report = {"environment": env}
    if args.trace == 0:
        def round_and_setup():
            rnd = plain_round()
            # after each round, so the set-up samples spread over the run
            for _ in range(REPEATS):
                measure_setup(arec, wl, files.cache, args.seed, clock)
            return rnd

        rounds = [r for r in closed_loop(args.seconds, round_and_setup) if r is not None]
        clock.probe()  # the probe after the last sample
        if not rounds:
            print("error: no round completed", file=sys.stderr)
            return 1
        metrics = end_to_end(rounds, clock, gates)
        units = {**declared, "failed_op_share": "1"}
        report["rounds"] = [vars(r) for r in rounds]
        report["samples"] = {"columns": ["kind", "seconds", "probe_before_s", "probe_after_s"],
                             "rows": clock.samples}
    else:
        recorder = tracing.Recorder()
        plain, traced = [], []

        def pair():
            plain.append(plain_round())
            with tracing.installed(recorder, arec):
                traced.append(checked(run_round(arec, wl, files, args.seed, gates, clock,
                                                recorder)))

        closed_loop(args.seconds, pair)
        plain = [r for r in plain if r is not None]
        n_traced = sum(r is not None for r in traced)
        if not plain or not n_traced:
            print("error: no round completed", file=sys.stderr)
            return 1
        metrics = tracing.summarize(recorder.spans, n_traced)
        metrics["data.cache_bytes"] = os.path.getsize(files.cache)
        metrics["cli.checkpoint_bytes"] = os.path.getsize(files.ckpt)
        metrics["trace.overhead"] = (statistics.median(r.wall for r in traced if r is not None)
                                     / statistics.median(r.wall for r in plain))
        units = declared
        spans_path = os.path.join(WORK, wl.name, "spans.jsonl")
        recorder.dump(spans_path)
        report["spans"] = os.path.relpath(spans_path, ROOT)
        report["rounds"] = {"plain": len(plain), "traced": n_traced}

    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: run produced no value for declared metrics {missing}", file=sys.stderr)
        return 1

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {gates.attempted}  failed {len(gates.failures)}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>16.6g} {unit}")
    report.update(metrics=metrics, attempted=gates.attempted, failures=gates.failures)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out_path = os.path.join(WORK, "results", f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"report written to {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({
        "correct": not gates.failures,
        "attempted": gates.attempted,
        "failed": len(gates.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
