"""A smoke run of the benchmark driver: two rounds of its real commands, its
determinism check and its set-up measurement, on a tiny corpus, with every
gate passing.  A change to the cache or checkpoint bytes, or to a loader the
driver calls, shows up here before a benchmark run."""

import arec
import arec.cli  # noqa: F401  (the driver reaches every module through `arec`)

from helpers import load_bench


def test_two_rounds_pass_every_gate(tmp_path, monkeypatch):
    run = load_bench("run")
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    wl = run.Workload("smoke", "ours", 30, 40, 700, epochs=1, auc_floor=0.0, modality_dim=4)
    files = run.make_inputs(arec, wl, seed=1)
    gates, clock = run.Gates(), run.Clock()
    rounds = [run.run_round(arec, wl, files, 1, gates, clock) for _ in range(2)]
    assert None not in rounds
    run.check_determinism(gates, *rounds)
    run.measure_setup(arec, wl, files.cache, 1, clock)
    assert gates.failures == [] and gates.attempted > 0
    assert [sample[0] for sample in clock.samples].count("setup") == 1
