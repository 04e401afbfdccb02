"""Pins the counts the traced benchmark reports at the reference config, so a
wrapper that stops seeing its layer fails loudly.  Each test runs two trials
per cell or one bounds pass, never a whole workload.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from mirrormotion import cli, est

import layers

HERE = Path(__file__).resolve().parent
TRIALS = 2


def traced(fn):
    tracer = layers.Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def few_trials(tmp_path):
    base = cli.reference_config()
    return replace(
        base, simulation=replace(base.simulation, n_trials=TRIALS), out_dir=str(tmp_path)
    )


def test_trial_counts(tmp_path):
    config = few_trials(tmp_path)
    grid = est.SpectralGrid.build(config.priors())
    builds = {}
    for kind in cli.PROBE_KINDS:
        t = traced(lambda: cli.run_sweep_point(config, kind, 6.24e6, grid=grid))
        m = layers.layer_metrics(t.spans, t.events, TRIALS)
        builds[kind] = m["sim.KalmanTracker.builds"]
        assert m["sim.mirror_response.fft_len"] == 88_704
        assert m["model.tf.points_per_trial"] == 44_353
        assert m["est.smooth.rfft_per_trial"] == 3
        assert m["cli.payload_bytes_per_trial"] == 480_427
        assert m["cli.scored_fraction"] == 10_000 / 62_370
        assert m["sim.run_tracking.linearized.ms"] > 0
    assert builds == {"coherent": 3, "squeezed": 8}


def test_bounds_pass_counts(tmp_path):
    config = cli.reference_config()
    t = traced(lambda: cli.cmd_bounds(config, out_path=tmp_path / "b.csv", n_points=25))
    m = layers.layer_metrics(t.spans, t.events, 27)
    assert m["sim.KalmanTracker.builds"] == 248
    assert m["est.SpectralGrid.doubled.calls"] == 333
    assert m["sim.mirror_response.ms"] == 0.0


def test_pool_counts(tmp_path):
    config = few_trials(tmp_path)
    t = traced(lambda: cli.cmd_sweep(config, out_path=tmp_path / "s.csv", workers=2))
    assert sum(1 for e in t.events if e[0] == "cli.pool") == 8
    m = layers.layer_metrics(t.spans, t.events, 8 * TRIALS)
    # counted in the parent from the chunks the pool returns
    assert m["cli.payload_bytes_per_trial"] == 480_427
    assert m["cli.retained_bytes_per_trial"] == 6 * 10_000 * 8  # unpickled windows only
    assert 0 < m["cli.pool.cpu_util"] <= 1.0


def test_self_times_leave_out_pauses():
    spans = [
        (1, 0, "cli.run_sweep_point", 0.0, 10.0, None),
        (2, 1, "sim.simulate_trial", 1.0, 4.0, None),
        (3, 1, "est.smooth", 5.0, 9.0, None),
    ]
    pauses = [(2.0, 2.5), (4.5, 4.75), (6.0, 7.0)]
    self_s = layers.self_times(layers.without_pauses(spans, pauses))
    assert self_s == {"cli.run_sweep_point": 2.75, "sim.simulate_trial": 2.5, "est.smooth": 3.0}


def test_refuses_directory_without_the_program(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "bounds", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
