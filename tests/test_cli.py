"""Batch harness: config round trips, sweep/bounds/diagnose commands."""

import dataclasses
import functools
import hashlib
import math
import multiprocessing
import os
import platform
import string
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirrormotion import cli, est, sim
from mirrormotion.model import ForceParams, MirrorParams
from mirrormotion.probe import (
    SqueezingBandwidth,
    attainability_gap,
    effective_squeezing_factor,
    measurement_noise_psd,
)

from conftest import ALPHA_SQS


@pytest.fixture()
def tiny_config(tmp_path):
    """Reference constants with a short, few-trial simulation for fast runs."""
    base = cli.reference_config()
    return replace(
        base,
        simulation=replace(base.simulation, n_samples=4000, n_trials=3),
        out_dir=str(tmp_path / "results"),
    )


def flag_diverged(monkeypatch, n_trials, diverges):
    """Flag the trials of every cell whose 1-based position `diverges(k)` as
    diverged: a serial cell makes n_trials calls of `sim.simulate_trial`, in
    trial order."""
    simulate_trial = sim.simulate_trial
    calls = []

    def patched(*args):
        traj = simulate_trial(*args)
        calls.append(None)
        return replace(traj, diverged=diverges((len(calls) - 1) % n_trials + 1))

    monkeypatch.setattr(sim, "simulate_trial", patched)


@pytest.fixture()
def second_trial_diverges(tiny_config, monkeypatch):
    """Flag the second trial of every `tiny_config` cell as diverged."""
    flag_diverged(monkeypatch, tiny_config.simulation.n_trials, lambda k: k == 2)


@pytest.fixture()
def one_trial_kept(tiny_config, monkeypatch):
    """Flag every trial of a `tiny_config` cell but the first as diverged."""
    flag_diverged(monkeypatch, tiny_config.simulation.n_trials, lambda k: k > 1)


@pytest.fixture()
def riccati_solves(monkeypatch):
    """The arguments of every call of scipy's discrete Riccati solver."""
    import scipy.linalg

    solve = scipy.linalg.solve_discrete_are
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_discrete_are", counted)
    return calls


#: The middle of the Nyquist rule's usage error (`ExperimentConfig`).
NYQUIST = "cannot resolve the model: max(mirror.resonance, mirror.damping, force.cutoff) * sim.dt"


def recording_pool(sizes):
    """Stand-in for `ProcessPoolExecutor` that runs the pool's initializer
    once and its map in this process, and appends each pool's size to
    `sizes`."""

    class RecordingPool:
        def __init__(self, max_workers=None, initializer=None, initargs=()):
            sizes.append(max_workers)
            if initializer is not None:  # as one pool process does
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return RecordingPool


@st.composite
def experiment_configs(draw):
    """Valid configs with every CONFIG_KEYS value drawn (each rate stays
    below pi/dt)."""
    positive = st.floats(1e-12, 1e12)
    n_samples, dt = draw(st.integers(2, 10**7)), draw(positive)
    rate = st.floats(0.0, min(1e12, 3.0 / dt), exclude_min=True)
    mirror = MirrorParams(
        m=draw(positive),
        Omega=draw(rate),
        gamma=draw(rate),
        k0=draw(positive),
        theta=draw(st.floats(0.0, math.pi / 2, exclude_max=True)),
    )
    simulation = sim.SimConfig(
        dt=dt,
        n_samples=n_samples,
        n_trials=draw(st.integers(2, 10**6)),
        seed=draw(st.integers(0, 2**63 - 1)),
        mode=draw(st.sampled_from((sim.MODE_LINEARIZED, sim.MODE_NONLINEAR))),
        feedback_delay_samples=draw(st.integers(0, min(1000, n_samples - 1))),
    )
    antisqueezing_db = draw(st.floats(0.0, 1e3))
    return cli.ExperimentConfig(
        mirror=mirror,
        force=ForceParams(lam=draw(rate), kappa=draw(positive)),
        simulation=simulation,
        squeezing_db=draw(st.floats(0.0, antisqueezing_db)),
        antisqueezing_db=antisqueezing_db,
        eta_det=draw(st.floats(0.0, 1.0, exclude_min=True)),
        bandwidth=draw(positive),
        alpha_sqs=tuple(draw(st.lists(positive, min_size=1, max_size=6, unique=True))),
        out_dir=draw(st.text(string.ascii_letters + string.digits + "/._-#=", min_size=1)),
    )


class TestConfigFile:
    @settings(max_examples=50)
    @given(config=experiment_configs())
    def test_round_trip_property(self, tmp_path_factory, config):
        path = tmp_path_factory.mktemp("drawn") / "drawn.cfg"
        cli.write_config(config, path)
        assert cli.read_config(path) == config

    def test_round_trip(self, tmp_path):
        config = cli.reference_config()
        path = tmp_path / "default.cfg"
        cli.write_config(config, path)
        assert cli.read_config(path) == config

    def test_round_trip_after_edit(self, tmp_path):
        base = cli.reference_config()
        config = replace(
            base,
            eta_det=1.0,
            alpha_sqs=(2.0e5, 7.7e6),
            simulation=replace(base.simulation, seed=99, mode="nonlinear"),
            out_dir="/tmp/run#2",
        )
        path = tmp_path / "edited.cfg"
        cli.write_config(config, path)
        assert cli.read_config(path) == config

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mirror.masss = 1.0\n")
        with pytest.raises(ValueError, match="unknown config keys"):
            cli.read_config(path)

    @pytest.mark.parametrize(
        "key", ["mirror.sensitivity", "mirror.force_per_volt", "transfer.source"]
    )
    def test_removed_calibration_keys_rejected(self, tmp_path, key):
        path = tmp_path / "old.cfg"
        path.write_text(f"{key} = 1.0\n")
        with pytest.raises(ValueError, match="unknown config keys"):
            cli.read_config(path)

    def test_key_table_covers_every_field_once(self):
        def leaves(obj, prefix=""):
            for field in dataclasses.fields(obj):
                value = getattr(obj, field.name)
                if dataclasses.is_dataclass(value):
                    yield from leaves(value, f"{prefix}{field.name}.")
                else:
                    yield prefix + field.name

        attrs = [attr for attr, _ in cli.CONFIG_KEYS.values()]
        assert sorted(attrs) == sorted(leaves(cli.reference_config()))

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "nan.cfg"
        path.write_text("sim.dt = nan\n")
        with pytest.raises(ValueError, match="finite"):
            cli.read_config(path)

    def test_unparsable_value_names_key(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text("sim.samples = 10k\n")
        with pytest.raises(ValueError, match="sim.samples"):
            cli.read_config(path)

    def test_fields_checked_after_whole_section(self, tmp_path):
        # a shorter window with a shorter delay is valid only once both apply
        path = tmp_path / "short.cfg"
        path.write_text("sim.samples = 4\nsim.delay_samples = 3\n")
        config = cli.read_config(path)
        assert config.simulation.n_samples == 4
        assert config.simulation.feedback_delay_samples == 3

    @pytest.mark.parametrize(
        "change",
        [
            {"squeezing_db": math.nan},
            {"eta_det": math.inf},
            {"bandwidth": math.nan},
            {"alpha_sqs": (1.0e6, math.inf)},
        ],
    )
    def test_non_finite_experiment_values_rejected(self, change):
        with pytest.raises(ValueError, match="finite"):
            replace(cli.reference_config(), **change)

    def test_non_finite_amplitude_list_names_its_key(self):
        # a list is checked like a tuple, not first by the probe family's check
        with pytest.raises(ValueError, match=r"^alpha_sqs must be finite, got nan$"):
            replace(cli.reference_config(), alpha_sqs=[math.nan])

    def test_comments_and_defaults(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("# only override the seed\nsim.seed = 7\n")
        config = cli.read_config(path)
        assert config.simulation.seed == 7
        assert config.mirror == cli.reference_config().mirror

    def test_reference_config_values(self):
        config = cli.reference_config()
        assert config.alpha_sqs == ALPHA_SQS
        assert config.simulation.dt == 1e-7
        assert config.simulation.n_samples * config.simulation.dt == pytest.approx(1e-3)
        assert config.simulation.n_trials == 300
        assert config.simulation.feedback_delay_samples == 4
        assert config.eta_det == 0.871


class TestSweep:
    def test_row_cardinality_and_columns(self, tiny_config):
        out = Path(tiny_config.out_dir) / "sweep.csv"
        rows, failed = cli.cmd_sweep(tiny_config, out_path=out, workers=1)
        assert failed == 0
        assert len(rows) == 3 * 2 * len(tiny_config.alpha_sqs)
        assert set(rows[0]) == set(cli.SWEEP_COLUMNS)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
        assert len(lines) == 1 + len(rows)

    def test_numpy_amplitudes_written_as_floats(self, tiny_config):
        config = replace(
            tiny_config,
            alpha_sqs=(np.float64(1.02e6),),
            simulation=replace(tiny_config.simulation, n_trials=2),
        )
        rows, failed = cli.cmd_sweep(config, out_path=Path(config.out_dir) / "sweep.csv", workers=1)
        assert failed == 0
        lines = Path(f"{config.out_dir}/sweep.csv").read_text().splitlines()
        assert [line.split(",")[2] for line in lines[1:]] == ["1020000.0"] * len(rows)
        assert [type(a) for a in config.alpha_sqs] == [float]

    def test_bit_identical_reruns(self, tiny_config, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cli.cmd_sweep(tiny_config, out_path=out1, workers=1)
        cli.cmd_sweep(tiny_config, out_path=out2, workers=1)
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_pool_matches_serial(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "TRIALS_PER_TASK", 1)  # so both processes run trials
        config = replace(tiny_config, alpha_sqs=(1.02e6,))
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        cli.cmd_sweep(config, out_path=serial, workers=1)
        cli.cmd_sweep(config, out_path=pooled, workers=2)
        assert serial.read_bytes() == pooled.read_bytes()

    def test_serial_cell_solves_one_riccati_equation(self, tiny_config, riccati_solves):
        # calibration uses the phase spectrum; only the filtering tracker solves
        grid = est.SpectralGrid.build(tiny_config.priors())
        cli.run_sweep_point(tiny_config, "squeezed", 1.02e6, grid=grid)
        assert len(riccati_solves) == 1

    def test_diverged_trials_reported(self, tiny_config, second_trial_diverges, capsys):
        config = replace(tiny_config, alpha_sqs=(1.02e6,))
        rows, failed = cli.cmd_sweep(config, out_path=Path(config.out_dir) / "sweep.csv", workers=1)
        assert failed == 0
        assert len(rows) == 6
        lines = Path(f"{config.out_dir}/sweep.csv").read_text().splitlines()
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
        assert len(lines) == 1 + len(rows)
        assert capsys.readouterr().err.splitlines() == [
            f"sweep point (kind={kind}, alpha_sq=1.02e+06): 1 of 3 trials diverged "
            "and were left out"
            for kind in cli.PROBE_KINDS
        ]

    def test_nonlinear_cell_that_cannot_lock_fails_before_its_trials(
        self, tiny_config, tmp_path, monkeypatch, capsys
    ):
        # a 100 times stronger force: calibration settles below 1 rad^2, but the
        # predicted feedback error puts 1e2 to 4e3 samples of each record past
        # pi/2, where every nonlinear trial diverges
        def no_trials(*args):
            raise AssertionError("a trial was simulated")

        monkeypatch.setattr(sim, "simulate_trial", no_trials)
        config = replace(
            tiny_config,
            force=replace(tiny_config.force, kappa=1.67e5),
            alpha_sqs=(1e5, 3e5),
            simulation=replace(tiny_config.simulation, mode="nonlinear"),
        )
        cfg = config.simulation
        _, n_total = sim.trial_geometry(config.force, config.mirror, cfg)
        expected = []
        for alpha_sq in config.alpha_sqs:
            for kind in cli.PROBE_KINDS:
                probe = config.operating_point(kind, alpha_sq)
                sigma_sq = sim.KalmanTracker(
                    measurement_noise_psd(probe), config.force, config.mirror, cfg
                ).sigma_phi_sq_feedback()
                slips = n_total * math.erfc(0.5 * math.pi / math.sqrt(2.0 * sigma_sq))
                assert slips >= cli.MAX_EXPECTED_SLIPS
                expected.append(
                    f"{cli._point_label(kind, alpha_sq)} failed: nonlinear tracking loop "
                    f"cannot lock: its feedback error sigma_phi^2 = {sigma_sq:.4g} rad^2 "
                    f"puts {slips:.3g} of the {n_total} samples per record past pi/2 "
                    "on average"
                )
        cfg_path = tmp_path / "unlocked.cfg"
        cli.write_config(config, cfg_path)
        assert cli.main(["--config", str(cfg_path), "sweep"]) == 1
        assert capsys.readouterr().err.splitlines() == expected

    def test_coherent_bound_equals_mmse_at_unit_efficiency(self, tiny_config):
        config = replace(tiny_config, eta_det=1.0, alpha_sqs=(1.02e6,))
        rows, _ = cli.cmd_sweep(config, out_path=Path(config.out_dir) / "sweep.csv", workers=1)
        for row in rows:
            if row["probe"] == "coherent":
                assert row["qcrb_coh"] == pytest.approx(row["mmse"], rel=1e-9)

    # (probe, var): (mse_emp, mse_stderr) of `tiny_config` at alpha_sq = 6.24e6
    GOLDEN = {
        ("coherent", "q"): (1.8645697657426216e-17, 2.822766903291343e-19),
        ("coherent", "p"): (1.2134133770826183e-13, 1.489223295862673e-14),
        ("coherent", "f"): (0.00523751737403856, 0.00038401671207627164),
        ("squeezed", "q"): (1.1585817769585206e-17, 1.322989298727485e-19),
        ("squeezed", "p"): (8.290071056959692e-14, 1.1477850073684691e-14),
        ("squeezed", "f"): (0.003976258065490346, 0.00021100424449834845),
    }

    def test_matches_golden(self, tiny_config):
        """The fixed-seed trial path, pinned exactly: a refactor of the
        simulation, tracking, smoothing or scoring must not move a bit."""
        config = replace(tiny_config, alpha_sqs=(6.24e6,))
        rows, failed = cli.cmd_sweep(config, out_path=Path(config.out_dir) / "sweep.csv", workers=1)
        assert failed == 0
        assert {
            (row["probe"], row["var"]): (row["mse_emp"], row["mse_stderr"]) for row in rows
        } == self.GOLDEN

    def test_seed_changes_results(self, tiny_config, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        config2 = replace(
            tiny_config, simulation=replace(tiny_config.simulation, seed=1234)
        )
        cli.cmd_sweep(tiny_config, out_path=out1, workers=1)
        cli.cmd_sweep(config2, out_path=out2, workers=1)
        assert out1.read_bytes() != out2.read_bytes()

    def test_failed_point_keeps_partial_csv(self, tiny_config, tmp_path, monkeypatch, capsys):
        real = cli.run_sweep_point

        def flaky(config, kind, alpha_sq, grid=None, workers=1):
            if kind == "squeezed" and alpha_sq == tiny_config.alpha_sqs[0]:
                raise RuntimeError("synthetic point failure")
            return real(config, kind, alpha_sq, grid=grid, workers=workers)

        monkeypatch.setattr(cli, "run_sweep_point", flaky)
        out = tmp_path / "partial.csv"
        rows, failed = cli.cmd_sweep(tiny_config, out_path=out, workers=1)
        assert failed == 1
        assert len(rows) == 3 * (2 * len(tiny_config.alpha_sqs) - 1)
        assert "synthetic point failure" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 1 + len(rows)

    def test_failed_point_exits_nonzero(self, tiny_config, tmp_path, monkeypatch, capsys):
        real = cli.run_sweep_point

        def flaky(config, kind, alpha_sq, grid=None, workers=1):
            if kind == "squeezed":
                raise RuntimeError("synthetic point failure")
            return real(config, kind, alpha_sq, grid=grid, workers=workers)

        monkeypatch.setattr(cli, "run_sweep_point", flaky)
        cfg_path = tmp_path / "tiny.cfg"
        cli.write_config(replace(tiny_config, alpha_sqs=(1.02e6,)), cfg_path)
        out = tmp_path / "out"
        code = cli.main(["--config", str(cfg_path), "--out", str(out), "sweep"])
        assert code == 1
        assert "wrote 3 rows" in capsys.readouterr().out
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 3


class TestTasks:
    """A cell runs its trials as tasks of `cli.TRIALS_PER_TASK` and keeps only
    each trial's scores."""

    @staticmethod
    def scored(config, grid, workers=1):
        point = cli.run_sweep_point(config, "coherent", 1.02e6, grid=grid, workers=workers)
        return point.mse, point.stderr, point.sigma_phi_sq_emp, point.n_diverged

    def test_results_do_not_depend_on_task_size(self, tiny_config, monkeypatch):
        grid = est.SpectralGrid.build(tiny_config.priors())
        outcomes = []
        for size in (1, 2, tiny_config.simulation.n_trials):
            monkeypatch.setattr(cli, "TRIALS_PER_TASK", size)
            outcomes += [self.scored(tiny_config, grid, workers) for workers in (1, 2)]
        assert all(outcome == outcomes[0] for outcome in outcomes)

    def test_diverged_trial_inside_a_multi_task_cell(
        self, tiny_config, second_trial_diverges, monkeypatch
    ):
        grid = est.SpectralGrid.build(tiny_config.priors())
        outcomes = []
        for size in (1, tiny_config.simulation.n_trials):
            monkeypatch.setattr(cli, "TRIALS_PER_TASK", size)
            outcomes.append(self.scored(tiny_config, grid))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][3] == 1

    def test_memory_does_not_grow_with_trial_count(self, tiny_config):
        """A cell holds one task's windows at a time, so 40 more trials raise
        its traced peak by less than one task's payload."""
        grid = est.SpectralGrid.build(tiny_config.priors())
        cfg = tiny_config.simulation

        def peak(n_trials):
            config = replace(tiny_config, simulation=replace(cfg, n_trials=n_trials))
            tracemalloc.reset_peak()
            cli.run_sweep_point(config, "coherent", 1.02e6, grid=grid)
            return tracemalloc.get_traced_memory()[1]

        tracemalloc.start()
        try:
            peak(2)  # fills the caches a first cell builds
            growth = peak(60) - peak(20)
        finally:
            tracemalloc.stop()
        assert growth < cli.TRIALS_PER_TASK * 6 * cfg.n_samples * 8

    def test_pool_never_larger_than_the_task_list(self, tiny_config, monkeypatch):
        pools = []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", recording_pool(pools))
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        grid = est.SpectralGrid.build(tiny_config.priors())
        for size in (tiny_config.simulation.n_trials, 2, 1):  # 1, 2 and 3 tasks
            monkeypatch.setattr(cli, "TRIALS_PER_TASK", size)
            self.scored(tiny_config, grid, workers=64)
        assert pools == [1, 2, 3]

    def test_pool_never_larger_than_the_machine(self, tiny_config, monkeypatch):
        pools = []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", recording_pool(pools))
        monkeypatch.setattr(cli, "TRIALS_PER_TASK", 1)  # three tasks
        grid = est.SpectralGrid.build(tiny_config.priors())
        for cpus in (2, 1, None):  # os.cpu_count() is None when it cannot tell
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            self.scored(tiny_config, grid, workers=100_000)
        assert pools == [2, 1, 1]

    def test_tasks_carry_trial_indices_only(self, tiny_config, monkeypatch):
        """A pool process receives the cell, `FilterBank` included, once
        through the pool's initializer; a task sends only its trials."""
        monkeypatch.setattr(cli, "TRIALS_PER_TASK", 1)  # three tasks
        cells, items = [], []

        class InspectingPool(recording_pool([])):
            def __init__(self, max_workers=None, initializer=None, initargs=()):
                cells.append(initargs)
                super().__init__(max_workers, initializer, initargs)

            def map(self, fn, *iterables):
                iterables = [list(it) for it in iterables]
                items.extend(zip(*iterables))
                return super().map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InspectingPool)
        self.scored(tiny_config, est.SpectralGrid.build(tiny_config.priors()), workers=2)
        sent = [len(ForkingPickler.dumps(item)) for item in items]
        assert len(sent) == 3 and max(sent) < 1024
        assert [sum(isinstance(a, est.FilterBank) for a in cell) for cell in cells] == [1]

    def test_serial_and_pool_map_one_function(self, tiny_config, monkeypatch):
        """A pool maps `cli._score_trials` itself, the function a serial cell
        maps, over its tasks."""
        mapped = []

        class InspectingPool(recording_pool([])):
            def map(self, fn, *iterables):
                mapped.append(fn)
                return super().map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InspectingPool)
        self.scored(tiny_config, est.SpectralGrid.build(tiny_config.priors()), workers=2)
        assert mapped == [cli._score_trials]

    def test_serial_cell_is_dropped_after_its_tasks(self, tiny_config, monkeypatch):
        grid = est.SpectralGrid.build(tiny_config.priors())
        self.scored(tiny_config, grid)
        assert cli._cell is None

        def failing(*args):
            raise RuntimeError("synthetic trial failure")

        monkeypatch.setattr(sim, "simulate_trial", failing)
        with pytest.raises(RuntimeError, match="synthetic trial failure"):
            self.scored(tiny_config, grid)
        assert cli._cell is None

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_without_fork_matches_serial(self, tiny_config, monkeypatch, method):
        """Pool processes that do not fork (forkserver is Python 3.14's Linux
        default) import the package afresh and get their cell only through
        the initializer."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        config = replace(tiny_config, simulation=replace(tiny_config.simulation, n_trials=12))
        grid = est.SpectralGrid.build(config.priors())
        serial = self.scored(config, grid)
        context = multiprocessing.get_context(method)
        monkeypatch.setattr(
            cli, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=context)
        )
        assert self.scored(config, grid, workers=2) == serial

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
    def test_only_processes_that_run_trials_keep_freed_heap(self, tiny_config, monkeypatch):
        """A serial cell tunes malloc in this process; a pool's parent runs no
        trial and leaves it to the pool processes, whose calls stay in them."""
        calls = []
        monkeypatch.setattr(cli, "_reuse_freed_heap", lambda: calls.append(os.getpid()))
        monkeypatch.setattr(cli, "TRIALS_PER_TASK", 1)  # three tasks for two processes
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(
            cli, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=fork)
        )
        grid = est.SpectralGrid.build(tiny_config.priors())
        self.scored(tiny_config, grid, workers=2)
        assert calls == []
        self.scored(tiny_config, grid, workers=1)
        assert calls == [os.getpid()]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
    def test_trials_reuse_freed_heap(self):
        """The memory one trial frees serves the next: a warm serial cell
        faults in almost no new pages (about 1,000 per trial when glibc
        returns the freed top of its heap to the system after every trial)."""
        out = _fresh_interpreter("""
            import resource
            from dataclasses import replace
            from mirrormotion import cli, est

            base = cli.reference_config()
            config = replace(base, simulation=replace(
                base.simulation, n_samples=4000, n_trials=10))
            grid = est.SpectralGrid.build(config.priors())
            for _ in range(2):  # the heap grows to a cell's working set
                cli.run_sweep_point(config, "coherent", 1.02e6, grid=grid)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            cli.run_sweep_point(config, "coherent", 1.02e6, grid=grid)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        assert int(out.splitlines()[-1]) < 50 * 10


class TestScoreTrials:
    def test_trial_working_set(self, monkeypatch):
        """One warm reference trial holds at most 11 full-length records at
        its traced peak: the response spectra are built in place and freed
        as they are used, and no time axis is stored."""
        monkeypatch.setattr(cli, "_cell", None)  # drops the entered cell at teardown
        config = cli.reference_config()
        cfg = config.simulation
        priors = config.priors()
        probe = config.operating_point("squeezed", config.alpha_sqs[-1])
        tracker = sim.KalmanTracker(measurement_noise_psd(probe), config.force, config.mirror, cfg)
        _, n_total = sim.trial_geometry(config.force, config.mirror, cfg)
        bank = est.FilterBank.build(n_total, cfg.dt, priors, probe)
        cli._enter_cell(priors, probe, tracker, bank, cfg, None)
        cli._score_trials(range(1))  # warm-up
        tracemalloc.start()
        try:
            cli._score_trials(range(1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * 8 * n_total

    def test_payload_windows_own_their_memory(self, tiny_config, monkeypatch):
        monkeypatch.setattr(cli, "_cell", None)  # drops the entered cell at teardown
        config, cfg = tiny_config, tiny_config.simulation
        priors = config.priors()
        probe = config.operating_point("squeezed", ALPHA_SQS[0])
        tracker = sim.KalmanTracker(measurement_noise_psd(probe), config.force, config.mirror, cfg)
        _, n_total = sim.trial_geometry(config.force, config.mirror, cfg)
        bank = est.FilterBank.build(n_total, cfg.dt, priors, probe)
        cli._enter_cell(priors, probe, tracker, bank, cfg, None)
        results = cli._score_trials(range(2))
        for payload in results.values():
            arrays = [a for x in ("q", "p", "f") for a in payload[x]]
            assert all(a.base is None for a in arrays)
            assert sum(a.nbytes for a in arrays) == 6 * cfg.n_samples * 8


class TestBounds:
    def test_curves_decrease_and_cover_sweep_points(self, tiny_config):
        out = Path(tiny_config.out_dir) / "bounds.csv"
        rows, failed = cli.cmd_bounds(tiny_config, out_path=out, n_points=9)
        assert failed == 0
        alphas = sorted({row["alpha_sq"] for row in rows})
        for a in tiny_config.alpha_sqs:
            assert a in alphas
        for x in ("q", "p", "f"):
            for col in ("mmse_coh", "mmse_sq", "qcrb_coh", "qcrb_sq"):
                curve = [row[col] for row in rows if row["var"] == x]
                assert np.all(np.diff(curve) < 0)

    def test_pass_solves_no_riccati_equation(self, tmp_path, riccati_solves):
        rows, failed = cli.cmd_bounds(cli.reference_config(), out_path=tmp_path / "b.csv")
        assert failed == 0 and rows
        assert riccati_solves == []

    def test_single_amplitude_is_one_point(self, tiny_config, tmp_path):
        # geomspace(a, a, n) has interior points an ulp off a, not new amplitudes
        config = replace(tiny_config, alpha_sqs=(1.02e6,))
        out = tmp_path / "bounds.csv"
        rows, failed = cli.cmd_bounds(config, out_path=out)
        assert failed == 0
        assert [(row["var"], row["alpha_sq"]) for row in rows] == [
            ("q", 1.02e6), ("p", 1.02e6), ("f", 1.02e6)
        ]
        assert len(out.read_text().splitlines()) == 1 + 3

    def test_bound_columns_match_direct_evaluation(self, tiny_config):
        out = Path(tiny_config.out_dir) / "bounds.csv"
        rows, _ = cli.cmd_bounds(tiny_config, out_path=out, n_points=2)
        grid = est.SpectralGrid.build(tiny_config.priors())
        for row in rows:
            if row["alpha_sq"] in tiny_config.alpha_sqs:
                coh = tiny_config.probe_template("coherent", row["alpha_sq"])
                assert row["qcrb_coh"] == pytest.approx(
                    est.qcrb(row["var"], coh, grid), rel=1e-12, abs=0.0
                )

    def test_failed_point_exits_nonzero(self, tiny_config, tmp_path, monkeypatch, capsys):
        real = sim.calibrate_tracking
        failing_alpha = tiny_config.alpha_sqs[0]

        def flaky(probe, *args, **kwargs):
            if probe.alpha_sq == failing_alpha:
                raise RuntimeError("synthetic bounds failure")
            return real(probe, *args, **kwargs)

        monkeypatch.setattr(sim, "calibrate_tracking", flaky)
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "bounds"]) == 1
        printed = capsys.readouterr()
        assert "synthetic bounds failure" in printed.err
        lines = (out / "bounds.csv").read_text().splitlines()
        assert printed.out == f"wrote {len(lines) - 1} rows to {out / 'bounds.csv'}\n"
        assert len(lines) > 1
        assert not any(line.split(",")[1] == repr(failing_alpha) for line in lines[1:])

    def test_failed_integral_writes_no_rows(self, tiny_config, tmp_path, monkeypatch, capsys):
        real = est.qcrb
        failing_alpha = tiny_config.alpha_sqs[1]

        def flaky(x, probe, grid):
            if x == "p" and probe.alpha_sq == failing_alpha:
                raise RuntimeError("synthetic integral failure")
            return real(x, probe, grid)

        monkeypatch.setattr(est, "qcrb", flaky)
        out = tmp_path / "bounds.csv"
        rows, failed = cli.cmd_bounds(tiny_config, out_path=out, n_points=2)
        assert failed == 1
        assert "synthetic integral failure" in capsys.readouterr().err
        assert failing_alpha not in {row["alpha_sq"] for row in rows}
        assert len(rows) == 3 * (len(tiny_config.alpha_sqs) - 1)
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + len(rows)
        assert not any(line.split(",")[1] == repr(failing_alpha) for line in lines[1:])

    def test_unit_efficiency_traces_coincide(self, tiny_config):
        config = replace(tiny_config, eta_det=1.0, alpha_sqs=(1.02e6, 6.24e6))
        out = Path(config.out_dir) / "bounds.csv"
        for row in cli.cmd_bounds(config, out_path=out, n_points=3)[0]:
            assert row["mmse_coh"] == pytest.approx(row["qcrb_coh"], rel=1e-9, abs=0.0)
            assert row["mmse_sq"] > row["qcrb_sq"]  # impure squeezing stays above


class TestDiagnose:
    def test_operating_band_matches_published_range(self):
        # the self-consistent tracking error puts the effective squeezing
        # factor inside the reported -3.28 .. -3.48 dB operating band
        config = cli.reference_config()
        dbs = []
        for alpha_sq in config.alpha_sqs:
            beam = replace(config.operating_point("squeezed", alpha_sq), eta_det=1.0)
            dbs.append(10.0 * math.log10(effective_squeezing_factor(beam)))
        assert all(-3.50 <= db <= -3.27 for db in dbs)
        assert dbs[0] == pytest.approx(-3.28, abs=0.03)
        assert dbs[-1] == pytest.approx(-3.48, abs=0.03)
        assert np.all(np.diff(dbs) < 0)

    def test_gaps_and_linearization(self):
        config = cli.reference_config()
        squeezed = config.operating_point("squeezed", 1.02e6)
        coherent = config.operating_point("coherent", 1.02e6)
        assert attainability_gap(replace(coherent, eta_det=1.0)) == pytest.approx(1.0, rel=1e-12)
        assert attainability_gap(replace(squeezed, eta_det=1.0)) > 1.7
        assert squeezed.sigma_phi_sq * squeezed.beam_moments()[0] < 0.1
        # the beam's finite squeezing bandwidth moves each bound by under 10%
        grid = est.SpectralGrid.build(config.priors())
        bw = SqueezingBandwidth.standard(squeezed, config.bandwidth)
        for x in ("q", "p", "f"):
            ratio = est.qcrb_finite_bandwidth(x, squeezed, bw, grid) / est.qcrb(x, squeezed, grid)
            assert abs(ratio - 1.0) < 0.1

    def test_report_text(self):
        config = replace(cli.reference_config(), alpha_sqs=(1.02e6,))
        text, failed = cli.cmd_diagnose(config)
        assert failed == 0
        for token in (
            "sigma_phi^2",
            "effective R_sq",
            "attainability gap coherent",
            "finite-bandwidth / broadband qcrb_sq: q ",
            "dB",
        ):
            assert token in text

    def test_failed_amplitude_reported_like_sweep(self, tmp_path, capsys):
        # a faint, impure probe on a slow mirror: the loop cannot lock
        cfg_path = tmp_path / "failing.cfg"
        cfg_path.write_text(
            "mirror.resonance = 31622.776601683792\nmirror.damping = 1000\n"
            "force.cutoff = 10000\nprobe.efficiency = 0.5\nprobe.squeezing_db = 1\n"
            "probe.antisqueezing_db = 5\nsweep.alpha_sq = 1e5\n"
        )
        assert cli.main(["--config", str(cfg_path), "diagnose"]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert err.splitlines() == [
            "diagnose point alpha_sq=100000 failed: tracking loop cannot lock at "
            "alpha_sq=1e+05: sigma_phi^2 reaches 1.007 rad^2"
        ]
        assert out.splitlines() == ["operating-point diagnostics", "=" * 60]

    def test_family_without_squeezing_reports_its_block(self, tmp_path, capsys):
        # with no squeezing (r_m = 0 < r_p) the standard-form bandwidths are
        # undefined, so only the finite-bandwidth line has no ratios; `bounds`
        # and `sweep` accept the config too
        cfg_path = tmp_path / "unsqueezed.cfg"
        cfg_path.write_text("probe.squeezing_db = 0\nsweep.alpha_sq = 1.02e6\n")
        assert cli.main(["--config", str(cfg_path), "diagnose"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.splitlines()
        reference = cli.cmd_diagnose(replace(cli.reference_config(), alpha_sqs=(1.02e6,)))[0]
        labels = [line.split("=")[0] for line in reference.splitlines()[:-1]]
        assert [line.split("=")[0] for line in lines[:-1]] == labels
        squeezed = cli.read_config(cfg_path).operating_point("squeezed", 1.02e6)
        assert lines[3].endswith(f"= {squeezed.sigma_phi_sq:.4e} rad^2")
        assert lines[-1] == (
            "  finite-bandwidth / broadband qcrb_sq: undefined: "
            "standard form needs squeezing (r_m > 0) to pair with anti-squeezing"
        )


class TestSimulateCommand:
    def test_dump_trajectories(self, tiny_config):
        config = replace(
            tiny_config, simulation=replace(tiny_config.simulation, n_trials=2)
        )
        point = cli.cmd_simulate(
            config, "coherent", 1.02e6, dump_trajectories=True
        )
        assert point.n_diverged == 0
        out = f"{config.out_dir}/trajectories_coherent_1.020e+06"
        import os

        files = sorted(os.listdir(out))
        assert files == ["trial_0000.csv", "trial_0001.csv"]
        header = Path(f"{out}/{files[0]}").read_text().splitlines()[0].strip()
        assert header == "t,f,q,p,phi,phi_fb,y"

    def test_workers_flag_reaches_the_pool(self, tiny_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "TRIALS_PER_TASK", 1)  # three tasks for two workers
        pools = []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", recording_pool(pools))
        cfg_path = tmp_path / "tiny.cfg"
        cli.write_config(tiny_config, cfg_path)
        outputs = {}
        for workers in ("1", "2"):
            argv = ["--config", str(cfg_path), "--workers", workers, "simulate",
                    "--kind", "coherent", "--alpha-sq", "1.02e6"]
            assert cli.main(argv) == 0
            outputs[workers] = capsys.readouterr().out
        assert pools == [2]
        assert outputs["1"] == outputs["2"]

    def test_reports_trial_counts_and_tracking_error(
        self, tiny_config, tmp_path, second_trial_diverges, capsys
    ):
        cfg_path = tmp_path / "tiny.cfg"
        cli.write_config(tiny_config, cfg_path)
        argv = ["--config", str(cfg_path), "simulate", "--kind", "coherent", "--alpha-sq", "1.02e6"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        point = cli.cmd_simulate(tiny_config, "coherent", 1.02e6)
        assert point.n_diverged == 1
        assert lines[3] == "trials: 3 run, 2 kept, 1 diverged"
        tracker = point.tracker
        assert lines[4] == (
            f"tracking sigma_phi^2: empirical feedback error = {point.sigma_phi_sq_emp:.4e} "
            f"(kept trials), predicted feedback error = {tracker.sigma_phi_sq_feedback():.4e}, "
            f"Riccati posterior = {tracker.sigma_phi_sq_posterior:.4e}"
        )
        assert math.isfinite(point.sigma_phi_sq_emp)
        assert point.sigma_phi_sq_emp == pytest.approx(tracker.sigma_phi_sq_posterior, rel=0.5)

    def test_report_solves_one_riccati_equation(self, tiny_config, tmp_path, riccati_solves):
        # the report reads the tracker that filtered the trials
        cfg_path = tmp_path / "tiny.cfg"
        cli.write_config(tiny_config, cfg_path)
        argv = ["--config", str(cfg_path), "simulate", "--kind", "coherent", "--alpha-sq", "1.02e6"]
        assert cli.main(argv) == 0
        assert len(riccati_solves) == 1

    def test_too_few_kept_trials_names_the_diverged(
        self, tiny_config, tmp_path, one_trial_kept, capsys
    ):
        cfg_path = tmp_path / "tiny.cfg"
        cli.write_config(tiny_config, cfg_path)
        argv = ["--config", str(cfg_path), "simulate", "--kind", "coherent", "--alpha-sq", "1.02e6"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "sweep point (kind=coherent, alpha_sq=1.02e+06) failed: "
            "2 of 3 trials diverged; a cell needs two kept trials"
        ]

    def test_workers_below_one_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["--trials", "2", "--out", str(tmp_path), "--workers", "0", "simulate"])

    def test_failed_cell_reported_like_sweep(self, tmp_path, capsys):
        # 1000 samples of 0.1 us span less than ten force correlation times
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text("sim.samples = 1000\n")
        argv = ["--config", str(cfg_path), "--trials", "2", "--out", str(tmp_path), "simulate"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith("sweep point (kind=squeezed, alpha_sq=6.24e+06) failed: ")
        assert "shorter than ten force correlation times" in line


class TestMainEntry:
    def test_write_config_and_diagnose(self, tmp_path, capsys):
        cfg_path = tmp_path / "canonical.cfg"
        assert cli.main(["write-config", str(cfg_path)]) == 0
        assert cli.read_config(cfg_path) == cli.reference_config()

        assert (
            cli.main(
                ["--config", str(cfg_path), "diagnose"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "operating-point diagnostics" in out

    def test_sweep_command(self, tmp_path, capsys):
        cfg = replace(
            cli.reference_config(),
            alpha_sqs=(1.02e6,),
            simulation=replace(cli.reference_config().simulation, n_samples=4000),
        )
        cfg_path = tmp_path / "tiny.cfg"
        cli.write_config(cfg, cfg_path)
        code = cli.main(
            [
                "--config", str(cfg_path),
                "--trials", "2",
                "--out", str(tmp_path / "out"),
                "--seed", "5",
                "sweep",
            ]
        )
        assert code == 0
        out = tmp_path / "out" / "sweep.csv"
        assert capsys.readouterr().out == f"wrote 6 rows to {out}\n"
        assert out.exists()

    # SHA-256 of the canonical config file and of the fixed-seed outputs.
    # Pinned to this platform's floating point like
    # `TestSweep::test_matches_golden`: a change that moves bits by design
    # updates them and says why.
    DIGESTS = {
        "config": "f496db94f59bcfcf39304cc20fbe1ddf134fd6f63b137c6d9cadae3527d6ac63",
        "sweep": "f7e3f25effe11595622457513bf74566fb1a2a85a46990cf13f89f01c6d3dd89",
        "bounds": "99f7aea68ed1d89f81f08a7e3638e694af91f76d3fc1506b5168f394a8f1d76e",
        "diagnose": "956d84ba2b89864ee9d8c56d9f1f28e4878eaf6d5f22031babe32766e7888d21",
        "simulate": "6dbaf488524df9cd68e3d85ea358e3d2bfacc5c9bae2667023b96f3cbe2880ea",
        "dumps": "31fb866ab7f792f65185b7ab4db22f31e971ef02fad3c3ae03ee70d5dff8d53a",
    }

    def test_fixed_seed_outputs_match_digests(self, tmp_path, capsys):
        canonical = tmp_path / "canonical.cfg"
        assert cli.main(["write-config", str(canonical)]) == 0
        out = tmp_path / "out"
        argv = ["--trials", "20", "--seed", "11", "--out", str(out)]
        assert cli.main([*argv, "--workers", "1", "sweep"]) == 0
        serial_sweep = (out / "sweep.csv").read_bytes()
        assert cli.main([*argv, "--workers", "2", "sweep"]) == 0
        assert cli.main(["--out", str(out), "bounds"]) == 0
        capsys.readouterr()
        assert cli.main(["diagnose"]) == 0
        diagnose = capsys.readouterr().out
        # the dumps cover every trajectory column: the derived time axis and
        # the data-length copies of the responses
        dump_out = tmp_path / "dump"
        argv = ["--trials", "2", "--seed", "11", "--out", str(dump_out)]
        assert cli.main([*argv, "simulate", "--dump-trajectories"]) == 0
        dumps = sorted(dump_out.rglob("*.csv"), key=lambda path: path.name)
        assert [path.name for path in dumps] == ["trial_0000.csv", "trial_0001.csv"]
        digests = {
            "config": hashlib.sha256(canonical.read_bytes()).hexdigest(),
            "serial sweep": hashlib.sha256(serial_sweep).hexdigest(),
            "sweep": hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest(),
            "bounds": hashlib.sha256((out / "bounds.csv").read_bytes()).hexdigest(),
            "diagnose": hashlib.sha256(diagnose.encode()).hexdigest(),
            "simulate": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
            "dumps": hashlib.sha256(b"".join(path.read_bytes() for path in dumps)).hexdigest(),
        }
        assert digests == {"serial sweep": self.DIGESTS["sweep"], **self.DIGESTS}

    def test_write_config_creates_parent_directories(self, tmp_path, capsys):
        path = tmp_path / "new" / "dir" / "x.cfg"
        assert cli.main(["write-config", str(path)]) == 0
        assert cli.read_config(path) == cli.reference_config()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--trials", "0", "diagnose"], "need at least two trials"),
            (["--trials", "1", "diagnose"], "need at least two trials"),
            (["--config", "{bad}", "diagnose"], "sim.trials"),
            (["--config", "{no_equals}", "diagnose"], "no_equals.cfg:1: expected 'key = value'"),
            (["--config", "{twice}", "diagnose"], "twice.cfg:2: duplicate key 'sim.seed'"),
            (["--config", "{one_sample}", "diagnose"], "need at least two samples"),
            (["--config", "{missing}", "diagnose"], "No such file"),
            (["write-config", "{bad}/x.cfg"], "File exists"),
            (["--out", "{bad}", "bounds"], "File exists"),
            (["--out", "{bad}", "--trials", "2", "sweep"], "File exists"),
            (
                ["--out", "{bad}", "--trials", "2", "simulate", "--dump-trajectories"],
                "File exists",
            ),
            (["simulate", "--alpha-sq", "-1"], "probe amplitudes must be positive"),
            (["simulate", "--alpha-sq", "0"], "probe amplitudes must be positive"),
            (["simulate", "--alpha-sq", "nan"], "alpha_sqs must be finite"),
            (["simulate", "--alpha-sq", "inf"], "alpha_sqs must be finite"),
            (
                ["--config", "{removed_key}", "--trials", "2", "sweep"],
                "unknown config keys: ['sim.edge_discard']",
            ),
            (
                ["--config", "{long_delay}", "diagnose"],
                "feedback delay must be shorter than the data window",
            ),
            (
                ["--config", "{efficiency}", "diagnose"],
                "probe.efficiency: detection efficiency must lie in (0, 1]",
            ),
            (
                ["--config", "{zero_efficiency}", "diagnose"],
                "probe.efficiency: detection efficiency must lie in (0, 1]",
            ),
            (
                ["--config", "{squeezing}", "diagnose"],
                "probe.squeezing_db, probe.antisqueezing_db: need 0 <= r_m <= r_p",
            ),
            (
                ["--config", "{negative_squeezing}", "diagnose"],
                "probe.squeezing_db, probe.antisqueezing_db: need 0 <= r_m <= r_p",
            ),
            (["--config", "{bandwidth}", "diagnose"], "probe bandwidth must be positive"),
            (["--seed", "-1", "diagnose"], "seed must be nonnegative"),
            (["--config", "{duplicate}", "sweep"], "probe amplitudes must be distinct"),
            (
                ["--out", "{dump_out}", "--trials", "2", "simulate", "--dump-trajectories"],
                "File exists",
            ),
            (["--config", "{zero_damping}", "diagnose"], "damping must be positive"),
            (["--config", "{coarse_dt}", "simulate"], f"{NYQUIST} = 17.6 must be below pi"),
            (["--config", "{fast_force}", "bounds"], f"{NYQUIST} = 10 must be below pi"),
            (["--config", "{fast_damping}", "diagnose"], f"{NYQUIST} = 10 must be below pi"),
            (["--config", "{faster_force}", "diagnose"], f"{NYQUIST} = 100 must be below pi"),
        ],
        ids=[
            "zero-trials", "one-trial", "unparsable-value", "line-without-equals",
            "duplicate-key", "one-sample", "missing-config",
            "config-under-a-file",
            "bounds-out-is-a-file", "sweep-out-is-a-file", "simulate-dump-out-is-a-file",
            "negative-amplitude",
            "zero-amplitude", "nan-amplitude", "infinite-amplitude", "removed-edge-discard-key",
            "delay-fills-window",
            "efficiency-above-one", "zero-efficiency", "squeezing-above-antisqueezing",
            "negative-squeezing", "zero-bandwidth", "negative-seed", "duplicate-amplitude",
            "simulate-dump-subdir-is-a-file", "zero-damping", "dt-past-nyquist",
            "cutoff-past-nyquist", "damping-past-nyquist", "phase-spectrum-negative",
        ],
    )
    def test_bad_input_is_a_usage_error(self, tmp_path, capsys, argv, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sim.trials = abc\n")
        # the whole window is scored; the key that trimmed its ends is gone
        removed_key = tmp_path / "edge.cfg"
        removed_key.write_text("sim.samples = 4000\nsim.edge_discard = 1e-5\n")
        long_delay = tmp_path / "delay.cfg"
        long_delay.write_text("sim.samples = 4000\nsim.delay_samples = 4000\n")
        # the reference cell's dump directory is taken by a file
        dump_out = tmp_path / "dump_out"
        dump_out.mkdir()
        (dump_out / "trajectories_squeezed_6.240e+06").write_text("")
        paths = {
            "bad": bad, "missing": tmp_path / "missing.cfg", "removed_key": removed_key,
            "long_delay": long_delay, "dump_out": dump_out,
        }
        for name, text in (
            ("efficiency", "probe.efficiency = 1.5"),
            ("zero_efficiency", "probe.efficiency = 0"),
            ("squeezing", "probe.squeezing_db = 7"),  # anti-squeezing stays 6 dB
            ("negative_squeezing", "probe.squeezing_db = -1"),
            ("bandwidth", "probe.bandwidth = 0"),
            ("no_equals", "sim.trials 5"),
            ("twice", "sim.seed = 1\nsim.seed = 1"),
            ("one_sample", "sim.samples = 1"),
            ("duplicate", "sweep.alpha_sq = 1.02e6, 1.02e6"),
            ("zero_damping", "mirror.damping = 0"),
            ("coarse_dt", "sim.dt = 1e-4\nsim.samples = 2000"),  # Omega dt = 17.6
            ("fast_force", "force.cutoff = 1e8"),
            ("fast_damping", "mirror.damping = 1e8"),
            # lambda dt = 100, where the tracker's discretized phase spectrum
            # would go negative
            ("faster_force", "force.cutoff = 1e9"),
        ):
            paths[name] = tmp_path / f"{name}.cfg"
            paths[name].write_text(text + "\n")
        with pytest.raises(SystemExit) as exit_info:
            cli.main([arg.format(**paths) for arg in argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("mirrormotion: error: ")
        assert message in err.splitlines()[-1]


def _fresh_interpreter(script: str) -> str:
    """Run `script` in a new Python process with the package importable;
    returns its stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestImports:
    """Modules are loaded only where they are used: no `mirrormotion`
    submodule for the package itself (each name is imported from its
    module), no scipy for a config or a spectral grid, no `scipy.fft` or
    `scipy.signal` for the analytic commands (importing `scipy.signal` alone
    takes some fifty `bounds` passes), and all three in a pool's parent
    before it forks."""

    def test_import_package_loads_no_submodule(self):
        out = _fresh_interpreter("""
            import sys
            import mirrormotion

            print(sorted(m for m in sys.modules if m.startswith("mirrormotion.")))
        """)
        assert out.splitlines()[-1] == "[]"

    def test_import_config_and_grid_load_no_scipy(self):
        out = _fresh_interpreter("""
            import sys
            from mirrormotion import cli, est

            est.SpectralGrid.build(cli.reference_config().priors())
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        assert out.splitlines()[-1] == "[]"

    def test_analytic_commands_never_load_scipy_signal(self, tmp_path):
        out = _fresh_interpreter(f"""
            import sys
            from mirrormotion import cli

            config = cli.reference_config()
            cli.cmd_bounds(config, out_path={str(tmp_path / "b.csv")!r}, n_points=2)
            cli.cmd_diagnose(config)
            cli.main(["write-config", {str(tmp_path / "c.cfg")!r}])
            print("scipy.signal" in sys.modules, "scipy.fft" in sys.modules)
        """)
        assert out.splitlines()[-1] == "False False"

    def test_pool_parent_loads_scipy_signal_before_forking(self, tmp_path):
        out = _fresh_interpreter("""
            import sys
            from dataclasses import replace
            from mirrormotion import cli, est

            class RecordingPool:
                \"\"\"Notes the scipy modules loaded when the pool is made, then
                runs its initializer once and its map in this process.\"\"\"

                def __init__(self, max_workers=None, initializer=None, initargs=()):
                    names = ("scipy.fft", "scipy.linalg", "scipy.signal")
                    print(*(name for name in names if name in sys.modules))
                    if initializer is not None:
                        initializer(*initargs)

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    return False

                def map(self, fn, *iterables):
                    return map(fn, *iterables)

            cli.ProcessPoolExecutor = RecordingPool
            base = cli.reference_config()
            config = replace(base, simulation=replace(
                base.simulation, n_samples=4000, n_trials=2))
            grid = est.SpectralGrid.build(config.priors())
            cli.run_sweep_point(config, "coherent", 1.02e6, grid=grid, workers=2)
        """)
        assert out.splitlines()[-1] == "scipy.fft scipy.linalg scipy.signal"
