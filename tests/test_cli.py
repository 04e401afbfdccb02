"""Batch harness: config round trips, sweep/bounds/diagnose commands."""

import dataclasses
import math
import os
import string
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirrormotion import cli, est, sim
from mirrormotion.model import (
    ForceParams,
    MirrorParams,
    NominalTransferFunction,
    TabulatedTransferFunction,
)

from conftest import ALPHA_SQS


@pytest.fixture()
def tiny_config(tmp_path):
    """Reference constants with a short, few-trial simulation for fast runs."""
    base = cli.reference_config()
    return replace(
        base,
        simulation=replace(base.simulation, n_samples=4000, n_trials=3, edge_discard=5e-5),
        out_dir=str(tmp_path / "results"),
    )


@pytest.fixture()
def second_trial_diverges(tiny_config, monkeypatch):
    """Flag the second trial of every `tiny_config` cell as diverged: a serial
    cell makes n_trials calls of `sim.simulate_trial`, in trial order."""
    simulate_trial = sim.simulate_trial
    n_trials = tiny_config.simulation.n_trials
    calls = []

    def patched(*args):
        traj = simulate_trial(*args)
        calls.append(None)
        return replace(traj, diverged=len(calls) % n_trials == 2)

    monkeypatch.setattr(sim, "simulate_trial", patched)


@st.composite
def experiment_configs(draw):
    """Valid configs with every CONFIG_KEYS value drawn (the transfer function
    stays nominal: a tabulated source must name an existing file)."""
    positive = st.floats(1e-12, 1e12)
    mirror = MirrorParams(
        m=draw(positive),
        Omega=draw(positive),
        gamma=draw(st.floats(0.0, 1e12)),
        k0=draw(positive),
        theta=draw(st.floats(0.0, math.pi / 2, exclude_max=True)),
    )
    n_samples, dt = draw(st.integers(2, 10**7)), draw(positive)
    simulation = sim.SimConfig(
        dt=dt,
        n_samples=n_samples,
        n_trials=draw(st.integers(2, 10**6)),
        seed=draw(st.integers(0, 2**63 - 1)),
        mode=draw(st.sampled_from((sim.MODE_LINEARIZED, sim.MODE_NONLINEAR))),
        feedback_delay_samples=draw(st.integers(0, 1000)),
        # against n_samples - 1, so the edges rounded to samples leave a window
        edge_discard=draw(st.floats(0.0, 0.49)) * (n_samples - 1) * dt,
    )
    real = st.floats(-1e3, 1e3)
    return cli.ExperimentConfig(
        mirror=mirror,
        force=ForceParams(lam=draw(positive), kappa=draw(positive)),
        simulation=simulation,
        squeezing_db=draw(real),
        antisqueezing_db=draw(real),
        eta_det=draw(st.floats(0.0, 1.0)),
        bandwidth=draw(positive),
        alpha_sqs=tuple(draw(st.lists(positive, min_size=1, max_size=6))),
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

    @pytest.mark.parametrize("key", ["mirror.sensitivity", "mirror.force_per_volt"])
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
        # a shorter window with a smaller discard is valid only once both apply
        path = tmp_path / "short.cfg"
        path.write_text("sim.samples = 1000\nsim.edge_discard = 1e-5\n")
        config = cli.read_config(path)
        assert config.simulation.n_samples == 1000
        assert config.simulation.edge_discard == 1e-5

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

    def test_comments_and_defaults(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("# only override the seed\nsim.seed = 7\n")
        config = cli.read_config(path)
        assert config.simulation.seed == 7
        assert config.mirror == cli.reference_config().mirror

    def test_missing_transfer_file_rejected(self):
        with pytest.raises(ValueError, match="not found"):
            replace(cli.reference_config(), tf_source="/nonexistent/gqf.csv")

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
        rows, failed = cli.cmd_sweep(tiny_config)
        assert failed == 0
        assert len(rows) == 3 * 2 * len(tiny_config.alpha_sqs)
        assert set(rows[0]) == set(cli.SWEEP_COLUMNS)
        csv_path = f"{tiny_config.out_dir}/sweep.csv"
        lines = open(csv_path).read().splitlines()
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
        assert len(lines) == 1 + len(rows)

    def test_bit_identical_reruns(self, tiny_config, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cli.cmd_sweep(tiny_config, out_path=out1)
        cli.cmd_sweep(tiny_config, out_path=out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_pool_matches_serial(self, tiny_config, tmp_path):
        config = replace(tiny_config, alpha_sqs=(1.02e6,))
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        cli.cmd_sweep(config, out_path=serial, workers=1)
        cli.cmd_sweep(config, out_path=pooled, workers=2)
        assert serial.read_bytes() == pooled.read_bytes()

    def test_diverged_trials_reported(self, tiny_config, second_trial_diverges, capsys):
        config = replace(tiny_config, alpha_sqs=(1.02e6,))
        rows, failed = cli.cmd_sweep(config)
        assert failed == 0
        assert len(rows) == 6
        lines = open(f"{config.out_dir}/sweep.csv").read().splitlines()
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
        assert len(lines) == 1 + len(rows)
        assert capsys.readouterr().err.splitlines() == [
            f"sweep point (kind={kind}, alpha_sq=1.02e+06): 1 of 3 trials diverged "
            "and were left out"
            for kind in cli.PROBE_KINDS
        ]

    def test_coherent_bound_equals_mmse_at_unit_efficiency(self, tiny_config):
        config = replace(tiny_config, eta_det=1.0, alpha_sqs=(1.02e6,))
        rows, _ = cli.cmd_sweep(config)
        for row in rows:
            if row["probe"] == "coherent":
                assert row["qcrb_coh"] == pytest.approx(row["mmse"], rel=1e-9)

    # (probe, var): (mse_emp, mse_stderr) of `tiny_config` at alpha_sq = 6.24e6
    GOLDEN = {
        ("coherent", "q"): (1.783763278856457e-17, 1.194694242925292e-18),
        ("coherent", "p"): (9.946586410393297e-14, 6.4694374081379255e-15),
        ("coherent", "f"): (0.005397192553360959, 0.0002179269459652668),
        ("squeezed", "q"): (1.1453318913738748e-17, 4.436462777242392e-19),
        ("squeezed", "p"): (7.335490399140014e-14, 5.98818397083261e-15),
        ("squeezed", "f"): (0.0041200593090726274, 0.0001010186226836683),
    }

    def test_matches_golden(self, tiny_config):
        """The fixed-seed trial path, pinned exactly: a refactor of the
        simulation, tracking, smoothing or scoring must not move a bit."""
        rows, failed = cli.cmd_sweep(replace(tiny_config, alpha_sqs=(6.24e6,)))
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
        cli.cmd_sweep(tiny_config, out_path=out1)
        cli.cmd_sweep(config2, out_path=out2)
        assert out1.read_bytes() != out2.read_bytes()

    def test_failed_point_keeps_partial_csv(self, tiny_config, tmp_path, monkeypatch, capsys):
        real = cli.run_sweep_point

        def flaky(config, kind, alpha_sq, grid=None, workers=1):
            if kind == "squeezed" and alpha_sq == tiny_config.alpha_sqs[0]:
                raise RuntimeError("synthetic point failure")
            return real(config, kind, alpha_sq, grid=grid, workers=workers)

        monkeypatch.setattr(cli, "run_sweep_point", flaky)
        out = tmp_path / "partial.csv"
        rows, failed = cli.cmd_sweep(tiny_config, out_path=out)
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


class TestScoreTrials:
    def test_payload_windows_own_their_memory(self, tiny_config):
        config, cfg = tiny_config, tiny_config.simulation
        priors = config.priors()
        probe = config.operating_point("squeezed", ALPHA_SQS[0])
        tracker = sim.KalmanTracker(probe, config.force, config.mirror, cfg)
        _, n_total = sim.trial_geometry(config.force, config.mirror, cfg)
        bank = est.FilterBank.build(n_total, cfg.dt, priors, probe)
        results = cli._score_trials(priors, probe, tracker, bank, cfg, range(2))
        for payload in results.values():
            arrays = [a for x in ("q", "p", "f") for a in payload[x]]
            assert all(a.base is None for a in arrays)
            assert sum(a.nbytes for a in arrays) == 6 * cfg.n_samples * 8


class TestBounds:
    def test_curves_decrease_and_cover_sweep_points(self, tiny_config):
        rows, failed = cli.cmd_bounds(tiny_config, n_points=9)
        assert failed == 0
        alphas = sorted({row["alpha_sq"] for row in rows})
        for a in tiny_config.alpha_sqs:
            assert a in alphas
        for x in ("q", "p", "f"):
            for col in ("mmse_coh", "mmse_sq", "qcrb_coh", "qcrb_sq"):
                curve = [row[col] for row in rows if row["var"] == x]
                assert np.all(np.diff(curve) < 0)

    def test_bound_columns_match_direct_evaluation(self, tiny_config):
        rows, _ = cli.cmd_bounds(tiny_config, n_points=2)
        grid = est.SpectralGrid.build(tiny_config.priors())
        for row in rows:
            if row["alpha_sq"] in tiny_config.alpha_sqs:
                coh = tiny_config.probe_template("coherent", row["alpha_sq"])
                assert row["qcrb_coh"] == pytest.approx(
                    est.qcrb(row["var"], coh, grid), rel=1e-12
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
        assert "synthetic bounds failure" in capsys.readouterr().err
        lines = (out / "bounds.csv").read_text().splitlines()
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
        for row in cli.cmd_bounds(config, n_points=3)[0]:
            assert row["mmse_coh"] == pytest.approx(row["qcrb_coh"], rel=1e-9)
            assert row["mmse_sq"] > row["qcrb_sq"]  # impure squeezing stays above


class TestDiagnose:
    def test_operating_band_matches_published_range(self):
        # the self-consistent tracking error puts the effective squeezing
        # factor inside the reported -3.28 .. -3.48 dB operating band
        config = cli.reference_config()
        dbs = [cli.diagnose_point(config, a).r_sq_eff_db for a in config.alpha_sqs]
        assert all(-3.50 <= db <= -3.27 for db in dbs)
        assert dbs[0] == pytest.approx(-3.28, abs=0.03)
        assert dbs[-1] == pytest.approx(-3.48, abs=0.03)
        assert np.all(np.diff(dbs) < 0)

    def test_gaps_and_linearization(self):
        config = cli.reference_config()
        d = cli.diagnose_point(config, 1.02e6)
        assert d.attainability_coherent == pytest.approx(1.0, rel=1e-12)
        assert d.attainability_squeezed > 1.7
        assert d.linearization_check < 0.1
        assert d.broadband.ok

    def test_report_text(self):
        config = replace(cli.reference_config(), alpha_sqs=(1.02e6,))
        text = cli.cmd_diagnose(config)
        for token in (
            "sigma_phi^2",
            "effective R_sq",
            "attainability gap coherent",
            "broadband",
            "dB",
        ):
            assert token in text


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
        header = open(f"{out}/{files[0]}").readline().strip()
        assert header == "t,f,q,p,phi,phi_fb,y"

    def test_workers_flag_reaches_the_pool(self, tiny_config, tmp_path, monkeypatch, capsys):
        pools = []

        class RecordingPool:
            """Runs the pool's map in this process, recording its size."""

            def __init__(self, max_workers=None):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
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
        assert lines[4] == (
            f"tracking sigma_phi^2: empirical feedback error = {point.sigma_phi_sq_emp:.4e} "
            f"(kept trials), Riccati posterior = {point.probe.sigma_phi_sq:.4e}"
        )
        assert math.isfinite(point.sigma_phi_sq_emp)
        assert point.sigma_phi_sq_emp == pytest.approx(point.probe.sigma_phi_sq, rel=0.5)

    def test_workers_below_one_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["--trials", "2", "--out", str(tmp_path), "--workers", "0", "simulate"])

    def test_failed_cell_reported_like_sweep(self, tmp_path, capsys):
        # 1000 samples of 0.1 us span less than ten force correlation times
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text("sim.samples = 1000\nsim.edge_discard = 1e-5\n")
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
            simulation=replace(
                cli.reference_config().simulation, n_samples=4000, edge_discard=5e-5
            ),
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
        assert "wrote 6 rows" in capsys.readouterr().out
        assert (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.filterwarnings("ignore:query outside tabulated transfer-function range")
    @pytest.mark.parametrize(
        "argv", [["bounds"], ["sweep"], ["simulate"], ["diagnose"]], ids=lambda a: a[0]
    )
    def test_transfer_table_read_once(self, tiny_config, tmp_path, monkeypatch, argv):
        freqs = np.geomspace(1e3, 1e8, 2000)
        table = tmp_path / "gqf.csv"
        tf = NominalTransferFunction(tiny_config.mirror)
        TabulatedTransferFunction(freqs, tf(freqs)).to_csv(table)
        config = replace(
            tiny_config,
            alpha_sqs=(1.02e6,),
            simulation=replace(tiny_config.simulation, n_trials=2),
            tf_source=str(table),
        )
        cfg_path = tmp_path / "table.cfg"
        cli.write_config(config, cfg_path)
        reads = []
        from_csv = TabulatedTransferFunction.from_csv

        def counted(path):
            reads.append(path)
            return from_csv(path)

        monkeypatch.setattr(TabulatedTransferFunction, "from_csv", counted)
        assert cli.main(["--config", str(cfg_path), "--seed", "3", *argv]) == 0
        assert reads == [str(table)]

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
            (["--config", "{missing}", "diagnose"], "No such file"),
            (["--config", "{bad_table}", "bounds"], "gqf.csv: missing column 'gqf_imag'"),
            (["write-config", "{bad}/x.cfg"], "File exists"),
            (["simulate", "--alpha-sq", "-1"], "probe amplitudes must be positive"),
            (["simulate", "--alpha-sq", "0"], "probe amplitudes must be positive"),
            (["simulate", "--alpha-sq", "nan"], "alpha_sqs must be finite"),
            (["simulate", "--alpha-sq", "inf"], "alpha_sqs must be finite"),
            (["--config", "{wide_edge}", "--trials", "2", "sweep"], "leaves no scoring window"),
        ],
        ids=[
            "zero-trials", "one-trial", "unparsable-value", "missing-config",
            "table-without-column", "config-under-a-file", "negative-amplitude",
            "zero-amplitude", "nan-amplitude", "infinite-amplitude", "edge-rounds-to-half-window",
        ],
    )
    def test_bad_input_is_a_usage_error(self, tmp_path, capsys, argv, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sim.trials = abc\n")
        table = tmp_path / "gqf.csv"
        table.write_text("freq_hz,gqf_real\n1000,1e-6\n2000,1e-6\n")
        bad_table = tmp_path / "table.cfg"
        bad_table.write_text(f"transfer.source = {table}\n")
        # 1999.6 samples of edge round to 2000: half of the 4000-sample window
        wide_edge = tmp_path / "edge.cfg"
        wide_edge.write_text("sim.samples = 4000\nsim.edge_discard = 1.9996e-4\n")
        paths = {
            "bad": bad, "missing": tmp_path / "missing.cfg", "bad_table": bad_table,
            "wide_edge": wide_edge,
        }
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
    """scipy.signal (about a second to import) is loaded only where a trial
    filters a record."""

    def test_analytic_commands_never_load_scipy_signal(self, tmp_path):
        out = _fresh_interpreter(f"""
            import sys
            from mirrormotion import cli

            config = cli.reference_config()
            cli.cmd_bounds(config, out_path={str(tmp_path / "b.csv")!r}, n_points=2)
            cli.cmd_diagnose(config)
            cli.main(["write-config", {str(tmp_path / "c.cfg")!r}])
            print("scipy.signal" in sys.modules)
        """)
        assert out.splitlines()[-1] == "False"

    def test_pool_parent_loads_scipy_signal_before_forking(self, tmp_path):
        out = _fresh_interpreter("""
            import sys
            from dataclasses import replace
            from mirrormotion import cli

            base = cli.reference_config()
            config = replace(base, simulation=replace(
                base.simulation, n_samples=4000, n_trials=2, edge_discard=5e-5))
            cli.run_sweep_point(config, "coherent", 1.02e6, workers=2)
            print("scipy.signal" in sys.modules)
        """)
        assert out.splitlines()[-1] == "True"
