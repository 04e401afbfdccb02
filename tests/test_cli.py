"""Batch harness: config round trips, sweep/bounds/diagnose commands."""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from mirrormotion import cli, est, sim

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


class TestConfigFile:
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

    def test_coherent_bound_equals_mmse_at_unit_efficiency(self, tiny_config):
        config = replace(tiny_config, eta_det=1.0, alpha_sqs=(1.02e6,))
        rows, _ = cli.cmd_sweep(config)
        for row in rows:
            if row["probe"] == "coherent":
                assert row["qcrb_coh"] == pytest.approx(row["mmse"], rel=1e-9)

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
        priors = tiny_config.priors()
        grid = est.SpectralGrid.build(priors)
        for row in rows:
            if row["alpha_sq"] in tiny_config.alpha_sqs:
                coh = tiny_config.probe_template("coherent", row["alpha_sq"])
                assert row["qcrb_coh"] == pytest.approx(
                    est.qcrb(row["var"], priors, coh, grid), rel=1e-12
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

        def flaky(x, priors, probe, grid):
            if x == "p" and probe.alpha_sq == failing_alpha:
                raise RuntimeError("synthetic integral failure")
            return real(x, priors, probe, grid)

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

    def test_workers_below_one_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["--trials", "2", "--out", str(tmp_path), "--workers", "0", "simulate"])


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
