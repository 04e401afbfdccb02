"""The repository's measuring scripts under `tools/`."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SOURCE_COUNTS = TOOLS / "source_counts.py"
sys.path.insert(0, str(TOOLS))

import bench_pairs  # noqa: E402


def source_counts(*args) -> list[str]:
    out = subprocess.run(
        [sys.executable, str(SOURCE_COUNTS), *map(str, args)],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


class TestSourceCounts:
    def test_counts_fields_and_defaults(self, tmp_path):
        top = textwrap.dedent("""\
            import dataclasses
            from typing import ClassVar


            @dataclasses.dataclass(frozen=True)
            class Point:
                x: float
                y: float = 0.0
                ORIGIN: ClassVar[tuple] = (0.0, 0.0)


            class Plain:
                z: int = 1

                def grow(self, by=1):
                    return self


            def scale(p, factor=2.0, *, clip=None):
                return p


            shift = lambda p, dx=1.0: p
        """)
        nested = textwrap.dedent("""\
            from dataclasses import dataclass


            @dataclass
            class Label:
                text: str
        """)
        (tmp_path / "pkg").mkdir()
        (tmp_path / "top.py").write_text(top)
        (tmp_path / "pkg" / "nested.py").write_text(nested)
        (tmp_path / "notes.txt").write_text("not python\n")
        lines = len(top.splitlines()) + len(nested.splitlines())
        assert source_counts(tmp_path) == [
            f"src lines: {lines}",
            "settable values: 7 (3 dataclass fields + 4 defaulted parameters)",
            f"  pkg/nested.py: {len(nested.splitlines())} lines",
            f"  top.py: {len(top.splitlines())} lines",
            "defaulted parameters:",
            "  top.py: Plain.grow(by)",
            "  top.py: scale(factor)",
            "  top.py: scale(clip)",
            "  top.py: <lambda>(dx)",
        ]

    def test_package_source(self):
        lines, values, *rest = source_counts()
        assert lines.startswith("src lines: ")
        assert values.startswith("settable values: ")
        split = rest.index("defaulted parameters:")
        files, defaulted = rest[:split], rest[split + 1 :]
        src = TOOLS.parent / "src"
        expected = {
            path.relative_to(src).as_posix(): len(path.read_text().splitlines())
            for path in src.rglob("*.py")
        }
        per_file = {}
        for line in files:
            name, _, count = line.strip().rpartition(": ")
            per_file[name] = int(count.removesuffix(" lines"))
        assert per_file == expected
        assert sum(per_file.values()) == int(lines.removeprefix("src lines: "))
        # one `file: function(param)` line per defaulted parameter of the count
        n_defaulted = int(values.split(" + ")[1].removesuffix(" defaulted parameters)"))
        assert len(defaulted) == n_defaulted
        assert all(line.split(": ")[0].strip() in per_file for line in defaulted)
        assert "  mirrormotion/cli.py: main(argv)" in defaulted


def runs(**values):
    """Run `metrics` objects, one per pair, from lists of values per metric."""
    n = len(next(iter(values.values())))
    return [{name: {"value": v[i], "unit": "u"} for name, v in values.items()} for i in range(n)]


class TestBenchPairs:
    METRICS = [
        {"name": "ops_per_s", "better": "higher", "bound": 0.2},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.2},
    ]

    def test_wins_follow_each_metrics_direction_and_ties_count_for_neither(self):
        base = runs(ops_per_s=[100, 100, 100, 100], peak_rss_mb=[50, 50, 50, 50])
        new = runs(ops_per_s=[110, 90, 100, 120], peak_rss_mb=[40, 60, 50, 45])
        ops, rss = bench_pairs.summarize(base, new, self.METRICS)
        assert (ops["new_wins"], ops["base_wins"], ops["ties"]) == (2, 1, 1)
        assert (rss["new_wins"], rss["base_wins"], rss["ties"]) == (2, 1, 1)
        assert ops["pairs"] == rss["pairs"] == 4

    def test_quartiles_and_median_change(self):
        base = runs(ops_per_s=[1, 2, 3, 4, 5])
        new = runs(ops_per_s=[2, 4, 6, 8, 10])
        [ops] = bench_pairs.summarize(base, new, self.METRICS[:1])
        assert ops["base"] == (2.0, 3.0, 4.0)
        assert ops["new"] == (4.0, 6.0, 8.0)
        assert ops["change"] == 1.0
        assert ops["new_wins"] == 5

    def test_single_pair_and_zero_base_median(self):
        base, new = runs(ops_per_s=[0.0]), runs(ops_per_s=[1.0])
        [ops] = bench_pairs.summarize(base, new, self.METRICS[:1])
        assert ops["base"] == (0.0, 0.0, 0.0)
        assert ops["change"] is None
        *_, counts, verdict = bench_pairs.format_summary([ops])
        assert counts.startswith("  new better in 1, base better in 0")
        assert verdict == "  verdict: within bound"  # a gain, but one pair claims none

    # base quartiles 100.25 .. 101.75 (interquartile range 1.5), median 101
    BASE = [99, 100, 100, 101, 101, 101, 101, 102, 102, 103]

    @pytest.mark.parametrize("base_wins, verdict", [(1, "claim met"), (2, "within bound")],
                             ids=["9-of-10", "8-of-10"])
    def test_claim_needs_nine_of_ten_pairs(self, base_wins, verdict):
        new = [b + 5 for b in self.BASE]  # a median gain of 5
        for i in range(base_wins):
            new[i] = self.BASE[i] - 1
        base = runs(ops_per_s=self.BASE)
        [ops] = bench_pairs.summarize(base, runs(ops_per_s=new), self.METRICS[:1])
        assert (ops["new_wins"], ops["base_wins"]) == (10 - base_wins, base_wins)
        assert ops["new"][1] - ops["base"][1] > ops["base"][2] - ops["base"][0]
        assert ops["verdict"] == verdict

    def test_claim_needs_a_gap_beyond_the_base_interquartile_range(self):
        new = [b + 1 for b in self.BASE]  # 10 of 10 pairs, a median gain of 1 < 1.5
        base = runs(ops_per_s=self.BASE)
        [ops] = bench_pairs.summarize(base, runs(ops_per_s=new), self.METRICS[:1])
        assert ops["new_wins"] == 10
        assert ops["verdict"] == "within bound"

    @pytest.mark.parametrize("factor, verdict", [(1.19, "within bound"), (1.21, "REGRESSION")])
    def test_regression_past_the_bound(self, factor, verdict):
        # peak_rss_mb is better lower; its bound is 20% of the base median
        base = runs(peak_rss_mb=[100.0] * 10)
        new = runs(peak_rss_mb=[100.0 * factor] * 10)
        [rss] = bench_pairs.summarize(base, new, self.METRICS[1:])
        assert rss["base_wins"] == 10
        assert rss["verdict"] == verdict
        assert bench_pairs.format_summary([rss])[-1] == f"  verdict: {verdict}"


class TestTrace:
    """`--trace`: both sides run traced, summarized per layer, no verdict."""

    PER_LAYER = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())["per_layer"]

    def test_per_layer_metrics_have_no_verdict(self):
        metrics = [{"name": "sim.calibrate_tracking.ms", "unit": "ms", "better": "lower"}]
        base = runs(**{"sim.calibrate_tracking.ms": [0.40, 0.42, 0.41, 0.43]})
        new = runs(**{"sim.calibrate_tracking.ms": [0.36, 0.37, 0.44, 0.35]})
        [layer] = bench_pairs.summarize(base, new, metrics)
        assert (layer["new_wins"], layer["base_wins"], layer["ties"]) == (3, 1, 0)
        assert layer["base"] == pytest.approx((0.4075, 0.415, 0.4225))
        assert layer["new"] == pytest.approx((0.3575, 0.365, 0.3875))
        assert layer["verdict"] is None
        lines = bench_pairs.format_summary([layer])
        assert lines[0] == "sim.calibrate_tracking.ms (lower is better, 4 pairs)"
        assert len(lines) == 4 and not any("verdict" in line for line in lines)

    def test_main_runs_both_sides_traced_and_prints_every_layer(self, monkeypatch, capsys):
        names = [m["name"] for m in self.PER_LAYER]
        calls = []

        def run_once(root, workload, seconds, trace, seed):
            calls.append((root.name, workload, seconds, trace))
            value = 2.0 if root.name == "new" else 3.0
            return {name: {"value": value, "unit": "u"} for name in names}, {}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        argv = ["base", "new", "--workload", "bounds", "--pairs", "2", "--seconds", "5", "--trace"]
        assert bench_pairs.main(argv) == 0
        assert calls == [
            ("base", "bounds", 5, True), ("new", "bounds", 5, True),
            ("new", "bounds", 5, True), ("base", "bounds", 5, True),
        ]
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["workload bounds: base base, new new", "outputs: not compared"]
        headers = [line for line in out if not line.startswith(" ")]
        assert headers[2:] == [
            f"{m['name']} ({m['better']} is better, 2 pairs)" for m in self.PER_LAYER
        ]
        assert not any("verdict" in line for line in out)

    def test_run_once_passes_the_trace_flag(self, monkeypatch, tmp_path):
        commands = []
        metrics = {"est.qcrb.ms": {"value": 0.01, "unit": "ms"}}

        def run(cmd, **kwargs):
            commands.append(cmd)
            line = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics})
            return subprocess.CompletedProcess(cmd, 0, stdout=line, stderr="")

        monkeypatch.setattr(subprocess, "run", run)
        assert bench_pairs.run_once(tmp_path, "bounds", None, trace=True) == (metrics, {})
        bench_pairs.run_once(tmp_path, "bounds", 3)
        assert [cmd[2:] for cmd in commands] == [
            ["--workload", "bounds", "--trace", "1"],
            ["--workload", "bounds", "--trace", "0", "--seconds", "3"],
        ]


class TestRunOnce:
    METRICS = {"ops_per_s": {"value": 12.5, "unit": "1/s"}}

    def fake_run(self, monkeypatch, returncode, correct):
        """`subprocess.run` prints `perfbench/run.py`'s lines for a run whose
        check passed or failed, and exits with `returncode`."""
        stdout = "\n".join([
            "workload bounds seed 424242 trace 0: 3 units",
            *([] if correct else ["CHECK FAILED bounds: mmse_sq above mmse_coh"]),
            "  ops_per_s  12.5 1/s",
            json.dumps({"correct": correct, "attempted": 3, "failed": 0, "metrics": self.METRICS}),
        ])

        def run(cmd, **kwargs):
            return subprocess.CompletedProcess(cmd, returncode, stdout=stdout, stderr="")

        monkeypatch.setattr(subprocess, "run", run)

    def test_correct_run_returns_its_metrics(self, monkeypatch, tmp_path):
        self.fake_run(monkeypatch, 0, correct=True)
        assert bench_pairs.run_once(tmp_path, "bounds", None) == (self.METRICS, {})

    @pytest.mark.parametrize("returncode, correct", [(1, False), (0, False), (1, True)])
    def test_incorrect_run_exits_naming_its_checks(self, monkeypatch, tmp_path, returncode, correct):
        self.fake_run(monkeypatch, returncode, correct)
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.run_once(tmp_path, "bounds", None)
        message = str(exit_info.value.code)
        assert message.startswith(f"bench_pairs: bounds in {tmp_path} is not a correct run "
                                  f"(exit {returncode}, correct {correct})")
        assert ("CHECK FAILED bounds: mmse_sq above mmse_coh" in message) == (not correct)


class TestSeed:
    """`--seed N` runs every `perfbench/run.py` of both sides at seed N, for
    a check on a held-out seed; without it they run run.py's default."""

    def test_run_once_passes_the_seed(self, monkeypatch, tmp_path):
        commands = []

        def run(cmd, **kwargs):
            commands.append(cmd)
            line = json.dumps({"correct": True, "metrics": {}})
            return subprocess.CompletedProcess(cmd, 0, stdout=line, stderr="")

        monkeypatch.setattr(subprocess, "run", run)
        bench_pairs.run_once(tmp_path, "sweep_acceptance", 22, seed=7)
        bench_pairs.run_once(tmp_path, "sweep_acceptance", None, trace=True, seed=0)
        bench_pairs.run_once(tmp_path, "sweep_acceptance", None)
        assert [cmd[2:] for cmd in commands] == [
            ["--workload", "sweep_acceptance", "--trace", "0", "--seconds", "22", "--seed", "7"],
            ["--workload", "sweep_acceptance", "--trace", "1", "--seed", "0"],
            ["--workload", "sweep_acceptance", "--trace", "0"],
        ]

    @pytest.mark.parametrize("flag, seed", [([], None), (["--seed", "7"], 7)])
    def test_main_runs_both_sides_at_the_seed(self, monkeypatch, flag, seed):
        seeds = []

        def run_once(root, workload, seconds, trace, seed):
            seeds.append((root.name, seed))
            return {"ops_per_s": {"value": 1.0, "unit": "1/s"}}, {}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        monkeypatch.setattr(bench_pairs, "summarize", lambda *args: [])
        argv = ["base", "new", "--workload", "sweep_acceptance", "--pairs", "2", *flag]
        assert bench_pairs.main(argv) == 0
        assert seeds == [("base", seed), ("new", seed), ("new", seed), ("base", seed)]


def sweep_stdout(*digests, traced=False):
    """`perfbench/run.py` stdout of a sweep run whose unit k wrote the CSV
    of `digests[k]`, each unit traced and untraced with `traced`."""
    lines = ["workload sweep_acceptance seed 424242 trace 0: 3 units"]
    for k, digest in enumerate(digests):
        for suffix in ([" traced", ""] if traced else [""]):
            lines.append(f"unit {k}{suffix}: 5.170 s alpha_sq=1.02e+06 "
                         f"sim_seed={424242 + k} csv_sha256={digest}")
    return lines + ["  ops_per_s  58.0 1/s", json.dumps({"correct": True, "metrics": {}})]


class TestOutputs:
    """Both sides of a pair run the same seed, so the same unit writes the
    same CSV unless the change moved its bits."""

    A, B, C = "a" * 64, "b" * 64, "c" * 64

    def test_unit_digests_reads_traced_and_untraced_lines(self):
        digests = bench_pairs.unit_digests(sweep_stdout(self.A, self.B, traced=True))
        assert digests == {0: {self.A}, 1: {self.B}}

    def test_units_without_a_digest_are_not_compared(self):
        nonlinear = [
            "unit 0: 2.201 s sim_seed=424242 diverged=0 q:mse/mmse=0.9712 p:mse/mmse=1.0043",
            "unit 1 traced: 2.310 s sim_seed=424243 diverged=0 q:mse/mmse=1.0101",
        ]
        assert bench_pairs.unit_digests(nonlinear) == {}
        assert bench_pairs.compare_outputs({}, {}) == "outputs: not compared"

    def test_identical_shared_units(self):
        # the faster side ran a third unit; only units both ran count
        base = bench_pairs.unit_digests(sweep_stdout(self.A, self.B))
        new = bench_pairs.unit_digests(sweep_stdout(self.A, self.B, self.C))
        assert bench_pairs.compare_outputs(base, new) == "outputs: identical in 2 of 2 shared units"

    def test_differing_units_name_the_first(self):
        base = bench_pairs.unit_digests(sweep_stdout(self.A, self.B, self.C))
        new = bench_pairs.unit_digests(sweep_stdout(self.A, self.C, self.B))
        assert bench_pairs.compare_outputs(base, new) == "outputs: differ in 2 of 3 (first: unit 1)"

    def test_a_side_that_disagrees_with_itself_differs(self):
        # two runs of one side wrote different bits for unit 0
        base = {0: {self.A, self.B}}
        assert bench_pairs.compare_outputs(base, {0: {self.A}}) == (
            "outputs: differ in 1 of 1 (first: unit 0)"
        )

    def test_main_merges_every_run_of_a_side(self, monkeypatch, capsys):
        outputs = {"base": iter([{0: {self.A}}, {0: {self.A}, 1: {self.B}}]),
                   "new": iter([{0: {self.A}, 1: {self.B}}, {0: {self.A}}])}

        def run_once(root, workload, seconds, trace, seed):
            return {"ops_per_s": {"value": 1.0, "unit": "1/s"}}, next(outputs[root.name])

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        monkeypatch.setattr(bench_pairs, "format_summary", lambda summary: [])
        monkeypatch.setattr(bench_pairs, "summarize", lambda *args: [])
        argv = ["base", "new", "--workload", "sweep_acceptance", "--pairs", "2"]
        assert bench_pairs.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "workload sweep_acceptance: base base, new new",
            "outputs: identical in 2 of 2 shared units",
        ]


def write_run(root, workload, *tables, seed=424242, trace=0):
    """A `perfbench/run.py` output directory in `root` whose unit k wrote
    the `sweep` CSV of `tables[k]`, a list of rows of `cli.SWEEP_COLUMNS`."""
    out = root / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}"
    out.mkdir(parents=True, exist_ok=True)
    header = "var,probe,alpha_sq,mse_emp,mse_stderr,mmse,qcrb_coh,qcrb_sq"
    for k, rows in enumerate(tables):
        lines = [header] + [",".join(map(str, row)) for row in rows]
        (out / f"sweep-{k}.csv").write_text("\n".join(lines) + "\n")
    (out / "result.json").write_text("{}")
    return out


class TestColumnChanges:
    """After each pair, the largest relative change of each numeric column
    over the units both sides wrote."""

    ROW = ["q", "coherent", 1.02e6, 2.0e-17, 4.0e-19, 1.9e-17, 1.8e-17, 1.5e-17]

    def moved(self, **changes):
        """ROW with the named columns multiplied by (1 + change)."""
        columns = ["var", "probe", "alpha_sq", "mse_emp", "mse_stderr", "mmse", "qcrb_coh",
                   "qcrb_sq"]
        return [v * (1 + changes[c]) if c in changes else v for c, v in zip(columns, self.ROW)]

    def test_largest_change_per_numeric_column_over_shared_units(self, tmp_path):
        write_run(tmp_path / "base", "sweep_acceptance", [self.ROW, self.ROW], [self.ROW])
        write_run(tmp_path / "new", "sweep_acceptance",
                  [self.moved(mse_emp=1e-12), self.moved(mse_emp=3e-12, mse_stderr=2e-11)],
                  [self.moved(mse_emp=2e-12)],
                  [self.moved(mmse=0.5)])  # a unit only the new side ran
        base, new = (bench_pairs.unit_tables(tmp_path / side, "sweep_acceptance", False)
                     for side in ("base", "new"))
        assert sorted(base) == [0, 1] and sorted(new) == [0, 1, 2]
        changes = bench_pairs.column_changes(base, new)
        assert list(changes) == ["alpha_sq", "mse_emp", "mse_stderr", "mmse", "qcrb_coh", "qcrb_sq"]
        assert changes["mse_emp"] == pytest.approx(3e-12, rel=1e-3)
        assert changes["mse_stderr"] == pytest.approx(2e-11, rel=1e-3)
        assert changes["alpha_sq"] == changes["mmse"] == changes["qcrb_sq"] == 0.0
        assert bench_pairs.changes_line(base, new) == (
            "largest relative change over 2 shared units: alpha_sq 0, mse_emp 3e-12, "
            "mse_stderr 2e-11, mmse 0, qcrb_coh 0, qcrb_sq 0"
        )

    def test_a_change_from_zero_is_infinite(self):
        base = {0: [{"var": "p", "mmse": "0.0"}]}
        new = {0: [{"var": "p", "mmse": "1e-30"}]}
        assert bench_pairs.column_changes(base, new) == {"mmse": float("inf")}

    def test_reads_the_latest_run_of_the_workload(self, tmp_path):
        old = write_run(tmp_path, "sweep_acceptance", [self.moved(mmse=1.0)], seed=7)
        write_run(tmp_path, "sweep_acceptance", [self.ROW], [self.ROW])
        write_run(tmp_path, "sweep_acceptance", [self.moved(mmse=2.0)], trace=1)
        newest = (old / "result.json").stat().st_mtime + 60.0
        os.utime(old / "result.json", (newest, newest))  # the seed-7 run ran last
        tables = bench_pairs.unit_tables(tmp_path, "sweep_acceptance", False)
        assert list(tables) == [0] and float(tables[0][0]["mmse"]) == 2 * self.ROW[5]
        assert bench_pairs.unit_tables(tmp_path, "bounds", False) == {}

    def test_main_prints_the_changes_after_each_pair(self, tmp_path, monkeypatch, capsys):
        bumps = iter([1e-12, 4e-12])  # the new side's mse_emp change in pairs 1 and 2

        def run_once(root, workload, seconds, trace, seed):
            bump = next(bumps) if root.name == "new" else 0.0
            write_run(root, workload, [self.moved(mse_emp=bump)])
            return {"ops_per_s": {"value": 1.0, "unit": "1/s"}}, {}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        monkeypatch.setattr(bench_pairs, "summarize", lambda *args: [])
        argv = [str(tmp_path / "base"), str(tmp_path / "new"), "--workload", "sweep_acceptance",
                "--pairs", "2"]
        assert bench_pairs.main(argv) == 0
        assert capsys.readouterr().err.splitlines() == [
            "pair 1/2 done; largest relative change over 1 shared units: alpha_sq 0, "
            "mse_emp 1e-12, mse_stderr 0, mmse 0, qcrb_coh 0, qcrb_sq 0",
            "pair 2/2 done; largest relative change over 1 shared units: alpha_sq 0, "
            "mse_emp 4e-12, mse_stderr 0, mmse 0, qcrb_coh 0, qcrb_sq 0",
        ]

    def test_units_without_a_csv_are_not_compared(self, tmp_path):
        tables = bench_pairs.unit_tables(tmp_path, "cell_nonlinear", False)
        assert bench_pairs.changes_line(tables, tables) == "columns: not compared"
