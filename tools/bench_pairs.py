"""Compare two checkouts on one benchmark workload in alternating pairs.

    python tools/bench_pairs.py BASE NEW --workload NAME [--pairs 10] [--seconds S] [--trace]

BASE and NEW are repository roots, for example a `git worktree` of the
parent commit and the working tree.  Each pair runs `perfbench/run.py` of
this checkout once with its working directory set to each root (the order
alternates from pair to pair), so both sides run the same benchmark code on
their own `src/`.  For every end-to-end metric of `BENCHMARK.json` it prints
each side's median and quartiles, and in how many pairs each side was
better by that metric's "better" direction; a tie counts for neither side.
Each metric's verdict is "claim met" when at least CLAIM_PAIRS pairs ran,
the new side was better in at least 9 of every 10 of them and its median
gain exceeds the base interquartile range; "REGRESSION" when the new
median is worse than the base median by more than the metric's relative
`bound`; and "within bound" otherwise.
With `--trace` both sides run with `--trace 1` and it prints the same
summary for each `per_layer` metric of `BENCHMARK.json`, without a
verdict: per-layer metrics have no bound, and they show which layer a
change moved (`sim.calibrate_tracking.ms`, `est.qcrb.ms`, ...).
Both sides run the same seed, so each unit has the same inputs on both:
it prints whether the units both sides ran wrote the same CSV, by the
`csv_sha256=` digest of each unit's line (`outputs: identical in N of N
shared units`, or `outputs: differ in k of N (first: unit j)`).  Units that
print no digest (the nonlinear cell) give `outputs: not compared`.
It exits non-zero when a run prints no JSON result line, reports
`"correct": false` (its outputs failed the workload's check) or exits
non-zero.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench" / "run.py"

#: Fewest pairs a gain may be claimed on.
CLAIM_PAIRS = 10

#: A `perfbench/run.py` unit line with the digest of the CSV the unit wrote.
UNIT_DIGEST = re.compile(r"unit (\d+)(?: traced)?: .*\bcsv_sha256=([0-9a-f]+)")


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(base_runs, new_runs, metrics) -> list[dict]:
    """Per-metric summary of paired runs.

    `base_runs` and `new_runs` are the `metrics` objects of the runs'
    JSON lines ({name: {"value": v, ...}}), pair i being
    (base_runs[i], new_runs[i]); `metrics` are BENCHMARK.json's
    `end_to_end` entries ({"name", "better", "bound", ...}) or its
    `per_layer` ones, which have no bound.  Each summary holds the name,
    the direction, both sides' (q1, median, q3), the pair counts `new_wins`,
    `base_wins` and `ties`, the median change relative to the base median,
    and the verdict, None for a metric without a bound."""
    out = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [run[name]["value"] for run in base_runs]
        new = [run[name]["value"] for run in new_runs]
        new_wins = sum((n > b) if higher else (n < b) for b, n in zip(base, new))
        ties = sum(n == b for b, n in zip(base, new))
        base_q, new_q = quartiles(base), quartiles(new)
        pairs, iqr = len(base), base_q[2] - base_q[0]
        gain = new_q[1] - base_q[1] if higher else base_q[1] - new_q[1]
        if "bound" not in metric:
            verdict = None
        elif pairs >= CLAIM_PAIRS and 10 * new_wins >= 9 * pairs and gain > iqr:
            verdict = "claim met"
        elif -gain > metric["bound"] * abs(base_q[1]):
            verdict = "REGRESSION"
        else:
            verdict = "within bound"
        out.append({
            "name": name,
            "better": metric["better"],
            "pairs": pairs,
            "base": base_q,
            "new": new_q,
            "new_wins": new_wins,
            "base_wins": pairs - new_wins - ties,
            "ties": ties,
            "change": (new_q[1] - base_q[1]) / base_q[1] if base_q[1] else None,
            "verdict": verdict,
        })
    return out


def format_summary(summary) -> list[str]:
    lines = []
    for s in summary:
        change = "n/a" if s["change"] is None else f"{100.0 * s['change']:+.1f}%"
        lines.append(f"{s['name']} ({s['better']} is better, {s['pairs']} pairs)")
        for side in ("base", "new"):
            q1, median, q3 = s[side]
            lines.append(f"  {side:4s} median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
        lines.append(
            f"  new better in {s['new_wins']}, base better in {s['base_wins']}, "
            f"ties {s['ties']}; median change {change}, "
            f"base interquartile range {s['base'][2] - s['base'][0]:.6g}"
        )
        if s["verdict"] is not None:
            lines.append(f"  verdict: {s['verdict']}")
    return lines


def unit_digests(lines) -> dict[int, set]:
    """{unit index: the CSV digests its lines printed} of one run's stdout
    lines, traced and untraced passes of a unit together; units that print
    no digest are left out."""
    digests = {}
    for line in lines:
        match = UNIT_DIGEST.match(line)
        if match:
            digests.setdefault(int(match[1]), set()).add(match[2])
    return digests


def compare_outputs(base, new) -> str:
    """The `outputs:` line for two sides' {unit index: set of digests}, each
    merged over the side's runs.  A unit both sides ran is identical when
    every run of it, on either side, printed the one same digest."""
    shared = sorted(base.keys() & new.keys())
    if not shared:
        return "outputs: not compared"
    differ = [k for k in shared if len(base[k] | new[k]) != 1]
    if not differ:
        return f"outputs: identical in {len(shared)} of {len(shared)} shared units"
    return f"outputs: differ in {len(differ)} of {len(shared)} (first: unit {differ[0]})"


def run_once(root: Path, workload: str, seconds, trace: bool = False) -> tuple[dict, dict]:
    """The `metrics` object of one correct benchmark run in `root`, traced
    (`--trace 1`, per-layer metrics) or not (end-to-end metrics), and its
    units' CSV digests (`unit_digests`)."""
    cmd = [sys.executable, str(BENCH), "--workload", workload, "--trace", str(int(trace))]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics, correct = result["metrics"], result["correct"]
    except (IndexError, ValueError, KeyError) as exc:
        raise SystemExit(
            f"bench_pairs: no result from {root} (exit {out.returncode}): {exc}\n{out.stderr}"
        ) from exc
    if not correct or out.returncode != 0:
        checks = [line for line in lines if line.startswith("CHECK FAILED")]
        raise SystemExit(
            f"bench_pairs: {workload} in {root} is not a correct run "
            f"(exit {out.returncode}, correct {correct})\n" + "\n".join(checks + [out.stderr])
        )
    return metrics, unit_digests(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, help="run length (default: run.py's)")
    parser.add_argument("--trace", action="store_true",
                        help="run traced and summarize the per-layer metrics, with no verdict")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    runs = {"base": [], "new": []}
    digests = {"base": {}, "new": {}}
    for i in range(args.pairs):
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        for side in order:
            metrics, units = run_once(getattr(args, side), args.workload, args.seconds, args.trace)
            runs[side].append(metrics)
            for k, seen in units.items():
                digests[side].setdefault(k, set()).update(seen)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    print(f"workload {args.workload}: base {args.base}, new {args.new}")
    print(compare_outputs(digests["base"], digests["new"]))
    print("\n".join(format_summary(summarize(runs["base"], runs["new"], metrics))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
