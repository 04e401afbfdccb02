"""Run the benchmark several times per workload and write BENCH_<label>.json.

    python3 perfbench/baseline.py --label baseline

Run from the repository root.  Every workload of BENCHMARK.json runs once per
seed 1..RUNS at BENCHMARK.json's run length (workloads interleaved, so slow
drift of the machine spreads over all of them), then once traced at the
reference seed.  For every end-to-end metric the file holds the values, the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median; a performance claim compares two such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 424242
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} printed no result:\n{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = out.returncode
    return result


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, RUNS + 1))
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            t0 = time.monotonic()
            result = run_once(w, seed, seconds, 0)
            runs[w].append(result)
            print(f"{w} seed {seed} ({time.monotonic() - t0:.1f} s): correct={result['correct']} " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)

    report = {"label": args.label, "seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for w in workloads:
        traced = run_once(w, REFERENCE_SEED, seconds, 1)
        saved = Path(".perfbench_out") / f"{w}-seed{REFERENCE_SEED}-trace1" / "result.json"
        report["machine"] = json.loads(saved.read_text())["machine"]
        entry = {
            "all_correct": all(r["correct"] and r["exit_code"] == 0 for r in runs[w] + [traced]),
            "end_to_end": {},
            "per_layer": traced["metrics"],
        }
        ok = ok and entry["all_correct"]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in runs[w]])
            entry["end_to_end"][name] = {"unit": metric["unit"], "bound": metric["bound"], **stats}
            flag = "" if name == "setup_s" or stats["spread"] < metric["bound"] / 3 else "  <-- wide"
            print(f"{w:18s} {name:12s} median {stats['median']:.6g} {metric['unit']:4s} "
                  f"spread {stats['spread']:.4f} (bound {metric['bound']}){flag}")
        report["workloads"][w] = entry

    (HERE / f"BENCH_{args.label}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
