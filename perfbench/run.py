"""Benchmark of the mirrormotion Monte Carlo toolkit.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The program runs from `src/` as it stands (no
install).  Every child process gets one BLAS/OpenMP thread, so the 2-worker
sweep uses no more threads than a 2-core machine has.

With `--trace 0` it measures the end-to-end metrics:
  ops_per_s    trials (sweeps, nonlinear cell) or bound points per second of
               timed units, set-up and warm-up excluded, each unit's wall time
               rescaled to the reference CPU speed (see speed.py)
  setup_s      median over SETUP_PROBES fresh interpreters of importing
               mirrormotion, building the reference config and priors, and
               est.SpectralGrid.build, rescaled to the reference CPU speed
  peak_rss_mb  peak resident memory of the workload's process tree (10^6 B),
               pool workers included (see TreeMemory)
  ok_ratio     operations that did not fail / operations attempted
With `--trace 1` it reports the per-layer metrics of layers.LAYER_METRICS.

The last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  The exit code is 1 when an output check fails, 2 when the
program cannot be run from the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
POLL_S = 0.05
CHILD_GRACE_S = 120  # time a workload may run past --seconds before it is killed
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOADS = ("sweep_acceptance", "sweep_parallel", "cell_nonlinear", "bounds")
E2E_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


class TreeMemory:
    """Peak resident memory of a process tree, polled from /proc.

    Each poll sums the high-water marks (VmHWM) of the live processes, and
    `peak` is the largest sum seen.  Per-process peaks are exact, where a
    sampled sum of current sizes would depend on when each pool worker frees
    its arrays; pages a forked worker still shares with its parent count in
    both.
    """

    def __init__(self, root: int):
        self.root = root
        self.peak = 0

    @staticmethod
    def _hwm(pid: int) -> int:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
        return 0

    def poll(self) -> None:
        total, stack = 0, [self.root]
        while stack:
            pid = stack.pop()
            try:
                total += self._hwm(pid)
                for task in os.listdir(f"/proc/{pid}/task"):
                    stack += map(int, Path(f"/proc/{pid}/task/{task}/children").read_text().split())
            except (FileNotFoundError, ProcessLookupError, ValueError):
                continue
        self.peak = max(self.peak, total)


def measure_setup(env) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout.split()[0]))
    return statistics.median(times)


def run_workload(args, env, out_dir: Path) -> tuple[dict, TreeMemory]:
    """Run the workload child; returns its record and its tree's memory."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out_dir),
    ]
    deadline = time.monotonic() + args.seconds + CHILD_GRACE_S
    with subprocess.Popen(cmd, env=env) as proc:
        memory = TreeMemory(proc.pid)
        try:
            while proc.poll() is None:
                memory.poll()
                if time.monotonic() > deadline:
                    raise TimeoutError(f"workload ran past {args.seconds + CHILD_GRACE_S} s")
                time.sleep(POLL_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads((out_dir / "workload.json").read_text()), memory


def git_revision():
    if not Path(".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mirrormotion benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=424242)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not Path("src/mirrormotion/__init__.py").is_file():
        print("perfbench: run from the repository root (src/mirrormotion not found)", file=sys.stderr)
        return 2

    # a terminated launcher still stops its workload (see run_workload)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    out_dir = Path(".perfbench_out") / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_s = None if args.trace else measure_setup(env)
    record, memory = run_workload(args, env, out_dir)

    attempted, failed = record["attempted"], record["failed"]
    if args.trace:
        metrics = record["metrics"]
    else:
        values = {
            "ops_per_s": record["metrics"]["ops_per_s"],
            "setup_s": setup_s,
            "peak_rss_mb": memory.peak / 1e6,
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    correct = not record["errors"]
    machine = {"nproc": len(os.sched_getaffinity(0)), **record["versions"], "git": git_revision()}
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "units": record["n_units"], "machine": machine,
        "errors": record["errors"], "correct": correct,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "wall_ops_per_s": record["wall_ops_per_s"],
    }
    (out_dir / "result.json").write_text(json.dumps(summary, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['n_units']} units, {record['wall_ops_per_s']:.6g} ops per wall second, "
          f"machine {json.dumps(machine)}")
    for error in record["errors"]:
        print(f"CHECK FAILED {error}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
