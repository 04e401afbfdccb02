"""Spans and counts at the boundaries of the mirrormotion layers.

The tracer wraps public functions of `model`, `probe`, `sim`, `est` and `cli`
from outside the package: each name is patched where its caller looks it up
(`sim` and `est` import `measurement_noise_psd` by name, `cli` calls through
`sim.`/`est.` attributes).  `uninstall` restores every original object.

A span is (sid, parent sid, name, start, end, size); `size` is the work count
of the call where one exists (points of a transfer-function evaluation).  An
event is (name, parent sid, value) for counts that need no timing (rfft
lengths, payload bytes).  Only the tracing process records: forked pool
workers inherit the wrappers, but what they record stays in the worker, so
on a pool the per-trial layers are not seen and the parent counts what the
pool returns.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import os
import resource
import statistics
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np
import scipy.fft

from mirrormotion import cli, est, model, probe, sim

MODULES = ("model", "probe", "sim", "est", "cli")


def _children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _owned_bytes(arrays) -> int:
    """Bytes of the objects that own the memory the given arrays view (an
    array, or the bytes an unpickled array was made from)."""
    owners = {}
    for a in arrays:
        base = a if a.base is None else a.base
        owners[id(base)] = memoryview(base).nbytes
    return sum(owners.values())


class Tracer:
    def __init__(self):
        self.spans = []
        self.events = []
        self._stack = []
        self._sids = itertools.count(1)
        self._undo = []

    # -- recording ---------------------------------------------------------

    def event(self, name: str, value) -> None:
        self.events.append((name, self._stack[-1] if self._stack else 0, value))

    def wrap(self, name, fn, size=None, post=None):
        """Span around `fn`; `name` may be a function of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else 0
            sid = next(tracer._sids)
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                label = name(args) if callable(name) else name
                tracer.spans.append((sid, parent, label, t0, t1, size(args) if size else None))
            if post is not None:
                post(out)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _patch_classmethod(self, cls, attr, name) -> None:
        self._patch(cls, attr, classmethod(self.wrap(name, vars(cls)[attr].__func__)))

    def install(self) -> None:
        w = self.wrap
        noise_psd = w("probe.measurement_noise_psd", probe.measurement_noise_psd)
        for mod in (probe, sim, est):
            self._patch(mod, "measurement_noise_psd", noise_psd)
        flux_psd = w("probe.photon_flux_psd_broadband", probe.photon_flux_psd_broadband)
        for mod in (probe, est):
            self._patch(mod, "photon_flux_psd_broadband", flux_psd)
        self._patch(probe, "effective_squeezing_factor",
                    w("probe.effective_squeezing_factor", probe.effective_squeezing_factor))

        for cls in (model.NominalTransferFunction, model.TabulatedTransferFunction):
            self._patch(cls, "__call__", w("model.tf", cls.__call__, size=lambda a: np.size(a[1])))
        self._patch(model, "prior_psd", w("model.prior_psd", model.prior_psd))
        self._patch(model.PriorModel, "information_kernel",
                    w("model.information_kernel", model.PriorModel.information_kernel))

        for name in ("trial_rng", "simulate_ou", "mirror_response", "calibrate_tracking"):
            self._patch(sim, name, w(f"sim.{name}", getattr(sim, name)))
        self._patch(sim, "run_tracking",
                    w(lambda a: f"sim.run_tracking.{a[3].mode}", sim.run_tracking))
        self._patch(sim, "simulate_trial",
                    w("sim.simulate_trial", sim.simulate_trial, post=self._on_trajectory))
        self._patch(sim.KalmanTracker, "__init__", w("sim.KalmanTracker", sim.KalmanTracker.__init__))

        for name in ("analytic_mmse", "qcrb", "smooth", "empirical_mse"):
            self._patch(est, name, w(f"est.{name}", getattr(est, name)))
        self._patch_classmethod(est.SpectralGrid, "build", "est.SpectralGrid.build")
        self._patch(est.SpectralGrid, "doubled", w("est.SpectralGrid.doubled", est.SpectralGrid.doubled))
        self._patch_classmethod(est.FilterBank, "build", "est.FilterBank.build")

        for name in ("cmd_sweep", "cmd_bounds", "cmd_simulate", "run_sweep_point"):
            self._patch(cli, name, w(f"cli.{name}", getattr(cli, name)))
        self._patch(cli, "_score_trials",
                    w("cli._score_trials", cli._score_trials, post=self._on_payloads))
        self._patch(cli, "ProcessPoolExecutor", self._pool_class())

        rfft = scipy.fft.rfft

        @functools.wraps(rfft)
        def counted_rfft(x, n=None, axis=-1, *args, **kwargs):
            self.event("scipy.fft.rfft", int(n) if n is not None else np.shape(x)[axis])
            return rfft(x, n, axis, *args, **kwargs)

        self._patch(scipy.fft, "rfft", counted_rfft)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- hooks -------------------------------------------------------------

    def _on_trajectory(self, traj) -> None:
        self.event("cli.scored_fraction", traj.n_data / traj.t.size)
        self.event("sim.diverged", int(traj.diverged))

    def _on_payloads(self, results) -> None:
        """Counts one kept trial of a `cli._score_trials` result: serial, the
        result as computed; on a pool, as the parent received it."""
        idx, payload = next(((i, p) for i, p in results.items() if p is not None), (0, None))
        if payload is None:
            return
        # bytes a pool worker sends back for this trial
        self.event("cli.payload_bytes", len(ForkingPickler.dumps({idx: payload})))
        arrays = [a for x in ("q", "p", "f") for a in payload[x]]
        self.event("cli.retained_bytes", _owned_bytes(arrays))

    def _pool_class(self):
        tracer = self

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._n_workers = max_workers or os.cpu_count()
                tracer.event("cli.pool", self._n_workers)

            def map(self, fn, *iterables, **kwargs):
                for part in super().map(fn, *iterables, **kwargs):
                    tracer._on_payloads(part)
                    yield part

            def __enter__(self):
                self._t0, self._cpu0 = time.perf_counter(), _children_cpu_s()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.event("cli.pool.cpu_s", _children_cpu_s() - self._cpu0)
                    tracer.event("cli.pool.capacity_s",
                                 (time.perf_counter() - self._t0) * self._n_workers)

        return CountingPool

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "events": self.events}))


def without_pauses(spans, pauses) -> list:
    """The spans with each one's end moved back by the time of the pauses
    inside it, so durations leave out work the benchmark itself did there
    (the speed probes).  `pauses` are disjoint (start, end) pairs in order;
    a pause runs on the traced thread, so it lies wholly inside or outside
    a span."""
    starts = [a for a, _ in pauses]
    ends = [b for _, b in pauses]
    paused = [0.0, *itertools.accumulate(b - a for a, b in pauses)]
    out = []
    for sid, parent, name, t0, t1, size in spans:
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_right(ends, t1)
        out.append((sid, parent, name, t0, t1 - paused[max(hi, lo)] + paused[lo], size))
    return out


def self_times(spans) -> dict:
    """Self time per span name: its duration less that of its children."""
    child_time = defaultdict(float)
    for _, parent, _, t0, t1, _ in spans:
        child_time[parent] += t1 - t0
    out = defaultdict(float)
    for sid, _, name, t0, t1, _ in spans:
        out[name] += (t1 - t0) - child_time[sid]
    return out


# name -> unit, better; every traced run reports all of them (0 when the
# workload does not reach the layer)
LAYER_METRICS = {
    "sim.mirror_response.ms": ("ms", "lower"),
    "sim.mirror_response.fft_len": ("count", "lower"),
    "model.tf.points_per_trial": ("count", "lower"),
    "model.tf.ms": ("ms", "lower"),
    "est.smooth.ms": ("ms", "lower"),
    "est.smooth.rfft_per_trial": ("count", "lower"),
    "sim.trial_rng.ms": ("ms", "lower"),
    "sim.simulate_ou.ms": ("ms", "lower"),
    "sim.run_tracking.linearized.ms": ("ms", "lower"),
    "sim.run_tracking.nonlinear.ms": ("ms", "lower"),
    "sim.calibrate_tracking.ms": ("ms", "lower"),
    "sim.KalmanTracker.builds": ("count", "lower"),
    "est.analytic_mmse.ms": ("ms", "lower"),
    "est.qcrb.ms": ("ms", "lower"),
    "est.SpectralGrid.doubled.calls": ("count", "lower"),
    "est.SpectralGrid.build.ms": ("ms", "lower"),
    "est.FilterBank.build.ms": ("ms", "lower"),
    "est.empirical_mse.ms": ("ms", "lower"),
    "cli.payload_bytes_per_trial": ("B", "lower"),
    "cli.retained_bytes_per_trial": ("B", "lower"),
    "cli.scored_fraction": ("1", "higher"),
    "cli.pools_created": ("count", "lower"),
    "cli.pool.cpu_util": ("1", "higher"),
    "cli.run_sweep_point.self_s": ("s", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "sim.diverged_trials": ("count", "lower"),
    "trace_overhead_ratio": ("1", "lower"),
}


def layer_metrics(spans, events, n_ops: int, pauses=()) -> dict:
    """Per-layer numbers from one traced run.

    `.ms` is the median duration per call.  Per-trial counts divide by the
    `sim.simulate_trial` spans; `KalmanTracker.builds`, `doubled.calls` and
    `pools_created` are per cell (`cli.run_sweep_point`) or bounds pass
    (`cli.cmd_bounds`); `.self_s` is self time per workload operation (trial
    or bound point).  Span times leave out the `pauses` (see without_pauses).
    """
    spans = without_pauses(spans, pauses)
    durations = defaultdict(list)
    name_of = {}
    for sid, _, name, t0, t1, _ in spans:
        durations[name].append(t1 - t0)
        name_of[sid] = name
    by_event = defaultdict(list)
    for name, parent, value in events:
        by_event[name, None].append(value)
        if parent in name_of:
            by_event[name, name_of[parent]].append(value)

    def ms(name):
        return 1e3 * statistics.median(durations[name]) if durations[name] else 0.0

    def median_event(name, parent=None):
        values = by_event[name, parent]
        return float(statistics.median(values)) if values else 0.0

    def per(count, base):
        return count / base if base else 0.0

    trials = len(durations["sim.simulate_trial"])
    cells = len(durations["cli.run_sweep_point"]) + len(durations["cli.cmd_bounds"])
    tf_points = sum(
        size for _, parent, name, _, _, size in spans
        if name == "model.tf" and name_of.get(parent) == "sim.mirror_response"
    )
    capacity = sum(by_event["cli.pool.capacity_s", None])
    self_s = self_times(spans)
    module_self = defaultdict(float)
    for name, value in self_s.items():
        module_self[name.split(".", 1)[0]] += value

    out = {
        "sim.mirror_response.ms": ms("sim.mirror_response"),
        "sim.mirror_response.fft_len": median_event("scipy.fft.rfft", "sim.mirror_response"),
        "model.tf.points_per_trial": per(tf_points, trials),
        "model.tf.ms": ms("model.tf"),
        "est.smooth.ms": ms("est.smooth"),
        "est.smooth.rfft_per_trial": per(len(by_event["scipy.fft.rfft", "est.smooth"]), trials),
        "sim.trial_rng.ms": ms("sim.trial_rng"),
        "sim.simulate_ou.ms": ms("sim.simulate_ou"),
        "sim.run_tracking.linearized.ms": ms(f"sim.run_tracking.{sim.MODE_LINEARIZED}"),
        "sim.run_tracking.nonlinear.ms": ms(f"sim.run_tracking.{sim.MODE_NONLINEAR}"),
        "sim.calibrate_tracking.ms": ms("sim.calibrate_tracking"),
        "sim.KalmanTracker.builds": per(len(durations["sim.KalmanTracker"]), cells),
        "est.analytic_mmse.ms": ms("est.analytic_mmse"),
        "est.qcrb.ms": ms("est.qcrb"),
        "est.SpectralGrid.doubled.calls": per(len(durations["est.SpectralGrid.doubled"]), cells),
        "est.SpectralGrid.build.ms": ms("est.SpectralGrid.build"),
        "est.FilterBank.build.ms": ms("est.FilterBank.build"),
        "est.empirical_mse.ms": ms("est.empirical_mse"),
        "cli.payload_bytes_per_trial": median_event("cli.payload_bytes"),
        "cli.retained_bytes_per_trial": median_event("cli.retained_bytes"),
        "cli.scored_fraction": median_event("cli.scored_fraction"),
        "cli.pools_created": per(len(by_event["cli.pool", None]), cells),
        "cli.pool.cpu_util": per(sum(by_event["cli.pool.cpu_s", None]), capacity),
        "cli.run_sweep_point.self_s": per(self_s["cli.run_sweep_point"], n_ops),
        **{f"{m}.self_s": per(module_self[m], n_ops) for m in MODULES},
        "sim.diverged_trials": float(sum(by_event["sim.diverged", None])),
    }
    return out
