"""One workload process: set up, report ready, then run the timed phase.

Started by run.py, never by hand. The protocol on stdout is one line
"ready" once set-up (imports, input generation, model construction and one
warm-up op) is done, then, after "run" arrives on stdin, one JSON line with
the results. "exit" on stdin ends the process after set-up, which is how
run.py times set-up several times in one run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from importlib.metadata import version

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

import numpy as np  # noqa: E402

import robust_orlicz  # noqa: E402
import workloads  # noqa: E402
from calibrate import HostSampler  # noqa: E402
from clitools import cli_floor_metrics, import_times, run_cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CheckFailed  # noqa: E402

perf = time.perf_counter
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
LEDGER_CAP = 200
# cli-cold set-up is writing the JSON inputs, a fraction of a millisecond
# whose cost moves with the disk's other traffic within seconds: it is
# timed many times, spread over the whole run, and the median reported
WRITES_BEFORE_RUN = 21
WRITES_PER_PROCESS = 5


def tail_percentile(guaranteed_samples):
    """Highest ladder percentile with at least 10 samples beyond it in
    every run; runs make at least `guaranteed_samples` operations, so the
    percentile is the same in every run of a workload."""
    return [q for q in TAIL_LADDER if guaranteed_samples * (1.0 - q / 100.0) >= 10.0 - 1e-9][-1]


class Ledger:
    """Every failed operation: what raised or mismatched, and where."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.entries = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.inputs = {}

    def record(self, op, pass_index, err):
        self.failed += 1
        self.inputs.setdefault(str(op.index), op.inputs)
        if isinstance(err, CheckFailed):
            self.wrong += 1
        if len(self.entries) < LEDGER_CAP:
            self.entries.append({
                "workload": self.workload, "seed": self.seed, "instance": op.index,
                "pass": pass_index, "kind": op.kind, "exception": type(err).__name__,
                "message": str(err)})


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_passes(w, seconds, min_passes, ledger, tracer=None, max_passes=None):
    """Closed loop, one client: whole passes until `seconds` have passed
    and at least `min_passes` are done. Inputs are made and outputs
    checked between passes, outside the timing. Untraced passes sample the
    host speed; traced ones do not, so that spans hold only library work."""
    timing = Timing()
    sampler = HostSampler(w.calibration)
    deadline = perf() + seconds
    p = 0
    with contextlib.nullcontext() if tracer else sampler:
        while (p < min_passes or perf() < deadline) and (max_passes is None or p < max_passes):
            ops = w.ops(p)
            outs, spans = [], []
            for op in ops:
                if tracer is not None:
                    tracer.op = op.index
                t0 = perf()
                try:
                    out, err = op.run(), None
                except Exception as e:  # every failure goes to the ledger
                    out, err = None, e
                spans.append((t0, perf()))
                outs.append((out, err))
            ledger.attempted += len(ops)
            if tracer is not None:
                tracer.paused = True
            for op, (out, err) in zip(ops, outs):
                if err is None:
                    try:
                        op.check(out)
                    except Exception as e:
                        err = e if isinstance(e, CheckFailed) else CheckFailed(f"check raised {e!r}")
                if err is not None:
                    ledger.record(op, p, err)
            if tracer is not None:
                tracer.paused = False
            for t0, t1 in spans:  # after the checks, so that ticks follow the last op too
                timing.add(*(sampler.measure(t0, t1) if tracer is None else (t1 - t0, 1.0)))
            timing.end_pass()
            p += 1
    return timing


class Timing:
    """Operation latencies, raw and at the reference host speed, by pass."""

    def __init__(self):
        self.raw, self.ref = [], []
        self.pass_raw = self.pass_ref = 0.0
        self.pass_ops = 0
        self.rates_raw, self.rates_ref = [], []

    def add(self, seconds, speed=1.0):
        self.raw.append(seconds)
        self.ref.append(seconds * speed)
        self.pass_raw += seconds
        self.pass_ref += seconds * speed
        self.pass_ops += 1

    def end_pass(self):
        self.rates_raw.append(self.pass_ops / self.pass_raw)
        self.rates_ref.append(self.pass_ops / self.pass_ref)
        self.pass_raw = self.pass_ref = 0.0
        self.pass_ops = 0

    def summary(self, tail_q):
        """Median pass throughput, median and tail latency (reference
        speed), with the raw values alongside."""
        out = {"passes": len(self.rates_ref), "samples": len(self.ref), "tail_percentile": tail_q}
        for key, lat, rates in (("", self.ref, self.rates_ref), ("raw_", self.raw, self.rates_raw)):
            lat = np.asarray(lat)
            tail = float(np.percentile(lat, tail_q))
            out[key + "ops_per_s"] = float(np.median(rates))
            out[key + "latency_p50_ms"] = float(np.percentile(lat, 50.0)) * 1e3
            out[key + "latency_tail_ms"] = tail * 1e3
            out[key + "tail_samples_beyond"] = int(np.sum(lat > tail))
        return out


# -- library workloads ------------------------------------------------------


def library_main(args, w):
    w.build()
    ops = w.ops()
    warm = ops[0]
    try:
        warm.run()
    except Exception:  # a failing op is still a warm-up; the timed phase records it
        pass
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return None
    ledger = Ledger(w.name, args.seed)
    tail_q = tail_percentile(w.min_passes * len(ops))
    if not args.trace:
        res = run_passes(w, args.seconds, w.min_passes, ledger).summary(tail_q)
        res["peak_rss_mb"] = peak_rss_mb()
        res["calibrated"] = True
        return finish(w, ledger, res)

    untraced = float(np.median(run_passes(w, args.seconds / 2.0, 1, ledger).rates_raw))
    tracer = Tracer()
    tracer.install()
    try:
        w.build()
        traced = float(np.median(run_passes(w, 0.0, w.trace_passes, ledger, tracer=tracer,
                                            max_passes=w.trace_passes).rates_raw))
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    layers.update(cli_floor_metrics(ROOT))
    layers["cli.compute_s"] = (0.0, "s")
    layers["trace_overhead"] = (untraced / traced, "ratio")
    spans = os.path.join(args.out_dir, "spans.npz")
    tracer.dump(spans)
    res = {"layers": layers, "untraced_ops_per_s": untraced, "traced_ops_per_s": traced,
           "spans": f"{tracer.n_spans()} spans in {os.path.relpath(spans, ROOT)}"}
    return finish(w, ledger, res)


# -- cli-cold ------------------------------------------------------------------


class CliState:
    """Reports seen per (model, command), to compare repeated processes,
    and the times of writing the JSON inputs."""

    def __init__(self, w, ledger):
        self.w, self.ledger = w, ledger
        self.write_s = []
        self.reports = {}
        self.seen = {}
        self.import_s, self.import_scipy_s = [], []
        self.n_traced = 0

    def write_inputs(self, repeats):
        """Write the inputs `repeats` times, each time into new files: a
        user writes new files, and rewriting existing ones on ext4 adds a
        flush on close whose cost varies with the disk's other traffic."""
        for _ in range(repeats):
            self.w.remove_inputs()
            t0 = perf()
            self.w.write_inputs()
            self.write_s.append(perf() - t0)

    def run_pass(self, p, argvs, timing=None, trace_dir=None, writes=0):
        """One process per (model, command), each preceded by `writes`
        timed writes of the inputs; then exit codes and reports checked."""
        runs = []
        for m, command, argv in argvs:
            self.write_inputs(writes)
            path = None
            if trace_dir is not None:
                path = os.path.join(trace_dir, f"child{self.n_traced:03d}.json")
                self.n_traced += 1
            t0 = perf()
            rc, out, err = run_cli(ROOT, argv, trace_path=path)
            elapsed = perf() - t0
            if timing is not None:
                timing.add(elapsed)
            runs.append((m, command, argv, rc, out, err))
        if timing is not None:
            timing.end_pass()
        for m, command, argv, rc, out, err in runs:
            self.ledger.attempted += 1
            op = workloads.Op(m * len(self.w.commands) + self.w.commands.index(command),
                              command, None, None, {"argv": argv})
            if trace_dir is not None:
                t = import_times(err.decode(errors="replace"))
                self.import_s.append(t.get("robust_orlicz", 0.0))
                self.import_scipy_s.append(t.get("scipy", 0.0))
            if rc != 0:
                tail = err.decode(errors="replace").strip().splitlines()[-1:]
                self.ledger.record(op, p, RuntimeError(f"exit code {rc}: {tail}"))
                continue
            key = (m, command)
            if key in self.reports and self.reports[key] != out:
                self.ledger.record(op, p, CheckFailed(
                    "report differs from an earlier process with the same inputs"))
            self.reports.setdefault(key, out)
            self.seen[key] = self.seen.get(key, 0) + 1

    def compare_singletons(self, p):
        """A report seen once is compared with one more, untimed, process."""
        for (m, command), n in list(self.seen.items()):
            if n == 1:
                self.run_pass(p, [(m, command, self.w.argv(m, command))])


def cli_main(args, w):
    ledger = Ledger(w.name, args.seed)
    state = CliState(w, ledger)
    state.write_inputs(WRITES_BEFORE_RUN)
    timing = Timing()
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    min_passes = 1 if args.trace else w.min_passes
    deadline = perf() + seconds
    p = 0
    while p < min_passes or perf() < deadline:
        state.run_pass(p, w.pass_argvs(p), timing,
                       writes=0 if args.trace else WRITES_PER_PROCESS)
        p += 1
    if not args.trace:
        state.compare_singletons(p)
        res = timing.summary(tail_percentile(w.min_passes * len(w.commands)))
        res["setup_s"] = float(np.median(state.write_s))
        res["calibrated"] = False
        res["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
        return finish(w, ledger, res)

    untraced = float(np.median(timing.rates_raw))
    trace_dir = os.path.join(args.out_dir, "children")
    os.makedirs(trace_dir, exist_ok=True)
    traced_timing = Timing()
    for q in range(w.trace_passes):
        state.run_pass(p + q, w.pass_argvs(q), traced_timing, trace_dir=trace_dir)
    state.compare_singletons(p + w.trace_passes)
    tracer = Tracer()
    compute = 0.0
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as f:
                child = json.load(f)
            tracer.merge(child["state"])
            compute += child["compute_s"]
    layers = tracer.layer_metrics()
    layers.update(cli_floor_metrics(ROOT, with_package=False))
    layers["cli.import_s"] = (float(np.median(state.import_s)), "s/process")
    layers["cli.import_scipy_s"] = (float(np.median(state.import_scipy_s)), "s/process")
    layers["cli.compute_s"] = (compute, "s")
    traced = float(np.median(traced_timing.rates_raw))
    layers["trace_overhead"] = (untraced / traced, "ratio")
    res = {"layers": layers, "untraced_ops_per_s": untraced, "traced_ops_per_s": traced,
           "spans": f"{state.n_traced} processes' spans in "
                    f"{os.path.relpath(trace_dir, ROOT)}/child*.npz"}
    return finish(w, ledger, res)


def finish(w, ledger, res):
    props = w.properties()
    props["infinite_norm_share"] = (round(w.norms_infinite / w.norms_checked, 4)
                                    if w.norms_checked else None)
    props["environment"] = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))}
    res.update(workload=w.name, seed=w.seed, why=w.why, attempted=ledger.attempted,
               failed=ledger.failed, wrong=ledger.wrong, ledger=ledger.entries,
               failed_inputs=ledger.inputs, properties=props)
    return res


def replay(w, index):
    """Run one operation once and show its outcome, traceback included."""
    if isinstance(w, workloads.CliCold):
        w.write_inputs()
        m, command = divmod(index, len(w.commands))
        argv = w.argv(m, w.commands[command])
        rc, out, err = run_cli(ROOT, argv)
        print("argv:", " ".join(argv))
        print(out.decode(), err.decode(), f"exit code {rc}", sep="\n")
        return rc
    w.build()
    p, i = divmod(index, len(w.ops(0)))
    op = w.ops(p)[i]
    print(json.dumps(op.inputs))
    try:
        op.check(op.run())
    except Exception:
        traceback.print_exc()
        return 1
    print("ok")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--replay", type=int)
    args = ap.parse_args()
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(robust_orlicz.__file__).startswith(src + os.sep):
        raise SystemExit(f"robust_orlicz was imported from {robust_orlicz.__file__}, not {src}")
    w = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    if args.replay is not None:
        sys.exit(replay(w, args.replay))
    res = cli_main(args, w) if args.workload == "cli-cold" else library_main(args, w)
    if res is not None:
        print(json.dumps(res), flush=True)


if __name__ == "__main__":
    main()
