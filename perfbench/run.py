"""Benchmark of robust_orlicz: library calls and cold CLI processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src, never from site-packages). Workloads, why each was chosen and the
metrics are listed in BENCHMARK.json; the inputs come from --seed.

--trace 0 measures the end-to-end metrics: set-up is timed in five fresh
processes (median), then the last one runs whole passes over the
workload's operations in a closed loop with one client for --seconds
(and at least the workload's minimum number of passes); every output is
checked against a reference that does not go through the code under test.
Times of the library workloads' operations are reported at a reference
host speed (see calibrate.py), with the raw times printed above the
result; set-up and cli-cold times are reported raw.

--trace 1 prints the per-layer metrics instead: untraced passes for half
of --seconds, then one traced set-up and a fixed number of traced passes,
so that counts repeat exactly at a fixed seed; times are self times over
that traced work, and trace_overhead is untraced over traced ops_per_s.

The last line of stdout is one JSON object with correct, attempted,
failed and metrics. Failed operations are listed above it and written,
with their inputs, to .perfbench-out/<run>/ledger.json; `--replay I`
reruns instance I of the workload at --seed once, with its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("small-mix", "large-models", "projection", "cli-cold")
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


class Worker:
    """A worker process speaking the ready/run/exit protocol of worker.py."""

    def __init__(self, args, out_dir, deadline):
        self.deadline = deadline
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", out_dir]
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        # a worker that hangs before it is ready is killed at the deadline
        self.watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()

    def wait_ready(self):
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.finish("exit")
            fail(f"worker did not get ready (said {line.strip()!r})")
        return time.perf_counter() - self.t0

    def finish(self, command):
        try:
            out, _ = self.proc.communicate(command + "\n",
                                           timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            fail("worker ran past the deadline")
        finally:
            self.watchdog.cancel()
        if self.proc.returncode != 0:
            fail(f"worker exited with code {self.proc.returncode}")
        return out


def run_worker(args, out_dir):
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.workload == "cli-cold":
        out = Worker(args, out_dir, deadline).finish("")
        return json.loads(out.strip().splitlines()[-1])
    setups = []
    repeats = 1 if args.trace else SETUP_REPEATS
    for i in range(repeats):
        w = Worker(args, out_dir, deadline)
        setups.append(w.wait_ready())
        if i < repeats - 1:
            w.finish("exit")
    res = json.loads(w.finish("run").strip().splitlines()[-1])
    res["setup_s"] = statistics.median(setups)
    return res


def report(args, res, out_dir):
    attempted, failed = res["attempted"], res["failed"]
    say = lambda *a: print(*a, flush=True)  # noqa: E731
    say(f"# workload {res['workload']}  seed {res['seed']}  trace {args.trace}")
    say(f"#   why: {res['why']}")
    env = res["properties"].pop("environment")
    say(f"#   environment: {json.dumps(env, sort_keys=True)}")
    for key, value in res["properties"].items():
        say(f"#   {key}: {json.dumps(value, sort_keys=True)}")
    say(f"#   attempted {attempted}  failed {failed}  (wrong outputs {res['wrong']})"
        f"  failure_rate {failed / attempted:.6g}")
    groups = {}
    for e in res["ledger"]:
        key = (e["instance"], e["kind"], e["exception"], e["message"])
        groups[key] = groups.get(key, 0) + 1
    for (inst, kind, exc, msg), n in sorted(groups.items()):
        say(f"#   FAILED instance {inst} ({kind}) x{n}: {exc}: {msg[:300]}")
    if groups:
        say(f"#   ledger: {os.path.relpath(os.path.join(out_dir, 'ledger.json'))};"
            f" reproduce with: python3 perfbench/run.py --workload {res['workload']}"
            f" --seed {res['seed']} --replay INSTANCE")
    with open(os.path.join(out_dir, "ledger.json"), "w") as f:
        json.dump({"entries": res["ledger"], "inputs": res["failed_inputs"]}, f, indent=1)

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
        say(f"#   traced {res['traced_ops_per_s']:.6g} ops/s vs untraced "
            f"{res['untraced_ops_per_s']:.6g} ops/s")
        say(f"#   {res['spans']}")
    else:
        metrics = {
            "ops_per_s": {"value": res["ops_per_s"], "unit": "ops/s"},
            "latency_p50_ms": {"value": res["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": res["latency_tail_ms"], "unit": "ms"},
            "success_rate": {"value": 1.0 - failed / attempted, "unit": "fraction"},
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        say(f"#   {res['passes']} passes, {res['samples']} timed ops; latency_tail_ms is"
            f" p{res['tail_percentile']:g} with {res['tail_samples_beyond']} samples beyond it")
        if res["calibrated"]:
            say("#   operation times below are at the reference host speed (see"
                " perfbench/calibrate.py); raw: " + ", ".join(
                    f"{k} {res['raw_' + k]:.6g}"
                    for k in ("ops_per_s", "latency_p50_ms", "latency_tail_ms")))
    for name, m in metrics.items():
        say(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["wrong"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", type=int, metavar="INSTANCE",
                    help="rerun one operation of the workload once and show its outcome")
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "robust_orlicz", "__init__.py")):
        fail("run from the root of a robust_orlicz checkout (no src/robust_orlicz here)")
    run_name = "replay" if args.replay is not None else f"seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(root, ".perfbench-out", f"{args.workload}-{run_name}")
    os.makedirs(out_dir, exist_ok=True)
    if args.replay is not None:
        sys.exit(subprocess.call([sys.executable, os.path.join(HERE, "worker.py"),
                                  "--workload", args.workload, "--seed", str(args.seed),
                                  "--seconds", "0", "--out-dir", out_dir,
                                  "--replay", str(args.replay)]))
    res = run_worker(args, out_dir)
    report(args, res, out_dir)


if __name__ == "__main__":
    main()
