"""Fresh CLI processes, `-X importtime` parsing and start-up floors."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clichild.py")
PROCESS_TIMEOUT = 120


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli(root, argv, trace_path=None):
    """One CLI process; with `trace_path`, a traced child under -X importtime
    that writes its layer summary to that path. Returns (code, stdout, stderr)."""
    if trace_path is None:
        cmd = [sys.executable, "-m", "robust_orlicz.cli", *argv]
    else:
        cmd = [sys.executable, "-X", "importtime", CHILD, trace_path, *argv]
    p = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                       timeout=PROCESS_TIMEOUT)
    return p.returncode, p.stdout, p.stderr


def import_times(stderr_text):
    """Cumulative import seconds per top-level package: for each package,
    the sum over its import lines whose nearest importing module belongs
    to another package (so nested imports are not counted twice)."""
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|", 2)
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {}
    stack = []  # ancestors of the current line, read in reverse print order
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".", 1)[0]
        if not stack or stack[-1][1] != top:
            totals[top] = totals.get(top, 0.0) + cumulative
        stack.append((depth, top))
    return totals


def _median_wall(root, cmd, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                       timeout=PROCESS_TIMEOUT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _median_import(root, statement, package, repeats):
    vals = []
    for _ in range(repeats):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", statement], cwd=root,
                           env=child_env(root), capture_output=True, timeout=PROCESS_TIMEOUT,
                           check=True)
        vals.append(import_times(p.stderr.decode()))
    return {pkg: statistics.median(v.get(pkg, 0.0) for v in vals) for pkg in package}


def cli_floor_metrics(root, with_package=True, repeats=3):
    """Start-up floors per process: a bare interpreter and a numpy-only
    import; with `with_package`, also the CLI module's import and the
    share of it spent importing scipy."""
    out = {"cli.interpreter_s": (_median_wall(root, [sys.executable, "-c", "pass"], repeats),
                                 "s/process"),
           "cli.import_numpy_s": (_median_import(root, "import numpy", ["numpy"], repeats)["numpy"],
                                  "s/process")}
    if with_package:
        t = _median_import(root, "import robust_orlicz.cli", ["robust_orlicz", "scipy"], repeats)
        out["cli.import_s"] = (t["robust_orlicz"], "s/process")
        out["cli.import_scipy_s"] = (t["scipy"], "s/process")
    return out
