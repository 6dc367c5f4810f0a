"""powcov benchmark: time the `powcov` command as users run it.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 30 --trace 0

Run from anywhere; it works on the checkout it sits in.  Each timed pass is
a new process, `python -m powcov ...` with this checkout's src/ on
PYTHONPATH and HOME and POWCOV_CACHE_DIR pointed at a fresh directory under
.perfbench_work/, so no user cache and no in-process memo carries over
between passes.  No tuning flag is passed: the defaults, including the
4-thread sweep pool, are what is measured.  The load is a closed loop with
one client: passes run one after another, at least one, until the next
would overrun --seconds.  wall_s is the fastest pass of the run: on a shared
machine, noise only ever slows a pass down (README.md has the figures).

Workloads (perfbench/README.md says why each was chosen):
  sweep-cold  `powcov sweep` over the 60 built-in groups of order <= 64,
              empty cache
  sweep-warm  the same sweep against the cache a cold pass left in set-up
  tower       `powcov verify main-theorem --max-n 6`, dihedral order 8..128
The seed shuffles the catalog order (seed 0 keeps the built-in order); it
reaches the program only through the generated --catalog file.  The tower
has no input to shuffle.

Every pass's answers go through gate.py.  With --trace 0 the last line
reports wall_s, setup_s and peak_rss_mb.  With --trace 1 the same untraced
passes run, then one pass under traced_pass.py, and the last line reports
the per-layer metrics.  The line before the last records the machine,
versions, commit and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("sweep-cold", "sweep-warm", "tower")
SWEEP_MAX_ORDER = 64
SETUP_REPEATS = 5
RUN_LIMIT_S = 150.0  # start no further pass past this; a run must end within 180 s
PASS_TIMEOUT_S = 170.0

START = time.perf_counter()


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, hung pass)."""


@dataclass
class Pass:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    home: str


def isolated_env(home: str) -> dict:
    env = dict(os.environ)
    env.pop("POWCOV_MAX_ORDER", None)
    env["HOME"] = home
    env["POWCOV_CACHE_DIR"] = os.path.join(home, "cache")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_pass(work: str, make_command: Callable[[str], List[str]],
             cache_from: Optional[str] = None) -> Pass:
    """Run one process in a fresh HOME directory; time it from spawn to exit
    and take its own peak RSS from wait4."""
    home = tempfile.mkdtemp(prefix="pass-", dir=work)
    if cache_from is not None:
        shutil.copytree(cache_from, os.path.join(home, "cache"))
    command = make_command(home)
    out_path = os.path.join(home, "stdout.txt")
    with open(out_path, "wb") as out, open(os.path.join(home, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, cwd=home, env=isolated_env(home), stdout=out, stderr=err)
        timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the pass before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # wait4 reaped it; keep Popen from waiting again
    if code < 0:
        raise BenchError(f"{' '.join(command[1:])}: ended by signal {-code}")
    with open(out_path) as fh:
        stdout = fh.read()
    return Pass(wall, usage.ru_maxrss / 1024.0, code, stdout, home)


class Workload:
    """Set-up, the command line of one pass, and the gate for its output."""

    def __init__(self, name: str, seed: int, work: str, reference: dict):
        self.name = name
        self.work = work
        self.reference = reference
        ids = [gid for gid, ref in reference.items() if ref["order"] <= SWEEP_MAX_ORDER]
        if seed:
            random.Random(seed).shuffle(ids)
        self.catalog_ids = ids
        self.catalog_path = os.path.join(work, "catalog.txt")
        self.cache_from: Optional[str] = None
        self.numpy_version = ""
        self.fill: Optional[Pass] = None

    def powcov_args(self, home: str) -> List[str]:
        if self.name == "tower":
            return ["verify", "main-theorem", "--max-n", str(gate.TOWER_MAX_N)]
        return ["sweep", "--catalog", self.catalog_path, "--out", os.path.join(home, "report.csv")]

    def run(self, summary: Optional[str] = None) -> Pass:
        """One untraced pass, or a traced one writing its summary there."""
        if summary is None:
            prefix = [sys.executable, "-m", "powcov"]
        else:
            prefix = [sys.executable, os.path.join(HERE, "traced_pass.py"), summary, "--"]
        return run_pass(self.work, lambda home: prefix + self.powcov_args(home), self.cache_from)

    def check(self, p: Pass) -> gate.Outcome:
        if self.name == "tower":
            return gate.check_tower(p.stdout, p.returncode)
        try:
            with open(os.path.join(p.home, "report.csv")) as fh:
                text = fh.read()
        except FileNotFoundError:
            text = ""
        attempted, failed, problems = gate.check_sweep_csv(text, self.catalog_ids, self.reference)
        if p.returncode != 0:
            problems.append(f"sweep exited {p.returncode}")
            failed = attempted
        return attempted, failed, problems

    def _prepare(self) -> None:
        with open(self.catalog_path, "w") as fh:
            fh.writelines(f"{gid} {gid}\n" for gid in self.catalog_ids)
        # One import compiles src/ to bytecode and pages the interpreter and
        # numpy in: a one-off cost that users do not pay on every run.
        probe = subprocess.run(
            [sys.executable, "-c", "import numpy, powcov.cli; print(numpy.__version__)"],
            cwd=self.work, env=isolated_env(self.work), capture_output=True, text=True,
            timeout=60,
        )
        if probe.returncode != 0:
            raise BenchError(f"cannot import powcov from {SRC}: {probe.stderr.strip()}")
        self.numpy_version = probe.stdout.strip()

    def setup(self) -> float:
        """Median of SETUP_REPEATS light set-ups, plus, for sweep-warm, the
        one cold pass that fills the cache every warm pass starts from."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self._prepare()
            times.append(time.perf_counter() - t0)
        setup_s = statistics.median(times)
        if self.name == "sweep-warm":
            t0 = time.perf_counter()
            self.fill = self.run()
            self.cache_from = os.path.join(self.fill.home, "cache")
            setup_s += time.perf_counter() - t0
        return setup_s


def machine_context(workload: Workload, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "powcov")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload.name,
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": workload.numpy_version,
    }


def layer_metrics(summary: dict, traced_wall: float, untraced_wall: float) -> dict:
    layers, c = summary["layers"], summary["counters"]

    def self_wall(layer: str) -> float:
        return layers.get(layer, {}).get("self_wall", 0.0)

    seconds = {
        "cli.import_s": summary["import_s"],
        "sweep.self_s": self_wall("sweep.run") + self_wall("sweep.entry"),
        "sweep.wait_s": summary["sweep_wait_s"],
        "sweep.report_s": self_wall("sweep.report"),
        "verify.self_s": self_wall("verify"),
        "groups.construct_s": self_wall("groups.construct"),
        "groups.series_s": self_wall("groups.series"),
        "cache.get_s": self_wall("cache.get"),
        "cache.put_s": self_wall("cache.put"),
        "lattice.enumerate_s": self_wall("lattice.enumerate"),
        "lattice.flags_s": self_wall("lattice.flags"),
        "cover.instance_s": self_wall("cover.instance"),
        "cover.solve_s": self_wall("cover.solve"),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
    }
    counts = dict(c)
    counts["groups.constructs"] = layers.get("groups.construct", {}).get("outer_calls", 0)
    metrics = {k: {"value": v, "unit": "s"} for k, v in seconds.items()}
    for k, v in counts.items():
        metrics[k] = {"value": v, "unit": "bytes" if k.endswith("bytes_written") else "count"}
    return metrics


def busy_shares(summary: dict) -> dict:
    """Each layer's share of the CPU time spent inside traced spans."""
    busy = {k: v["self_cpu"] for k, v in summary["layers"].items()}
    total = sum(busy.values()) or 1.0
    return {k: round(v / total, 4) for k, v in sorted(busy.items(), key=lambda kv: -kv[1])}


def bench(name: str, seed: int, seconds: int, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "powcov", "__init__.py")):
        raise BenchError(f"no powcov package under {SRC}")
    reference = gate.load_reference()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        wl = Workload(name, seed, work, reference)
        setup_s = wl.setup()
        attempted = failed = 0
        problems: List[str] = []

        def gated(p: Pass) -> None:
            nonlocal attempted, failed
            a, f, probs = wl.check(p)
            attempted += a
            failed += f
            problems.extend(probs)

        if wl.fill is not None:
            gated(wl.fill)
        walls, rss = [], []
        t0 = time.perf_counter()
        while True:
            p = wl.run()
            gated(p)
            walls.append(p.wall_s)
            rss.append(p.peak_rss_mb)
            median = statistics.median(walls)
            # A traced run still owes one slower traced pass.
            owed = median * (2.5 if trace else 1.0)
            if (time.perf_counter() - t0 + median > seconds
                    or time.perf_counter() - START + owed > RUN_LIMIT_S):
                break
        median_wall = statistics.median(walls)
        context = machine_context(wl, seed)
        context.update(passes=len(walls), median_wall_s=median_wall,
                       wall_samples=[round(w, 4) for w in walls])

        if trace:
            summary_path = os.path.join(work, "trace.json")
            p = wl.run(summary_path)
            gated(p)
            with open(summary_path) as fh:
                summary = json.load(fh)
            a, f, probs = gate.check_subgroup_counts(summary["subgroup_counts"], reference)
            attempted += a + summary["witnesses_checked"]
            failed += f + len(summary["witness_failures"])
            problems += probs + summary["witness_failures"]
            metrics = layer_metrics(summary, p.wall_s, median_wall)
            context.update(
                tracing_overhead=round(p.wall_s / median_wall - 1.0, 4),
                busy_share=busy_shares(summary),
                layers=summary["layers"],
            )
        else:
            metrics = {
                "wall_s": {"value": min(walls), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            }
        context.update(error_ratio=failed / attempted if attempted else 1.0,
                       problems=problems[:20])
        return {"context": context,
                "result": {"correct": failed == 0 and attempted > 0, "attempted": attempted,
                           "failed": failed, "metrics": metrics}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="powcov benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running pass is killed and reaped and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for problem in out["context"]["problems"]:
        print(f"perfbench: wrong answer: {problem}", file=sys.stderr)
    print(json.dumps({"context": out["context"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
