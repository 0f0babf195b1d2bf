#!/usr/bin/env python3
"""Benchmark entry point: one seeded workload, run as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client runs one job at a time; each job
is a fresh ``python -m blochlab ...`` child process (or the benchmark's own
``perfbench.crosscheck`` driver), the way a user runs the CLI.  Every
output is checked (``perfbench/checks.py``) and repeated jobs must write
identical bytes.

``--trace 0`` sets up at least three times, then repeats the workload's fixed job
list until ``--seconds`` would be exceeded, and reports the end-to-end
metrics.  ``--trace 1`` sets up once, runs the job list plain and then
traced (``perfbench/shim.py``), and reports the per-layer metrics.  The last
line of standard output is the JSON result; the lines before it give the
provenance, the sample counts and any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, trace, workloads  # noqa: E402

WORK = ROOT / ".perfbench_work"
# Set up at least three times and for at least three seconds: one set-up of
# a large workload is a single reference-size job of about 0.6 s.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
RUN_DEADLINE_S = 165.0   # a run must end within 180 s, result printed
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Result:
    wall_s: float
    rss_mib: float
    bytes: int
    sums: dict | None = None   # per-layer sums of a traced job


class Runner:
    """Runs jobs one at a time, checks them and counts failures."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self.configs: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self._digests: dict[str, str] = {}
        self._deadline = time.monotonic() + RUN_DEADLINE_S

    def run(self, job: workloads.Job, traced: bool = False) -> Result:
        self.attempted += 1
        job_dir = WORK / "jobs" / f"{self.attempted:04d}"
        out, spans = job_dir / "out", job_dir / "spans.json"
        job_dir.mkdir(parents=True)
        io = ["--config", str(WORK / "configs" / job.config), "--out", str(out)]
        if job.command == "crosscheck":
            target = ["crosscheck", *io]
        else:
            target = ["blochlab", job.command, *io, *job.args]
        if traced:
            argv = [sys.executable, "-X", "importtime", "-m", "perfbench.shim",
                    "--spans", str(spans), *target]
        elif job.command == "crosscheck":
            argv = [sys.executable, "-m", "perfbench.crosscheck", *target[1:]]
        else:
            argv = [sys.executable, "-m", *target]

        timeout = max(1.0, self._deadline - time.monotonic())
        with open(job_dir / "stdout", "wb") as stdout, open(job_dir / "stderr", "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=stdout, stderr=stderr)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)

        problems = []
        log = (job_dir / "stderr").read_text(errors="replace")
        if proc.returncode != 0:
            tail = [line for line in log.splitlines() if not line.startswith("import time:")]
            problems.append(f"exit code {proc.returncode}: {' | '.join(tail[-3:])}")
        else:
            problems += checks.check(job, self.configs[job.config], out)
            digest = checks.digest(out)
            if self._digests.setdefault(job.key, digest) != digest:
                problems.append("outputs differ from an earlier run of the same job")
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        sums = None
        if traced and spans.is_file():
            sums = trace.job_metrics(json.loads(spans.read_text()), log)
        elif traced:
            problems.append("traced job wrote no spans")
        shutil.rmtree(job_dir)
        if problems:
            self.failures.append(f"{job.key}: {'; '.join(problems)}")
        return Result(wall, usage.ru_maxrss / 1024.0, written, sums)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def out_of_time(self) -> bool:
        return time.monotonic() > self._deadline


def set_up(runner: Runner, name: str, seed: int) -> tuple[workloads.Workload, float]:
    """Generate and write the run files, then run one warm-up job per command."""
    start = time.perf_counter()
    workload = workloads.build(name, seed)
    config_dir = WORK / "configs"
    shutil.rmtree(config_dir, ignore_errors=True)
    config_dir.mkdir(parents=True)
    for file_name, payload in workload.configs.items():
        (config_dir / file_name).write_text(json.dumps(payload, indent=2) + "\n")
    runner.configs = workload.configs
    for job in workload.warmups:
        runner.run(job)
    return workload, time.perf_counter() - start


def measure(runner: Runner, workload: workloads.Workload, seconds: float) -> list[list[Result]]:
    """Whole passes over the job list, while the next one fits in ``seconds``."""
    passes: list[list[Result]] = []
    start = time.perf_counter()
    while True:
        passes.append([runner.run(job) for job in workload.jobs])
        pass_s = statistics.median(sum(r.wall_s for r in p) for p in passes)
        if time.perf_counter() - start + pass_s > seconds or runner.out_of_time():
            return passes


def end_to_end(setups: list[float], passes: list[list[Result]]) -> dict:
    walls = [r.wall_s for p in passes for r in p]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(sum(r.wall_s for r in p) for p in passes),
                   "unit": "s"},
        "job_p50_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mib": {"value": max(r.rss_mib for p in passes for r in p), "unit": "MiB"},
    }


def per_layer(runner: Runner, workload: workloads.Workload) -> dict:
    # Each job runs plain and then traced, so that drift in the machine's
    # speed hits both sides of the overhead alike.
    plain, traced = [], []
    for job in workload.jobs:
        plain.append(runner.run(job))
        traced.append(runner.run(job, traced=True))
    probes = [runner.run(job, traced=True) for job in workload.probes]

    def rows(results):
        return [{"wall_s": r.wall_s, "bytes": r.bytes, "sums": r.sums}
                for r in results if r.sums is not None]

    return trace.run_metrics(rows(traced), rows(probes), sum(r.wall_s for r in plain))


def provenance(args, env: dict[str, str]) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "blochlab" / "__init__.py").is_file():
        print(f"perfbench: no blochlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p)
    for var in BLAS_THREAD_VARS:
        env[var] = str(len(os.sched_getaffinity(0)))

    runner = Runner(env)
    setups = []
    while not setups or not args.trace and (len(setups) < SETUP_REPEATS
                                            or sum(setups) < SETUP_SECONDS):
        workload, seconds = set_up(runner, args.workload, args.seed)
        setups.append(seconds)
    if args.trace:
        metrics = per_layer(runner, workload)
        print(f"{args.workload}: traced {len(workload.jobs)} jobs "
              f"and {len(workload.probes)} probes")
    else:
        passes = measure(runner, workload, args.seconds)
        metrics = end_to_end(setups, passes)
        print(f"{args.workload}: {len(passes)} passes of {len(workload.jobs)} jobs, "
              f"job_p50_s over {sum(map(len, passes))} samples, "
              f"setup_s over {len(setups)} set-ups")
    print(f"fail_ratio: {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4f}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print("provenance: " + json.dumps(provenance(args, env), sort_keys=True))
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
