"""Print the peak RSS and median wall time of every distinct job of one benchmark workload.

    python tools/job_rss.py --root DIR --workload scan_large --seeds 21 22 --repeat 3

For each seed, the run files come from ``perfbench.workloads.build`` in the
checkout at DIR, and every distinct warm-up, job and probe runs ``--repeat``
times, one at a time, as a subprocess on that checkout's source, exactly as
``tools/output_digest.py`` runs it, BLAS thread count included.  One line is
printed per job and seed:

    workload seed job-key exit=CODE max_rss_mib=PEAK median_wall_s=WALL

PEAK is the largest ``ru_maxrss`` of the job's runs, in MiB, as the benchmark
reads it for ``peak_rss_mib``, and WALL the median wall time of its runs, in
seconds, from start to exit, interpreter start and import included: a memory
or speed change can be sized job by job without a full benchmark run.  EXIT is
the exit code of the last run.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from output_digest import checkout_env, command, prepare, workloads_of


def _run(job, configs: Path, out: Path, env: dict[str, str]) -> tuple[int, float, float]:
    """Run one job into ``out``; return its exit code, ``ru_maxrss`` in MiB and wall time."""
    start = time.perf_counter()
    proc = subprocess.Popen(command(job, configs, out), env=env, cwd=configs,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="job_rss", description=__doc__.split("\n")[0])
    parser.add_argument("--root", required=True, type=Path, help="checkout to run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--repeat", type=int, default=1, help="runs per job (default 1)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    root = args.root.resolve()
    workloads = workloads_of(root)
    if args.workload not in workloads.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.BUILDERS)}")
    env = checkout_env(root)
    with tempfile.TemporaryDirectory() as scratch:
        for seed in args.seeds:
            configs = Path(scratch, str(seed))
            for i, (key, job) in enumerate(prepare(workloads, args.workload, seed,
                                                   configs).items()):
                runs = [_run(job, configs, configs / f"out_{i}_{r}", env)
                        for r in range(args.repeat)]
                peak = max(rss for _, rss, _ in runs)
                wall = statistics.median(w for _, _, w in runs)
                print(f"{args.workload} {seed} {key} exit={runs[-1][0]} max_rss_mib={peak:.2f} "
                      f"median_wall_s={wall:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
