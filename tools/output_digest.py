"""List the sha256 of every output file of the benchmark workloads' jobs.

    python tools/output_digest.py --root DIR --seeds 5 6

For each seed and each workload, the run files come from
``perfbench.workloads.build`` in the checkout at DIR.  Every distinct
warm-up, job and probe then runs once, as a subprocess on that checkout's
source (``PYTHONPATH=DIR/src:DIR``): a CLI job as ``python -m blochlab`` and
a crosscheck job as ``python -m perfbench.crosscheck``.  One line is printed
per output file:

    workload seed job-key exit=CODE stderr=LINES FILE SHA256

A job that writes no file prints one line with ``-`` for the file and the
digest.  Two checkouts gave byte-identical outputs when their listings
diff clean, which also compares every exit code and stderr line count.
Jobs run one at a time, with the BLAS thread count set to the CPU count as
``perfbench/run.py`` sets it.  Some outputs follow that count, so the
listing opens with the line ``# nproc=N blas_threads=N``, and two listings
compare only at one thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def workloads_of(root: Path):
    """perfbench.workloads as the checkout at ``root`` defines it."""
    sys.path.insert(0, str(root))
    try:
        return importlib.import_module("perfbench.workloads")
    finally:
        sys.path.remove(str(root))


def prepare(workloads, name: str, seed: int, configs: Path) -> dict:
    """Write workload ``name``'s run files for ``seed`` into ``configs``; return its
    distinct warm-ups, jobs and probes by key, in that order."""
    workload = workloads.build(name, seed)
    configs.mkdir(parents=True)
    for file, config in workload.configs.items():
        (configs / file).write_text(json.dumps(config))
    distinct = {}
    for job in workload.warmups + workload.jobs + workload.probes:
        distinct.setdefault(job.key, job)
    return distinct


def command(job, configs: Path, out: Path) -> list[str]:
    """The argv that runs ``job`` on the run files in ``configs`` into ``out``."""
    io = ["--config", str(configs / job.config), "--out", str(out)]
    if job.command == "crosscheck":
        return [sys.executable, "-m", "perfbench.crosscheck", *io]
    return [sys.executable, "-m", "blochlab", job.command, *io, *job.args]


def checkout_env(root: Path) -> dict[str, str]:
    """The environment that imports blochlab and perfbench from the checkout at ``root``,
    with every BLAS thread count set to the CPU count."""
    threads = str(len(os.sched_getaffinity(0)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(root))),
                **dict.fromkeys(BLAS_THREAD_VARS, threads))


def _run(job, configs: Path, out: Path, env: dict[str, str]) -> tuple[int, int]:
    """Run one job into ``out``; return its exit code and stderr line count."""
    proc = subprocess.run(command(job, configs, out), env=env, cwd=configs,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return proc.returncode, len(proc.stderr.splitlines())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="output_digest", description=__doc__.split("\n")[0])
    parser.add_argument("--root", required=True, type=Path, help="checkout to run")
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    workloads = workloads_of(root)
    env = checkout_env(root)
    print(f"# nproc={len(os.sched_getaffinity(0))} blas_threads={env[BLAS_THREAD_VARS[0]]}",
          flush=True)
    with tempfile.TemporaryDirectory() as scratch:
        for seed in args.seeds:
            for name in workloads.BUILDERS:
                configs = Path(scratch, name, str(seed))
                distinct = prepare(workloads, name, seed, configs)
                for i, (key, job) in enumerate(distinct.items()):
                    out = configs / f"out_{i}"
                    code, lines = _run(job, configs, out, env)
                    head = f"{name} {seed} {key} exit={code} stderr={lines}"
                    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
                    for path in files:
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        print(f"{head} {path.relative_to(out)} {digest}", flush=True)
                    if not files:
                        print(f"{head} - -", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
