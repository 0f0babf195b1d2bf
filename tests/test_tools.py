"""tools/output_digest.py: the run files it writes and the argv it runs each job with."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest = load_tool("output_digest")
workloads = digest.workloads_of(ROOT)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_digest_writes_every_run_file_and_runs_each_job_as_a_module(name, tmp_path, monkeypatch):
    def no_subprocess(*args, **kwargs):
        raise AssertionError("prepare and command start no process")

    monkeypatch.setattr(digest.subprocess, "run", no_subprocess)
    configs = tmp_path / "configs"
    distinct = digest.prepare(workloads, name, 5, configs)
    workload = workloads.build(name, 5)
    assert list(distinct) == list(dict.fromkeys(
        job.key for job in workload.warmups + workload.jobs + workload.probes))
    for file, config in workload.configs.items():
        assert json.loads((configs / file).read_text()) == config
    for key, job in distinct.items():
        assert job.key == key and (configs / job.config).is_file()
        argv = digest.command(job, configs, tmp_path / "out")
        io = ["--config", str(configs / job.config), "--out", str(tmp_path / "out")]
        if job.command == "crosscheck":
            assert argv == [sys.executable, "-m", "perfbench.crosscheck", *io]
        else:
            assert argv == [sys.executable, "-m", "blochlab", job.command, *io, *job.args]
