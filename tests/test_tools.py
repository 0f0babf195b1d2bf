"""tools/output_digest.py: the run files it writes and the argv it runs each job with;
tools/job_rss.py: what it prints per job."""

import importlib.util
import json
import os
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


def load_job_rss():
    # job_rss imports output_digest by its plain name, as it does when run from tools/.
    if str(ROOT / "tools") not in sys.path:
        sys.path.insert(0, str(ROOT / "tools"))
    return load_tool("job_rss")


def test_job_rss_prints_the_largest_rss_and_the_median_wall_time(tmp_path, monkeypatch, capsys):
    job_rss = load_job_rss()
    runs = iter([(0, 40.0, 0.9), (0, 44.5, 0.2), (3, 41.0, 0.5)] * 100)
    monkeypatch.setattr(job_rss, "_run", lambda job, configs, out, env: next(runs))
    assert job_rss.main(["--root", str(ROOT), "--workload", "scan_large", "--seeds", "5",
                         "--repeat", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    keys = list(digest.prepare(workloads, "scan_large", 5, tmp_path / "configs"))
    assert [line.split(" exit=")[0] for line in lines] == [f"scan_large 5 {k}" for k in keys]
    for line in lines:
        assert line.endswith(" exit=3 max_rss_mib=44.50 median_wall_s=0.500")


def test_job_rss_times_a_run_from_start_to_exit(tmp_path, monkeypatch):
    job_rss = load_job_rss()
    monkeypatch.setattr(job_rss, "command", lambda job, configs, out: [
        sys.executable, "-c", "import sys, time; time.sleep(0.2); sys.exit(4)"])
    code, rss, wall = job_rss._run(None, tmp_path, tmp_path / "out", dict(os.environ))
    assert code == 4 and rss > 0.0 and 0.2 <= wall < 30.0
