import pytest

from blochlab.config import parse_config
from perfbench import workloads


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workload_is_a_function_of_its_seed(name):
    a, b, c = workloads.build(name, 3), workloads.build(name, 3), workloads.build(name, 4)
    assert a.configs == b.configs and a.jobs == b.jobs
    assert a.configs != c.configs
    # The seed moves the numbers, never the kinds of work.
    assert [(j.command, j.periodic) for j in a.jobs] == [(j.command, j.periodic) for j in c.jobs]


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_every_run_file_is_valid_and_every_job_has_one(name):
    workload = workloads.build(name, 11)
    for payload in workload.configs.values():
        parse_config(payload)
    for job in workload.warmups + workload.jobs + workload.probes:
        assert job.config in workload.configs
        assert job.command in workloads.COMMANDS


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_warmups_cover_each_command_once_and_probes_the_rest(name):
    workload = workloads.build(name, 5)
    commands = {j.command for j in workload.jobs}
    assert sorted(j.command for j in workload.warmups) == sorted(commands)
    assert {j.command for j in workload.probes} == set(workloads.COMMANDS) - commands
