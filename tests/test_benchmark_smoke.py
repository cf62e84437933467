"""Every request of each benchmark workload, answered once at seed 1 and held
to the benchmark's own checks: a change that breaks a request, or the
generation of a workload's inputs, fails here rather than in a bench run."""

import importlib.util
import pathlib
import random
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))  # run.py imports workloads and checks by name

import workloads  # noqa: E402
from nambu import cli  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_passes_its_checks_at_seed_1(workload, tmp_path):
    suite = workloads.BUILDERS[workload](random.Random(1), str(tmp_path))
    problems, results = [], []
    for req in suite.requests:
        _, res, crash = run.run_request(cli, req)
        results.append(res)
        problems += [(req.label, check, detail) for check, detail in run.outcome_problems(req, res, crash)]
    for cross in suite.cross_checks:
        problems += [(suite.requests[i].label, check, detail) for i, check, detail in cross(results)]
    assert problems == []
