"""Every job of the benchmark's workloads, run in-process against its oracle.

``perfbench`` runs these jobs in fresh interpreters and reports a job whose
answer differs from ``workloads.ORACLE`` as a failed operation; running them
here makes such a change fail the tests first.  The two harness modules are
loaded by path, unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # worker imports workloads by name
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
def test_every_benchmark_job_matches_its_oracle(tiny, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    worker = _load("worker", monkeypatch)
    seed = 1
    for workload in workloads.WORKLOADS:
        inputs = worker._inputs({"workload": workload, "seed": seed})
        forms = workloads.build_forms(workload, inputs)
        for key, thunk in workloads.jobs(workload, tiny, seed):
            assert thunk(forms) == workloads.ORACLE[key], key
