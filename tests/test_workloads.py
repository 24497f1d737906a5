"""The benchmark's workloads run and pass every check at seed 7.

``bench/workloads.py`` drives the library and the CLI (vector-codebooks
runs quantize, quad and adversary through ``cli.main``), so an API or CLI
change that breaks a workload fails here rather than in a benchmark run.
The module is loaded from its file and only read; its CLI outputs go to a
temporary working directory.
"""
import importlib.util
import os
import sys

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["bm-quantization", "path-mc", "vector-codebooks"])
def test_workload_passes_every_check_at_seed_7(workloads, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    setup, run = workloads[name]
    outcome = run(setup(7))
    assert outcome.checks
    assert [check for check, ok in outcome.checks.items() if not ok] == []
