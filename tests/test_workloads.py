"""The benchmark's workloads run, pass every check and give their pinned
seeded outputs at seed 7.

``bench/workloads.py`` drives the library and the CLI (vector-codebooks
runs quantize, quad and adversary through ``cli.main``), so an API or CLI
change that breaks a workload fails here rather than in a benchmark run.
The module is loaded from its file and only read; its CLI outputs go to a
temporary working directory.

The checksums are a tripwire for bit-identity, not a bound.  KL paths go
through BLAS products, so they hold for the numpy, BLAS and thread count
of ``conftest.PINNED_ENV`` only; on another the test fails and names the
difference.  A change that moves a checksum updates it here and says why.
"""
import importlib.util
import os
import sys

import pytest
from conftest import PINNED_ENV, moved_env

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


_CHECKSUMS = {
    "bm-quantization": "1789e469eb540785d11cd156aeb12ccee933d81165c6057788a93a824183d044",
    "path-mc": "a4cf84c469f1c2408584a7530316034f281e25b9ce3fcf9bd52e655f9ff08bb2",
    "vector-codebooks": "c0b0fbab8e5debcd1209ca1128cfed04b2e2f0a4db6f0844286644523d97ebcd",
}


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
    moved = moved_env()
    assert not moved, f"checksums are pinned on {PINNED_ENV}; (pinned, here): {moved}"
    assert outcome.checksum() == _CHECKSUMS[name]
