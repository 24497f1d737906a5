"""The benchmark's workloads run, pass every check and give their pinned
seeded outputs at seed 7.

``bench/workloads.py`` drives the library and the CLI (vector-codebooks
runs quantize, quad and adversary through ``cli.main``), so an API or CLI
change that breaks a workload fails here rather than in a benchmark run.
The module is loaded from its file and only read; its CLI outputs go to a
temporary working directory.

The checksums are a tripwire for bit-identity, not a bound.  KL paths go
through BLAS products, so they hold for the numpy, BLAS and thread count
of ``_PINNED_ENV`` only; on another the test fails and names the
difference.  A change that moves a checksum updates it here and says why.
"""
import importlib.util
import os
import sys

import numpy as np
import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


_PINNED_ENV = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0", "blas_threads": "2"}
_CHECKSUMS = {
    "bm-quantization": "c1cb614ef9cee928f7c401ce4f459caf0a8a6877ed291d7ff886ab02de1e188e",
    "path-mc": "d9919bd1326718ac40b3e5bbd4197538530fd36be92cb75ff1b39ce78c931358",
    "vector-codebooks": "c0b0fbab8e5debcd1209ca1128cfed04b2e2f0a4db6f0844286644523d97ebcd",
}


def _env() -> dict:
    # OpenBLAS runs one thread per usable core unless told otherwise.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or str(len(os.sched_getaffinity(0)))
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": threads}


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
    env = _env()
    moved = {key: (pinned, env[key]) for key, pinned in _PINNED_ENV.items() if env[key] != pinned}
    assert not moved, f"checksums are pinned on {_PINNED_ENV}; (pinned, here): {moved}"
    assert outcome.checksum() == _CHECKSUMS[name]
