"""The benchmark's use of the public API still runs.

perfbench imports public ``dcot`` names and calls some of them
positionally (``InitStrategy("hosvd")``, ``initial_model``,
``grid_search``), so a change to that surface can break the benchmark
without breaking any other test.  This runs one short op of every
workload, and one probe, in process.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_workloads_run_on_the_public_api(workloads, tmp_path):
    glm = workloads.GlmZstep(1, tmp_path)
    results = {
        "gauss-dense": workloads.GaussDense(1, tmp_path).op(0, peak=True),
        "grid-small": workloads.GridSmall(1, tmp_path).op(0, peak=True),
        "glm-zstep": glm.op(0, peak=True),
        "glm-zstep probe": glm.probe(0),
        "cli-complete": workloads.CliComplete(1, tmp_path).op(0, peak=True),
    }
    for name, res in results.items():
        assert res.error is None, f"{name}: {res.error}"
