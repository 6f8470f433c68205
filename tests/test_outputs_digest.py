"""Every output of the benchmark's seed-1 queries, pinned as one digest per
workload (see ``tools/outputs_digest.py``).  A change that alters an
output on purpose updates the pin and says why."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "outputs_digest.py"

PINNED = {
    "wide": "4c00bf61949ed53d2dfa93c01db4e7a5c912b0b3616f3f1095679b43ae441a22",
    "random-mix": "0f01e76e4135ec4cdd1579eac558e8e474b56baa42b19aeeade31fc391abfaef",
}


@pytest.fixture(scope="module")
def outputs_digest():
    spec = importlib.util.spec_from_file_location("outputs_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_seed_one_outputs_are_pinned(outputs_digest, workload):
    assert outputs_digest.digest(workload, 1) == PINNED[workload]
