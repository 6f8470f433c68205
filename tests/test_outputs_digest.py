"""Every output of the benchmark's seed-1 queries, pinned as one digest per
workload (see ``tools/outputs_digest.py``).  A change that alters an
output on purpose updates the pin and says why."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "outputs_digest.py"

PINNED = {
    "wide": "69b37a6924f8e74edb5e2276c04453deca84db6e121fe41d13cdf6199f6d4c5a",
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
