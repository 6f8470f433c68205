import importlib.util
import os
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# subprocesses that run the package (python -m pibisim.cli) find it in the
# checkout, as the tests themselves do through pytest's pythonpath
SRC = str(HERE.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's query generator and runner, ``bench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("bench_workloads", HERE.parent / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module
