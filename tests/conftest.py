import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# subprocesses that run the package (python -m pibisim.cli) find it in the
# checkout, as the tests themselves do through pytest's pythonpath
SRC = str(HERE.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
