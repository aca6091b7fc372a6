"""Child processes that tests start (`python -m minit5.cli`) import the
package from src/, as `pythonpath` in pyproject.toml makes the test process
do."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
