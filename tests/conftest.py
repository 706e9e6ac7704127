"""Let the tests that start a child interpreter import dasris without an install.

pyproject.toml puts src/ on this process's sys.path; child processes only see
the environment, so src/ is prepended to PYTHONPATH as well.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
