import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def child_processes_import_from_src():
    """CLI child processes import the package from src/, as pytest's
    ``pythonpath`` setting lets the test process, without an install."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        yield
