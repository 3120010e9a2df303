import os
import subprocess
import sys
from pathlib import Path

import perf_charter

# the child imports the package from the same src tree as this process,
# whatever the working directory
SRC = str(Path(perf_charter.__file__).resolve().parent.parent)


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "perf_charter.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
