"""The installed package runs on numpy alone; scipy is a test-only reference.

Each check runs in its own interpreter, so that no module this test session
has already imported can hide an import of scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import dyadgc

SRC = str(Path(dyadgc.__file__).resolve().parents[1])

WITHOUT_SCIPY = r"""
import sys
from pathlib import Path

sys.modules["scipy"] = None  # any import of scipy or its submodules now fails
from dyadgc.cli import main

out = Path(sys.argv[1])
assert main(["synth", "--out", str(out / "cohort"), "--pairs", "1", "--length", "600"]) == 0
assert main(["pipeline", "--manifest", str(out / "cohort" / "manifest.csv"),
             "--out", str(out / "run")]) == 0
assert (out / "run" / "report.json").is_file()
"""

LOADED_BY_CLI = r"""
import json
import sys

import dyadgc.cli

print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


ONE_PROCESS_RUN = r"""
import sys
from pathlib import Path

from dyadgc.cli import main

out = Path(sys.argv[1])
manifest = str(out / "cohort" / "manifest.csv")
assert main(["synth", "--out", str(out / "cohort"), "--pairs", "2", "--length", "600"]) == 0
assert main(["ingest", "--manifest", manifest]) == 0
assert main(["pipeline", "--manifest", manifest, "--out", str(out / "run")]) == 0
assert main(["report", "--results", str(out / "run" / "report.json"), "--out", str(out / "re")]) == 0
print("concurrent.futures.process" in sys.modules)
"""


def run(script, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_synth_and_pipeline_run_with_scipy_blocked(tmp_path):
    proc = run(WITHOUT_SCIPY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "report.json").is_file()


def test_cli_import_loads_no_scipy():
    proc = run(LOADED_BY_CLI)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_one_process_run_loads_no_process_pool(tmp_path):
    # the pool's import costs set-up time and memory; only --workers > 1 needs it
    proc = run(ONE_PROCESS_RUN, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"
