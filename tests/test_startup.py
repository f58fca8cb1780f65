"""What a fresh interpreter loads to run the CLI.

Every ``waylab`` command is a new process, so whatever the package
imports is paid before any check runs.  ``scipy.stats`` is never needed
and ``scipy.optimize`` only by ``optimize``; these tests start fresh
interpreters so that modules imported by other tests cannot hide an
import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import waylab

SRC = str(Path(waylab.__file__).resolve().parents[1])

_RUN_LIGHT_COMMANDS = """
import json, sys
import waylab, waylab.cli
out, config = sys.argv[1], sys.argv[2]
assert waylab.cli.main(["positive-control", "--quiet", "--out", out + "/pc.json"]) == 0
assert waylab.cli.main(
    ["check-bounds", "--seed", "1", "--quiet", "--out", out + "/cb.json", "--config", config]
) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.optimize")))))
"""


def _fresh_python(*argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=300
    )


def test_cli_imports_neither_scipy_stats_nor_scipy_optimize(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"count": 2}))
    done = _fresh_python("-c", _RUN_LIGHT_COMMANDS, str(tmp_path), str(config))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_optimize_imports_scipy_optimize_when_it_runs(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": "spin", "n": 2, "restarts": 0, "max_iter": 4, "polish_steps": 0,
        "search": {"restarts": 2, "max_iter": 20},
    }))
    out = tmp_path / "report.json"
    done = _fresh_python(
        "-m", "waylab.cli", "optimize", "--seed", "2", "--quiet",
        "--config", str(config), "--out", str(out),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["summary"]["exit_code"] == 0
