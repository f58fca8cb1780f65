"""What a fresh interpreter loads to run the CLI.

Every ``waylab`` command is a new process, so whatever the package
imports is paid before any check runs.  Neither ``scipy.stats`` nor
``scipy.optimize`` is ever needed, and ``scipy.linalg`` and
``scipy.special`` only by the ancilla-free hull and the boson scenario;
these tests start fresh interpreters so that modules imported by other
tests cannot hide an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import waylab
from waylab import ConservationLaw, HilbertSpec, pauli
from waylab.cnot import implementation_to_json
from waylab.sampling import random_conserving_implementation

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

_RUN_SEARCH_COMMANDS = """
import json, sys
import waylab.cli
out = sys.argv[1]
for command in sys.argv[2:]:
    argv = [command, "--seed", "2", "--quiet", "--config", f"{out}/{command}.json",
            "--out", f"{out}/{command}-report.json"]
    assert waylab.cli.main(argv) == 0, command
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
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


def test_no_command_imports_scipy_optimize(tmp_path):
    # the light commands are covered above; the four that search or
    # sample run here, optimize's gradient ascent included
    law = ConservationLaw(HilbertSpec((2, 2, 2)), pauli("X"), pauli("X"), pauli("X"))
    impl = implementation_to_json(random_conserving_implementation(1, law))
    configs = {
        "optimize": {"kind": "spin", "n": 3, "restarts": 0, "max_iter": 2,
                     "search": {"restarts": 1, "max_iter": 5}},
        "eval-impl": {"implementation": impl, "search": {"restarts": 1, "max_iter": 5}},
        "boson-check": {"nbars": [1.0], "samples_per": 1, "search": {"restarts": 1, "max_iter": 5}},
        "verify-identities": {"count": 2},
    }
    for command, config in configs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(config))
    done = _fresh_python("-c", _RUN_SEARCH_COMMANDS, str(tmp_path), *configs)
    assert done.returncode == 0, done.stderr
    assert [m for m in json.loads(done.stdout.splitlines()[-1]) if m.startswith("scipy.optimize")] == []


def test_commands_off_the_hull_and_boson_paths_import_neither_scipy_linalg_nor_special(tmp_path):
    # spin n = 3 and the (2, 2, 2) implementation have an ancilla level, so
    # no search takes the hull; together these imports were 0.3 s of a
    # command's start-up
    law = ConservationLaw(HilbertSpec((2, 2, 2)), pauli("X"), pauli("X"), pauli("X"))
    impl = implementation_to_json(random_conserving_implementation(1, law))
    configs = {
        "check-bounds": {"count": 2},
        "verify-identities": {"count": 2},
        "optimize": {"kind": "spin", "n": 3, "restarts": 0, "max_iter": 2,
                     "search": {"restarts": 1, "max_iter": 5}},
        "eval-impl": {"implementation": impl, "search": {"restarts": 1, "max_iter": 5}},
    }
    for command, config in configs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(config))
    done = _fresh_python("-c", _RUN_SEARCH_COMMANDS, str(tmp_path), *configs)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert [m for m in loaded if m.startswith(("scipy.linalg", "scipy.special"))] == []
