"""The experiment scripts run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import laakso

SCRIPTS = Path(__file__).parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["mesh_convergence.py", "-j", "2,3", "-n", "1", "--meshes", "4,8", "-k", "6"],
        ["mesh_oneoff.py", "-j", "2,3", "-n", "1", "-m", "4", "-k", "6"],
        # solves the level-2 sector, so the child forms a Sylvester count on the graph F_3
        pytest.param(
            ["mesh_oneoff.py", "-j", "2", "-n", "3", "-m", "2", "-k", "6"], id="mesh_oneoff.py-sector"
        ),
        ["oscillation_profile.py"],
        ["spectral_dimension_scan.py"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_zero(argv):
    assert _run(argv).strip()


def test_mesh_convergence_errors():
    """The mapped eigenvalues are exact up to the solver, and the raw ones
    converge at second order in h: halving h more than halves each error."""
    out = _run(["mesh_convergence.py", "-j", "2,3", "-n", "1", "--meshes", "4,8", "-k", "6"])
    table = [[float(x) for x in line.split()] for line in out.splitlines()[2:]]
    assert table
    for _, raw4, mapped4, raw8, mapped8 in table:
        assert max(mapped4, mapped8) <= 1e-10
        assert raw8 < raw4 / 2


def _run(argv):
    """The script's stdout; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(laakso.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout
