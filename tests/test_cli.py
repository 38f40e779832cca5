"""Command-line interface: every subcommand, exit codes, determinism."""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import laakso
from laakso.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


# -- spectrum -----------------------------------------------------------------


def test_spectrum_against_reference(tmp_path):
    code, text = run(
        tmp_path, "spectrum", "-j", "2,3", "--count", "20", "--expect", "table1"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["reference_diffs"] == []
    assert [e["multiplicity"] for e in payload["entries"]] == [
        1, 3, 1, 8, 1, 3, 26, 3, 1, 8, 1, 3, 38, 3, 1, 8, 1, 3, 86, 3,
    ]


def test_spectrum_reference_mismatch_exits_three(tmp_path):
    # a different sequence cannot reproduce the reference multiplicities
    code, _ = run(
        tmp_path, "spectrum", "-j", "3,2", "--count", "20", "--expect", "table1"
    )
    assert code == 3


def test_spectrum_tiny_lambda(tmp_path):
    code, text = run(tmp_path, "spectrum", "-j", "2", "--lambda-max", "0.5")
    assert code == 0
    payload = json.loads(text)
    assert len(payload["entries"]) == 1
    assert payload["entries"][0]["multiplicity"] == 1
    assert payload["entries"][0]["lambda"] == 0.0


def test_spectrum_explicit_prefix_notes_cap(tmp_path):
    code, text = run(tmp_path, "spectrum", "-j", "seq:2,3,2", "--lambda-max", "4000")
    assert code == 0
    payload = json.loads(text)
    assert payload["levels_included"] == 3


def test_spectrum_csv_format(tmp_path):
    code, text = run(
        tmp_path, "spectrum", "-j", "2,3", "--lambda-max", "100", "--format", "csv"
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("# command=spectrum")
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "lambda,multiplicity"


def test_spectrum_requires_bound_or_count(tmp_path):
    code, _ = run(tmp_path, "spectrum", "-j", "2,3")
    assert code == 1


@pytest.mark.parametrize("flag", ["--lambda-max", "--level-max"])
def test_spectrum_count_conflict_builds_no_table(tmp_path, monkeypatch, flag):
    def no_table(*args):
        raise AssertionError("a table was built before the options were checked")

    monkeypatch.setattr("laakso.cli.first_distinct", no_table)
    code, _ = run(tmp_path, "spectrum", "-j", "2", "--count", "3", flag, "2")
    assert code == 1


def test_spectrum_rejects_bad_sequence(tmp_path):
    code, _ = run(tmp_path, "spectrum", "-j", "1", "--count", "3")
    assert code == 1


# -- compare ------------------------------------------------------------------


def test_compare_level_one(tmp_path):
    code, text = run(
        tmp_path, "compare", "-j", "2", "-n", "1", "-m", "128", "-k", "8"
    )
    assert code == 0
    payload = json.loads(text)
    clusters = [(c["value"], c["multiplicity"]) for c in payload["clusters"]]
    assert len(clusters) == 4
    assert clusters[0][1] == 1 and abs(clusters[0][0]) < 1e-8
    assert clusters[1][1] == 3
    assert clusters[1][0] == pytest.approx(math.pi**2, rel=1e-3)
    assert clusters[2][1] == 1
    assert clusters[2][0] == pytest.approx(4 * math.pi**2, rel=1e-3)
    assert clusters[3][1] == 3
    assert clusters[3][0] == pytest.approx(9 * math.pi**2, rel=1e-3)
    assert payload["all_multiplicities_match"] is True


def test_compare_level_zero_neumann(tmp_path):
    code, text = run(tmp_path, "compare", "-j", "2,3", "-n", "0", "-m", "99", "-k", "4")
    assert code == 0
    payload = json.loads(text)
    values = [r["numeric"] for r in payload["rows"]]
    for k, v in enumerate(values):
        assert v == pytest.approx((k * math.pi) ** 2, rel=2e-3, abs=1e-8)


def test_compare_small_alternating(tmp_path):
    code, text = run(tmp_path, "compare", "-j", "2,3", "-n", "2", "-m", "24", "-k", "16")
    assert code == 0
    payload = json.loads(text)
    assert payload["all_multiplicities_match"] is True
    assert payload["max_relative_error"] < 5e-3


def test_compare_level_three_alternating(tmp_path):
    code, text = run(tmp_path, "compare", "-j", "2,3", "-n", "3", "-m", "64", "-k", "20")
    assert code == 0
    payload = json.loads(text)
    assert payload["all_multiplicities_match"] is True
    assert payload["max_relative_error"] < 5e-3
    assert [r["analytic_multiplicity"] for r in payload["rows"][:6]] == [
        1, 3, 1, 8, 1, 3,
    ]


# -- dims ---------------------------------------------------------------------


def test_dims_alternating(tmp_path):
    code, text = run(tmp_path, "dims", "-j", "2,3")
    assert code == 0
    payload = json.loads(text)
    expected = math.log(24.0) / math.log(6.0)
    assert payload["hausdorff"] == pytest.approx(expected, rel=1e-13)
    assert payload["spectral"] == pytest.approx(expected, rel=1e-13)
    assert payload["walk"] == 2.0


def test_dims_explicit_needs_pattern(tmp_path):
    code, _ = run(tmp_path, "dims", "-j", "seq:2,3")
    assert code == 1
    code, text = run(tmp_path, "dims", "-j", "2,3")
    assert code == 0
    assert json.loads(text)["r"] == pytest.approx(math.sqrt(6.0))


# -- heat ----------------------------------------------------------------------


def test_heat_grid_with_fit(tmp_path):
    code, text = run(
        tmp_path,
        "heat", "-j", "2", "--t", "1e-9:1e-5:41log", "--tol", "1e-9", "--fit-ds",
    )
    assert code == 0
    payload = json.loads(text)
    assert len(payload["samples"]) == 41
    assert payload["fit"]["spectral_dimension"] == pytest.approx(2.0, abs=0.05)
    assert payload["dimensions"]["spectral"] == 2.0
    assert payload["poles"]["real_part"] == 1.0


def test_heat_asymptotic_column(tmp_path):
    code, text = run(
        tmp_path,
        "heat", "-j", "2,3", "--t", "1e-8:1e-7:5log", "--asymptotic",
    )
    assert code == 0
    payload = json.loads(text)
    assert max(payload["asymptote_relative_gap"]) < 1e-4


def test_heat_explicit_cap_failure_is_exit_two(tmp_path):
    code, _ = run(tmp_path, "heat", "-j", "seq:2,3", "--t", "1e-6", "--tol", "1e-9")
    assert code == 2


def test_heat_csv(tmp_path):
    code, text = run(
        tmp_path, "heat", "-j", "2", "--t", "1e-4:1e-3:3log", "--format", "csv"
    )
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "t,z,tail_bound"
    assert len(lines) == 4


# -- zeta ----------------------------------------------------------------------


def test_zeta_both_modes_agree(tmp_path):
    code, text = run(tmp_path, "zeta", "-j", "2", "--s", "2", "--s", "3")
    assert code == 0
    payload = json.loads(text)
    for row in payload["values"]:
        assert row["abs_difference"] <= 1e-8 * (1 + abs(complex(*row["closed"])))


def test_zeta_pole_is_exit_two(tmp_path):
    s_pole = complex(1.0, 2.0 * math.pi / math.log(4.0))
    code, _ = run(tmp_path, "zeta", "-j", "2", "--s", repr(s_pole), "--mode", "closed")
    assert code == 2


def test_zeta_divergent_direct_is_exit_two(tmp_path):
    code, _ = run(tmp_path, "zeta", "-j", "2", "--s", "0.9", "--mode", "direct")
    assert code == 2


def test_zeta_negative_complex_s_after_a_space(tmp_path, capsys):
    """`--s -0.45-3j` is not a plain negative number, so argparse would take
    it for an option; it must parse like `--s=-0.45-3j`."""
    head = ["zeta", "-j", "2,3", "--s", "0"]
    tail = ["--mode", "closed"]
    assert main(head + ["--s", "-0.45-3j"] + tail) == 0
    spaced = capsys.readouterr().out
    assert main(head + ["--s=-0.45-3j"] + tail) == 0
    joined = capsys.readouterr().out
    assert spaced and spaced == joined


# -- poles ---------------------------------------------------------------------


def test_poles_constant_two(tmp_path):
    code, text = run(tmp_path, "poles", "-j", "2", "-m", "-3:3")
    assert code == 0
    payload = json.loads(text)
    assert len(payload["members"]) == 7
    assert payload["real_part"] == 1.0
    assert payload["spacing"] == pytest.approx(2 * math.pi / math.log(4.0), rel=1e-14)
    assert all(p["re"] == 1.0 for p in payload["members"])


# -- general behavior ------------------------------------------------------------


_COLD_IMPORT_CHECK = """
import sys
import laakso, laakso.cli

assert laakso.cli.main(["dims", "-j", "2,3", "--out", sys.argv[1]]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
for name in ("laakso.graphs", "laakso.solver", "laakso.compare"):
    assert name in sys.modules, name
for name in laakso.__all__:
    getattr(laakso, name)
report = laakso.compare_spectra(laakso.parse_sequence("2,3"), 1, 1, 3)
assert report.all_multiplicities_match and report.compared_converged
"""


def test_cold_cli_loads_no_scipy_outside_the_mesh_route(tmp_path):
    """A fresh process that imports the package and runs an exact command
    loads no scipy, yet keeps every submodule and public name in place and
    can still run the mesh comparison afterwards."""
    env = dict(os.environ, PYTHONPATH=str(Path(laakso.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT_CHECK, str(tmp_path / "dims.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_byte_identical_reruns(tmp_path):
    args = ["spectrum", "-j", "2,3", "--count", "12"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compare_reruns_are_byte_identical(tmp_path):
    args = ["compare", "-j", "3", "-n", "2", "-m", "10", "-k", "12", "--seed", "3"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_echoed(tmp_path):
    code, text = run(tmp_path, "poles", "-j", "2,3", "-m", "0:2")
    payload = json.loads(text)
    assert payload["config"]["sequence"] == "2,3"
    assert payload["config"]["command"] == "poles"


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "-j", "2", "-n", "x", "-m", "3", "-k", "4"],
        ["compare", "-n", "2", "-m", "3", "-k", "4"],
        ["spectrum", "-j", "2", "--count", "many"],
        ["heat", "-j", "2", "--t", "abc"],
        ["heat", "-j", "2", "--t", "1e-9:1e-5:xlog"],
        ["heat", "-j", "2", "--t", "1e-9:x:5log"],
        ["heat", "-j", "2", "--t", "0:1e-5:5log"],
        ["poles", "-j", "2", "-m", "a:b"],
        ["poles", "-j", "2", "-m", "0:100000000"],
        ["compare", "-j", "2", "-n", "1", "-m", "3", "-k", "4", "--rel-gap", "0.01"],
        ["compare", "-j", "2", "-n", "1", "-m", "3", "-k", "1"],
        ["zeta", "-j", "2", "--s", "abc"],
        ["zeta", "-j", "2", "--s", "1e400", "--mode", "direct"],
        ["zeta", "-j", "2", "--s", "1e400", "--mode", "closed"],
        ["zeta", "-j", "2", "--s", "nan"],
        ["zeta", "-j", "2", "--s", "2+2e4j", "--mode", "closed"],
        ["spectrum", "-j", "2", "--lambda-max", "nan"],
        ["spectrum", "-j", "2", "--lambda-max", "inf"],
        ["heat", "-j", "2", "--t", "nan"],
        ["heat", "-j", "2", "--t", "1e-3", "--tol", "nan"],
        ["heat", "-j", "2", "--t", "1e-3", "--level-cap", "-1"],
        ["heat", "-j", "seq:2,3", "--t", "1", "--level-cap", "3"],
        ["zeta", "-j", "2", "--s", "-600", "--mode", "closed"],
        ["zeta", "-j", "2", "--s", "600", "--mode", "closed"],
        ["spectrum", "-j", "2", "--count", "3", "--lambda-max", "1"],
        ["spectrum", "-j", "2", "--count", "3", "--level-max", "2"],
        ["heat", "-j", "2", "--t", "1e-3", "--m-terms", "5"],
        ["dims", "-j", "2,3", "--assume-periodic"],
    ],
)
def test_malformed_input_is_exit_one(tmp_path, capsys, argv):
    code, _ = run(tmp_path, *argv)
    assert code == 1
    assert capsys.readouterr().err.startswith("invalid input:")


def test_direct_zeta_near_the_abscissa_is_a_numerical_failure():
    """j = 2 at s = 1.0002 needs ~1.4e5 levels: the predicted level count is
    refused at once.  A fresh process under a timeout turns a hang into a
    failure."""
    env = dict(os.environ, PYTHONPATH=str(Path(laakso.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "laakso", "zeta", "-j", "2", "--s", "1.0002", "--mode", "direct"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("numerical failure:")


README = Path(__file__).resolve().parents[1] / "README.md"
README_COMMANDS = [
    line for line in README.read_text().splitlines() if line.startswith("laakso ")
]


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_commands_succeed(tmp_path, command):
    code, _ = run(tmp_path, *shlex.split(command)[1:])
    assert code == 0


def test_internal_value_error_is_not_reported_as_invalid_input(tmp_path, monkeypatch):
    def broken(seq, s):
        raise ValueError("internal failure")

    monkeypatch.setattr("laakso.cli.spectral_zeta_closed", broken)
    with pytest.raises(ValueError, match="internal failure"):
        run(tmp_path, "zeta", "-j", "2", "--s", "2", "--mode", "closed")
