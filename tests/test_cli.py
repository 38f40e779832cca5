"""Command-line interface: every subcommand, exit codes, determinism."""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import laakso
from laakso.cli import _parse_t_grid, main
from laakso.compare import ComparisonReport, ComparisonRow


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


def test_spectrum_reference_mismatch_exits_three(tmp_path, capsys):
    """A different sequence cannot reproduce the reference multiplicities,
    and a table shorter than the reference lacks its last rows."""
    for spec, count, missing in (("3,2", "20", 0), ("2,3", "5", 15)):
        code, text = run(tmp_path, "spectrum", "-j", spec, "--count", count, "--expect", "table1")
        assert code == 3
        diffs = json.loads(text)["reference_diffs"]
        assert diffs and capsys.readouterr().err == "reference mismatch:\n" + "\n".join(diffs) + "\n"
        assert sum("missing" in diff for diff in diffs) == missing


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
    # a prefix reports its cap even when lambda_max stops short of its last
    # level, as heat does for the same prefix
    code, text = run(tmp_path, "spectrum", "-j", "seq:2,3", "--lambda-max", "10")
    assert code == 0
    assert json.loads(text)["levels_included"] == 2


def test_spectrum_csv_format(tmp_path):
    code, text = run(
        tmp_path, "spectrum", "-j", "2,3", "--lambda-max", "100", "--format", "csv"
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("# command=spectrum")
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "lambda,multiplicity"


def test_serialization_round_trip_keys(tmp_path):
    seq = laakso.parse_sequence("2,3")
    keys = [e.m for e in laakso.full_spectrum(seq, 360.0).entries]
    code, text = run(tmp_path, "spectrum", "-j", "2,3", "--lambda-max", "360")
    assert code == 0
    assert [int(e["m"]) for e in json.loads(text)["entries"]] == keys
    code, text = run(
        tmp_path, "spectrum", "-j", "2,3", "--lambda-max", "360", "--format", "csv"
    )
    assert code == 0
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header] == "lambda,multiplicity"
    assert len(lines) == header + 1 + len(keys)


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


def _mock_compare(monkeypatch, k_requested, k_converged, residual, numeric_multiplicity):
    """compare_spectra replaced by one fixed report of a single key, pi^2."""
    row = ComparisonRow(math.pi**2, 3, math.pi**2, numeric_multiplicity, 0.0, residual, math.pi**2)

    def report(seq, level, points_per_edge, k, *, seed):
        requested = k_requested or k  # compare clamps k to the dimension less one
        return ComparisonReport(
            requested, k_converged, requested + 1, 50.0, 1e-7, ((math.pi**2, 3),), (row,),
            level, None,
        )

    monkeypatch.setattr("laakso.cli.compare_spectra", report)


@pytest.mark.parametrize(
    "k_converged, residual, numeric_multiplicity, code, err",
    [
        (8, 1e-9, 3, 0, ""),
        (5, 1e-9, 3, 0, "eigensolver converged 5/8 pairs\n"),
        (8, 1e-3, 3, 2, ""),
        (8, 1e-9, 2, 3, "reference mismatch:\nmultiplicity mismatch below the trust cutoff\n"),
    ],
)
def test_compare_exit_follows_the_report(
    tmp_path, capsys, monkeypatch, k_converged, residual, numeric_multiplicity, code, err
):
    """A compared pair over its residual bound is a numerical failure (exit 2),
    a multiplicity mismatch a reference mismatch (exit 3), and fewer
    converged pairs than asked for a note on stderr."""
    _mock_compare(monkeypatch, None, k_converged, residual, numeric_multiplicity)
    assert run(tmp_path, "compare", "-j", "2", "-n", "1", "-m", "4", "-k", "8")[0] == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("k_converged, err", [(2, "eigensolver converged 2/3 pairs\n"), (3, "")])
def test_compare_note_counts_the_clamped_k(tmp_path, capsys, monkeypatch, k_converged, err):
    """-k 8 on a mesh that admits 3 pairs: the note reads the report's
    clamped k_requested, not -k."""
    _mock_compare(monkeypatch, 3, k_converged, 1e-9, 3)
    assert run(tmp_path, "compare", "-j", "2", "-n", "1", "-m", "4", "-k", "8")[0] == 0
    assert capsys.readouterr().err == err


def test_compare_level_zero_neumann(tmp_path):
    code, text = run(tmp_path, "compare", "-j", "2,3", "-n", "0", "-m", "99", "-k", "4")
    assert code == 0
    payload = json.loads(text)
    values = [r["numeric"] for r in payload["rows"]]
    for k, v in enumerate(values):
        assert v == pytest.approx((k * math.pi) ** 2, rel=2e-3, abs=1e-8)


@pytest.mark.parametrize("m, k", [(30_000, 4), (100_000, 4), (50_000, 6)])
def test_fine_level_zero_meshes_match_their_tables(tmp_path, m, k):
    """The matrix scale 2/h^2 is 1.8e9 to 2e10 on these meshes, so a shift
    of -1e-5 scale lies 1,800 to 20,000 times further below 0 than pi^2
    lies above it.  With that shift the first call certified 11.0099 for
    pi^2 (exit 0), the second exited 3 and the third converged 1 of 6
    pairs.  The solver's shift is -1, in the units of the matrix."""
    argv = ["compare", "-j", "2", "-n", "0", "-m", str(m), "-k", str(k), "--seed", "1"]
    code, text = run(tmp_path, *argv)
    assert code == 0
    payload = json.loads(text)
    assert payload["all_multiplicities_match"] is True
    assert payload["max_relative_error"] <= 1e-2


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


def _results(text):
    """The payload without its config, which echoes -j as typed."""
    return {key: value for key, value in json.loads(text).items() if key != "config"}


def test_repeated_pattern_asymptote_is_the_constants(tmp_path):
    """1000 twos are the constant 2: the same samples and the same residue
    expansion, not one summed over a 1000-fold finer pole lattice."""
    argv = ["heat", "--t", "1e-3", "--asymptotic"]
    code, repeated = run(tmp_path, *argv, "-j", ",".join(["2"] * 1000))
    assert code == 0
    code, constant = run(tmp_path, *argv, "-j", "2")
    assert code == 0
    assert _results(repeated) == _results(constant)


def test_repeated_pattern_fits_the_constants_dimension(tmp_path):
    """Eight twos are the constant 2, so the fit averages over the window
    log 4, not 8 log 4: the grid that fits -j 2 fits them too."""
    argv = ["heat", "--t", "1e-9:1e-5:40log", "--fit-ds"]
    code, repeated = run(tmp_path, *argv, "-j", "2,2,2,2,2,2,2,2")
    assert code == 0
    code, constant = run(tmp_path, *argv, "-j", "2")
    assert code == 0
    assert _results(repeated)["fit"] == _results(constant)["fit"]
    assert _results(repeated) == _results(constant)


@pytest.mark.parametrize("flag", ["--asymptotic", "--fit-ds"])
@pytest.mark.parametrize("t", ["1e-3", "5"])
def test_prefix_period_refused_before_any_trace(tmp_path, capsys, monkeypatch, flag, t):
    """The asymptote and the fit need the limit space's period, and they are
    formed before the trace is summed, so JSequence.period refuses an
    explicit prefix (exit 1) at every t, small or large."""

    def no_trace(*args, **kwargs):
        raise AssertionError("heat_trace_grid was called")

    monkeypatch.setattr("laakso.cli.heat_trace_grid", no_trace)
    assert run(tmp_path, "heat", "-j", "seq:2,3", "--t", t, flag)[0] == 1
    assert capsys.readouterr().err == (
        "invalid input: an explicit prefix has no period; write the pattern "
        "without 'seq:' to repeat it\n"
    )


def test_heat_explicit_cap_failure_is_exit_two(tmp_path):
    code, _ = run(tmp_path, "heat", "-j", "seq:2,3", "--t", "1e-6", "--tol", "1e-9")
    assert code == 2


@pytest.mark.parametrize(
    "spec, t, extra, z",
    [
        (str(10**400), "1", [], 1.0000517231862038),
        (f"2,{10**400}", "1e-3", [], 18.341241161527712),
        (f"seq:2,{10**400}", "1e-3", [], 18.341241161527712),
        (f"2,{10**400}", "1e-3", ["--level-cap", "1"], 18.341241161527712),
        (str(10**400), "1", ["--level-cap", "1"], 1.0000517231862038),
    ],
    ids=["huge", "2-huge", "seq-2-huge", "2-huge-cap1", "huge-cap1"],
)
def test_heat_entry_past_the_double_range_runs(tmp_path, spec, t, extra, z):
    """An entry with no float is an exact integer route: heat exits 0, and
    the level it scales adds nothing."""
    code, text = run(tmp_path, "heat", "-j", spec, "--t", t, *extra)
    assert code == 0
    assert [sample["z"] for sample in json.loads(text)["samples"]] == [z]


def test_heat_csv(tmp_path):
    code, text = run(
        tmp_path, "heat", "-j", "2", "--t", "1e-4:1e-3:3log", "--format", "csv"
    )
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "t,z,tail_bound"
    assert len(lines) == 4


@pytest.mark.parametrize(
    "lo, hi, n",
    [(1e-300, 1e2, 10_001), (1e-300, 1e-299, 50), (1e-9, 1e-5, 40), (1e-9, 1e-7, 20),
     (3e-17, 0.7, 333), (1e-3, 1e2, 2)],
)
def test_t_grid_is_numpys_geomspace_in_plain_floats(lo, hi, n):
    """The a:b:Nlog grid keeps its ends exactly, increases strictly and stays
    within 1e-12 relative of numpy's geomspace, from 1e-300 to 1e2."""
    ts = _parse_t_grid(f"{lo!r}:{hi!r}:{n}log")
    assert len(ts) == n and ts[0] == lo and ts[-1] == hi
    assert all(a < b for a, b in zip(ts, ts[1:]))
    assert ts == pytest.approx(list(np.geomspace(lo, hi, n)), rel=1e-12, abs=0.0)
    assert _parse_t_grid(f"{lo!r}:{hi!r}:1log") == [lo]


def test_t_grid_at_the_top_of_the_double_range_stays_finite():
    """10^y for the log of an end near the largest double rounds past the
    double range; such a point is that end, not an overflow or inf."""
    lo, hi = 1.7976931348623e308, sys.float_info.max
    for ends in ((lo, hi), (hi, lo), (hi, hi)):
        ts = _parse_t_grid(f"{ends[0]!r}:{ends[1]!r}:5log")
        assert all(lo <= t <= hi for t in ts), ts


# -- zeta ----------------------------------------------------------------------


def test_zeta_both_modes_agree(tmp_path):
    # at s = 600 both routes underflow to 0: not an overflow
    code, text = run(tmp_path, "zeta", "-j", "2", "--s", "2", "--s", "3", "--s", "600")
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


def test_dash_led_values_join_only_their_own_option(tmp_path, capsys):
    """Only a dash-led token right after -m or --s is joined to it: `--s=-1.5`
    stays as typed, and in `-m -m -3:3` the first -m takes no value."""
    code, text = run(tmp_path, "zeta", "-j", "2", "--s=-1.5", "--s", "-2.5", "--mode", "closed")
    assert code == 0
    assert [row["closed"][0] for row in json.loads(text)["values"]] == [
        0.5751164222958851, -2.725147174222179,
    ]
    code, _ = run(tmp_path, "poles", "-j", "2", "-m", "-m", "-3:3")
    assert code == 1
    assert capsys.readouterr().err == "invalid input: argument -m: expected one argument\n"


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
assert "numpy" not in sys.modules
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
# exact arithmetic stays in int
assert "fractions" not in sys.modules and "decimal" not in sys.modules
# records are NamedTuples: no dataclasses, and with it no inspect, at start-up
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules
for name in ("laakso.graphs", "laakso.solver", "laakso.compare"):
    assert name in sys.modules, name
for name in laakso.__all__:
    getattr(laakso, name)
report = laakso.compare_spectra(laakso.parse_sequence("2,3"), 1, 1, 3)
assert report.all_multiplicities_match and report.compared_converged
"""


def test_cold_cli_loads_no_scipy_outside_the_mesh_route(tmp_path):
    """A fresh process that imports the package and runs an exact command
    loads no scipy, fractions, decimal, dataclasses or inspect, yet keeps
    every submodule (bench/tracing.py reads each one from sys.modules) and
    public name in place and can still run the mesh comparison afterwards."""
    env = dict(os.environ, PYTHONPATH=str(Path(laakso.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT_CHECK, str(tmp_path / "dims.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


_NO_ARRAYS_CHECK = """
import shlex, sys
import laakso.cli

assert laakso.cli.main(shlex.split(sys.argv[1]) + ["--out", sys.argv[2]]) == 0
loaded = sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy"))
assert not loaded, loaded
"""


README = Path(__file__).resolve().parents[1] / "README.md"
README_COMMANDS = [
    line for line in README.read_text().splitlines() if line.startswith("laakso ")
]


@pytest.mark.parametrize(
    "command",
    [
        command.removeprefix("laakso ")
        for command in README_COMMANDS
        if not command.startswith("laakso compare")
    ]
    + ["zeta -j 2 --s 2 --s 1.5 --s 3 --mode closed"],
)
def test_exact_commands_load_neither_numpy_nor_scipy(tmp_path, command):
    """Every README command but compare is an integer table walk or a sum in
    plain floats (the heat trace and its t grid, the slope fit, both zeta
    routes): a fresh process that runs one of them never imports numpy or
    scipy."""
    env = dict(os.environ, PYTHONPATH=str(Path(laakso.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_ARRAYS_CHECK, command, str(tmp_path / "out.txt")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


README_STDOUT = json.loads((Path(__file__).parent / "readme_stdout.json").read_text())
EXACT_README_COMMANDS = [c for c in README_COMMANDS if not c.startswith("laakso compare")]


def test_readme_goldens_are_the_exact_commands():
    assert sorted(README_STDOUT) == sorted(EXACT_README_COMMANDS)


@pytest.mark.parametrize("command", EXACT_README_COMMANDS)
def test_readme_stdout_is_pinned(capsys, command):
    """Each exact README command prints the bytes stored in readme_stdout.json,
    keyed by its README line.  compare is left out: its last digits follow
    the BLAS build.  Rewrite an entry only for a change meant to alter that
    command's output."""
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == README_STDOUT[command]


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
        ["zeta", "-j", "2", "--s", "-200.25", "--mode", "closed"],
        ["spectrum", "-j", "2", "--count", "3", "--lambda-max", "1"],
        ["spectrum", "-j", "2", "--count", "3", "--level-max", "2"],
        ["heat", "-j", "2", "--t", "1e-3", "--m-terms", "5"],
        ["dims", "-j", "2,3", "--assume-periodic"],
        ["heat", "-j", "2", "--t", "1e-3", "--tol", "1e-320"],
        ["heat", "-j", "2", "--t", "1e-3", "--tol", "5e-324"],
        ["heat", "-j", "2", "--t", "1e-320"],
        ["heat", "-j", "2", "--t", "1e-9:1e-5:10002log"],
        ["spectrum", "-j", "2", "--lambda-max", "1e12"],
        ["spectrum", "-j", "2", "--count", "300000"],
        ["compare", "-j", "2", "-n", "10", "-m", "1", "-k", "10"],
        ["compare", "-j", "2,3", "-n", "5", "-m", "8", "-k", "20000"],
        ["spectrum", "-j", "2", "--count", "1" + "0" * 400],
        ["spectrum", "-j", "2", "--count", "262145"],
        ["compare", "-j", "2,3", "-n", "2", "-m", "8", "-k", "20", "--seed", "-1"],
        ["heat", "-j", "2", "--t", "inf"],
        ["heat", "-j", "2", "--t", "1:inf:3log", "--asymptotic"],
        ["heat", "-j", "2", "--t", "1:2:3"],
        ["poles", "-j", "2", "-m", "3"],
        ["heat", "-j", "2,3", "--t", "1e-6:1e-4:3log", "--level-cap", "3", "--asymptotic"],
        ["heat", "-j", "seq:2,3", "--t", "1e-3", "--asymptotic"],
        ["heat", "-j", "seq:2,3", "--t", "5", "--asymptotic"],
        ["heat", "-j", "seq:2,3", "--t", "1e-3", "--fit-ds"],
        ["heat", "-j", "seq:2,3", "--t", "5", "--fit-ds"],
        ["heat", "-j", "2", "--t", "1e-9:1e-5:40log", "--level-cap", "3", "--fit-ds"],
    ],
)
def test_malformed_input_is_exit_one(tmp_path, capsys, argv):
    code, _ = run(tmp_path, *argv)
    assert code == 1
    assert capsys.readouterr().err.startswith("invalid input:")


@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_unwritable_out_is_exit_one(tmp_path, capsys, target):
    """An OSError while writing --out is invalid input that names the path,
    not a traceback.  main is called directly: run() appends its own --out."""
    out = tmp_path if target == "directory" else tmp_path / "missing" / "out.json"
    code = main(["spectrum", "-j", "2", "--lambda-max", "10", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: cannot write --out {out}: ")
    assert "Traceback" not in err


_WIDE_BLOCK = ",".join(["10"] * 309 + ["11"])  # P = 1.1 10^310, past the double range


@pytest.mark.parametrize(
    "argv",
    [
        ["dims"],
        ["zeta", "--s", "2", "--mode", "closed"],
        ["zeta", "--s", "2", "--mode", "direct"],
        ["poles", "-m", "-1:1"],
        ["heat", "--t", "1e-3", "--asymptotic"],
    ],
)
def test_block_past_the_double_range_is_refused_by_name(tmp_path, capsys, argv):
    """Every float formula in P is refused as invalid input that names the
    block, not an OverflowError traceback or a false overflow report."""
    code, _ = run(tmp_path, *argv, "-j", _WIDE_BLOCK)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: the block P")
    assert "past the double range" in err


def test_block_past_the_double_range_keeps_its_level_spectrum(tmp_path):
    """Exact integer routes never form P as a float: below lambda = 500 only
    levels 0 and 1 enter, and j_1 = 10, so the 310-entry pattern's spectrum
    is the constant 10's."""
    code, wide = run(tmp_path, "spectrum", "-j", _WIDE_BLOCK, "--lambda-max", "500")
    assert code == 0
    code, constant = run(tmp_path, "spectrum", "-j", "10", "--lambda-max", "500")
    assert code == 0
    assert json.loads(wide)["entries"] == json.loads(constant)["entries"]


@pytest.mark.parametrize("entries", [238, 300])
def test_block_inside_the_double_range_sums_its_closed_zeta(tmp_path, entries):
    """A primitive block of entries - 1 tens then an 11, P about 10^238 or
    10^300, fits a double while its closed terms' counts do not: the closed
    zeta is summed, not reported as an overflow.  The space is the constant
    10's through level entries - 1, so at s = 2 and 3+1j the two agree to
    rounding."""
    wide = ",".join(["10"] * (entries - 1) + ["11"])
    argv = ["--s", "2", "--s", "3+1j", "--mode", "closed"]
    code, text = run(tmp_path, "zeta", "-j", wide, *argv)
    assert code == 0
    code, constant = run(tmp_path, "zeta", "-j", "10", *argv)
    for got, expected in zip(json.loads(text)["values"], json.loads(constant)["values"]):
        got, expected = complex(*got["closed"]), complex(*expected["closed"])
        assert abs(got - expected) <= 1e-13 * abs(expected)


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
