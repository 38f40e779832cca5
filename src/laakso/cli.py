"""Command-line front end.

Subcommands: spectrum, compare, dims, heat, zeta, poles.  Every run echoes
its resolved configuration in the output so results are reproducible from
the artifact alone; identical configurations produce byte-identical files.

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 reference mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys

from . import refdata
from .compare import compare_spectra
from .errors import DivergenceError, PoleError, TailToleranceError, ValidationError
from .heatzeta import (
    _MAX_POINTS,
    estimate_spectral_dimension,
    heat_trace_asymptote,
    heat_trace_grid,
    oscillation_log_period,
    poles,
    spectral_zeta_closed,
    spectral_zeta_direct,
)
from .sequences import dimensions, parse_sequence
from .spectrum import first_distinct, full_spectrum, level_spectrum


class ReferenceMismatch(Exception):
    """Output that disagrees with its reference (exit 3); the message says where."""


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ValidationError, so they exit 1 like other
    invalid input instead of argparse's own exit status 2."""

    def error(self, message):
        raise ValidationError(message)


def _number(kind, text: str, what: str):
    """kind(text) for CLI text, with a malformed number reported as invalid input."""
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"{what} {text!r} is not a valid {kind.__name__}") from None


def _parse_t_grid(spec: str) -> list[float]:
    """"a:b:Nlog" -> N log-spaced points in [a, b]; a bare number -> [a].

    The points are laid out as numpy's geomspace does, 10^(i step + log10 a)
    with both ends pinned to a and b, but from libm's pow.
    """
    parts = spec.split(":")
    if len(parts) == 1:
        return [_number(float, parts[0], "t")]
    if len(parts) == 3 and parts[2].endswith("log"):
        n = _number(int, parts[2][:-3], "t grid point count")
        if not 1 <= n <= _MAX_POINTS:
            raise ValidationError(f"t grid needs 1 to {_MAX_POINTS} points: {spec!r}")
        lo, hi = (_number(float, part, "t grid end") for part in parts[:2])
        if lo <= 0 or hi <= 0:
            raise ValidationError(f"t grid ends must be positive: {spec!r}")
        if n == 1:
            return [lo]
        start = math.log10(lo)
        step = (math.log10(hi) - start) / (n - 1)
        ts = [lo]
        for i in range(1, n - 1):
            try:
                ts.append(10.0 ** (i * step + start))
            except OverflowError:  # rounded past an end at the top of the double range
                ts.append(max(lo, hi))
        return ts + [hi]
    raise ValidationError(f"bad t grid {spec!r}; use a:b:Nlog or a single value")


def _parse_m_range(spec: str) -> tuple[int, int]:
    lo, _, hi = spec.partition(":")
    if not _:
        raise ValidationError(f"bad m range {spec!r}; use lo:hi")
    return _number(int, lo, "m range end"), _number(int, hi, "m range end")


def _emit(args, payload: dict, csv_rows: list[list] | None, csv_header: list[str]):
    """Render payload as json or csv (config echoed either way)."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        for key, value in payload["config"].items():
            buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows or []:
            writer.writerow(row)
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise ValidationError(f"cannot write --out {args.out}: {err.strerror or err}") from None
    else:
        sys.stdout.write(text)


def _config(args, **extra) -> dict:
    cfg = {"command": args.command, "sequence": args.sequence, "format": args.format}
    cfg.update(extra)
    return cfg


def cmd_spectrum(args) -> int:
    if args.count is not None:
        if args.lambda_max is not None or args.level_max is not None:
            raise ValidationError("--count excludes --lambda-max and --level-max")
        table = first_distinct(args.seq, args.count)
    elif args.lambda_max is None:
        raise ValidationError("spectrum needs --count or --lambda-max")
    elif args.level_max is not None:
        table = level_spectrum(args.seq, args.level_max, args.lambda_max)
    else:
        table = full_spectrum(args.seq, args.lambda_max)

    mismatches = []
    if args.expect == "table1":
        for i, (ref_lam, ref_mult) in enumerate(refdata.TABLE1):
            if i >= len(table.entries):
                mismatches.append(f"row {i}: missing (expected {ref_lam}, {ref_mult})")
                continue
            e = table.entries[i]
            if abs(e.value - ref_lam) > 0.005:
                mismatches.append(
                    f"row {i}: lambda {e.value:.4f} != reference {ref_lam}"
                )
            if e.multiplicity != ref_mult:
                mismatches.append(
                    f"row {i}: multiplicity {e.multiplicity} != reference {ref_mult}"
                )

    payload = {
        "config": _config(
            args,
            lambda_max=table.lambda_max,
            count=args.count,
            level_max=args.level_max,
            expect=args.expect,
        ),
        "levels_included": "all" if table.level_cap is None else table.level_cap,
        "entries": [e.as_dict() for e in table.entries],
    }
    if args.expect:
        payload["reference_diffs"] = mismatches
    rows = [[repr(e.value), e.multiplicity] for e in table.entries]
    _emit(args, payload, rows, ["lambda", "multiplicity"])
    if mismatches:
        raise ReferenceMismatch("\n".join(mismatches))
    return 0


def cmd_compare(args) -> int:
    report = compare_spectra(args.seq, args.level, args.mesh, args.k, seed=args.seed or 0)
    rows = [
        {
            "analytic": r.analytic_value,
            "analytic_multiplicity": r.analytic_multiplicity,
            "mesh": r.mesh_value,
            "numeric": r.numeric_value,
            "numeric_multiplicity": r.numeric_multiplicity,
            "relative_error": r.relative_error,
            "residual": r.residual,
            "multiplicity_match": r.multiplicity_match,
        }
        for r in report.rows
    ]
    payload = {
        "config": _config(args, level=args.level, mesh=args.mesh, k=args.k, seed=args.seed),
        "matrix_dimension": report.matrix_dimension,
        "trust_cutoff": report.trust_cutoff,
        "k_converged": report.k_converged,
        "clusters": [{"value": v, "multiplicity": m} for v, m in report.clusters],
        "rows": rows,
        "all_multiplicities_match": report.all_multiplicities_match,
        "max_relative_error": report.max_relative_error,
    }
    keys = ("analytic", "analytic_multiplicity", "mesh", "numeric", "numeric_multiplicity",
            "relative_error", "residual")
    header = ["analytic", "analytic_mult", "mesh", "numeric", "numeric_mult", "rel_error", "residual"]
    _emit(args, payload, [[row[key] for key in keys] for row in rows], header)
    if report.k_converged < report.k_requested:
        print(f"eigensolver converged {report.k_converged}/{report.k_requested} pairs", file=sys.stderr)
    if not report.compared_converged:
        return 2
    if not report.all_multiplicities_match:
        raise ReferenceMismatch("multiplicity mismatch below the trust cutoff")
    return 0


def cmd_dims(args) -> int:
    dims = dimensions(args.seq)._asdict()
    rows = [[repr(value) for value in dims.values()]]
    _emit(args, {"config": _config(args), **dims}, rows, list(dims))
    return 0


def cmd_heat(args) -> int:
    if (args.asymptotic or args.fit_ds) and args.level_cap is not None:
        raise ValidationError(
            "--asymptotic and --fit-ds read the limit space, which a level-capped "
            "trace is not; drop --level-cap"
        )
    ts = _parse_t_grid(args.t)
    # what needs the limit space's period comes before any trace is summed, so
    # an explicit prefix, which has none, is refused at every t
    log_period = oscillation_log_period(args.seq) if args.fit_ds else None
    asym = [heat_trace_asymptote(args.seq, t) for t in ts] if args.asymptotic else None
    samples = heat_trace_grid(args.seq, ts, args.tol, level_cap=args.level_cap)
    payload = {
        "config": _config(
            args,
            t=args.t,
            tol=args.tol,
            level_cap=args.level_cap,
            fit_ds=args.fit_ds,
            asymptotic=args.asymptotic,
        ),
        "samples": [
            {"t": s.t, "z": s.z, "tail_bound": s.tail_bound} for s in samples
        ],
    }
    csv_header = ["t", "z", "tail_bound"]
    rows = [[repr(s.t), repr(s.z), repr(s.tail_bound)] for s in samples]
    if args.asymptotic:
        payload["asymptote"] = asym
        payload["asymptote_relative_gap"] = [
            abs(a - s.z) / s.z for a, s in zip(asym, samples)
        ]
        csv_header.append("asymptote")
        for row, a in zip(rows, asym):
            row.append(repr(a))
    if args.fit_ds:
        fitted = estimate_spectral_dimension(samples, log_period)
        rep = dimensions(args.seq)
        payload["fit"] = {
            "log_period": log_period,
            "spectral_dimension": fitted,
            "expected": rep.spectral,
        }
        payload["dimensions"] = rep._asdict()
        lattice = poles(args.seq)
        payload["poles"] = {
            "real_part": lattice.real_part,
            "spacing": lattice.spacing,
        }
    _emit(args, payload, rows, csv_header)
    return 0


def cmd_zeta(args) -> int:
    routes = [
        (name, route)
        for name, route in (("closed", spectral_zeta_closed), ("direct", spectral_zeta_direct))
        if args.mode in (name, "both")
    ]
    values, rows = [], []
    for s_text in args.s:
        s = _number(complex, s_text, "s")
        row, flat = {"s": s_text}, [s_text]
        for name, route in routes:
            z = route(args.seq, s)
            row[name] = [z.real, z.imag]
            flat += [repr(z.real), repr(z.imag)]
        if args.mode == "both":
            diff = complex(*row["closed"]) - complex(*row["direct"])
            row["abs_difference"] = abs(diff)
            flat.append(repr(row["abs_difference"]))
        values.append(row)
        rows.append(flat)
    header = ["s"] + [f"{name}_{part}" for name, _ in routes for part in ("re", "im")]
    if args.mode == "both":
        header.append("abs_difference")
    payload = {"config": _config(args, s=args.s, mode=args.mode), "values": values}
    _emit(args, payload, rows, header)
    return 0


def cmd_poles(args) -> int:
    lo, hi = _parse_m_range(args.m)
    lattice = poles(args.seq, (lo, hi))
    members = list(zip(range(lo, hi + 1), lattice.members))
    payload = {
        "config": _config(args, m=args.m),
        "real_part": lattice.real_part,
        "spacing": lattice.spacing,
        "members": [{"m": m, "re": p.real, "im": p.imag} for m, p in members],
    }
    rows = [[m, repr(p.real), repr(p.imag)] for m, p in members]
    _emit(args, payload, rows, ["m", "re", "im"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="laakso",
        description="Exact and numerical Laplacian spectra of Laakso spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-j", "--sequence", required=True, help="sequence spec: k | a,b,... | seq:a,b,...")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None, help="eigensolver start-vector seed")

    p = sub.add_parser("spectrum", help="exact spectrum table")
    common(p)
    p.add_argument("--lambda-max", type=float, default=None)
    p.add_argument("--count", type=int, default=None, help="number of distinct eigenvalues")
    p.add_argument("--level-max", type=int, default=None)
    p.add_argument("--expect", choices=("table1",), default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("compare", help="mesh eigensolver vs analytic table")
    common(p)
    p.add_argument("-n", "--level", type=int, required=True)
    p.add_argument("-m", "--mesh", type=int, required=True, help="interior points per edge")
    p.add_argument("-k", type=int, required=True, help="eigenvalue count")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dims", help="dimension report")
    common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("heat", help="heat-kernel trace over a t grid")
    common(p)
    p.add_argument("--t", required=True, help="grid a:b:Nlog or a single t")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--level-cap", type=int, default=None)
    p.add_argument("--fit-ds", action="store_true")
    p.add_argument("--asymptotic", action="store_true")
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("zeta", help="spectral zeta values")
    common(p)
    p.add_argument("--s", action="append", required=True, help="complex s, e.g. 2 or 1.5+2j (repeatable)")
    p.add_argument("--mode", choices=("closed", "direct", "both"), default="both")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("poles", help="pole lattice")
    common(p)
    p.add_argument("-m", default="-3:3", help="integer range lo:hi")
    p.set_defaults(func=cmd_poles)

    return parser


def _join_dash_values(argv: list[str]) -> list[str]:
    """Let `-m -3:3` and `--s -0.45-3j` parse.

    argparse reads a dash-led token as a new option unless it is a plain
    negative number, so an option that takes ranges or complex values is
    rejoined with a following value that starts with a dash and a digit
    or a point.
    """
    out = []
    for tok in argv:
        if out and out[-1] in ("-m", "--s") and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_dash_values(argv))
        args.seq = parse_sequence(args.sequence)
        return args.func(args)
    except ReferenceMismatch as err:
        print(f"reference mismatch:\n{err}", file=sys.stderr)
        return 3
    except ValidationError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 1
    except (TailToleranceError, PoleError, DivergenceError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
