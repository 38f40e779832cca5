"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import math
import time

import numpy as np

from laakso import (
    dimensions,
    estimate_spectral_dimension,
    fine_pole_spacing,
    first_distinct,
    heat_trace,
    heat_trace_asymptote,
    heat_trace_grid,
    level_info,
    oscillation_log_period,
    parse_sequence,
    poles,
    residue_coefficient,
    shape_census,
    spectral_zeta_closed,
    spectral_zeta_direct,
    sqrt_term_coefficient,
)
from laakso.compare import compare_spectra
from laakso.graphs import build_graph
from conftest import brute_force_census

TABLE_MULTIPLICITIES = [1, 3, 1, 8, 1, 3, 26, 3, 1, 8, 1, 3, 38, 3, 1, 8, 1, 3, 86, 3]


def _report(cid: int, ok: bool, description: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"[criterion {cid}] {status}: {description}{tail}")


def test_criterion_1_reference_spectrum_reproduction():
    t0 = time.time()
    table = first_distinct(parse_sequence("2,3"), 20)
    elapsed = time.time() - t0
    mults_ok = [e.multiplicity for e in table.entries] == TABLE_MULTIPLICITIES
    values_ok = all(
        abs(e.value - (k * math.pi) ** 2) <= 0.005
        for k, e in enumerate(table.entries)
    )
    ok = mults_ok and values_ok and elapsed < 1.0
    _report(
        1,
        ok,
        "first 20 distinct eigenvalue multiplicities and (k pi)^2 values",
        f"{elapsed:.3f}s",
    )
    assert mults_ok
    assert values_ok
    assert elapsed < 1.0


def test_criterion_2_numeric_vs_analytic():
    # meshes put the trust cutoff just above the 15th distinct eigenvalue
    cases = [("2", 3, 55, 112), ("2,3", 3, 36, 108), ("3,2", 2, 55, 46)]
    all_ok = True
    details = []
    for spec, level, mesh, k in cases:
        t0 = time.time()
        report = compare_spectra(parse_sequence(spec), level, mesh, k)
        elapsed = time.time() - t0
        rows = report.rows[:15]
        enough = len(rows) == 15
        mult_ok = enough and all(r.multiplicity_match for r in rows)
        val_ok = enough and all(
            r.relative_error <= 0.005 for r in rows if r.analytic_value > 0
        )
        time_ok = elapsed < 120.0
        case_ok = mult_ok and val_ok and time_ok
        all_ok = all_ok and case_ok
        details.append(f"{spec}@n={level}: {elapsed:.1f}s")
        assert enough, f"{spec}: only {len(rows)} comparable clusters"
        assert mult_ok, f"{spec}: multiplicity mismatch {rows}"
        assert val_ok, f"{spec}: relative error above 0.5%"
        assert time_ok, f"{spec}: took {elapsed:.1f}s"
    _report(2, all_ok, "mesh eigensolver reproduces level spectra", "; ".join(details))


def test_criterion_3_zeta_route_equivalence():
    t0 = time.time()
    ok = True
    worst = 0.0
    for spec in ("2", "2,3"):
        seq = parse_sequence(spec)
        for s in (1.5, 2.0, 3.0):
            closed = spectral_zeta_closed(seq, s)
            direct = spectral_zeta_direct(seq, s)
            gap = abs(closed - direct) / (1.0 + abs(closed))
            worst = max(worst, gap)
            ok = ok and gap <= 1e-8
    elapsed = time.time() - t0
    _report(3, ok, "closed-form zeta equals the direct sum", f"worst {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_4_spectral_dimension_from_trace():
    targets = {
        "2": 2.0,
        "2,3": math.log(24.0) / math.log(6.0),
        "3": math.log(6.0) / math.log(3.0),
    }
    ok = True
    details = []
    for spec, expected in targets.items():
        seq = parse_sequence(spec)
        samples = heat_trace_grid(seq, np.geomspace(1e-9, 1e-5, 81), 1e-9)
        fitted = estimate_spectral_dimension(samples, oscillation_log_period(seq))
        rel = abs(fitted - expected) / expected
        ok = ok and rel <= 0.02
        details.append(f"{spec}: {fitted:.4f} vs {expected:.4f}")
        assert rel <= 0.02, f"{spec}: fitted {fitted}, expected {expected}"
    _report(4, ok, "trace-slope spectral dimensions within 2%", "; ".join(details))


def _oscillation_amplitude(seq, m):
    """|a_m| / |a_0|: the m-th dominant residue against the real one."""
    half_ds, fine = dimensions(seq).spectral / 2.0, fine_pole_spacing(seq)
    base = residue_coefficient(seq, complex(half_ds, 0.0), "dominant").real
    return abs(residue_coefficient(seq, complex(half_ds, m * fine), "dominant")) / abs(base)


def test_criterion_5_weyl_coefficient_constant_two():
    seq = parse_sequence("2")
    # residue-coefficient oracle: the oscillation amplitude plus the
    # square-root and constant corrections stay inside the 2% band
    osc_band = 2.0 * sum(_oscillation_amplitude(seq, m) for m in (1, 2, 3))
    t_hi = 1e-6
    sqrt_corr = (
        16.0 * math.log(2.0) * t_hi
        * sqrt_term_coefficient(seq) / math.sqrt(math.pi * t_hi)
    )
    band_ok = osc_band + sqrt_corr < 0.02

    ts = np.geomspace(1e-9, 1e-6, 73)
    product = np.array(
        [16.0 * math.log(2.0) * s.t * s.z for s in heat_trace_grid(seq, ts, 1e-9)]
    )
    delta = math.log(ts[1] / ts[0])
    q = max(1, round(oscillation_log_period(seq) / delta))
    averaged = np.convolve(product, np.ones(q) / q, mode="valid")
    dev = float(np.max(np.abs(averaged - 1.0)))
    ok = band_ok and dev < 0.02
    _report(
        5,
        ok,
        "windowed average of 16 log2 t Z(t) within 2% of 1",
        f"max deviation {dev:.4f}; oracle band {osc_band + sqrt_corr:.4f}",
    )
    assert band_ok
    assert dev < 0.02


def test_criterion_6_asymptotic_cross_validation():
    ts = np.geomspace(1e-9, 1e-7, 41)
    worst = 0.0
    for spec in ("2", "2,3"):
        seq = parse_sequence(spec)
        for t in ts:
            z = heat_trace(seq, float(t), 1e-10).z
            gap = abs(heat_trace_asymptote(seq, float(t)) - z) / z
            worst = max(worst, gap)
    ok = worst <= 0.03
    _report(6, ok, "residue expansions track the trace within 3%", f"worst {worst:.2e}")
    assert ok


def test_criterion_7_structural_brute_force():
    ok = True
    for spec in ("2", "3", "2,3", "3,2"):
        seq = parse_sequence(spec)
        for n in (1, 2, 3, 4):
            graph = build_graph(seq, n)
            info = level_info(seq, n)
            census = shape_census(seq, n)
            got = brute_force_census(seq, n)
            degrees = np.bincount(graph.edges.ravel(), minlength=graph.vertex_count)
            case_ok = (
                got == (census.v_count, census.loop_count, census.cross_count)
                and graph.vertex_count == info.nodes
                and graph.edge_count == info.cells
                and np.count_nonzero(degrees == 1) == 2 ** (n + 1)
                and np.count_nonzero(degrees == 4) == 2 ** (n - 1) * (info.scale - 1)
            )
            ok = ok and case_ok
            assert case_ok, f"{spec} n={n}"
    _report(7, ok, "graph inspection matches every closed-form count (n <= 4)")


def test_criterion_8_pole_lattice():
    lattice = poles(parse_sequence("2"))
    re_ok = lattice.real_part == 1.0
    sp_ok = lattice.spacing == 2.0 * math.pi / math.log(4.0)
    family_ok = True
    for spec in ("2", "3", "4", "5", "2,3", "3,2", "2,5", "2,3,4", "6,2"):
        seq = parse_sequence(spec)
        gap = abs(poles(seq).real_part - dimensions(seq).spectral / 2.0)
        family_ok = family_ok and gap <= 1e-13
    ok = re_ok and sp_ok and family_ok
    _report(8, ok, "pole lattice real part and spacing", "Re=1, spacing 2pi/log4")
    assert re_ok
    assert sp_ok
    assert family_ok
