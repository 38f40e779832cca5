#!/usr/bin/env python3
"""Mesh-refinement study: numerical eigenvalues against the exact spectrum.

Runs compare_spectra on the level-n graph at a run of mesh densities and
prints, for each positive exact eigenvalue that every mesh returned copies
of, two relative errors of the copies' mean: the raw mesh eigenvalue, which
converges at second order in h, and the same eigenvalue mapped back through
continuum_eigenvalues, which is exact up to the solver's accuracy.

Usage:
    python scripts/mesh_convergence.py -j 2,3 -n 2 --meshes 8,16,32,64
"""

import argparse

from laakso import compare_spectra, level_info, parse_sequence


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-j", default="2,3", dest="sequence")
    parser.add_argument("-n", type=int, default=2)
    parser.add_argument("--meshes", default="8,16,32,64")
    parser.add_argument("-k", type=int, default=24)
    args = parser.parse_args()

    seq = parse_sequence(args.sequence)
    meshes = [int(m) for m in args.meshes.split(",")]
    errors = {}  # per mesh: exact value -> (raw error, mapped error)
    for m in meshes:
        errors[m] = {}
        for r in compare_spectra(seq, args.n, m, args.k).rows:
            lam = r.analytic_value
            if r.numeric_multiplicity and lam > 0:
                errors[m][lam] = (abs(r.mesh_value - lam) / lam, r.relative_error)
    exact = sorted(set(errors[meshes[0]]).intersection(*errors.values()))

    info = level_info(seq, args.n)
    print(f"graph: {info.nodes} vertices, {info.cells} edges")
    header = "".join(f"  {f'm={m} raw':>10} {'mapped':>8}" for m in meshes)
    print(f"{'exact':>12}{header}   (relative errors)")
    for lam in exact:
        row = "".join(f"  {errors[m][lam][0]:>10.1e} {errors[m][lam][1]:>8.1e}" for m in meshes)
        print(f"{lam:>12.3f}{row}")


if __name__ == "__main__":
    main()
