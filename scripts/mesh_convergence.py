#!/usr/bin/env python3
"""Mesh-refinement study: numerical eigenvalues against the exact spectrum.

Builds the level-n graph, discretizes it at a run of mesh densities, and
prints, for each low exact eigenvalue and each mesh, two relative errors of
the nearest computed eigenvalue: the raw mesh eigenvalue, which converges
at second order in h, and the same eigenvalue mapped back through
continuum_eigenvalues, which is exact up to the solver's accuracy.

Usage:
    python scripts/mesh_convergence.py -j 2,3 -n 2 --meshes 8,16,32,64
"""

import argparse

import numpy as np

from laakso import (
    continuum_eigenvalues,
    discretize,
    level_spectrum,
    lowest_eigenvalues,
    parse_sequence,
)
from laakso.graphs import build_graph


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-j", default="2,3", dest="sequence")
    parser.add_argument("-n", type=int, default=2)
    parser.add_argument("--meshes", default="8,16,32,64")
    parser.add_argument("-k", type=int, default=24)
    args = parser.parse_args()

    seq = parse_sequence(args.sequence)
    graph = build_graph(seq, args.n)
    meshes = [int(m) for m in args.meshes.split(",")]
    # keep only exact eigenvalues the k-truncated solve can actually reach
    exact = []
    cumulative = 0
    for entry in level_spectrum(seq, args.n, 1e9).entries:
        cumulative += entry.multiplicity
        if cumulative > args.k - 2:
            break
        if entry.value > 0:
            exact.append(entry.value)
    exact = exact[:8]

    print(f"graph: {graph.vertex_count} vertices, {graph.edge_count} edges")
    header = "".join(f"  {f'm={m} raw':>10} {'mapped':>8}" for m in meshes)
    print(f"{'exact':>12}{header}   (relative errors)")
    errors = {}
    for m in meshes:
        matrix = discretize(graph, m)
        raw = lowest_eigenvalues(matrix, min(args.k, matrix.dimension - 1)).values
        mapped = continuum_eigenvalues(graph, m, raw)
        errors[m] = [
            (np.abs(raw - lam).min() / lam, np.abs(mapped - lam).min() / lam)
            for lam in exact
        ]
    for i, lam in enumerate(exact):
        row = "".join(f"  {errors[m][i][0]:>10.1e} {errors[m][i][1]:>8.1e}" for m in meshes)
        print(f"{lam:>12.3f}{row}")


if __name__ == "__main__":
    main()
