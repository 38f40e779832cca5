#!/usr/bin/env python3
"""Mesh-refinement study: numerical eigenvalues against the exact spectrum.

Builds the level-n graph, discretizes it at a run of mesh densities, and
prints the relative error of each low cluster representative next to the
second-order prediction lambda h^2 / 12.

Usage:
    python scripts/mesh_convergence.py -j 2,3 -n 2 --meshes 8,16,32,64
"""

import argparse

from laakso import (
    cluster_multiplicities,
    discretize,
    level_spectrum,
    lowest_eigenvalues,
    mesh_spacing,
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
    header = "".join(f"  m={m:>4}" for m in meshes)
    print(f"{'exact':>12}{header}   (relative errors; ~lambda h^2/12)")
    errors = {m: [] for m in meshes}
    for m in meshes:
        matrix = discretize(graph, m)
        result = lowest_eigenvalues(matrix, min(args.k, matrix.dimension - 1))
        reps = cluster_multiplicities(result.values, 0.01).representatives()
        for lam in exact:
            closest = min(reps, key=lambda v: abs(v - lam))
            errors[m].append(abs(closest - lam) / lam)
    h = mesh_spacing(graph, meshes[-1])
    for i, lam in enumerate(exact):
        row = "".join(f"  {errors[m][i]:>6.1e}" for m in meshes)
        predicted = lam * h * h / 12.0
        print(f"{lam:>12.3f}{row}   {predicted:.1e}")


if __name__ == "__main__":
    main()
