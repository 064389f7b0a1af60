"""Write the reference graphs the tower workload checks exports against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout. For each map of the tower corpus,
unconjugated, the combinatorial graph with its tower height N and pole cover
level goes to perfbench/reference/<map>.json.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import inputs  # noqa: E402
from newtongraph import Polynomial, compute_newton_graph, graph_to_json, make_newton_map  # noqa: E402


def main() -> int:
    out_dir = os.path.join(HERE, "reference")
    os.makedirs(out_dir, exist_ok=True)
    for name, family, d in inputs.TOWER_CORPUS:
        f = make_newton_map(Polynomial(tuple(complex(c) for c in family(d))))
        result = compute_newton_graph(f)
        data = {
            "map": name,
            "N": result.minimal_level,
            "pole_cover_level": result.pole_cover_level,
            "combinatorial": graph_to_json(result.dynamics),
        }
        with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
            fh.write("\n")
        print(f"{name}: N = {data['N']}, {result.dynamics.graph.n_edges} edges")
    return 0


if __name__ == "__main__":
    sys.exit(main())
