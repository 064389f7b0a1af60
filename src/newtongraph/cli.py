"""Command-line frontend for the pipeline.

One binary with subcommands (roots, render, graph, validate, compare,
thurston), stable JSON file formats, and fixed exit codes:

    0  success, or a positive verdict (validation passed, graphs equivalent)
    1  negative verdict (a condition failed, graphs not equivalent)
    2  input, parse or numeric error
    3  the polynomial is not postcritically fixed

stdout stays human-readable; pass --json for machine output.  All output is
deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .combinatorial import (
    GraphDynamics,
    graph_from_json,
    graphs_equivalent,
    validate_newton_graph,
)
from .dynamics import MAX_RASTER_ITER, RasterSpec, render_basins
from .errors import NewtonGraphError, UnresolvedOrbit
from .poly import Polynomial, make_newton_map
from .pullback import compute_newton_graph, newton_graph_to_json
from .thurston import multicurve_from_json, transition_matrix

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_NOT_PCF = 3


class InputError(Exception):
    """Unusable input file or option; mapped to exit code 2."""


# --- input parsing ----------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def _complex_from_json(value) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        return complex(value[0], value[1])
    raise InputError(f"expected a number or [re, im] pair, got {value!r}")


def load_polynomial(path: str) -> Polynomial:
    """Read {"coeffs": [[re, im], ...]} (lowest first) or {"roots": ...} (monic)."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: polynomial file must hold a JSON object")
    if "coeffs" in data and "roots" in data:
        raise InputError(f'{path}: give either "coeffs" or "roots", not both')
    if "coeffs" in data:
        return Polynomial(tuple(_complex_from_json(v) for v in data["coeffs"]))
    if "roots" in data:
        return Polynomial.from_roots([_complex_from_json(v) for v in data["roots"]])
    raise InputError(f'{path}: need a "coeffs" or "roots" key')


def _load_dynamics(path: str) -> GraphDynamics:
    """Read a combinatorial graph-with-dynamics, unwrapping full pipeline
    exports that keep it under a "combinatorial" key."""
    data = _load_json(path)
    if isinstance(data, dict) and "combinatorial" in data:
        data = data["combinatorial"]
    try:
        graph = graph_from_json(data)
    except (NewtonGraphError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: not a valid graph file: {exc}") from exc
    if not isinstance(graph, GraphDynamics):
        raise InputError(f"{path}: graph has no dynamics block")
    return graph


# --- output helpers ---------------------------------------------------------


def _dump_json(data) -> str:
    # no indent: json's C encoder only runs without one
    return json.dumps(data, sort_keys=True) + "\n"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _write_file(path: str, payload: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# --- subcommands ------------------------------------------------------------


def cmd_roots(args) -> int:
    f = make_newton_map(load_polynomial(args.polynomial))
    if args.json:
        payload = {
            "degree": f.degree,
            "roots": [_pair(r) for r in f.roots],
            "poles": [
                {"point": _pair(q), "multiplicity": m} for q, m in f.poles
            ],
            "critical_points": [
                {"point": _pair(c), "local_degree": b + 1}
                for c, b in f.critical_points
            ],
        }
        sys.stdout.write(_dump_json(payload))
        return EXIT_OK
    print(f"degree {f.degree}")
    for r in f.roots:
        print(f"root {_fmt_complex(r)}")
    for q, m in f.poles:
        print(f"pole {_fmt_complex(q)} (multiplicity {m})")
    for c, b in f.critical_points:
        print(f"critical point {_fmt_complex(c)} (local degree {b + 1})")
    return EXIT_OK


def cmd_render(args) -> int:
    if args.width < 1 or args.height < 1:
        raise InputError("raster dimensions must be >= 1")
    if args.half_width <= 0:
        raise InputError("--half-width must be > 0")
    if not 0 <= args.max_iter <= MAX_RASTER_ITER:
        raise InputError(f"--max-iter must be in 0..{MAX_RASTER_ITER}")
    f = make_newton_map(load_polynomial(args.polynomial))
    spec = RasterSpec(
        width=args.width,
        height=args.height,
        center=complex(args.center_re, args.center_im),
        half_width=args.half_width,
    )
    raster = render_basins(f, spec, max_iter=args.max_iter)
    _write_file(args.out, raster.to_ppm())
    # bin 0 holds the unresolved pixels (basin id -1)
    bins = np.bincount(raster.basin_id.ravel() + 1, minlength=len(f.roots) + 1)
    unresolved, counts = int(bins[0]), bins[1:].tolist()
    if args.json:
        payload = {
            "path": args.out,
            "width": args.width,
            "height": args.height,
            "basin_pixels": counts,
            "unresolved_pixels": unresolved,
        }
        sys.stdout.write(_dump_json(payload))
        return EXIT_OK
    print(f"wrote {args.out} ({args.width}x{args.height})")
    for i, n in enumerate(counts):
        print(f"basin of root {i}: {n} pixels")
    if unresolved:
        print(f"unresolved: {unresolved} pixels")
    return EXIT_OK


def cmd_graph(args) -> int:
    if args.max_level < 1:
        raise InputError("--max-level must be >= 1")
    f = make_newton_map(load_polynomial(args.polynomial))
    result = compute_newton_graph(f, max_level=args.max_level)
    text = _dump_json(newton_graph_to_json(result, f))
    if args.out:
        _write_file(args.out, text.encode("utf-8"))
    if args.json:
        sys.stdout.write(text)
        return EXIT_OK
    print(f"N = {result.minimal_level}")
    print(f"pole_cover_level = {result.pole_cover_level}")
    top = result.graphs[-1]
    print(f"vertices {len(top.geo.vertices)} edges {len(top.geo.edges)}")
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    report = validate_newton_graph(_load_dynamics(args.graph))
    if args.json:
        sys.stdout.write(_dump_json(report.to_json_dict()))
        return EXIT_OK if report.passed else EXIT_FAIL
    for c in report.checks:
        line = f"{c.name}: {'pass' if c.passed else 'FAIL'}"
        if not c.passed and c.witness:
            line += f" ({c.witness})"
        print(line)
    if report.passed:
        print(f"all {len(report.checks)} conditions pass")
        return EXIT_OK
    print(f"{len(report.failures)} of {len(report.checks)} conditions failed")
    return EXIT_FAIL


def cmd_compare(args) -> int:
    iso = graphs_equivalent(_load_dynamics(args.first), _load_dynamics(args.second))
    if args.json:
        payload: dict = {"equivalent": iso is not None}
        if iso is not None:
            payload["vertex_bijection"] = list(iso.vertex_bijection)
            payload["edge_bijection"] = list(iso.edge_bijection)
            payload["dart_bijection"] = list(iso.dart_bijection)
        sys.stdout.write(_dump_json(payload))
        return EXIT_OK if iso is not None else EXIT_FAIL
    if iso is None:
        print("not equivalent")
        return EXIT_FAIL
    print("equivalent")
    print("vertex bijection " + " ".join(
        f"{i}->{j}" for i, j in enumerate(iso.vertex_bijection)))
    print("edge bijection " + " ".join(
        f"{i}->{j}" for i, j in enumerate(iso.edge_bijection)))
    return EXIT_OK


def cmd_thurston(args) -> int:
    data = _load_json(args.spec)
    try:
        spec = multicurve_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{args.spec}: not a valid multicurve spec: {exc}") from exc
    matrix = transition_matrix(spec)
    obstruction = matrix.obstruction
    if args.json:
        payload = {
            "classes": spec.classes,
            "matrix": [[str(x) for x in row] for row in matrix.entries],
            "leading_eigenvalue": matrix.leading,
            "irreducible": matrix.irreducible,
            "obstruction": obstruction,
        }
        sys.stdout.write(_dump_json(payload))
        return EXIT_OK
    print(f"classes {spec.classes}")
    print("transition matrix:")
    for row in matrix.entries:
        print("  [" + ", ".join(str(x) for x in row) + "]")
    print(f"leading eigenvalue {matrix.leading:.12g}")
    print(f"irreducible {'yes' if matrix.irreducible else 'no'}")
    if obstruction:
        print("obstruction: yes (irreducible, leading eigenvalue >= 1)")
    else:
        print("obstruction: no")
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newtongraph",
        description="Newton maps: basins, channel diagrams, Newton graphs, "
        "validation and comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine output on stdout")
        p.set_defaults(func=func)
        return p

    p = add("roots", "roots, poles and critical points of a polynomial", cmd_roots)
    p.add_argument("polynomial", help="polynomial JSON file")

    p = add("render", "render root basins to a binary PPM image", cmd_render)
    p.add_argument("polynomial", help="polynomial JSON file")
    p.add_argument("out", help="output .ppm path")
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--center-re", type=float, default=0.0)
    p.add_argument("--center-im", type=float, default=0.0)
    p.add_argument("--half-width", type=float, default=2.0)
    p.add_argument("--max-iter", type=int, default=256)

    p = add("graph", "compute the Newton graph tower and export it", cmd_graph)
    p.add_argument("polynomial", help="polynomial JSON file")
    p.add_argument("--out", help="write the graph JSON here")
    p.add_argument("--max-level", type=int, default=8)

    p = add("validate", "check the seven abstract Newton graph conditions", cmd_validate)
    p.add_argument("graph", help="graph JSON file (bare or pipeline export)")

    p = add("compare", "decide equivalence of two graphs with dynamics", cmd_compare)
    p.add_argument("first", help="graph JSON file")
    p.add_argument("second", help="graph JSON file")

    p = add("thurston", "transition matrix of a multicurve lifting spec", cmd_thurston)
    p.add_argument("spec", help="multicurve spec JSON file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except UnresolvedOrbit as exc:
        print(f"not postcritically fixed: {exc}", file=sys.stderr)
        return EXIT_NOT_PCF
    except NewtonGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
