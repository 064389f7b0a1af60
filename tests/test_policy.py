"""One numeric policy per map: every stage reads the Tolerances that
make_newton_map fixed on the map, and no stage takes a second copy."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import newtongraph
from newtongraph import (
    Polynomial,
    Tolerances,
    UnresolvedOrbit,
    compute_newton_graph,
    make_newton_map,
    validate_newton_graph,
)
from newtongraph.dynamics import critical_orbits
from newtongraph.poly import NewtonMap
from newtongraph.pullback import locate_face, verify_face_counts
from newtongraph.rays import GeoGraph

# Parameter names that would carry a second numeric policy beside f.tol.
POLICY_PARAMETERS = {"tol", "max_steps", "max_lifts"}
# Types that carry the map's Tolerances: the map itself, and the geometric
# graphs built for it (geo.tol).
POLICY_CARRIERS = (NewtonMap, GeoGraph)


def takes_carrier(owner, signature: inspect.Signature) -> bool:
    """A method of a carrier, or a function with a parameter of a carrier
    type."""
    names = {cls.__name__ for cls in POLICY_CARRIERS}
    return owner in POLICY_CARRIERS or any(
        p.annotation in POLICY_CARRIERS or p.annotation in names
        for p in signature.parameters.values()
    )


def package_functions():
    """(name, owning class or None, function) for every module-level function
    and every method other than a dunder of a class defined in a module of
    the package, private helpers included, not only those re-exported at its
    root. Constructors are left out: they are where a policy is fixed."""
    for info in pkgutil.iter_modules(newtongraph.__path__):
        module = importlib.import_module(f"newtongraph.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}", None, obj
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("__"):
                        yield f"{info.name}.{name}.{attr}", obj, member


class TestOnePolicySource:
    def test_no_public_callable_on_a_map_takes_its_own_policy(self):
        offenders = []
        checked = set()
        for name, owner, obj in package_functions():
            signature = inspect.signature(obj)
            if not takes_carrier(owner, signature):
                continue
            checked.add(name)
            for pname, param in signature.parameters.items():
                if pname in POLICY_PARAMETERS or "Tolerances" in str(param.annotation):
                    offenders.append(f"{name}({pname})")
        # every function of the rays, pullback, dynamics and poly stages
        # that takes a map, private helpers included, whether or not the
        # package root exports it, and the queries on a geometric graph
        assert len(checked) >= 21
        assert {"rays.GeoGraph.vertex_star", "pullback.locate_face"} <= checked
        assert offenders == []


class TestPolicyReachesEveryStage:
    def test_orbit_cap_comes_from_the_map(self):
        # the double pole 0 of z^3 - 1 reaches infinity in one step, which a
        # cap of zero steps does not allow
        f = make_newton_map(Polynomial((-1, 0, 0, 1)), Tolerances(max_steps=0))
        table = critical_orbits(f)
        [pole] = [e for e in table.entries if e.start == 0]
        assert pole.landing == "unresolved"
        with pytest.raises(UnresolvedOrbit):
            compute_newton_graph(f)

    def test_escape_radius_comes_from_the_map(self):
        # the rays of z^7 - 1 are traced out to the map's radius, which the
        # map's cap 1e12 bounds, and the graph is as valid: the endpoint
        # gate scales with the radius
        tol = Tolerances(escape_radius=1e12)
        f = make_newton_map(Polynomial((-1, 0, 0, 0, 0, 0, 0, 1)), tol)
        assert f.ray_radius <= tol.escape_radius
        result = compute_newton_graph(f)
        for e in result.graphs[0].geo.edges:
            assert np.isinf(e.points[-1])
            assert abs(e.points[-2]) >= f.ray_radius
        assert validate_newton_graph(result.dynamics).passed
        assert verify_face_counts(result, f).passed

    def test_graph_queries_read_the_policy_the_graph_was_built_with(self):
        # with match_tol 1e-3, a point 4e-5 (chordal) from the ray on the
        # real axis lies on the graph; at the default 1e-6 it is in a face
        tol = Tolerances(match_tol=1e-3)
        f = make_newton_map(Polynomial((-1, 0, 0, 1)), tol)
        result = compute_newton_graph(f)
        assert all(g.geo.tol is tol for g in result.graphs)
        near_ray = 2 + 1e-4j
        assert locate_face(result.graphs[-1].geo, result.embedded, near_ray) is None
        default = compute_newton_graph(make_newton_map(Polynomial((-1, 0, 0, 1))))
        assert locate_face(default.graphs[-1].geo, default.embedded, near_ray) is not None


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class TestOnePointType:
    """Every point is a plain complex, INF at infinity. SpherePoint is only
    the type of lift_point's fiber points, kept for readers of that output."""

    @staticmethod
    def places_naming(name):
        """(module, enclosing function or None) of every Name, Attribute,
        definition or import alias in src/ that names `name`, and the
        isinstance calls whose type argument names it."""
        places, checks = [], []
        for path in sorted(Path(newtongraph.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))

            def visit(node, function):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    function = function or node.name
                named = (
                    (isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, DEFINITIONS) and node.name == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.alias) and name in (node.name, node.asname))
                )
                if named:
                    places.append((path.stem, function))
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and any(
                        isinstance(n, ast.Name) and n.id == name
                        for n in ast.walk(node.args[1])
                    )
                ):
                    checks.append(f"{path.stem}:{node.lineno}")
                for child in ast.iter_child_nodes(node):
                    visit(child, function)

            visit(tree, None)
        return places, checks

    def test_sphere_point_is_only_lift_points_output(self):
        places, checks = self.places_naming("SpherePoint")
        assert checks == []
        allowed = {("sphere", None), ("pullback", None), ("pullback", "lift_point")}
        assert set(places) <= allowed
        assert ("pullback", "lift_point") in places
        # the one module-level mention outside sphere.py is the import
        assert places.count(("pullback", None)) == 1


class TestOneChartRule:
    """Only the Newton map knows where the w = 1/z chart begins: poly alone
    names the chart radius and the corrector's row swap, and every other
    stage asks the map for values and corrector rows in the right chart."""

    @pytest.mark.parametrize("name", ["CHART_RADIUS", "CHART_SWAP"])
    def test_only_poly_names_the_radius_and_the_swap(self, name):
        places, _ = TestOnePointType.places_naming(name)
        assert ("poly", None) in places
        assert {module for module, _ in places} == {"poly"}

    def test_the_policy_object_carries_no_chart_radius(self):
        places, _ = TestOnePointType.places_naming("chart_radius")
        assert places == []
        assert not hasattr(Tolerances(), "chart_radius")


class TestVertexIdentityByValue:
    """A tower vertex is its exact fiber value: no chordal scan over the
    vertices decides which vertex a fiber point is."""

    def test_no_module_names_find_vertex(self):
        places, _ = TestOnePointType.places_naming("find_vertex")
        assert places == []

    def test_locate_or_add_measures_no_distance(self):
        path = Path(newtongraph.__file__).parent / "pullback.py"
        [locate] = [
            node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == "locate_or_add"
        ]
        called = {
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(locate)
            if isinstance(node, ast.Call)
        }
        assert "chordal_distance" not in called


def pullback_callers(name, module="pullback"):
    """The top-level definitions of a module of the package, pullback.py
    unless named, that call `name`, as a plain name or as a method on some
    object."""
    path = Path(newtongraph.__file__).parent / f"{module}.py"
    return {
        top.name
        for top in ast.parse(path.read_text()).body
        if isinstance(top, DEFINITIONS)
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


class TestMarkDecidedOnce:
    """A point's mark, with the b of its local model, is decided once, on
    the map: a fiber takes the marks over its target, and the tower carries
    them. Only the one-point and one-edge lifts, which are given bare
    points, look a mark up by distance, and no lift computes b."""

    def test_marks_are_looked_up_only_in_the_fiber_solve(self):
        assert pullback_callers("marks_over") == {"_fibers"}
        called = pullback_callers("marked_point") | pullback_callers("chordal_distance")
        assert "_fibers" not in called

    def test_only_bare_points_are_snapped_to_a_mark(self):
        assert pullback_callers("marked_point") == {"lift_point", "lift_edge"}

    def test_no_lift_computes_a_leading_coefficient(self):
        assert pullback_callers("leading_coefficient") == set()
        assert pullback_callers("leading_coefficient", "rays") == set()
        assert pullback_callers("next_coefficient") == set()
        assert pullback_callers("next_coefficient", "rays") == set()


class TestOneEdgeLift:
    """The package lifts an edge one way: the level lift, whose scalar
    fallback and the branched first step are the only continuations."""

    def test_only_the_level_lift_continues_an_inverse_branch(self):
        assert pullback_callers("continue_inverse_branch") == {
            "_lift_lanes", "_branched_first_step"
        }

    def test_the_one_edge_lift_runs_the_level_lift(self):
        assert "lift_edge" in pullback_callers("_lift_lanes")

    def test_a_head_is_read_in_one_place_after_the_kernel(self):
        # the kernel returns bare samples; both lifts read their heads by
        # _read_head, the one reader of the local-model ranking
        assert pullback_callers("_read_head") == {"lift_edge", "pullback_level"}
        assert pullback_callers("_head_ranking") == {"_read_head"}
        assert pullback_callers("_fibers") & {"_lift_lanes", "_read_head"} == set()


class TestExactVerdictOnIntegers:
    """The Thurston verdict eliminates on the integer matrix L (I - A) that
    transition_matrix reads off the lifting table; no Fraction enters it."""

    def test_the_verdict_names_no_fraction(self):
        places, _ = TestOnePointType.places_naming("Fraction")
        assert ("thurston", "_spectral_radius_below_one") not in places
        assert pullback_callers("_spectral_radius_below_one", "thurston") == {
            "transition_matrix"
        }


class TestOneCertificationSite:
    """compute_newton_graph certifies every graph it returns, so no caller
    checks a graph a second time: the CLI only reports InvalidGraph."""

    def test_face_counts_are_verified_only_in_the_build(self):
        modules = [info.name for info in pkgutil.iter_modules(newtongraph.__path__)]
        callers = {
            (module, caller)
            for module in modules
            for caller in pullback_callers("verify_face_counts", module)
        }
        assert callers == {("pullback", "compute_newton_graph")}

    def test_the_cli_names_no_certification(self):
        places, _ = TestOnePointType.places_naming("verify_face_counts")
        assert [p for p in places if p[0] == "cli"] == []
        assert pullback_callers("validate_newton_graph", "cli") == {"cmd_validate"}


class TestOneFinish:
    """Every root row is finished in one batched path: residual
    certification, the multiplicity estimate and the cluster radius exist
    once, in _row_verdicts, which only _finish_rows calls; no scalar copy
    of the finish measures a residual's scale."""

    def test_only_the_exit_radius_takes_a_scalar_scale(self):
        assert pullback_callers("eval_scale", "poly") == {"NewtonMap"}

    def test_only_the_finish_judges_a_row(self):
        assert pullback_callers("_row_verdicts", "poly") == {"_finish_rows"}


class TestOneSampleEncoding:
    """Only rays knows how an exported polyline is written: its encoder
    alone calls b64encode, its decoder alone b64decode, and it alone names
    the '<c16' layout."""

    @pytest.mark.parametrize("name, function", [
        ("b64encode", "_samples_json"), ("b64decode", "polyline_from_json"),
    ])
    def test_only_rays_names_the_codec(self, name, function):
        places, _ = TestOnePointType.places_naming(name)
        assert set(places) == {("rays", function)}

    def test_only_rays_names_the_layout(self):
        modules = {
            path.stem
            for path in Path(newtongraph.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and node.value == "<c16"
        }
        assert modules == {"rays"}
