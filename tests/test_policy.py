"""One numeric policy per map: every stage reads the Tolerances that
make_newton_map fixed on the map, and no stage takes a second copy."""

import importlib
import inspect
import pkgutil

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
from newtongraph.pullback import verify_face_counts

# Parameter names that would carry a second numeric policy beside f.tol.
POLICY_PARAMETERS = {"tol", "max_steps", "max_lifts"}


def takes_map(signature: inspect.Signature) -> bool:
    return any(
        p.annotation in (NewtonMap, "NewtonMap") for p in signature.parameters.values()
    )


def package_functions():
    """(name, function) for every module-level function defined in a module
    of the package, private helpers included, not only those re-exported at
    its root."""
    for info in pkgutil.iter_modules(newtongraph.__path__):
        module = importlib.import_module(f"newtongraph.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}", obj


class TestOnePolicySource:
    def test_no_public_callable_on_a_map_takes_its_own_policy(self):
        offenders = []
        checked = 0
        for name, obj in package_functions():
            signature = inspect.signature(obj)
            if not takes_map(signature):
                continue
            checked += 1
            for pname, param in signature.parameters.items():
                # a scalar check threshold (verify_newton_conditions) is not
                # a Tolerances policy
                if pname == "tol" and param.annotation in (float, "float"):
                    continue
                if pname in POLICY_PARAMETERS or "Tolerances" in str(param.annotation):
                    offenders.append(f"{name}({pname})")
        # every function of the rays, pullback, dynamics and poly stages
        # that takes a map, private helpers included, whether or not the
        # package root exports it
        assert checked >= 21
        assert offenders == []


class TestPolicyReachesEveryStage:
    def test_orbit_cap_comes_from_the_map(self):
        # the double pole 0 of z^3 - 1 reaches infinity in one step, which a
        # cap of zero steps does not allow
        f = make_newton_map(Polynomial((-1, 0, 0, 1)), Tolerances(max_steps=0))
        table = critical_orbits(f)
        [pole] = [e for e in table.entries if e.start.value == 0]
        assert pole.landing == "unresolved"
        with pytest.raises(UnresolvedOrbit):
            compute_newton_graph(f)

    def test_escape_radius_comes_from_the_map(self):
        # at the default escape radius the last ray samples of z^7 - 1 sit
        # too far from the order-6 pole for the endpoint gate; rays traced
        # out to the map's radius 1e12 land close enough
        tol = Tolerances(escape_radius=1e12)
        f = make_newton_map(Polynomial((-1, 0, 0, 0, 0, 0, 0, 1)), tol)
        result = compute_newton_graph(f)
        for e in result.graphs[0].geo.edges:
            assert np.isinf(e.points[-1])
            assert abs(e.points[-2]) >= tol.escape_radius
        assert validate_newton_graph(result.dynamics).passed
        assert verify_face_counts(result, f).passed
