"""CLI behavior: exit codes, output shapes, file formats, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import newtongraph
from newtongraph import InvalidGraph, graph_from_json, validate_newton_graph
from newtongraph import cli, pullback
from newtongraph.cli import main
from newtongraph.combinatorial import ConditionCheck, ValidationReport

UNITY = {"coeffs": [[-1, 0], [0, 0], [0, 0], [1, 0]]}
PM = {"roots": [[-1, 0], [0, 0], [1, 0]]}
NOT_PCF = {"coeffs": [[0.3, 0], [-1, 0], [0, 0], [1, 0]]}
SWAP_SPEC = {
    "classes": 2,
    "lifts": {
        "0": [{"target": 1, "degree": 1}],
        "1": [{"target": 0, "degree": 1}],
    },
}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def pm_graph_file(tmp_path, capsys):
    poly = write_json(tmp_path, "pm.json", PM)
    out = str(tmp_path / "pm_graph.json")
    code = main(["graph", poly, "--out", out])
    capsys.readouterr()
    assert code == 0
    return out


class TestRoots:
    def test_unity_listing(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["roots", write_json(tmp_path, "p.json", UNITY)])
        assert code == 0
        assert "degree 3" in out
        assert out.count("root ") == 3
        assert "pole 0+0i (multiplicity 2)" in out

    def test_unity_json(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, ["roots", write_json(tmp_path, "p.json", UNITY), "--json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["degree"] == 3
        assert len(data["roots"]) == 3
        assert data["poles"] == [{"point": [0.0, 0.0], "multiplicity": 2}]
        degs = [c["local_degree"] for c in data["critical_points"]]
        assert sum(d - 1 for d in degs) == 4

    def test_degree_too_low_exits_2(self, tmp_path, capsys):
        poly = write_json(tmp_path, "p.json", {"coeffs": [[-1, 0], [1, 0]]})
        code, _, err = run(capsys, ["roots", poly])
        assert code == 2
        assert "degree" in err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text("not json")
        code, _, err = run(capsys, ["roots", str(path)])
        assert code == 2
        assert "invalid JSON" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["roots", str(tmp_path / "absent.json")])
        assert code == 2

    def test_both_keys_rejected(self, tmp_path, capsys):
        poly = write_json(
            tmp_path, "p.json", {"coeffs": [[1, 0]], "roots": [[0, 0]]}
        )
        code, _, _ = run(capsys, ["roots", poly])
        assert code == 2

    def test_bad_pair_rejected(self, tmp_path, capsys):
        poly = write_json(tmp_path, "p.json", {"coeffs": [[1, 0, 0], [2, 0]]})
        code, _, _ = run(capsys, ["roots", poly])
        assert code == 2


class TestRender:
    def test_single_pixel_payload(self, tmp_path, capsys):
        poly = write_json(tmp_path, "p.json", UNITY)
        out = tmp_path / "tiny.ppm"
        code, _, _ = run(
            capsys, ["render", poly, str(out), "--width", "1", "--height", "1"]
        )
        assert code == 0
        blob = out.read_bytes()
        header = b"P6\n1 1\n255\n"
        assert blob.startswith(header)
        assert len(blob) == len(header) + 3

    def test_unwritable_path_exits_2(self, tmp_path, capsys):
        poly = write_json(tmp_path, "p.json", UNITY)
        code, _, err = run(
            capsys, ["render", poly, str(tmp_path / "no" / "dir" / "x.ppm")]
        )
        assert code == 2
        assert "cannot write" in err

    def test_zero_dimension_rejected(self, tmp_path, capsys):
        poly = write_json(tmp_path, "p.json", UNITY)
        code, _, _ = run(
            capsys,
            ["render", poly, str(tmp_path / "x.ppm"), "--width", "0"],
        )
        assert code == 2

    def test_json_reports_pixel_counts(self, tmp_path, capsys):
        poly = write_json(tmp_path, "p.json", UNITY)
        out = tmp_path / "img.ppm"
        code, text, _ = run(
            capsys,
            ["render", poly, str(out), "--width", "8", "--height", "8", "--json"],
        )
        assert code == 0
        data = json.loads(text)
        assert len(data["basin_pixels"]) == 3
        assert sum(data["basin_pixels"]) + data["unresolved_pixels"] == 64

    @pytest.mark.parametrize("value", ["-10", "-1", "32763"])
    def test_max_iter_out_of_range_exits_2(self, tmp_path, capsys, value):
        poly = write_json(tmp_path, "p.json", UNITY)
        out = tmp_path / "x.ppm"
        code, _, err = run(
            capsys,
            ["render", poly, str(out), "--width", "8", "--height", "8",
             "--max-iter", value],
        )
        assert code == 2
        assert "--max-iter" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "32762"])
    def test_max_iter_range_ends_accepted(self, tmp_path, capsys, value):
        poly = write_json(tmp_path, "p.json", UNITY)
        out = tmp_path / "x.ppm"
        code, text, _ = run(
            capsys,
            ["render", poly, str(out), "--width", "8", "--height", "8",
             "--max-iter", value, "--json"],
        )
        assert code == 0
        data = json.loads(text)
        assert sum(data["basin_pixels"]) + data["unresolved_pixels"] == 64

    @pytest.mark.parametrize(
        "option, value",
        [("--half-width", "nan"), ("--half-width", "inf"),
         ("--center-re", "nan"), ("--center-im", "inf")],
    )
    def test_non_finite_window_exits_2(self, tmp_path, capsys, option, value):
        poly = write_json(tmp_path, "p.json", UNITY)
        out = tmp_path / "x.ppm"
        code, _, err = run(
            capsys,
            ["render", poly, str(out), "--width", "8", "--height", "8",
             option, value],
        )
        assert code == 2
        assert option in err
        assert not out.exists()


class TestGraph:
    def test_pm_prints_levels_and_writes_file(self, tmp_path, capsys):
        poly = write_json(tmp_path, "pm.json", PM)
        out = tmp_path / "g.json"
        code, text, _ = run(capsys, ["graph", poly, "--out", str(out)])
        assert code == 0
        assert "N = 1" in text
        assert "pole_cover_level = 1" in text
        data = json.loads(out.read_text())
        assert data["N"] == 1
        assert set(data) >= {"vertices", "edges", "combinatorial", "pole_cover_level"}

    def test_unity_prints_n2(self, tmp_path, capsys):
        poly = write_json(tmp_path, "u.json", UNITY)
        code, text, _ = run(capsys, ["graph", poly])
        assert code == 0
        assert "N = 2" in text

    def test_graph_traces_no_combinatorial_top_level(self, tmp_path, capsys, monkeypatch):
        # z^3 - 1: level 2 comes from lift_level, so only level 1 is traced;
        # the counts printed are the top level's
        calls = []
        level = pullback.pullback_level

        def counted(*args):
            calls.append(args[1].level)
            return level(*args)

        monkeypatch.setattr(pullback, "pullback_level", counted)
        poly = write_json(tmp_path, "u.json", UNITY)
        out = tmp_path / "g.json"
        code, text, _ = run(capsys, ["graph", poly, "--out", str(out)])
        assert code == 0
        assert calls == [0]
        assert "vertices 20 edges 27" in text
        data = json.loads(out.read_text())
        assert (len(data["vertices"]), len(data["edges"])) == (8, 9)

    def test_not_pcf_exits_3(self, tmp_path, capsys):
        poly = write_json(tmp_path, "q.json", NOT_PCF)
        code, _, err = run(capsys, ["graph", poly])
        assert code == 3
        assert "not postcritically fixed" in err

    def test_level_cap_exits_2(self, tmp_path, capsys):
        poly = write_json(tmp_path, "u.json", UNITY)
        code, _, _ = run(capsys, ["graph", poly, "--max-level", "1"])
        assert code == 2

    def test_postcritically_fixed_cubic_is_valid_or_exits_1(self, tmp_path, capsys):
        # p = z^3 + (lam - 1) z - lam: the free critical point 0 goes to
        # -0.3617, -1/2 and then the root 1. Its graph either validates or
        # is not written.
        lam = 0.2656063759179105499
        coeffs = [[-lam, 0], [lam - 1, 0], [0, 0], [1, 0]]
        poly = write_json(tmp_path, "p.json", {"coeffs": coeffs})
        out = tmp_path / "g.json"
        code, _, err = run(capsys, ["graph", poly, "--out", str(out)])
        if code == 0:
            data = json.loads(out.read_text())["combinatorial"]
            assert validate_newton_graph(graph_from_json(data)).passed
        else:
            assert code == 1
            assert "invalid graph" in err
            assert not out.exists()

    def test_failed_validation_writes_nothing(self, tmp_path, capsys, monkeypatch):
        failing = ValidationReport((ConditionCheck("sector_injective", False, "a witness"),))
        monkeypatch.setattr(pullback, "validate_newton_graph", lambda graph: failing)
        out = tmp_path / "g.json"
        poly = write_json(tmp_path, "pm.json", PM)
        code, text, err = run(capsys, ["graph", poly, "--out", str(out), "--json"])
        assert code == 1
        assert "sector_injective failed (a witness)" in err
        assert text == ""
        assert not out.exists()

    def test_failed_face_counts_write_nothing(self, tmp_path, capsys, monkeypatch):
        failing = ValidationReport((
            ConditionCheck("boundary_fixed_points", True, None),
            ConditionCheck("shared_pole_access", False, "faces without a two-basin pole: [0]"),
        ))
        monkeypatch.setattr(pullback, "verify_face_counts", lambda result, f: failing)
        out = tmp_path / "g.json"
        poly = write_json(tmp_path, "pm.json", PM)
        code, text, err = run(capsys, ["graph", poly, "--out", str(out), "--json"])
        assert code == 1
        assert "invalid graph: shared_pole_access failed (faces without" in err
        assert "boundary_fixed_points" not in err
        assert text == ""
        assert not out.exists()


class TestValidate:
    def test_pipeline_export_passes(self, pm_graph_file, capsys):
        code, out, _ = run(capsys, ["validate", pm_graph_file])
        assert code == 0
        assert out.count(": pass") == 7
        assert "all 7 conditions pass" in out

    def test_bare_combinatorial_accepted(self, pm_graph_file, tmp_path, capsys):
        bare = json.loads(open(pm_graph_file).read())["combinatorial"]
        path = write_json(tmp_path, "bare.json", bare)
        code, out, _ = run(capsys, ["validate", path])
        assert code == 0

    def test_mutated_degree_fails_with_witness(self, pm_graph_file, tmp_path, capsys):
        broken = json.loads(open(pm_graph_file).read())["combinatorial"]
        broken["dynamics"]["local_degree"]["0"] = 3
        path = write_json(tmp_path, "broken.json", broken)
        code, out, _ = run(capsys, ["validate", path])
        assert code == 1
        assert "FAIL" in out
        assert "conditions failed" in out

    def test_json_report_shape(self, pm_graph_file, capsys):
        code, out, _ = run(capsys, ["validate", pm_graph_file, "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert [c["name"] for c in data["checks"]] == [
            "channel_core",
            "root_contact",
            "branch_total",
            "depth_minimal",
            "complement_connected",
            "sector_injective",
            "star_saturated",
        ]

    def test_graph_without_dynamics_exits_2(self, pm_graph_file, tmp_path, capsys):
        bare = json.loads(open(pm_graph_file).read())["combinatorial"]
        del bare["dynamics"]
        path = write_json(tmp_path, "nodyn.json", bare)
        code, _, err = run(capsys, ["validate", path])
        assert code == 2
        assert "dynamics" in err

    def test_garbage_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "junk.json", {"foo": 1})
        code, _, _ = run(capsys, ["validate", path])
        assert code == 2

    @pytest.mark.parametrize("mutation, message", [
        ("alpha_overlap", "alpha pairs do not partition the darts"),
        ("sigma_repeat", "missing or repeated in sigma"),
        ("sigma_missing", "sigma does not cover every dart"),
        ("dart_map_missing", "dart_map does not cover every dart"),
        ("alpha_singletons", "alpha entry [0] is not a pair of darts"),
        ("vertex_map_image", "malformed dynamics data in vertex_map: 99999"),
        ("vertex_map_missing", "malformed dynamics data in vertex_map: '0'"),
        ("local_degree_missing", "malformed dynamics data in local_degree: '0'"),
    ])
    def test_malformed_graph_exits_2(self, pm_graph_file, tmp_path, capsys,
                                     mutation, message):
        data = json.loads(open(pm_graph_file).read())["combinatorial"]
        if mutation == "alpha_overlap":
            data["alpha"][0][1] = data["alpha"][0][0]
        elif mutation == "sigma_repeat":
            data["sigma"]["1"].append(data["sigma"]["0"][0])
        elif mutation == "sigma_missing":
            data["sigma"]["0"].pop()
        elif mutation == "alpha_singletons":
            # the singletons still cover every dart once
            a, b = data["alpha"].pop(0)
            data["alpha"] += [[a], [b]]
        elif mutation == "vertex_map_image":
            data["dynamics"]["vertex_map"]["0"] = 99999
        else:
            field = mutation.removesuffix("_missing")
            del data["dynamics"][field]["0"]
        with pytest.raises(InvalidGraph, match=re.escape(message)):
            graph_from_json(data)
        path = write_json(tmp_path, "malformed.json", data)
        code, _, err = run(capsys, ["validate", path])
        assert code == 2
        assert message in err


class TestCompare:
    def test_export_equals_its_bare_form(self, pm_graph_file, tmp_path, capsys):
        bare = json.loads(open(pm_graph_file).read())["combinatorial"]
        path = write_json(tmp_path, "bare.json", bare)
        code, out, _ = run(capsys, ["compare", pm_graph_file, path])
        assert code == 0
        assert "equivalent" in out.splitlines()[0]
        assert "vertex bijection" in out

    def test_different_members_not_equivalent(self, pm_graph_file, tmp_path, capsys):
        poly = write_json(tmp_path, "u.json", UNITY)
        other = str(tmp_path / "u_graph.json")
        assert main(["graph", poly, "--out", other]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, ["compare", pm_graph_file, other])
        assert code == 1
        assert "not equivalent" in out

    def test_json_witness(self, pm_graph_file, capsys):
        code, out, _ = run(
            capsys, ["compare", pm_graph_file, pm_graph_file, "--json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["equivalent"] is True
        assert sorted(data["vertex_bijection"]) == list(range(8))


class TestThurston:
    def test_swap_example(self, tmp_path, capsys):
        path = write_json(tmp_path, "swap.json", SWAP_SPEC)
        code, out, _ = run(capsys, ["thurston", path])
        assert code == 0
        assert "leading eigenvalue 1" in out
        assert "irreducible yes" in out
        assert "obstruction: yes" in out

    def test_half_example_json(self, tmp_path, capsys):
        spec = {"classes": 1, "lifts": {"0": [{"target": 0, "degree": 2}]}}
        path = write_json(tmp_path, "half.json", spec)
        code, out, _ = run(capsys, ["thurston", path, "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["matrix"] == [["1/2"]]
        assert data["leading_eigenvalue"] == 0.5
        assert data["obstruction"] is False

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", {"classes": 0})
        code, _, _ = run(capsys, ["thurston", path])
        assert code == 2


class TestOneParser:
    def test_calls_share_one_parser_and_each_parses_its_own_argv(self, tmp_path, capsys):
        swap = write_json(tmp_path, "swap.json", SWAP_SPEC)
        half = write_json(
            tmp_path, "half.json", {"classes": 1, "lifts": {"0": [{"target": 0, "degree": 2}]}})
        cli.build_parser.cache_clear()
        parser = cli.build_parser()
        code, out, _ = run(capsys, ["thurston", swap, "--json"])
        assert code == 0
        assert json.loads(out)["classes"] == 2
        # an argparse error exits 2 and leaves no state for the next call
        with pytest.raises(SystemExit) as exc:
            main(["thurston", half, "--no-such-flag"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        code, out, _ = run(capsys, ["thurston", half])
        assert code == 0
        assert out.startswith("classes 1\n")
        assert "obstruction: no" in out
        code, out, _ = run(capsys, ["roots", write_json(tmp_path, "p.json", UNITY), "--json"])
        assert code == 0
        assert json.loads(out)["degree"] == 3
        assert cli.build_parser() is parser
        assert cli.build_parser.cache_info().misses == 1


MALFORMED = [
    ("roots", {"coeffs": 5}, "must be a list"),
    ("roots", {"roots": 3}, "must be a list"),
    ("roots", {"coeffs": "z^3 - 1"}, "must be a list"),
    ("roots", {"coeffs": [float("nan"), 0, 0, 1]}, "finite"),
    ("roots", {"coeffs": [[float("inf"), 0], 0, 0, 1]}, "finite"),
    ("roots", {"roots": [[0, float("-inf")], 1, 2]}, "finite"),
    ("roots", {"coeffs": [10 ** 400, 0, 0, 1]}, "finite"),
    ("roots", {"coeffs": [[1e200, 0], 0, 0, [1e200, 0]]}, "not finite for degree 3"),
    ("roots", {"coeffs": [[1e308, 0], 0, 0, [1e308, 0]]}, "not finite for degree 3"),
    ("thurston", {"classes": 1, "lifts": {"0": [{"target": 0, "degree": 1.5}]}}, "integer"),
    ("thurston", {"classes": 1, "lifts": {"0": [{"target": 0, "degree": True}]}}, "integer"),
    ("thurston", {"classes": 1, "lifts": {"0": [{"target": 0, "degree": float("inf")}]}},
     "integer"),
    ("thurston", {"classes": 2, "lifts": {"0": [{"target": 1.0, "degree": 1}]}}, "integer"),
    ("thurston", {"classes": 2.7, "lifts": {}}, "integer"),
    ("thurston", {"classes": True, "lifts": {}}, "integer"),
    ("thurston", {"classes": "2", "lifts": {}}, "integer"),
    # finite input whose expansion, derivative or Newton numerator overflows
    ("roots", {"roots": [1e200, -1e200, 3]}, "a coefficient of p is not finite"),
    ("roots", {"coeffs": [1e308, 1e308, 1e308, 1e308]}, "a coefficient of p' is not finite"),
    ("thurston", {"classes": 1, "lifts": {"0": [{"target": 0, "degree": 2, "extra": 1}]}},
     "lift of class 0"),
    # finite coefficients whose root finish cannot be certified
    ("roots", {"roots": [1e150, -1e150, 1]}, "residual not finite for degree 3"),
    ("roots", {"roots": [0, 1e-160, 1]}, "q q''/q'^2 not finite for degree 3"),
    ("roots", {"coeffs": [1e-300, 0, 0, 1]}, "root residuals not certified for degree 3"),
]


@pytest.mark.parametrize("command, data, message", MALFORMED)
def test_malformed_input_exits_2(tmp_path, capsys, command, data, message):
    code, _, err = run(capsys, [command, write_json(tmp_path, "in.json", data)])
    assert code == 2
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


# (name, polynomial, exit code of graph, what graph says on stderr): the
# first two maps have every root beyond 1e8, so their marks collide near
# infinity; the next two have a zero of p'' 5e-9 or 6e-9 from a pole, which
# is free and not postcritically fixed. roots and render accept every map.
EXIT_CODE_MAPS = [
    ("tiny-leading", {"coeffs": [1, 0, 0, 1e-300]}, 2, "below match_tol"),
    ("huge-constant", {"coeffs": [-1e24, 0, 0, 1]}, 2, "below match_tol"),
    ("unity-roots",
     {"roots": [1, [-0.5, 0.8660254037844386], [-0.5, -0.8660254037844386]]},
     3, "not postcritically fixed"),
    ("near-double-pole", {"coeffs": [[1, 0], [0, 0], [0, 0], [1e-8, 0], [1, 0]]},
     3, "not postcritically fixed"),
    ("z3-1", UNITY, 0, ""),
]


@pytest.mark.parametrize("command", ["roots", "render", "graph"])
@pytest.mark.parametrize("data, graph_code, message", [m[1:] for m in EXIT_CODE_MAPS],
                         ids=[m[0] for m in EXIT_CODE_MAPS])
def test_exit_code_contract(tmp_path, capsys, command, data, graph_code, message):
    poly = write_json(tmp_path, "p.json", data)
    argv = {
        "roots": ["roots", poly],
        "render": ["render", poly, str(tmp_path / "p.ppm"), "--width", "8", "--height", "8"],
        "graph": ["graph", poly],
    }[command]
    code, _, err = run(capsys, argv)
    assert code == (graph_code if command == "graph" else 0)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if command == "graph":
        assert message in err


def set_path(data, path, value):
    *parents, last = path
    for key in parents:
        data = data[key]
    data[last] = value


# (path into a z^3 - 1 export's combinatorial block, value, message)
NOT_AN_INTEGER_OR_KIND = [
    (("dynamics", "N"), 2.7, "in N: 2.7 is not an integer"),
    (("dynamics", "N"), True, "in N: True is not an integer"),
    (("dynamics", "N"), "2", "in N: '2' is not an integer"),
    (("dynamics", "local_degree", "0"), 2.9, "in local_degree: 2.9 is not an integer"),
    (("dynamics", "local_degree", "0"), 2.0, "in local_degree: 2.0 is not an integer"),
    (("dynamics", "vertex_map", "1"), True, "in vertex_map: True is not an integer"),
    (("dynamics", "edge_map", "0"), "0", "in edge_map: '0' is not an integer"),
    (("dynamics", "dart_map", "0"), 0.0, "in dart_map: 0.0 is not an integer"),
    (("dynamics", "delta_edges", 0), 0.0, "in delta_edges: 0.0 is not an integer"),
    (("darts", 1), 1.0, "malformed graph data: 1.0 is not an integer"),
    (("alpha", 0, 1), True, "malformed graph data: True is not an integer"),
    (("sigma", "0", 0), "0", "malformed graph data: '0' is not an integer"),
    (("vertex_kinds", "0"), "banana", "unknown vertex kind 'banana'"),
    (("vertex_kinds", "0"), 0, "unknown vertex kind 0"),
]


@pytest.fixture(scope="module")
def unity_graph():
    f = newtongraph.make_newton_map(newtongraph.Polynomial((-1, 0, 0, 1)))
    result = newtongraph.compute_newton_graph(f)
    return json.loads(json.dumps(newtongraph.newton_graph_to_json(result)["combinatorial"]))


@pytest.mark.parametrize("path, value, message", NOT_AN_INTEGER_OR_KIND)
def test_graph_file_takes_only_integers_and_known_kinds(
    unity_graph, tmp_path, capsys, path, value, message
):
    # graph_from_json used to read these through int() and str()
    data = json.loads(json.dumps(unity_graph))
    set_path(data, path, value)
    with pytest.raises(InvalidGraph, match=re.escape(message)):
        graph_from_json(data)
    good = write_json(tmp_path, "good.json", unity_graph)
    bad = write_json(tmp_path, "bad.json", data)
    for argv in (["validate", bad], ["compare", good, bad]):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:") and message in err
        assert out == ""


@pytest.mark.parametrize("path", [("sigma",), ("vertex_kinds",), ("dynamics", "dart_map")],
                         ids=["sigma", "vertex_kinds", "dart_map"])
def test_graph_file_maps_must_be_objects(unity_graph, tmp_path, capsys, path):
    # a list where an object is due is malformed input: exit 2, with no
    # traceback, not exit 1, the code of a failed condition
    data = json.loads(json.dumps(unity_graph))
    parent = data if len(path) == 1 else data[path[0]]
    parent[path[-1]] = list(parent[path[-1]].values())
    message = f"{path[-1]} must be a JSON object, not list"
    with pytest.raises(InvalidGraph, match=message):
        graph_from_json(data)
    good = write_json(tmp_path, "good.json", unity_graph)
    bad = write_json(tmp_path, "bad.json", data)
    for argv in (["validate", bad], ["compare", good, bad]):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:") and message in err
        assert out == ""


class TestDeterminism:
    def test_graph_json_byte_identical(self, tmp_path, capsys):
        poly = write_json(tmp_path, "pm.json", PM)
        outputs = []
        for _ in range(2):
            code = main(["graph", poly, "--json"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_console_entry_point(self, tmp_path):
        poly = write_json(tmp_path, "pm.json", PM)
        # the child imports the package under test, installed or not
        src = os.path.dirname(os.path.dirname(newtongraph.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "newtongraph.cli", "roots", poly],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "degree 3" in proc.stdout
        assert proc.stderr == ""


class TestGoldenDigests:
    """SHA-256 of three exports, pinned so that a refactor that moves any
    float fails here, and of the combinatorial block of the two graph
    exports, which no change to the sampling of the polylines may move.
    The exports run numpy's complex multiply, whose last-bit rounding
    depends on the CPU's vector instructions; these digests were taken on
    x86-64 with AVX-512 and numpy 2.4, and need recording afresh on another
    platform."""

    ZMZ4 = {"coeffs": [[0, 0], [-1, 0], [0, 0], [0, 0], [1, 0]]}
    GRAPHS = [
        ("z3-1", UNITY,
         "2d27e55ea183631c08e0e53ccf6c857affd0d0d38870bfc78dadba9f1dd0be6b",
         "23e95bc42659d10cc791bed73fbceaad10ff39002240927570be0f5c61ce0838"),
        ("z4-z", ZMZ4,
         "95e5fb68155438eba12f82740b422fb2eb2d039db38bbe383a13deb83a90283c",
         "3e4d6d6f31fee15532e72dcf4d2b629d11cfca667e1883cc88c59649ddb69328"),
    ]

    @staticmethod
    def graph_export(tmp_path, capsys, name, poly):
        out = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, ["graph", write_json(tmp_path, "p.json", poly), "--out", str(out)])
        assert code == 0
        return out.read_bytes()

    @pytest.mark.parametrize("name, poly, digest, _", GRAPHS, ids=["z3-1", "z4-z"])
    def test_graph_export(self, tmp_path, capsys, name, poly, digest, _):
        export = self.graph_export(tmp_path, capsys, name, poly)
        assert hashlib.sha256(export).hexdigest() == digest

    @pytest.mark.parametrize("name, poly, _, digest", GRAPHS, ids=["z3-1", "z4-z"])
    def test_combinatorial_block(self, tmp_path, capsys, name, poly, _, digest):
        block = json.loads(self.graph_export(tmp_path, capsys, name, poly))["combinatorial"]
        text = json.dumps(block, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_render_ppm(self, tmp_path, capsys):
        out = tmp_path / "z3-1.ppm"
        poly = write_json(tmp_path, "p.json", UNITY)
        code, _, _ = run(capsys, ["render", poly, str(out), "--width", "64", "--height", "64"])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8bcb933f1c81209e9d32d72f11bd6592f336894bcf95a7fd2245e85c3c8a80a0"
        )
