"""CLI behavior: exit codes, output shapes, file formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import newtongraph
from newtongraph import InvalidGraph, graph_from_json
from newtongraph.cli import main

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

    def test_not_pcf_exits_3(self, tmp_path, capsys):
        poly = write_json(tmp_path, "q.json", NOT_PCF)
        code, _, err = run(capsys, ["graph", poly])
        assert code == 3
        assert "not postcritically fixed" in err

    def test_level_cap_exits_2(self, tmp_path, capsys):
        poly = write_json(tmp_path, "u.json", UNITY)
        code, _, _ = run(capsys, ["graph", poly, "--max-level", "1"])
        assert code == 2


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
        else:
            del data["dynamics"]["dart_map"]["0"]
        with pytest.raises(InvalidGraph, match=message):
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
    float fails here. The exports run numpy's complex multiply, whose
    last-bit rounding depends on the CPU's vector instructions; these digests
    were taken on x86-64 with AVX-512 and numpy 2.4, and need recording
    afresh on another platform."""

    ZMZ4 = {"coeffs": [[0, 0], [-1, 0], [0, 0], [0, 0], [1, 0]]}

    @pytest.mark.parametrize(
        "name, poly, digest",
        [
            ("z3-1", UNITY, "f20196c6b6c7e73e29a7156cad44733068782f1baac46a50506cf460fb966755"),
            ("z4-z", ZMZ4, "fce15d35c8c78c78a3cb56df0a21034c8b4b745ba9d60490e35ca81a476b2211"),
        ],
    )
    def test_graph_export(self, tmp_path, capsys, name, poly, digest):
        out = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, ["graph", write_json(tmp_path, "p.json", poly), "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_render_ppm(self, tmp_path, capsys):
        out = tmp_path / "z3-1.ppm"
        poly = write_json(tmp_path, "p.json", UNITY)
        code, _, _ = run(capsys, ["render", poly, str(out), "--width", "64", "--height", "64"])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8bcb933f1c81209e9d32d72f11bd6592f336894bcf95a7fd2245e85c3c8a80a0"
        )
