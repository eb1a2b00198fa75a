import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings, strategies as st

from syzkit import decomposition_from_json_dict, verify_decomposition
from syzkit.cli import main

HEXAGON_JSON = {
    "dim": 2,
    "vertices": [[0, 0], [1, 0], [2, 1], [2, 2], [1, 2], [0, 1]],
}

SQUARE_DEC_JSON = {
    "polytope": {"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
    "translation": [0, 0],
    "summands": [{"generators": [[1, 0]]}, {"generators": [[0, 1]]}],
}

HEX_TRIANGLES_JSON = {
    "polytope": HEXAGON_JSON,
    "translation": [0, 0],
    "summands": [
        {"generators": [[1, 0], [1, 1]]},
        {"generators": [[0, 1], [1, 1]]},
    ],
}


@pytest.fixture
def hexagon_file(tmp_path):
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(HEXAGON_JSON))
    return str(path)


@pytest.fixture
def square_dec_file(tmp_path):
    path = tmp_path / "square_dec.json"
    path.write_text(json.dumps(SQUARE_DEC_JSON))
    return str(path)


@pytest.fixture
def hex_triangles_file(tmp_path):
    path = tmp_path / "hex_triangles.json"
    path.write_text(json.dumps(HEX_TRIANGLES_JSON))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_hexagon_two_decompositions(self, capsys, hexagon_file):
        code, out, _ = run_cli(capsys, "decompose", hexagon_file)
        assert code == 0
        data = json.loads(out)
        assert len(data) == 2
        for entry in data:
            dec = decomposition_from_json_dict(entry)
            assert verify_decomposition(dec.polytope, dec.summands)

    def test_byte_deterministic(self, capsys, hexagon_file):
        _, first, _ = run_cli(capsys, "decompose", hexagon_file)
        _, second, _ = run_cli(capsys, "decompose", hexagon_file)
        assert first == second

    def test_budget_flag_exceeded(self, capsys, hexagon_file):
        code, out, err = run_cli(capsys, "decompose", hexagon_file, "--budget", "2")
        assert code == 1
        assert json.loads(out)["error"] == "SearchBudgetExceeded"
        assert err

    def test_budget_env(self, capsys, hexagon_file, monkeypatch):
        monkeypatch.setenv("SYZKIT_BUDGET", "2")
        code, out, _ = run_cli(capsys, "decompose", hexagon_file)
        assert code == 1
        assert json.loads(out)["error"] == "SearchBudgetExceeded"
        # explicit flag wins over the environment
        monkeypatch.setenv("SYZKIT_BUDGET", "2")
        code, out, _ = run_cli(capsys, "decompose", hexagon_file, "--budget", "100000")
        assert code == 0

    def test_bad_env_budget(self, capsys, hexagon_file, monkeypatch):
        monkeypatch.setenv("SYZKIT_BUDGET", "many")
        code, _, err = run_cli(capsys, "decompose", hexagon_file)
        assert code == 2
        assert "SYZKIT_BUDGET" in err

    def test_long_segment_has_no_traceback(self, tmp_path):
        # the search once recursed one level per summand and died here
        path = tmp_path / "segment.json"
        path.write_text(json.dumps({"dim": 1, "vertices": [[0], [1200]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "syzkit", "decompose", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        (entry,) = json.loads(proc.stdout)
        assert entry["summands"] == [{"generators": [[1]]}] * 1200

    def test_segment_past_the_summand_cap_is_an_error(self, tmp_path):
        path = tmp_path / "segment.json"
        path.write_text(json.dumps({"dim": 1, "vertices": [[0], [2 * 10**6]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "syzkit", "decompose", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["error"] == "OutputTooLarge"


COORD = st.integers(-6, 6)
NON_INTEGER = st.one_of(
    st.floats(-6, 6),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.text(max_size=3),
    st.none(),
    st.booleans(),
    st.lists(COORD, max_size=2),
)


def rank_vertices(d, min_size=0):
    return st.lists(st.lists(COORD, min_size=d, max_size=d), min_size=min_size, max_size=8)


# well-formed polytopes of rank 1, 2 and 3, then malformed documents: empty,
# ragged or non-integer vertex lists, and a missing or wrong dim
POLYTOPE_DOCS = st.one_of(
    st.integers(1, 3).flatmap(
        lambda d: st.fixed_dictionaries({"dim": st.just(d), "vertices": rank_vertices(d, 1)})
    ),
    st.fixed_dictionaries(
        {"vertices": st.one_of(
            *(rank_vertices(d) for d in (1, 2, 3)),
            st.lists(st.lists(COORD, max_size=4), max_size=6),
            st.lists(st.lists(st.one_of(COORD, NON_INTEGER), min_size=1, max_size=3), max_size=5),
        )},
        optional={"dim": st.one_of(st.integers(0, 4), st.just("two"), st.none())},
    ),
)


class TestDecomposeFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(POLYTOPE_DOCS)
    @example({"dim": 1, "vertices": [[math.inf]]})  # int() raises OverflowError
    def test_exit_code_without_exception(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "polytope.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["decompose", path])
        assert code in (0, 1, 2)
        if code == 0:
            json.loads(out.getvalue())


class TestMirror:
    def test_expanded_has_coefficient_three(self, capsys, hex_triangles_file):
        code, out, _ = run_cli(
            capsys, "mirror", "--decomposition", hex_triangles_file,
            "--format", "expanded",
        )
        assert code == 0
        data = json.loads(out)
        term = next(t for t in data["terms"] if t["exp"] == [1, 1])
        assert term["coeff"]["num"] == 3

    def test_factored(self, capsys, square_dec_file):
        code, out, _ = run_cli(
            capsys, "mirror", "--decomposition", square_dec_file,
            "--format", "factored",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data) == 2

    def test_default_format_bundles_everything(self, capsys, square_dec_file):
        code, out, _ = run_cli(capsys, "mirror", "--decomposition", square_dec_file)
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"factored", "expanded", "gw_table"}
        assert data["gw_table"]["entries"][0] == {"point": [0, 0], "n": 1}


class TestPotential:
    def test_square(self, capsys, square_dec_file):
        code, out, _ = run_cli(capsys, "potential", "--decomposition", square_dec_file)
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 3
        assert [t["exp"] for t in data["terms"]] == [
            [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1],
        ]


class TestGW:
    def test_enumerate_default_chamber(self, capsys, square_dec_file):
        code, out, _ = run_cli(capsys, "gw", "--decomposition", square_dec_file)
        assert code == 0
        data = json.loads(out)
        assert data["chamber"] == 1
        assert data["sector"] == "D0"
        assert data["count"] == 4

    def test_single_class(self, capsys, square_dec_file, tmp_path):
        beta = tmp_path / "class.json"
        beta.write_text(json.dumps({"sector": "D0", "multiplicities": [[0], [1]]}))
        code, out, _ = run_cli(
            capsys, "gw", "--decomposition", square_dec_file,
            "--chamber", "0", "--class", str(beta),
        )
        assert code == 0
        assert json.loads(out)["invariant"] == 0

    def test_sector_conflict_rejected(self, capsys, square_dec_file, tmp_path):
        beta = tmp_path / "class.json"
        beta.write_text(json.dumps({"sector": "D0", "multiplicities": [[0], [0]]}))
        code, _, err = run_cli(
            capsys, "gw", "--decomposition", square_dec_file,
            "--sector", "Dinf", "--class", str(beta),
        )
        assert code == 2
        assert "conflicts" in err

    def test_chamber_out_of_range(self, capsys, square_dec_file):
        code, out, _ = run_cli(
            capsys, "gw", "--decomposition", square_dec_file, "--chamber", "7",
        )
        assert code == 1
        assert json.loads(out)["error"] == "InvalidValue"

    def test_bottom_chamber_and_dinf_sector(self, capsys, square_dec_file):
        code, out, _ = run_cli(
            capsys, "gw", "--decomposition", square_dec_file,
            "--chamber", "-1", "--sector", "Dinf",
        )
        assert code == 0
        data = json.loads(out)
        assert data["chamber"] == -1
        assert data["count"] == 4
        code, out, _ = run_cli(
            capsys, "gw", "--decomposition", square_dec_file,
            "--chamber", "-1", "--sector", "D0",
        )
        assert json.loads(out)["count"] == 1


class TestTransition:
    def test_conifold_q_is_one(self, capsys, square_dec_file):
        code, out, _ = run_cli(
            capsys, "transition", "--decomposition", square_dec_file,
            "--basis", "(0,0),(1,0),(0,1)",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True
        assert data["character"] == {"gamma": "1/1", "alpha": ["1/1", "1/1"]}
        assert data["specialization"] == [{"point": [1, 1], "value": "1/1"}]

    def test_default_basis(self, capsys, hex_triangles_file):
        code, out, _ = run_cli(capsys, "transition", "--decomposition", hex_triangles_file)
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_bad_basis_string(self, capsys, square_dec_file):
        code, _, err = run_cli(
            capsys, "transition", "--decomposition", square_dec_file,
            "--basis", "nonsense",
        )
        assert code == 2
        assert "basis" in err

    def test_invalid_basis_is_domain_error(self, capsys, square_dec_file):
        code, out, _ = run_cli(
            capsys, "transition", "--decomposition", square_dec_file,
            "--basis", "(0,0),(1,0),(3,3)",
        )
        assert code == 1
        assert json.loads(out)["error"] == "InvalidBasis"


class TestTropical:
    def test_report(self, capsys, hex_triangles_file):
        code, out, _ = run_cli(capsys, "tropical", "--decomposition", hex_triangles_file)
        assert code == 0
        data = json.loads(out)
        assert data["dual_fan_check"] is True
        assert data["walls"][0]["rays"] == [[-1, 0], [0, 1], [1, -1]]
        assert data["walls"][1]["rays"] == [[-1, 1], [0, -1], [1, 0]]
        assert data["walls"][0]["chambers"] == 3
        assert len(data["union_rays"]) == 6

    def test_svg_written(self, capsys, hex_triangles_file, tmp_path):
        svg_path = tmp_path / "out.svg"
        code, out, err = run_cli(
            capsys, "tropical", "--decomposition", hex_triangles_file,
            "--svg", str(svg_path),
        )
        assert code == 0
        content = svg_path.read_text()
        root = ET.fromstring(content)
        assert root.tag.endswith("svg")
        assert "polygon" in content
        # six rays drawn from the origin plus the polygon outline
        assert content.count("<line") == 6
        assert str(svg_path) in err

    def test_svg_scale(self, capsys, hex_triangles_file, tmp_path):
        svg_path = tmp_path / "scaled.svg"
        code, _, _ = run_cli(
            capsys, "tropical", "--decomposition", hex_triangles_file,
            "--svg", str(svg_path), "--scale", "10",
        )
        assert code == 0
        assert 'points="0,0 10,0 20,-10 20,-20 10,-20 0,-10"' in svg_path.read_text()

    def test_svg_for_degenerate_polytope(self, capsys, tmp_path):
        dec_file = tmp_path / "flat.json"
        dec_file.write_text(json.dumps({
            "polytope": {"dim": 2, "vertices": [[0, 0], [2, 0]]},
            "translation": [0, 0],
            "summands": [{"generators": [[1, 0]]}, {"generators": [[1, 0]]}],
        }))
        svg_path = tmp_path / "flat.svg"
        code, out, _ = run_cli(
            capsys, "tropical", "--decomposition", str(dec_file),
            "--svg", str(svg_path),
        )
        assert code == 0
        assert json.loads(out)["dual_fan_check"] is True
        content = svg_path.read_text()
        ET.fromstring(content)
        # the flat polytope renders as a line, plus one line per ray
        assert content.count("<line") == 3


class TestCayley:
    def test_square(self, capsys, square_dec_file):
        code, out, _ = run_cli(capsys, "cayley", "--decomposition", square_dec_file)
        assert code == 0
        assert json.loads(out)["generators"] == [
            [0, 0, 1, 0], [1, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 1],
        ]


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "no_such_file.json")
        assert code == 2
        assert "cannot read" in err

    def test_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "decompose", str(bad))
        assert code == 2

    def test_unsupported_dimension_is_domain_error(self, capsys, tmp_path):
        cube = tmp_path / "cube.json"
        cube.write_text(json.dumps({"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0]]}))
        code, out, _ = run_cli(capsys, "decompose", str(cube))
        assert code == 1
        assert json.loads(out)["error"] == "UnsupportedDimension"

    def test_unknown_flag_exits_two(self, hexagon_file):
        with pytest.raises(SystemExit) as err:
            main(["decompose", hexagon_file, "--frobnicate"])
        assert err.value.code == 2

    def test_malformed_decomposition_schema(self, capsys, tmp_path):
        bad = tmp_path / "dec.json"
        bad.write_text(json.dumps({"polytope": {"dim": 2}}))
        code, _, err = run_cli(capsys, "mirror", "--decomposition", str(bad))
        assert code == 2
        assert "malformed" in err


NOT_AN_INTEGER = pytest.mark.parametrize(
    "bad", [0.7, 2.9, 2.0, True, False, "2"],
    ids=["float", "float above", "integral float", "true", "false", "string"],
)


class TestIntegerOnlyInput:
    """Every coordinate, dimension and multiplicity must be a JSON integer."""

    @NOT_AN_INTEGER
    @pytest.mark.parametrize("where", ["vertex", "dim"])
    def test_decompose(self, capsys, tmp_path, bad, where):
        doc = {"dim": 1, "vertices": [[0], [2]]}
        if where == "dim":
            doc["dim"] = bad
        else:
            doc["vertices"][1] = [bad]
        path = tmp_path / "polytope.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert (code, out) == (2, "")
        assert "malformed polytope file" in err

    @NOT_AN_INTEGER
    @pytest.mark.parametrize("where", ["vertex", "translation", "generator"])
    def test_mirror_decomposition(self, capsys, tmp_path, bad, where):
        doc = json.loads(json.dumps(SQUARE_DEC_JSON))
        if where == "vertex":
            doc["polytope"]["vertices"][2][0] = bad
        elif where == "translation":
            doc["translation"][1] = bad
        else:
            doc["summands"][0]["generators"][0][0] = bad
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "mirror", "--decomposition", str(path))
        assert (code, out) == (2, "")
        assert "malformed decomposition file" in err

    @NOT_AN_INTEGER
    def test_gw_class(self, capsys, square_dec_file, tmp_path, bad):
        beta = tmp_path / "class.json"
        beta.write_text(json.dumps({"sector": "D0", "multiplicities": [[0], [bad]]}))
        code, out, err = run_cli(
            capsys, "gw", "--decomposition", square_dec_file,
            "--chamber", "0", "--class", str(beta),
        )
        assert (code, out) == (2, "")
        assert "malformed disc class file" in err

    def test_float_vertices_exit_two_without_traceback(self, tmp_path):
        # int() once truncated these to the segment [0, 2]
        path = tmp_path / "segment.json"
        path.write_text(json.dumps({"dim": 1, "vertices": [[0.7], [2.9]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "syzkit", "decompose", str(path)],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr


class TestRoundTrip:
    def test_decompose_output_feeds_other_commands(self, capsys, hexagon_file, tmp_path):
        code, out, _ = run_cli(capsys, "decompose", hexagon_file)
        assert code == 0
        for i, entry in enumerate(json.loads(out)):
            dec_file = tmp_path / f"dec{i}.json"
            dec_file.write_text(json.dumps(entry))
            for argv in (
                ["mirror", "--decomposition", str(dec_file)],
                ["tropical", "--decomposition", str(dec_file)],
                ["transition", "--decomposition", str(dec_file)],
                ["cayley", "--decomposition", str(dec_file)],
                ["gw", "--decomposition", str(dec_file)],
                ["potential", "--decomposition", str(dec_file)],
            ):
                code, _, _ = run_cli(capsys, *argv)
                assert code == 0


class TestEntryPoint:
    def test_module_invocation(self, hexagon_file):
        proc = subprocess.run(
            [sys.executable, "-m", "syzkit", "decompose", hexagon_file],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert len(json.loads(proc.stdout)) == 2
