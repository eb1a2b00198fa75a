import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from syzkit import (
    BasisSimplex,
    CayleyCone,
    Character,
    DiscClass,
    GWTable,
    LatticePolytope,
    LaurentPolynomial,
    MinkowskiDecomposition,
    RaySet,
    UnimodularSimplex,
    cayley_cone,
    decomposition_from_json_dict,
    enumerate_decompositions,
    enumerate_gw_classes,
    hull,
    summand_from_vertices,
    verify_decomposition,
)
from syzkit import cli as cli_module
from syzkit import gw as gw_module
from syzkit import mirror as mirror_module
from syzkit import svg as svg_module
from syzkit import tropical as tropical_module
from syzkit.cli import main
from syzkit.svg import render_diagram
from conftest import HEXAGON_CORNERS, ap_decomposition, packed_bytes, seg, zonotope
from replay_pinned import PINNED_OUTPUT_SHA256, pinned_digest, pinned_polytopes

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

    @pytest.mark.parametrize("budget", ["-1", "-5"])
    def test_negative_budget_flag(self, capsys, hexagon_file, square_dec_file, budget):
        for argv in (("decompose", hexagon_file), ("gw", "--decomposition", square_dec_file)):
            code, out, err = run_cli(capsys, *argv, "--budget", budget)
            assert (code, out) == (2, "")
            assert f"--budget must be a nonnegative integer, not {budget}" in err

    def test_negative_env_budget(self, capsys, hexagon_file, square_dec_file, monkeypatch):
        monkeypatch.setenv("SYZKIT_BUDGET", "-5")
        for argv in (("decompose", hexagon_file), ("gw", "--decomposition", square_dec_file)):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert "SYZKIT_BUDGET must be a nonnegative integer, not -5" in err

    def test_closed_stdout_has_no_traceback(self, tmp_path):
        # the listing of 5000 unit steps is larger than a pipe buffer, so the
        # write fails however late the reader goes away
        path = tmp_path / "segment.json"
        path.write_text(json.dumps({"dim": 1, "vertices": [[0], [5000]]}))
        proc = subprocess.Popen(
            [sys.executable, "-m", "syzkit", "decompose", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert "Traceback" not in err

    def test_closed_stdout_through_cli_main_has_no_traceback(self, tmp_path):
        # the console script calls cli.main directly, not through __main__
        path = tmp_path / "segment.json"
        path.write_text(json.dumps({"dim": 1, "vertices": [[0], [5000]]}))
        script = "import sys; from syzkit.cli import main; sys.exit(main())"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "decompose", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert "Traceback" not in err

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


# Origin-rooted unimodular summands that decomposition documents are built from.
RANK_SUMMANDS = {
    1: [[[1]], [[-1]]],
    2: [[[1, 0]], [[0, 1]], [[1, 1]], [[1, -1]], [[-1, 2]],
        [[1, 0], [1, 1]], [[0, 1], [1, 1]], [[1, 0], [0, 1]], [[-1, 0], [0, -1]]],
}


def minkowski_vertices(dim, summands):
    points = {(0,) * dim}
    for gens in summands:
        corners = [(0,) * dim] + [tuple(g) for g in gens]
        points = {tuple(a + b for a, b in zip(p, c)) for p in points for c in corners}
    return [list(v) for v in hull(sorted(points)).vertices]


# A flaw applied to a well-formed document, or None to keep it.
FLAWS = st.sampled_from([
    None, None, None, "drop summand", "extra summand", "not unimodular", "wrong rank",
    "float", "no summands key", "empty summands", "rank 3", "translation rank", "not a list",
])


@st.composite
def decomposition_docs(draw):
    """A rank-1 or rank-2 decomposition document, valid or with one flaw."""
    dim = draw(st.sampled_from((1, 2)))
    summands = draw(st.lists(st.sampled_from(RANK_SUMMANDS[dim]), min_size=1, max_size=4))
    doc = {
        "polytope": {"dim": dim, "vertices": minkowski_vertices(dim, summands)},
        "translation": draw(st.lists(st.integers(-5, 5), min_size=dim, max_size=dim)),
        "summands": [{"generators": g} for g in summands],
    }
    flaw = draw(FLAWS)
    if flaw == "drop summand":
        doc["summands"].pop()
    elif flaw == "extra summand":
        doc["summands"].append({"generators": RANK_SUMMANDS[dim][0]})
    elif flaw == "not unimodular":
        doc["summands"][0] = {"generators": [[2] + [0] * (dim - 1)]}
    elif flaw == "wrong rank":
        doc["summands"][0] = {"generators": [[1] * (3 - dim)]}
    elif flaw == "float":
        doc["polytope"]["vertices"][-1][0] = 0.5
    elif flaw == "no summands key":
        del doc["summands"]
    elif flaw == "empty summands":
        doc["summands"] = []
    elif flaw == "rank 3":
        doc["polytope"] = {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0]]}
    elif flaw == "translation rank":
        doc["translation"].append(0)
    elif flaw == "not a list":
        doc["summands"] = {"generators": 1}
    return doc


BASIS_TEXT = st.one_of(
    st.text(alphabet="()0123456789,- x", max_size=24),
    st.lists(st.lists(st.integers(-3, 4), min_size=1, max_size=3), min_size=1, max_size=4).map(
        lambda points: ",".join("(" + ",".join(map(str, p)) + ")" for p in points)
    ),
)
SCALES = st.one_of(st.integers(-5, 200), st.sampled_from([0, -1, 10**300, 10**400]))


@st.composite
def cli_arguments(draw, command):
    """The command with random flags; the decomposition file is appended by
    the test."""
    argv = [command]
    if command == "mirror":
        argv += ["--format", draw(st.sampled_from(("json", "factored", "expanded")))]
    elif command == "gw":
        argv += ["--chamber", str(draw(st.integers(-3, 6)))]
        argv += draw(st.sampled_from(([], ["--sector", "D0"], ["--sector", "Dinf"])))
    elif command == "transition" and draw(st.booleans()):
        argv += ["--basis", draw(BASIS_TEXT)]
    elif command == "tropical":
        argv += ["--scale", str(draw(SCALES))]
    return argv


class TestCommandFuzz:
    """Every command on valid and malformed decompositions, with random flags,
    ends in exit code 0, 1 or 2 and never in an exception."""

    @pytest.mark.parametrize(
        "command", ["mirror", "potential", "gw", "transition", "tropical", "cayley"]
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(doc=decomposition_docs(), data=st.data())
    def test_exit_code_without_exception(self, command, doc, data):
        argv = data.draw(cli_arguments(command))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "decomposition.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            if argv[0] == "tropical":
                argv = argv + ["--svg", os.path.join(tmp, "out.svg")]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv + ["--decomposition", path])
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            json.loads(out.getvalue())
        elif code == 1:
            assert "error" in json.loads(out.getvalue())


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


class TestGwOutputCap:
    """``gw`` predicts the bytes of its class listing from the count and
    refuses a listing past MAX_OUTPUT_BYTES, the cap it shares with
    ``cayley``, before it builds a class."""

    @staticmethod
    def decomposition_file(tmp_path, dec):
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(dec.to_json_dict()))
        return str(path)

    def test_past_the_cap_is_rejected_before_any_class(self, capsys, tmp_path, monkeypatch):
        # A_20 at its top chamber: 2^21 classes, well inside the budget, of
        # about 700 bytes each
        path = self.decomposition_file(tmp_path, ap_decomposition(20))

        def built(*args, **kwargs):
            raise AssertionError("a class was built")

        monkeypatch.setattr(gw_module, "enumerate_gw_classes", built)
        monkeypatch.setattr(gw_module, "DiscClass", built)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gw", "--decomposition", path)
        assert time.perf_counter() - start < 1
        assert code == 1
        # the refusal, byte for byte
        detail = "2097152 classes would print 1595932749 bytes, past the cap of 268435456"
        assert out == json.dumps({"error": "OutputTooLarge", "detail": detail}, indent=2) + "\n"
        assert err == f"error: {detail}\n"

    def test_the_budget_still_caps_the_count(self, capsys, tmp_path, monkeypatch):
        path = self.decomposition_file(tmp_path, ap_decomposition(20))
        code, out, _ = run_cli(capsys, "gw", "--decomposition", path, "--budget", "1000")
        assert (code, json.loads(out)["error"]) == (1, "SearchBudgetExceeded")
        monkeypatch.setenv("SYZKIT_BUDGET", "1000")
        code, out, _ = run_cli(capsys, "gw", "--decomposition", path)
        assert (code, json.loads(out)["error"]) == (1, "SearchBudgetExceeded")

    def test_predicted_size_is_exact_and_output_unchanged(self, capsys, tmp_path, monkeypatch):
        decs = [ap_decomposition(p) for p in (0, 1, 4, 11)]
        decs += enumerate_decompositions(zonotope(4, 2))[:4]
        for dec in decs:
            path = self.decomposition_file(tmp_path, dec)
            for chamber, sector in product(range(-1, dec.p + 1), ("D0", "Dinf")):
                argv = ("gw", "--decomposition", path, "--chamber", str(chamber),
                        "--sector", sector)
                code, out, _ = run_cli(capsys, *argv)
                classes = enumerate_gw_classes(dec, chamber, sector)
                report = {"chamber": chamber, "sector": sector, "count": len(classes),
                          "classes": [c.to_json_dict() for c in classes]}
                assert (code, out) == (0, json.dumps(report, indent=2) + "\n")
                head = {key: report[key] for key in ("chamber", "sector", "count")}
                size = len(out.encode())
                assert cli_module._gw_output_bytes(head, dec.ks) == size
                # the cap admits a listing of exactly its size
                monkeypatch.setattr(cli_module, "MAX_OUTPUT_BYTES", size)
                assert run_cli(capsys, *argv)[:2] == (0, out)
                monkeypatch.setattr(cli_module, "MAX_OUTPUT_BYTES", size - 1)
                code, out, _ = run_cli(capsys, *argv)
                assert (code, json.loads(out)["error"]) == (1, "OutputTooLarge")
                monkeypatch.undo()

    def test_default_cap(self):
        assert cli_module.MAX_OUTPUT_BYTES == 2**28
        assert not {"MAX_GW_OUTPUT_BYTES", "MAX_CAYLEY_OUTPUT_BYTES"} & vars(cli_module).keys()


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

    def test_non_integer_basis_coordinate(self, capsys, square_dec_file):
        code, out, err = run_cli(
            capsys, "transition", "--decomposition", square_dec_file,
            "--basis", "(0,0),(1,x),(1,1)",
        )
        assert (code, out) == (2, "")
        assert "basis" in err

    def test_invalid_basis_is_domain_error(self, capsys, square_dec_file):
        code, out, _ = run_cli(
            capsys, "transition", "--decomposition", square_dec_file,
            "--basis", "(0,0),(1,0),(3,3)",
        )
        assert code == 1
        assert json.loads(out)["error"] == "InvalidBasis"

    @pytest.mark.parametrize("rank", [3, 40])
    def test_basis_of_rank_above_two(self, capsys, square_dec_file, rank):
        points = [[int(j < i) for j in range(rank)] for i in range(rank + 1)]
        text = ",".join("(" + ",".join(map(str, p)) + ")" for p in points)
        code, out, _ = run_cli(
            capsys, "transition", "--decomposition", square_dec_file, "--basis", text
        )
        assert code == 1
        report = json.loads(out)
        assert report["error"] == "InvalidBasis"
        assert "rank 1 or 2" in report["detail"]


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

    def test_svg_for_a_single_point(self):
        content = render_diagram(hull([(2, 1)]), set(), scale=10)
        ET.fromstring(content)
        # the point is a filled circle; the origin marker is the other one
        assert '<circle cx="20" cy="-10" r="3" fill="#1f6feb"/>' in content
        assert "<line" not in content and "<polygon" not in content

    @pytest.mark.parametrize("scale", ["0", "-3", "1" + "0" * 400], ids=["zero", "negative", "10^400"])
    def test_svg_scale_out_of_range(self, capsys, hex_triangles_file, tmp_path, scale):
        svg_path = tmp_path / "bad.svg"
        code, out, err = run_cli(
            capsys, "tropical", "--decomposition", hex_triangles_file,
            "--svg", str(svg_path), "--scale", scale,
        )
        assert code == 2
        assert out == ""
        assert "--scale" in err
        assert not svg_path.exists()

    def test_svg_path_that_cannot_be_written(self, capsys, hex_triangles_file, tmp_path):
        """An SVG path in a directory that does not exist is an input error:
        exit 2, no report on stdout, and one ``error:`` line on stderr that
        names the path, in process and from a subprocess, with no traceback."""
        svg_path = tmp_path / "missing" / "out.svg"
        argv = ["tropical", "--decomposition", hex_triangles_file, "--svg", str(svg_path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {svg_path}: ") and err.count("\n") == 1
        proc = subprocess.run([sys.executable, "-m", "syzkit", *argv], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)
        assert not svg_path.parent.exists()

    @pytest.mark.parametrize("scale", ["0", "-3"], ids=["zero", "negative"])
    def test_scale_below_one_without_svg(self, capsys, hex_triangles_file, scale):
        code, out, err = run_cli(
            capsys, "tropical", "--decomposition", hex_triangles_file, "--scale", scale
        )
        assert code == 2
        assert out == ""
        assert "--scale" in err

    def test_svg_scale_inside_the_float_range(self, capsys, hex_triangles_file, tmp_path):
        svg_path = tmp_path / "large.svg"
        code, _, _ = run_cli(
            capsys, "tropical", "--decomposition", hex_triangles_file,
            "--svg", str(svg_path), "--scale", str(10**300),
        )
        assert code == 0
        view = ET.fromstring(svg_path.read_text()).get("viewBox").split()
        assert all(math.isfinite(float(x)) for x in view)
        assert float(view[2]) > 0 and float(view[3]) > 0

    def test_view_box_cap(self):
        """The hexagon reaches 2 units, so its view box spans 8 * scale."""
        assert svg_module.MAX_REACH == 10**308
        hexagon = hull(HEXAGON_CORNERS)
        largest = svg_module.MAX_REACH // 8
        ET.fromstring(render_diagram(hexagon, [(1, 1)], scale=largest))
        with pytest.raises(ValueError, match="scale"):
            render_diagram(hexagon, [(1, 1)], scale=largest + 1)

    def test_huge_scale_has_no_traceback(self, hex_triangles_file, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "syzkit", "tropical", "--decomposition", hex_triangles_file,
             "--svg", str(tmp_path / "huge.svg"), "--scale", "1" + "0" * 400],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_rays_once_per_distinct_type(self, capsys, tmp_path, monkeypatch):
        """On a 2000-step diagonal segment the report lists 2000 walls but
        computes the rays of their one type once, and the dual-fan check
        once more."""
        calls = {"cli": 0, "dual_fan_check": 0}
        # the handler imports tropical_rays when it runs, so one patch sees
        # both callers; the calling module tells them apart
        callers = {"syzkit.cli": "cli", "syzkit.tropical": "dual_fan_check"}

        def counted(summand, real=tropical_module.tropical_rays):
            calls[callers[sys._getframe(1).f_globals["__name__"]]] += 1
            return real(summand)

        monkeypatch.setattr(tropical_module, "tropical_rays", counted)
        dec_file = tmp_path / "diagonal.json"
        dec_file.write_text(json.dumps({
            "polytope": {"dim": 2, "vertices": [[0, 0], [2000, 2000]]},
            "translation": [0, 0],
            "summands": [{"generators": [[1, 1]]}] * 2000,
        }))
        code, out, _ = run_cli(capsys, "tropical", "--decomposition", str(dec_file))
        assert code == 0
        assert calls == {"cli": 1, "dual_fan_check": 1}
        data = json.loads(out)
        wall = {"generators": [[1, 1]], "rays": [[-1, 1], [1, -1]], "chambers": 2}
        assert data["walls"] == [wall] * 2000
        assert data["dual_fan_check"] is True


class TestCayley:
    def test_square(self, capsys, square_dec_file):
        code, out, _ = run_cli(capsys, "cayley", "--decomposition", square_dec_file)
        assert code == 0
        assert json.loads(out)["generators"] == [
            [0, 0, 1, 0], [1, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 1],
        ]


class TestCayleyOutputCap:
    """``cayley`` predicts the bytes of its report from the summands and
    refuses a report past MAX_OUTPUT_BYTES, the cap it shares with ``gw``,
    before it builds a row."""

    @staticmethod
    def decomposition_file(tmp_path, doc):
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @staticmethod
    def unit_steps(n):
        return {"polytope": {"dim": 1, "vertices": [[0], [n]]},
                "summands": [{"generators": [[1]]}] * n}

    def test_past_the_cap_is_rejected_before_any_row(self, capsys, tmp_path, monkeypatch):
        # 20000 unit steps would print 40000 rows of 20001 integers, about 7 GB
        path = self.decomposition_file(tmp_path, self.unit_steps(20000))

        def built(*args, **kwargs):
            raise AssertionError("a row was built")

        monkeypatch.setattr(cli_module, "cayley_cone", built)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "cayley", "--decomposition", path)
        assert time.perf_counter() - start < 5
        assert code == 1
        # the refusal, byte for byte
        detail = ("the Cayley cone of 20000 summands would print 7200840025 bytes, "
                  "past the cap of 268435456")
        assert out == json.dumps({"error": "OutputTooLarge", "detail": detail}, indent=2) + "\n"
        assert err == f"error: {detail}\n"

    def test_predicted_size_is_exact_and_output_unchanged(self, capsys, tmp_path, monkeypatch):
        decs = [ap_decomposition(p) for p in (0, 1, 4, 11)]
        decs += enumerate_decompositions(hull(HEXAGON_CORNERS))
        decs += enumerate_decompositions(zonotope(4, 2))[:4]
        for corners in ([(3, 4)], [(2, -1)], [(0, 0), (3, -3)], [(0, 0), (-2, 5), (1, 12)]):
            decs += enumerate_decompositions(hull(corners))
        for dec in decs:
            path = self.decomposition_file(tmp_path, dec.to_json_dict())
            argv = ("cayley", "--decomposition", path)
            code, out, _ = run_cli(capsys, *argv)
            assert (code, out) == (0, json.dumps(cayley_cone(dec).to_json_dict(), indent=2) + "\n")
            size = len(out.encode())
            assert cli_module._cayley_output_bytes(dec) == size
            # the cap admits a report of exactly its size
            monkeypatch.setattr(cli_module, "MAX_OUTPUT_BYTES", size)
            assert run_cli(capsys, *argv)[:2] == (0, out)
            monkeypatch.setattr(cli_module, "MAX_OUTPUT_BYTES", size - 1)
            monkeypatch.setattr(cli_module, "cayley_cone", None)  # a row would raise
            code, out, _ = run_cli(capsys, *argv)
            assert (code, json.loads(out)["error"]) == (1, "OutputTooLarge")
            monkeypatch.undo()

    def test_default_cap(self):
        assert cli_module.MAX_OUTPUT_BYTES == 2**28


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

    # Each was once read as a domain error (exit 1, "InvalidValue") or ended
    # in a RecursionError traceback.
    UNREADABLE = {
        "not UTF-8": b'{"dim": 1, "vertices": [[0], [1\xff]]}',
        "integer past the digit limit": b'{"dim": 1, "vertices": [[0], [' + b"9" * 5000 + b"]]}",
        "deep nesting": b"[" * 200_000 + b"]" * 200_000,
    }

    @pytest.mark.parametrize("raw", UNREADABLE.values(), ids=UNREADABLE)
    def test_unreadable_json_exits_two(self, capsys, tmp_path, raw):
        path = tmp_path / "polytope.json"
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert (code, out) == (2, "")
        assert f"error: {path} is not valid JSON: " in err

    def test_deep_nesting_exits_two_without_traceback(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_bytes(self.UNREADABLE["deep nesting"])
        proc = subprocess.run(
            [sys.executable, "-m", "syzkit", "decompose", str(path)],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr
        assert "is not valid JSON: maximum recursion depth exceeded" in proc.stderr

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

    @pytest.mark.parametrize("translation", [[0], [0, 0, 7]], ids=["short", "long"])
    def test_translation_of_the_wrong_rank(self, capsys, tmp_path, translation):
        dec_file = tmp_path / "dec.json"
        dec_file.write_text(json.dumps({**SQUARE_DEC_JSON, "translation": translation}))
        code, out, _ = run_cli(capsys, "cayley", "--decomposition", str(dec_file))
        assert code == 1
        assert json.loads(out) == {
            "error": "DimensionMismatch",
            "detail": "translation point has the wrong rank",
        }

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


SQUARE = hull([(0, 0), (1, 0), (1, 1), (0, 1)])

# Every public constructor and integer parameter, each given one value that
# is not an integer.
PUBLIC_CONSTRUCTORS = {
    "hull": lambda bad: hull([(0, 0), (bad, 0)]),
    "LatticePolytope vertex": lambda bad: LatticePolytope(1, ((0,), (bad,))),
    "LatticePolytope dim": lambda bad: LatticePolytope(bad, ((0,),)),
    "translate": lambda bad: SQUARE.translate((bad, 0)),
    "RaySet": lambda bad: RaySet(frozenset({(bad, 1)})),
    "UnimodularSimplex generator": lambda bad: UnimodularSimplex(2, [(bad, 0)]),
    "UnimodularSimplex dim": lambda bad: UnimodularSimplex(bad, [(1,)]),
    "summand_from_vertices": lambda bad: summand_from_vertices(2, [(0, 0), (bad, 1)]),
    "MinkowskiDecomposition": lambda bad: MinkowskiDecomposition(
        SQUARE, (bad, 0), (seg((1, 0)), seg((0, 1)))
    ),
    "enumerate_decompositions budget": lambda bad: enumerate_decompositions(SQUARE, bad),
    "CayleyCone": lambda bad: CayleyCone(((bad, 0, 1),)),
    "DiscClass": lambda bad: DiscClass("D0", ((bad,),)),
    "GWTable point": lambda bad: GWTable({(bad, 0): 1}),
    "GWTable count": lambda bad: GWTable({(0, 0): bad}),
    "enumerate_gw_classes budget": lambda bad: enumerate_gw_classes(
        ap_decomposition(1), 0, "D0", bad
    ),
    "BasisSimplex": lambda bad: BasisSimplex(((0, 0), (bad, 0), (0, 1))),
    "LaurentPolynomial dim": lambda bad: LaurentPolynomial(bad, {}),
    "LaurentPolynomial exponent": lambda bad: LaurentPolynomial(1, {(bad,): 1}),
    "LaurentPolynomial coefficient": lambda bad: LaurentPolynomial(1, {(0,): bad}),
    "Character gamma": lambda bad: Character(bad, (1,)),
    "Character alpha": lambda bad: Character(1, (bad,)),
}


class TestIntegerOnlyInput:
    """Every coordinate, dimension and multiplicity must be a JSON integer."""

    @NOT_AN_INTEGER
    @pytest.mark.parametrize("build", PUBLIC_CONSTRUCTORS.values(), ids=PUBLIC_CONSTRUCTORS)
    def test_public_constructor(self, bad, build):
        # int() once truncated these: hull([(0.9, 0), (2.9, 0)]) was [0, 2]
        with pytest.raises(TypeError):
            build(bad)

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



# Runs argv[2:] with stdout to the file argv[1] and prints its exit code and
# peak RSS in KiB, read with os.wait4, as the CI console-script step does.
# A child forked from pytest itself can report pytest's pages as its peak.
PEAK_RSS_LAUNCHER = (
    "import os, subprocess, sys; "
    "out = open(sys.argv[1], 'wb'); "
    "p = subprocess.Popen(sys.argv[2:], stdout=out, stderr=subprocess.DEVNULL); "
    "_, status, usage = os.wait4(p.pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


@pytest.mark.skipif(sys.platform != "linux", reason="reads the child's peak RSS in KiB with os.wait4")
class TestOutputMemory:
    """A report is encoded and written in batches, so no string holds the
    whole output: each of these runs peaked above 200 MB while ``_run``
    printed one ``json.dumps``, and still prints the same bytes.  The
    command is started from a small launcher process, not from pytest."""

    @pytest.mark.parametrize("argv, doc, md5, limit_mb", [
        (("cayley", "--decomposition"),
         {"polytope": {"dim": 1, "vertices": [[0], [1000]]},
          "summands": [{"generators": [[1]]}] * 1000},
         "d4e0a6782c05df7a1b97d3b103382028", 120),
        (("decompose",), {"dim": 1, "vertices": [[0], [200000]]},
         "d4fad1264fb0cfca1c9b5bb9fbd5601f", 150),
    ], ids=["cayley", "decompose"])
    def test_peak_rss_of_a_large_report(self, tmp_path, argv, doc, md5, limit_mb):
        source, output = tmp_path / "input.json", tmp_path / "output.json"
        source.write_text(json.dumps(doc))
        launcher = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_LAUNCHER, str(output),
             sys.executable, "-m", "syzkit", *argv, str(source)],
            capture_output=True, text=True,
        )
        assert launcher.returncode == 0, launcher.stderr
        code, peak_kib = map(int, launcher.stdout.split())
        assert code == 0
        assert hashlib.md5(output.read_bytes()).hexdigest() == md5
        assert peak_kib < limit_mb * 1024


# Polytopes for the SVG digest: each drawing branch (polygon, line, point),
# with vertices on both sides of both axes.
SVG_POLYTOPES = [
    [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)],
    [(-3, -1), (4, -2), (5, 3), (-1, 6)],
    [(0, 0), (7, 2), (3, 5)],
    [(-2, 5), (9, -4)],
    [(-6, -6), (6, 6)],
    [(2, 1)],
]
SVG_SCALES = [*range(1, 61), 997, 4096, 10**6, 10**9 + 7, 10**10]
# Every primitive ray with entries in [-12, 12], drawn together.
SVG_RAYS = [(a, b) for a in range(-12, 13) for b in range(-12, 13) if math.gcd(a, b) == 1]
SVG_SHA256 = "c89ce75d23ef11f5e44ac32ae06703a1803a78a243048b148b1ac1bd111c0c58"


class TestSvgDigest:
    def test_render_digest(self):
        """One SHA-256 of the diagrams at 65 scales up to 10^10, recorded
        from the floating-point renderer that the integer one replaced."""
        digest = hashlib.sha256()
        for vertices in SVG_POLYTOPES:
            polytope = hull(vertices)
            for scale in SVG_SCALES:
                digest.update(render_diagram(polytope, SVG_RAYS, scale).encode())
        assert digest.hexdigest() == SVG_SHA256


class TestPinnedOutput:
    def test_transcript_hash(self, tmp_path):
        assert pinned_digest(tmp_path) == PINNED_OUTPUT_SHA256

    def test_packed_products_fit_under_the_cap(self):
        """Every g that the transcript computes packs under MAX_PACKED_BYTES."""
        for vertices in pinned_polytopes().values():
            for dec in enumerate_decompositions(hull(vertices))[:3]:
                assert packed_bytes(dec) <= mirror_module.MAX_PACKED_BYTES
