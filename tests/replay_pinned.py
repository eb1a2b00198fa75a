"""Replay the pinned CLI transcript of ``TestPinnedOutput`` under several
Python interpreters, with the standard library only: a local stand-in for a
CI matrix.

    python tests/replay_pinned.py [PYTHON ...]

Each interpreter named (the running one if none is) runs this file with
``--digest``, once plainly and once under ``-O``, and prints the SHA-256 of
the transcript; an interpreter older than the package's ``requires-python``
is reported and skipped.  The exit status is 0 when every replay that ran
gave ``PINNED_OUTPUT_SHA256``.  ``TestPinnedOutput`` in
``tests/test_cli.py`` reads its polytopes, transcript and digest from here.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_VERSION = (3, 10)
# SHA-256 of every command line, exit code and stdout of ``pinned_digest``;
# it changes only when some command's output does.
PINNED_OUTPUT_SHA256 = "8696b12a1130b1cc79969fed1e13bb3324cad62761138364844c6920a8694df4"
HEXAGON = [[0, 0], [1, 0], [2, 1], [2, 2], [1, 2], [0, 1]]
ZONOTOPE_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (-1, 2), (2, -1)]


def zonotope_vertices(m, n):
    """The vertices of the Minkowski sum of [0, n*d] over the first m directions d."""
    from syzkit import hull

    corners = [(0, 0)]
    for d in ZONOTOPE_DIRECTIONS[:m]:
        corners = [(x + t * n * d[0], y + t * n * d[1]) for x, y in corners for t in (0, 1)]
    return [list(v) for v in hull(corners).vertices]


def pinned_polytopes():
    return {
        "hexagon": HEXAGON,
        "square": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "segment_1d": [[0], [7]],
        "diagonal": [[0, 0], [5, 5]],
        "triangle_x3": [[0, 0], [3, 0], [0, 3]],
        "z43": zonotope_vertices(4, 3),
        "z52": zonotope_vertices(5, 2),
    }


def pinned_digest(tmp_path):
    """SHA-256 over ``decompose`` on each pinned polytope and every
    decomposition command on the first three decompositions of each, run
    in-process.  File names enter as paths relative to ``tmp_path``."""
    from syzkit.cli import main

    digest = hashlib.sha256()

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        line = " ".join(argv).replace(str(tmp_path), "<tmp>")
        digest.update(f"{line}\n{code}\n{out.getvalue()}".encode())
        return code, out.getvalue()

    for name, vertices in pinned_polytopes().items():
        poly_file = tmp_path / f"{name}.json"
        poly_file.write_text(json.dumps({"dim": len(vertices[0]), "vertices": vertices}))
        code, out = run("decompose", str(poly_file))
        if code != 0:
            raise RuntimeError(f"decompose {name} exited with {code}")
        for i, entry in enumerate(json.loads(out)[:3]):
            dec_file = tmp_path / f"{name}_{i}.json"
            dec_file.write_text(json.dumps(entry))
            dec = ("--decomposition", str(dec_file))
            for argv in (
                ("mirror",), ("potential",), ("gw",),
                ("gw", "--chamber", "0", "--sector", "Dinf"),
                ("transition",), ("tropical",), ("cayley",),
            ):
                run(argv[0], *dec, *argv[1:])
    return digest.hexdigest()


def replay(python):
    """One report line per run of ``python``, and whether every run matched."""
    probe = subprocess.run(
        [python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
        capture_output=True, text=True,
    )
    version = probe.stdout.strip()
    if probe.returncode != 0:
        return [f"{python}: FAIL, did not start"], False
    if tuple(map(int, version.split("."))) < MIN_VERSION:
        floor = ".".join(map(str, MIN_VERSION))
        return [f"{python}: skipped, Python {version} is older than {floor}"], True
    lines, ok = [], True
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [python, *flags, __file__, "--digest"], capture_output=True, text=True
        )
        digest = proc.stdout.strip()
        passed = proc.returncode == 0 and digest == PINNED_OUTPUT_SHA256
        detail = digest if proc.returncode == 0 else proc.stderr.strip().splitlines()[-1:]
        lines.append(f"{' '.join([python, *flags])}: {'pass' if passed else 'FAIL'}, "
                     f"Python {version}, {detail}")
        ok = ok and passed
    return lines, ok


def main(argv):
    if argv == ["--digest"]:
        sys.path.insert(0, str(ROOT / "src"))
        with tempfile.TemporaryDirectory() as tmp:
            print(pinned_digest(Path(tmp)))
        return 0
    ok = True
    for python in argv or [sys.executable]:
        lines, passed = replay(python)
        print("\n".join(lines))
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
