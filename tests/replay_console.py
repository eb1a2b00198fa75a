"""Replay the CI workflow's "Console script" checks under several Python
interpreters, with the standard library only: a local stand-in for that
step of the CI matrix.

    python tests/replay_console.py [PYTHON ...]

Each interpreter named (the running one if none is) runs every check as
``python -m syzkit`` with this checkout's ``src/`` on ``PYTHONPATH``, in
place of the installed ``syzkit`` entry point; an interpreter older than
the package's ``requires-python`` is reported and skipped.  The checks are
the workflow's, with the same inputs and the same bounds:

- ``decompose`` on one unimodular triangle exits 0;
- ``cayley`` on 20000 unit steps (about 7 GB of output) and ``gw`` on A_20
  at its top chamber (2^21 classes) each exit 1 with ``OutputTooLarge``;
- ``decompose`` on ``[0, 200000]`` exits 0 under 150 MB of peak RSS, read
  from the child with ``os.wait4``;
- ``decompose --budget 202`` on the hexagon dilated by 100 finds its 101
  decompositions: the search takes 202 nodes, two per choice of the first
  triangle;
- a file that is not UTF-8 exits 2 as invalid JSON, with no traceback.

The exit status is 0 when every check passed under every interpreter that ran.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from replay_pinned import MIN_VERSION

ROOT = Path(__file__).resolve().parent.parent
PEAK_RSS_BOUND_KB = 150 * 1024


def unit_steps(n):
    """A decomposition of ``[0, n]`` into n unit steps, as JSON text."""
    polytope = {"dim": 1, "vertices": [[0], [n]]}
    return json.dumps({"polytope": polytope, "summands": [{"generators": [[1]]}] * n})


def checks(tmp):
    """``(name, argv, verdict)`` for each check: ``verdict(code, out, err,
    peak_kb)`` is None when the run passed, else what went wrong."""
    files = {
        "triangle.json": '{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}',
        "steps.json": unit_steps(20000),
        "a20.json": unit_steps(21),
        "segment.json": '{"dim": 1, "vertices": [[0], [200000]]}',
        "hexagon100.json": json.dumps(
            {"dim": 2, "vertices": [[0, 0], [100, 0], [200, 100], [200, 200], [100, 200], [0, 100]]}
        ),
    }
    for name, text in files.items():
        (tmp / name).write_text(text)
    (tmp / "latin1.json").write_bytes(b'{"dim": 1, "vertices": [[0], [1\377]]}')
    path = {name: str(tmp / name) for name in (*files, "latin1.json")}

    def exits(code):
        return lambda c, out, err, peak: None if c == code else f"exit {c}, not {code}"

    def refused(c, out, err, peak):
        return None if c == 1 and '"OutputTooLarge"' in out else f"exit {c}: {out[-200:]!r}"

    def bounded(c, out, err, peak):
        if c == 0 and peak < PEAK_RSS_BOUND_KB:
            return None
        return f"exit {c}, peak RSS {peak // 1024} MB"

    def hexagon(c, out, err, peak):
        count = len(json.loads(out)) if c == 0 else None
        return None if count == 101 else f"exit {c}, {count} decompositions, not 101"

    def invalid(c, out, err, peak):
        if c == 2 and "is not valid JSON" in err and "Traceback" not in err:
            return None
        return f"exit {c}: {err[-200:]!r}"

    return [
        ("decompose a triangle", ["decompose", path["triangle.json"]], exits(0)),
        ("cayley of 20000 unit steps refused",
         ["cayley", "--decomposition", path["steps.json"]], refused),
        ("gw of A_20 refused", ["gw", "--decomposition", path["a20.json"]], refused),
        ("decompose [0, 200000] under 150 MB",
         ["decompose", path["segment.json"]], bounded),
        ("decompose hexagon*100 in 202 nodes",
         ["decompose", "--budget", "202", path["hexagon100.json"]], hexagon),
        ("a file that is not UTF-8 exits 2", ["decompose", path["latin1.json"]], invalid),
    ]


def run(python, argv, tmp):
    """Exit code, stdout, stderr and peak RSS in KB of ``python -m syzkit``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with open(tmp / "out", "w+b") as out, open(tmp / "err", "w+b") as err:
        child = subprocess.Popen([python, "-m", "syzkit", *argv], stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        out.seek(0)
        err.seek(0)
        text = out.read().decode(errors="replace"), err.read().decode(errors="replace")
    return os.waitstatus_to_exitcode(status), *text, usage.ru_maxrss


def replay(python):
    """One report line per check under ``python``, and whether all passed."""
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
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for check, argv, verdict in checks(tmp):
            problem = verdict(*run(python, argv, tmp))
            lines.append(f"{python}: {'FAIL' if problem else 'pass'}, Python {version}, "
                         f"{check}{f': {problem}' if problem else ''}")
            ok = ok and problem is None
    return lines, ok


def main(argv):
    ok = True
    for python in argv or [sys.executable]:
        lines, passed = replay(python)
        print("\n".join(lines))
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
