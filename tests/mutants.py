"""Committed mutants: each one must be caught by the tests it names.

Every entry is ``(name, file, old, new, tests)``.  The runner copies
``src/`` to a temporary directory, replaces the one occurrence of ``old``
in ``file`` (a path under ``src/syzkit``) by ``new``, and runs pytest on
``tests`` with that copy first on ``PYTHONPATH``.  It fails when a mutant
survives (its tests pass), when ``old`` does not occur exactly once, or
when the tests import syzkit from anywhere but the mutated copy.  So a
refactor that rewrites a mutated line must carry its mutant forward.

Standard library only:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    (
        "ks with the counts dropped",
        "minkowski.py",
        "return tuple(chain.from_iterable((s.k,) * m for s, m in self._runs))",
        "return tuple(s.k for s, m in self._runs)",
        ["tests/test_minkowski.py::TestRunsAgainstExpandedSummands"],
    ),
    (
        "chamber cut off by one per run",
        "mirror.py",
        "        cut -= m\n",
        "        cut -= m - 1\n",
        ["tests/test_mirror.py::TestChamberWalk"],
    ),
    (
        "p off by one",
        "minkowski.py",
        "        p = -1  # a plain loop",
        "        p = 0  # a plain loop",
        ["tests/test_minkowski.py::TestRunsAgainstExpandedSummands"],
    ),
    (
        "equality that ignores the counts",
        "errors.py",
        "return self._stored(self) == self._stored(other)",
        "return [[s for s, *_ in f] if type(f) is list else f for f in self._stored(self)] == "
        "[[s for s, *_ in f] if type(f) is list else f for f in self._stored(other)]",
        ["tests/test_minkowski.py::TestRunsAgainstExpandedSummands::test_corpus"],
    ),
    (
        "hash of the expanded summands",
        "minkowski.py",
        "return hash((self.polytope, self.translation, *self._runs))",
        "return hash((self.polytope, self.translation, self.summands))",
        ["tests/test_minkowski.py::TestRuns::test_hash_expands_no_summand"],
    ),
    (
        "to_json_dict emitting each run once",
        "minkowski.py",
        '"summands": [s.to_json_dict() for s, m in self._runs for _ in range(m)]',
        '"summands": [s.to_json_dict() for s, m in self._runs]',
        ["tests/test_minkowski.py::TestRunsAgainstExpandedSummands"],
    ),
    (
        "rank-1 column on y",
        "lattice.py",
        "verts = [(0, y) for (y,) in verts]",
        "verts = [(y, 0) for (y,) in verts]",
        ["tests/test_mirror.py::TestSyzMirror::test_ap_binomials"],
    ),
    (
        "row stride taken from rx",
        "mirror.py",
        "bits * ry)",
        "bits * rx)",
        ["tests/test_mirror.py::TestChamberWalk"],
    ),
    (
        "ascending result sort",
        "minkowski.py",
        "found.sort(reverse=True)",
        "found.sort()",
        ["tests/test_minkowski.py::TestAgainstTheFullWalk"],
    ),
    (
        "forcing pair read from the wrong side",
        "minkowski.py",
        "low = left[pair[0]] - left.get(pair[1], 0)",
        "low = left.get(pair[1], 0) - left[pair[0]]",
        ["tests/test_minkowski.py::TestAgainstTheFullWalk"],
    ),
    (
        "forced multiplicity refused at the top of its range",
        "minkowski.py",
        "if not 0 <= low <= top:",
        "if not 0 <= low < top:",
        ["tests/test_minkowski.py::TestEnumerate::test_hexagon_has_exactly_two"],
    ),
    (
        "stale count: every node keeps its level's first count",
        "minkowski.py",
        "            counts[i] = m\n",
        "            counts[i] = low\n",
        ["tests/test_minkowski.py::TestEnumerate::test_hexagon_has_exactly_two"],
    ),
    (
        "forced nodes left uncounted",
        "minkowski.py",
        "            nodes += 1\n",
        "            nodes += pair is None\n",
        ["tests/test_minkowski.py::TestEnumerate::test_budget_counts_triangle_choices"],
    ),
    (
        "edge length read from one coordinate",
        "lattice.py",
        "g = gcd(ex, ey)",
        "g = abs(ex) or abs(ey)",
        ["tests/test_lattice.py::TestEdgeProfile"],
    ),
    (
        "rank-1 profile with its backward direction dropped",
        "lattice.py",
        "return dict.fromkeys(((1,), (-1,)), verts[1][0] - verts[0][0])",
        "return dict.fromkeys(((1,),), verts[1][0] - verts[0][0])",
        ["tests/test_lattice.py::TestEdgeProfileAgainstTheRankGenericWalk"],
    ),
    (
        "_of setters taken from the slots shifted by one",
        "errors.py",
        "getattr(cls, n).__set__ for n in cls.__slots__[:len(cls._fields)]",
        "getattr(cls, n).__set__ for n in cls.__slots__[1:len(cls._fields) + 1]",
        ["tests/test_value_of.py::test_of_builds_what_the_constructor_builds"],
    ),
    (
        "given basis validated on a second chain walk",
        "transition.py",
        "basis._validate_in(polytope, bounds)",
        "basis.validate_for(polytope)",
        ["tests/test_transition.py::TestMatchTransition::test_walks_the_chains_once"],
    ),
    (
        "cayley_cone validating its own rows",
        "minkowski.py",
        "return CayleyCone._of(tuple(gens))",
        "return CayleyCone(tuple(gens))",
        ["tests/test_package.py::"
         "test_every_stage_skips_the_validators[cayley_cone]"],
    ),
    (
        "output cap refusing a report of exactly its size",
        "cli.py",
        "if size > MAX_OUTPUT_BYTES:",
        "if size >= MAX_OUTPUT_BYTES:",
        ["tests/test_cli.py::TestCayleyOutputCap::"
         "test_predicted_size_is_exact_and_output_unchanged"],
    ),
    (
        "transition walk reading the slot one up in y",
        "transition.py",
        "zip(range(lo, hi + 1), row[cut], ys[cut])",
        "zip(range(lo, hi + 1), row[cut.start + 1 :], ys[cut])",
        ["tests/test_transition.py::TestMatchTransition::test_dp6_triangle_decomposition"],
    ),
    (
        "term-by-term check reading the slot that fed q_v",
        "transition.py",
        "wrong += num * a != terms.get(v, 0) * den * b",
        "wrong += num * a != n_v * den * b",
        ["tests/test_mirror.py::TestIdentityChecks::test_specialization_mismatch_is_caught[value]"],
    ),
    (
        "transition support count dropped",
        "transition.py",
        "if wrong or support != len(terms):",
        "if wrong:",
        ["tests/test_mirror.py::TestIdentityChecks::test_unwalked_term_is_caught"],
    ),
    (
        "odd-offset sum credited to the even parity bucket",
        "mirror.py",
        "        parity[key ^ 1 << top] += sum(slots[a + 1 : b : 2])\n",
        "        parity[key] += sum(slots[a + 1 : b : 2])\n",
        ["tests/test_mirror.py::TestRowChecksMatchTheirOracles"],
    ),
    (
        "vertex slot only required to be nonzero",
        "mirror.py",
        "            i < len(slots) and slots[i] == 1\n",
        "            i < len(slots) and slots[i]\n",
        ["tests/test_mirror.py::TestDiscPotentialChecksItsKernel::test_every_injection_is_caught"],
    ),
    (
        "in-bound total compared with itself",
        "mirror.py",
        "or sum(parity) != sum(slots)",
        "or sum(parity) != sum(parity)",
        ["tests/test_mirror.py::TestIdentityChecks::test_newton_polytope_mismatch_is_caught"],
    ),
    (
        "integer-slope column range stepping the wrong way",
        "lattice.py",
        "range(ay, by, ey // ex)",
        "range(ay, by, -(ey // ex))",
        ["tests/test_lattice.py::TestColumnBoundsRanges::test_against_the_comprehension"],
    ),
    (
        "chamber_uv's range check skipped",
        "mirror.py",
        "    cut, d = _cut(decomposition, chamber), decomposition.polytope.dim\n",
        "    cut, d = json_int(chamber) + 1, decomposition.polytope.dim\n",
        ["tests/test_mirror.py::TestGwInvariant::test_chamber_range"],
    ),
]


def mutate(src: Path, file: str, old: str, new: str) -> None:
    path = src / "syzkit" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the mutated text occurs {text.count(old)} times, not once:\n{old}")
    path.write_text(text.replace(old, new))


def run_tests(src: Path, tests) -> int:
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    where = subprocess.run(
        [sys.executable, "-c", "import syzkit; print(syzkit.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"the tests would import syzkit from {where}, not from the mutated copy")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    if names and len(chosen) != len(set(names)):
        raise SystemExit(f"unknown mutants: {sorted(set(names) - {m[0] for m in MUTANTS})}")
    survived = []
    for name, file, old, new, tests in chosen:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            mutate(src, file, old, new)
            code = run_tests(src, tests)
        verdict = "caught" if code == 1 else "SURVIVED" if code == 0 else f"pytest exit {code}"
        print(f"{verdict:>10}  {name}  ({time.perf_counter() - start:.1f} s)")
        if code != 1:
            survived.append(name)
    print(f"{len(chosen) - len(survived)} of {len(chosen)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
