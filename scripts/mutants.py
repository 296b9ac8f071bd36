"""Hand-picked mutants of the package and the tests that kill them.

    python3 scripts/mutants.py

Each record names a file under `src/`, an exact text in it, the text that
replaces it and a pytest selector.  For each record the script copies the
repository (without `.git` and caches) into a fresh temporary directory,
replaces the text there, runs the selector against the copy's `src/` and
prints `killed` when the selector fails, `survived` when it passes.  A
record with a ``reason`` is an equivalent mutant: the program computes the
same results with or without it, so it is expected to survive, and the
reason says why.  The exit status is 1 when any record ends otherwise than
expected (a mutant survives, or an equivalent one is killed), 2 when an old
text does not occur exactly once, and 0 otherwise.

The mutants are the faults the checks are built to catch: a wrong route
between the int kernels and the exact object path, a comparison of integer
ratios that is not a comparison, a dropped sign, an Element that is not
canonical, a rearrangement that is not one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]
_CACHES = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "build")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    selector: str  # pytest node id or path, relative to the repository root
    reason: str | None = None  # why an equivalent mutant survives


MUTANTS = [
    Mutant(
        "spot-checks-without-a-table",
        "src/riesz_lab/checks.py",
        "    if identity.table is not None and identity.mode in (OA_KRIVINE_SUM, OA_KRIVINE_PRODUCT):",
        "    if identity.mode in (OA_KRIVINE_SUM, OA_KRIVINE_PRODUCT):",
        "tests/test_oa_checks.py::TestRouting::test_a_passing_omega1_agreement_compares_each_sample_once",
    ),
    Mutant(
        "no-spot-checks-on-a-table",
        "src/riesz_lab/checks.py",
        "    if identity.table is not None and identity.mode in (OA_KRIVINE_SUM, OA_KRIVINE_PRODUCT):",
        "    if identity.table is None and identity.mode in (OA_KRIVINE_SUM, OA_KRIVINE_PRODUCT):",
        "tests/test_oa_checks.py::TestRouting::test_a_passing_finite_agreement_spot_checks_three_per_krivine_mode",
    ),
    Mutant(
        "routing-ignores-polarises",
        "src/riesz_lab/checks.py",
        "    if table is not None and mode in _MULTILINEAR and not _polarises(table, thing.space.n):",
        "    if False:",
        "tests/test_oa_checks.py::TestRouting::test_which_os_identities_carry_a_table",
    ),
    Mutant(
        "agrees-without-cross-multiplying",
        "src/riesz_lab/checks.py",
        "    return ln * rd == rn * ld",
        "    return ln == rn",
        "tests/test_oa_checks.py::TestOrthogonalAdditivity::test_omega_measure_polys_pass",
    ),
    Mutant(
        "pos-neg-sign-dropped",
        "src/riesz_lab/checks.py",
        "(-neg if m % 2 else neg, den)",
        "(neg, den)",
        "tests/test_oa_checks.py::TestIdentitySides",
    ),
    Mutant(
        "canonicaliser-without-gcd",
        "src/riesz_lab/lattice.py",
        "    g = math.gcd(den, *nums)\n",
        "    g = 1\n",
        "tests/test_lattice.py::TestPointwiseOracle",
    ),
    Mutant(
        "rearrangement-j-join-j-meet-x",
        "src/riesz_lab/lattice.py",
        "lo.join(hi.meet(x))",
        "lo.join(lo.meet(x))",
        "tests/test_oa_checks.py::TestJsonOaOracle",
    ),
    Mutant(
        "polarises-without-the-zero-work-case",
        "src/riesz_lab/checks.py",
        "    if work == 0 or 2 ** (m - 1) <= _SIGNED_ROWS:",
        "    if 2 ** (m - 1) <= _SIGNED_ROWS:",
        "tests/test_oa_checks.py::TestRouting",
        reason="a table without rows of weight > 1 has work 0, which is within both bounds,"
        " so the rule answers the same; only dp_work is summed needlessly",
    ),
]


def misplaced(mutants=MUTANTS) -> list[str]:
    """The records whose old text does not occur exactly once in their file."""
    return [m.name for m in mutants if (REPO / m.file).read_text().count(m.old) != 1]


def run(mutant: Mutant) -> bool:
    """Whether the mutant's selector fails on a fresh mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=_CACHES)
        path = copy / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new, 1))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", mutant.selector],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited with {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return proc.returncode == 1


def main() -> int:
    if bad := misplaced():
        print(f"old text not found exactly once: {', '.join(bad)}", file=sys.stderr)
        return 2
    unexpected = 0
    for m in MUTANTS:
        killed = run(m)
        expected = killed != bool(m.reason)
        unexpected += not expected
        note = f", expected: {m.reason}" if m.reason else ""
        flag = "" if expected else "  UNEXPECTED"
        print(f"{'killed' if killed else 'survived'} {m.name} ({m.selector}{note}){flag}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
