"""The cheap half of the mutant records in `scripts/mutants.py`: each names
a text that occurs exactly once in its file under `src/`, a different
replacement and a test file that exists.  Running the mutants is the
script's job."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "mutants.py"


def _module():
    spec = importlib.util.spec_from_file_location("mutants", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once_under_src():
    mutants = _module()
    assert mutants.MUTANTS and not mutants.misplaced()
    for m in mutants.MUTANTS:
        assert m.file.startswith("src/") and m.old != m.new, m.name
        assert (mutants.REPO / m.selector.split("::")[0]).is_file(), m.name
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


def test_a_missing_old_text_is_reported():
    mutants = _module()
    record = mutants.Mutant("absent", "src/riesz_lab/checks.py", "no such text\x00", "x", "tests/test_mutants.py")
    assert mutants.misplaced([record]) == ["absent"]
