"""The paired benchmark script warns when its checkouts are not siblings."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _main():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _checkout(path: Path) -> Path:
    path.mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    return path


def _stderr(main, capsys, parent: Path, change: Path, out: Path) -> str:
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "oa-grid",
            "--seed", "1", "--seconds", "1", "--pairs", "0", "--out", str(out)]
    assert main(argv) == 0
    return capsys.readouterr().err


def test_warns_only_when_checkouts_are_not_siblings(tmp_path, capsys):
    main = _main()
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    nested = _checkout(tmp_path / "work" / "change")
    assert _stderr(main, capsys, parent, change, tmp_path / "out.json") == ""
    warning = _stderr(main, capsys, parent, nested, tmp_path / "out.json")
    assert "not sibling directories" in warning and len(warning.splitlines()) == 1
