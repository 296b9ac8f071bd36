"""The paired benchmark script: its sibling warning, its summary and its source digests."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _module():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    main = _module().main
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    nested = _checkout(tmp_path / "work" / "change")
    assert _stderr(main, capsys, parent, change, tmp_path / "out.json") == ""
    warning = _stderr(main, capsys, parent, nested, tmp_path / "out.json")
    assert "not sibling directories" in warning and len(warning.splitlines()) == 1


def test_summary_sums_attempted_and_failed_per_side(tmp_path, monkeypatch):
    module = _module()
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    ops = {parent: iter([(10, 0), (12, 1), (14, 0)]), change: iter([(20, 2), (22, 0), (24, 3)])}

    def fake_run(checkout, workload, seed, seconds):
        attempted, failed = next(ops[checkout])
        return {"metrics": {"items_per_s": attempted}, "failed": failed, "attempted": attempted}, {}

    monkeypatch.setattr(module, "run", fake_run)
    out = tmp_path / "out.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "oa-grid",
            "--seed", "1", "--seconds", "1", "--pairs", "3", "--out", str(out)]
    assert module.main(argv) == 0
    summary = json.loads(out.read_text())["oa-grid seed 1"]["summary"]
    assert summary["attempted"] == {"parent": 36, "change": 66}
    assert summary["failed"] == {"parent": 1, "change": 5}
    assert summary["items_per_s"]["pairs"] == 3


def test_refuses_to_mix_run_lengths_under_one_key(tmp_path, monkeypatch, capsys):
    module = _module()
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")

    def fake_run(checkout, workload, seed, seconds):
        return {"metrics": {"items_per_s": seconds}, "failed": 0, "attempted": 1}, {}

    monkeypatch.setattr(module, "run", fake_run)
    out = tmp_path / "out.json"

    def main(seconds):
        return module.main(["--parent", str(parent), "--change", str(change), "--workload", "oa-grid",
                            "--seed", "1", "--seconds", seconds, "--pairs", "1", "--out", str(out)])

    assert main("10") == 0
    before = out.read_text()
    capsys.readouterr()
    assert main("30") == 2
    assert out.read_text() == before
    err = capsys.readouterr().err
    assert "refusing" in err and len(err.splitlines()) == 1
    assert main("10") == 0
    assert len(json.loads(out.read_text())["oa-grid seed 1"]["runs"]["parent"]) == 2


def test_src_digest_tells_checkouts_apart(tmp_path, monkeypatch):
    module = _module()

    def fake_run(checkout, workload, seed, seconds):
        return {"metrics": {"items_per_s": 1}, "failed": 0, "attempted": 1}, {"commit": "unknown"}

    monkeypatch.setattr(module, "run", fake_run)

    def environment(parent_src: bytes, change_src: bytes) -> dict:
        root = tmp_path / str(len(list(tmp_path.iterdir())))
        for side, text in (("parent", parent_src), ("change", change_src)):
            package = _checkout(root / side) / "src" / "riesz_lab"
            package.mkdir(parents=True)
            (package / "cli.py").write_bytes(text)
            (package / "__pycache__").mkdir()
            (package / "__pycache__" / f"cli.{side}.pyc").write_bytes(side.encode())
        out = root / "out.json"
        argv = ["--parent", str(root / "parent"), "--change", str(root / "change"), "--workload", "oa-grid",
                "--seed", "1", "--seconds", "1", "--pairs", "1", "--out", str(out)]
        assert module.main(argv) == 0
        return json.loads(out.read_text())["oa-grid seed 1"]["environment"]

    same = environment(b"x = 1\n", b"x = 1\n")
    assert same["parent"]["src_sha256"] == same["change"]["src_sha256"]
    assert same["parent"]["commit"] == "unknown"
    differ = environment(b"x = 1\n", b"x = 2\n")
    assert differ["parent"]["src_sha256"] != differ["change"]["src_sha256"]
    assert differ["parent"]["src_sha256"] == same["parent"]["src_sha256"]
