"""The paired benchmark script: its sibling warning, its summary, its source digests and its
trading of directories."""

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


def _marked(root: Path) -> tuple[Path, Path]:
    """Sibling checkouts whose trees name their side in a file `side`."""
    dirs = tuple(_checkout(root / side) for side in ("parent", "change"))
    for side, path in zip(("parent", "change"), dirs):
        (path / "side").write_text(side)
    return dirs


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
    parent, change = _marked(tmp_path)
    ops = {"parent": iter([(10, 0), (12, 1), (14, 0)]), "change": iter([(20, 2), (22, 0), (24, 3)])}

    def fake_run(checkout, workload, seed, seconds):
        attempted, failed = next(ops[(checkout / "side").read_text()])
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


def _runs(name: str, parent: list[float], change: list[float]) -> dict:
    return {side: [{"metrics": {name: v}, "failed": 0, "attempted": 1} for v in values]
            for side, values in (("parent", parent), ("change", change))}


_SPEC = {
    "items_per_s": {"name": "items_per_s", "better": "higher", "bound": 0.15},
    "item_p50_ms": {"name": "item_p50_ms", "better": "lower", "bound": 0.2},
}


def test_gain_rule_needs_nine_in_ten_wins_and_a_gap_past_the_parent_spread():
    summary = _module().summary
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # quartiles 101.75, 107.25
    nine = [120] * 9 + [100]
    assert summary(_runs("items_per_s", parent, nine), _SPEC)["items_per_s"]["gain_rule"] is True
    eight = [120] * 8 + [100, 100]
    assert summary(_runs("items_per_s", parent, eight), _SPEC)["items_per_s"]["gain_rule"] is False
    # every pair won, but the medians 104.5 and 109.5 differ by less than 5.5
    narrow = [v + 5 for v in parent]
    row = summary(_runs("items_per_s", parent, narrow), _SPEC)["items_per_s"]
    assert row["change_wins"] == 10 and row["gain_rule"] is False
    assert summary(_runs("items_per_s", parent[:5], [120] * 5), _SPEC)["items_per_s"]["gain_rule"] is False
    # lower is better: a drop in latency wins, a rise never does
    faster = summary(_runs("item_p50_ms", parent, [80] * 10), _SPEC)["item_p50_ms"]
    assert faster["gain_rule"] is True and faster["change_wins"] == 10
    slower = summary(_runs("item_p50_ms", parent, [120] * 10), _SPEC)["item_p50_ms"]
    assert slower["gain_rule"] is False and slower["change_wins"] == 0


def test_within_bound_reads_the_metric_bound_in_its_direction():
    summary = _module().summary
    parent = [100.0] * 10

    def within(name, change):
        return summary(_runs(name, parent, [change] * 10), _SPEC)[name]["within_bound"]

    assert within("items_per_s", 86) is True and within("items_per_s", 84) is False
    assert within("items_per_s", 200) is True
    assert within("item_p50_ms", 119) is True and within("item_p50_ms", 121) is False
    assert within("item_p50_ms", 50) is True
    assert summary(_runs("undeclared", parent, parent), _SPEC)["undeclared"]["within_bound"] is None


def test_each_side_runs_from_each_directory_for_half_of_the_pairs(tmp_path, monkeypatch):
    module = _module()
    parent, change = _marked(tmp_path)
    seen = []

    def fake_run(checkout, workload, seed, seconds):
        seen.append(((checkout / "side").read_text(), checkout))
        return {"metrics": {"items_per_s": 1}, "failed": 0, "attempted": 1}, {}

    monkeypatch.setattr(module, "run", fake_run)
    out = tmp_path / "out.json"

    def main(pairs):
        return module.main(["--parent", str(parent), "--change", str(change), "--workload", "oa-grid",
                            "--seed", "1", "--seconds", "1", "--pairs", str(pairs), "--out", str(out)])

    assert main(4) == 0
    assert main(3) == 0  # an extension goes on with the schedule of the pairs already in the file
    assert main(1) == 0
    runs = json.loads(out.read_text())["oa-grid seed 1"]["runs"]
    for side in ("parent", "change"):
        ran = [checkout for name, checkout in seen if name == side]
        assert [tmp_path / r["dir"] for r in runs[side]] == ran
        assert ran.count(parent) == ran.count(change) == 4
    # pairs 1 and 2 of every four trade directories; the order alternates every pair
    away = [r["dir"] == "change" for r in runs["parent"]]
    assert away == [False, True, True, False] * 2
    assert [name for name, _ in seen][::2] == ["parent", "change"] * 4
    assert (parent / "side").read_text() == "parent" and (change / "side").read_text() == "change"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["change", "out.json", "parent"]


def test_trees_go_back_when_a_run_fails_while_they_are_traded(tmp_path, monkeypatch):
    module = _module()
    parent, change = _marked(tmp_path)
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout)
        if len(calls) == 3:  # the second pair, run from the traded directories
            assert (checkout / "side").read_text() == ("parent" if checkout == change else "change")
            raise SystemExit("perfbench exited with 1")
        return {"metrics": {"items_per_s": 1}, "failed": 0, "attempted": 1}, {}

    monkeypatch.setattr(module, "run", fake_run)
    out = tmp_path / "out.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "oa-grid",
            "--seed", "1", "--seconds", "1", "--pairs", "4", "--out", str(out)]
    try:
        module.main(argv)
    except SystemExit as exc:
        assert "exited with 1" in str(exc)
    else:
        raise AssertionError("the failing run did not end the script")
    assert (parent / "side").read_text() == "parent" and (change / "side").read_text() == "change"
    assert len(json.loads(out.read_text())["oa-grid seed 1"]["runs"]["parent"]) == 1


def test_refuses_an_output_file_inside_a_checkout(tmp_path, capsys):
    main = _module().main
    parent, change = _marked(tmp_path)
    for inside in (parent / "BENCH.json", change / "sub" / "BENCH.json"):
        argv = ["--parent", str(parent), "--change", str(change), "--workload", "oa-grid",
                "--seed", "1", "--seconds", "1", "--pairs", "1", "--out", str(inside)]
        assert main(argv) == 2
        assert "inside a checkout" in capsys.readouterr().err
        assert not inside.exists()
