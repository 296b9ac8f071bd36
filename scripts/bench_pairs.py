"""Alternating parent/change runs of perfbench, summarised in one JSON file.

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \
        --workload wide-forms --seed 1 --seconds 30 --pairs 10 --out BENCH_<label>.json

Runs `perfbench/run.py --trace 0` from each checkout in turn, the parent
first in even pairs and the change first in odd ones, so a host that drifts
faster or slower touches both sides alike.  The directory a checkout runs
from can move a metric by itself (an A/A run of one commit from two fresh
sibling directories read wide-forms 5% apart), so the two trees trade
directories, by three renames, for half of the pairs: in the second and
third pair of every four each side runs from the other's directory, and
the trees are put back before the script exits.  Each run's end-to-end
metrics and the directory it ran from ("dir", relative to the output
file's directory) are added under "<workload> seed <seed>" in the output
file, beside each side's median and quartiles, how many pairs the change
won, whether the gain rule and the metric's bound hold (`summary`), each
side's total operations attempted and failed over its runs, the commit and
host each side reported, and a sha256 of each side's `src/` files, which
names the code a side ran even where its checkout has no `.git` to read a
commit from.  Runs already in the file for that key are kept, so a
comparison can be extended by running the script again with the same
--seconds; a different run length under the same key is refused with exit
status 2, leaving the file as it was.

Make both checkouts fresh sibling directories (for example `git clone` or
`git archive` of each commit into one parent directory): the same source
has read slower from a long-used working tree than from a fresh copy
beside the parent, and the renames need one file system.  The script warns
on stderr when the two are not siblings, and refuses (exit status 2) an
output file inside either checkout.  A run killed outright (SIGKILL)
can leave the trees traded; the last run's "dir" in the output file says
where each side stood.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run: its end-to-end metrics, failures and environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: perfbench exited with {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = next(json.loads(ln.split(": ", 1)[1]) for ln in lines if ln.startswith("environment: "))
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
    }, env


def _swap(a: Path, b: Path) -> None:
    """Trade the trees at two directory paths by three renames."""
    hold = a.with_name(a.name + ".bench-pairs-swap")
    a.rename(hold)
    b.rename(a)
    hold.rename(b)


def src_digest(checkout: Path) -> str:
    """sha256 over the checkout's src/ files in sorted order of their paths
    relative to the checkout: each path, its length in bytes, then the bytes.
    Bytecode caches are skipped, as a run writes them."""
    digest = hashlib.sha256()
    files = (p for p in (checkout / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for rel, path in sorted((p.relative_to(checkout).as_posix(), p) for p in files):
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def summary(runs: dict, spec: dict) -> dict:
    """Per metric: each side's median and quartiles, pairs the change won,
    and two verdicts in the metric's ``better`` direction from ``spec``
    (name -> its `BENCHMARK.json` end-to-end entry).  "gain_rule": at least
    ten pairs, the change winning at least 9 in 10 of them (ties count for
    neither side), and the change's median better than the parent's by more
    than the parent's quartile spread.  "within_bound": the change's median
    worse than the parent's by no more than the metric's relative ``bound``;
    null for a metric the file does not declare.  Under "attempted" and
    "failed", each side's sum over its runs."""
    out = {}
    for name in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        row = {}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4) if len(values[side]) > 1 else values[side] * 3
            row[side] = {"median": median, "q1": q1, "q3": q3}
        metric = spec.get(name)
        sign = 1 if metric and metric["better"] == "higher" else -1
        row["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        row["pairs"] = len(values["parent"])
        parent = row["parent"]
        gap = sign * (row["change"]["median"] - parent["median"])  # > 0: the change is better
        row["gain_rule"] = (
            row["pairs"] >= 10 and 10 * row["change_wins"] >= 9 * row["pairs"] and gap > parent["q3"] - parent["q1"]
        )
        row["within_bound"] = None if metric is None else gap >= -metric["bound"] * abs(parent["median"])
        out[name] = row
    for count in ("attempted", "failed"):
        out[count] = {side: sum(r[count] for r in runs[side]) for side in SIDES}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    # absolute: a rename moves the cwd when it lies in a checkout, but none of these
    args.parent, args.change, args.out = (p.resolve() for p in (args.parent, args.change, args.out))

    if args.out.is_relative_to(args.parent) or args.out.is_relative_to(args.change):
        print(f"bench_pairs: {args.out} is inside a checkout, which the pairs move", file=sys.stderr)
        return 2
    if args.parent.parent != args.change.parent:
        print(f"bench_pairs: warning: {args.parent} and {args.change} are not sibling directories;"
              " the checkout's place alone can move the result", file=sys.stderr)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    key = f"{args.workload} seed {args.seed}"
    entry = data.setdefault(key, {"seconds": args.seconds, "runs": {side: [] for side in SIDES}})
    if entry["seconds"] != args.seconds:
        print(f"bench_pairs: {args.out} holds {entry['seconds']} s runs under {key!r};"
              f" refusing to add {args.seconds} s runs to them", file=sys.stderr)
        return 2
    home = {"parent": args.parent, "change": args.change}
    sources = {side: src_digest(home[side]) for side in SIDES}
    place = dict(home)
    try:
        for _ in range(args.pairs):
            pair = len(entry["runs"]["parent"])
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            if (pair % 4 in (1, 2)) != (place != home):
                _swap(args.parent, args.change)
                place = {"parent": place["change"], "change": place["parent"]}
            done = {side: run(place[side], args.workload, args.seed, args.seconds) for side in order}
            for side in SIDES:
                entry["runs"][side].append({**done[side][0], "dir": os.path.relpath(place[side], args.out.parent)})
            entry["environment"] = {side: {**done[side][1], "src_sha256": sources[side]} for side in SIDES}
            entry["summary"] = summary(entry["runs"], metrics)
            args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")  # kept if a later pair is cut
            print(key, {side: done[side][0]["metrics"] for side in SIDES}, flush=True)
    finally:
        if place != home:
            _swap(args.parent, args.change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
