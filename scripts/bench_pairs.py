"""Compare the working tree against a parent revision with alternating pairs.

Runs ``perfbench/run.py --trace 0`` on the parent and on the working tree,
N times each, alternating which side goes first in each pair so slow drift
on a shared host hits both sides alike.  For every end-to-end metric
declared in ``BENCHMARK.json`` it prints each side's median and quartiles,
the relative change of the medians, how many pairs the change won, and
whether the medians differ by more than the parent's interquartile range.

It then runs ``--trace 1`` once per side on seeds 1 and 7 and diffs what
must not move: the run digest, the ``sim_*`` metrics and every count
metric.  The exit status is 1 when any of those differ (or a run fails),
0 otherwise.

The parent revision is exported with ``git archive`` into a temporary
directory, so it holds exactly the committed files of that revision and
leaves nothing registered in the repository; the directory is removed
afterwards.  Nothing under ``perfbench/`` or the benchmark declarations is
written.

Run from anywhere inside the repository, naming the parent explicitly
(``HEAD`` to measure uncommitted changes, ``HEAD~1`` for the last commit):

    python scripts/bench_pairs.py --workload frag-fault --parent HEAD~1 \\
        --seed 1 --pairs 10 --seconds 20
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_SEEDS = (1, 7)
TRACE_SECONDS = 3.0


def run_bench(tree: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One perfbench run in ``tree``: its digest line and result object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"perfbench failed in {tree} (exit {proc.returncode}):\n"
            f"{proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["digest"] = lines[0].rsplit("digest=", 1)[-1]
    return result


def summarize(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def pairs_table(
    parent: str, change: str, args, declared: list[dict]
) -> tuple[list[dict], bool]:
    samples = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = parent if side == "parent" else change
            result = run_bench(tree, args.workload, args.seed, args.seconds, 0)
            ok &= result["failed"] == 0 and result["correct"]
            samples[side].append(result)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    digests = {side: {r["digest"] for r in runs} for side, runs in samples.items()}
    if digests["parent"] != digests["change"]:
        print(f"DIGEST MISMATCH (trace 0): {digests}")
        ok = False
    rows = []
    for metric in declared:
        name = metric["name"]
        lower = metric["better"] == "lower"
        par = [r["metrics"][name]["value"] for r in samples["parent"]]
        chg = [r["metrics"][name]["value"] for r in samples["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        pm, pq1, pq3 = summarize(par)
        cm, cq1, cq3 = summarize(chg)
        better = (cm < pm) if lower else (cm > pm)
        rows.append({
            "metric": name,
            "parent": {"median": pm, "q1": pq1, "q3": pq3},
            "change": {"median": cm, "q1": cq1, "q3": cq3},
            "delta": (cm - pm) / pm if pm else 0.0,
            "wins": wins,
            "beyond_parent_iqr": better and abs(cm - pm) > (pq3 - pq1),
        })
    return rows, ok


def print_table(rows: list[dict], args) -> None:
    def cell(side: dict) -> str:
        return f"{side['median']:.4g} [{side['q1']:.4g}, {side['q3']:.4g}]"

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} alternating pairs, "
          f"--seconds {args.seconds} --trace 0")
    print(f"{'metric':<15}{'parent median [q1, q3]':>36}"
          f"{'change median [q1, q3]':>36}{'delta':>8}{'wins':>8}  gain>IQR")
    for row in rows:
        print(
            f"{row['metric']:<15}{cell(row['parent']):>36}"
            f"{cell(row['change']):>36}{row['delta']:>+8.1%}"
            f"{row['wins']:>5}/{args.pairs:<2}  "
            f"{'yes' if row['beyond_parent_iqr'] else 'no'}"
        )


def trace_diff(parent: str, change: str, args) -> bool:
    """Digest, sim_* and count metrics of one --trace 1 run per seed."""
    ok = True
    for seed in TRACE_SEEDS:
        runs = {
            side: run_bench(tree, args.workload, seed, TRACE_SECONDS, 1)
            for side, tree in (("parent", parent), ("change", change))
        }
        diffs = []
        if runs["parent"]["digest"] != runs["change"]["digest"]:
            diffs.append(("digest", runs["parent"]["digest"],
                          runs["change"]["digest"]))
        pm, cm = runs["parent"]["metrics"], runs["change"]["metrics"]
        for name in sorted(set(pm) | set(cm)):
            entry = pm.get(name) or cm.get(name)
            if not (name.startswith("sim_") or entry["unit"] == "count"):
                continue
            pv = pm.get(name, {}).get("value")
            cv = cm.get(name, {}).get("value")
            if pv != cv:
                diffs.append((name, pv, cv))
        ok &= not diffs and all(r["failed"] == 0 for r in runs.values())
        layers = {
            name: (pm[name]["value"], cm[name]["value"])
            for name in sorted(pm)
            if name in cm and pm[name]["unit"] == "s"
        }
        print(f"\n--trace 1 seed {seed}: digest {runs['change']['digest']}, "
              f"{'identical' if not diffs else f'{len(diffs)} DIFFERENCES'}")
        for name, pv, cv in diffs:
            print(f"  {name}: parent {pv} change {cv}")
        moved = sorted(layers.items(), key=lambda kv: kv[1][1] - kv[1][0])
        for name, (pv, cv) in moved[:3]:
            print(f"  {name:<28} {pv:8.3f} s -> {cv:8.3f} s")
    return ok


def export_revision(revision: str) -> str:
    """The committed files of ``revision`` in a new temporary directory."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    tree = tempfile.mkdtemp(prefix="bench-parent-")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree)
    return tree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True,
                        help="git revision to compare the working tree against")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["end_to_end"]

    parent = export_revision(args.parent)
    try:
        rows, ok = pairs_table(parent, ROOT, args, declared)
        print_table(rows, args)
        ok &= trace_diff(parent, ROOT, args)
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
