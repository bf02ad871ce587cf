"""Paired benchmark: a parent commit against this checkout, one command, one BENCH_<n>.json.

    python3 tools/bench_pairs.py --out BENCH_7.json --pairs 10 --seed 0 --change "what changed"
    python3 tools/bench_pairs.py --out BENCH_9.json --pairs 10 --seed 0 --claim codec_ctx/peak_rss_mb

The parent commit (``--parent``, default HEAD) is exported with
``git archive`` into a temporary directory, and this checkout's working
tree is copied next to it before the first run (see ``copy_checkout``), so
edits made while the pairs run reach neither side; both are removed
afterwards. Every pair runs
``python3 perfbench/run.py --workload W --seed S`` once in each tree,
one process at a time, and the side that runs first alternates from
pair to pair, so drift of the host falls on both sides alike. The
output keeps every run with its exit code and, per workload and metric,
the quartiles of each side, the number of pairs in which the change is
lower, the ties, the failed operations and the runs that printed no
result, a verdict (see ``verdict``) against the metric's bound in
``BENCHMARK.json``, and the metrics whose runs fall into two modes
(``mixed_modes``, see ``two_modes``). ``--claim WORKLOAD/METRIC`` names the
gain the change claims; both names must be in ``BENCHMARK.json``, and
``claim_met`` (see ``claim_met``) says whether the runs show it. The
output also records ``src_lines`` of each side (see ``src_lines``),
whether the benchmark's own files in this checkout are as at the parent
(see ``benchmark_unchanged``), and the line ``tools/bit_gate.py`` prints
for each side, whether the two are equal and which of their fields differ
(see ``bit_gates``). With ``--claim train/op_s`` it also records, under
``ab_train``, one run of ``tools/ab_train.py`` on the two trees at the same
seed, which times both sides' training steps in one process (see
``claim_checks``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3], linear interpolation between order statistics."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``; negative when it is better."""
    return change - parent if better == "lower" else parent - change


def verdict(both: list[tuple[float, float]], better: str, bound: float) -> str:
    """``worse``, ``unresolved`` or ``ok`` for one metric's (parent, change) pairs.

    ``bound`` is a fraction of the parent median. ``worse``: the change's
    median is worse than the parent's by more than the bound.
    ``unresolved``: the parent's quartile spread is wider than the bound and
    not every change run beats every parent run. ``ok``: neither.
    """
    q1, median, q3 = quartiles([a for a, _ in both])
    limit = bound * abs(median)
    if _worse_by(median, quartiles([b for _, b in both])[1], better) > limit:
        return "worse"
    if q3 - q1 > limit and not all(_worse_by(a, b, better) < 0 for a, _ in both for _, b in both):
        return "unresolved"
    return "ok"


def claim_met(both: list[tuple[float, float]], better: str) -> bool:
    """Whether one metric's (parent, change) pairs show the gain a change claims.

    The change must win at least 9 of every 10 pairs, a tie winning for
    neither side, and its median must beat the parent's by more than the
    parent's quartile spread.
    """
    wins = sum(_worse_by(a, b, better) < 0 for a, b in both)
    q1, median, q3 = quartiles([a for a, _ in both])
    return 10 * wins >= 9 * len(both) and -_worse_by(median, quartiles([b for _, b in both])[1], better) > q3 - q1


def two_modes(both: list[tuple[float, float]], bound: float) -> bool:
    """Whether either side's sorted runs of one metric have two neighbours further apart than a quarter of
    ``bound`` times the parent median: runs of one tree that fall into two modes, so that a verdict may
    rest on pairs from different modes."""
    gap = 0.25 * bound * abs(quartiles([a for a, _ in both])[1])
    return any(hi - lo > gap for side in zip(*both) for lo, hi in zip(sorted(side), sorted(side)[1:]))


def _key(run: dict) -> str:
    return f"{run['workload']}/seed{run['seed']}"


def metric_pairs(runs: list[dict], key: str, name: str) -> list[tuple[float, float]]:
    """(parent, change) values of metric ``name`` in each pair of ``key`` (WORKLOAD/seedS) where both runs have it."""
    values = {(r["pair"], r["side"]): r["metrics"][name] for r in runs if _key(r) == key and name in r["metrics"]}
    return [(values[p, "parent"], values[p, "change"]) for p in sorted({p for p, _ in values})
            if (p, "parent") in values and (p, "change") in values]


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and seed: quartiles of each side, pairs where the change is lower, ties, verdict, failures.

    ``end_to_end`` holds BENCHMARK.json's metric entries (name, better,
    bound). A metric enters a pair only when both of its runs produced it,
    so a run that printed no result drops out of every metric; ``failed``
    counts such runs per side, next to the failed operations.
    ``mixed_modes`` names the metrics whose runs fall into two modes on
    either side (see ``two_modes``).
    """
    summary: dict[str, dict] = {}
    for key in dict.fromkeys(_key(r) for r in runs):
        mine = [r for r in runs if _key(r) == key]
        sides = {side: {r["pair"]: r for r in mine if r["side"] == side} for side in ("parent", "change")}
        entry: dict[str, object] = {"pairs": len(set(sides["parent"]) & set(sides["change"]))}
        mixed = []
        for metric in end_to_end:
            both = metric_pairs(mine, key, metric["name"])
            if not both:
                continue
            if two_modes(both, metric["bound"]):
                mixed.append(metric["name"])
            entry[metric["name"]] = {
                "parent_q1_median_q3": quartiles([a for a, _ in both]),
                "change_q1_median_q3": quartiles([b for _, b in both]),
                "change_lower_in": sum(b < a for a, b in both),
                "ties": sum(b == a for a, b in both),
                "verdict": verdict(both, metric["better"], metric["bound"]),
            }
        entry["mixed_modes"] = mixed
        entry["failed"] = {
            "parent": sum(r["failed"] for r in sides["parent"].values()),
            "change": sum(r["failed"] for r in sides["change"].values()),
            "attempted_parent": sum(r["attempted"] for r in sides["parent"].values()),
            "attempted_change": sum(r["attempted"] for r in sides["change"].values()),
            "no_result_parent": sum(r["no_result"] for r in sides["parent"].values()),
            "no_result_change": sum(r["no_result"] for r in sides["change"].values()),
        }
        summary[key] = entry
    return summary


def parse_claim(text: str, spec: dict) -> dict:
    """``WORKLOAD/METRIC`` -> {"workload": ..., "metric": ...}; ValueError unless BENCHMARK.json has both."""
    workload, _, metric = text.partition("/")
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    if workload not in workloads:
        raise ValueError(f"claim {text!r}: workload {workload!r} is not one of {workloads}")
    if metric not in metrics:
        raise ValueError(f"claim {text!r}: metric {metric!r} is not one of {metrics}")
    return {"workload": workload, "metric": metric}


def src_lines(tree: Path) -> int:
    """Lines of ``src/lhgm/*.py`` in ``tree``, counted as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "lhgm").glob("*.py"))


def benchmark_unchanged(repo: Path, parent: str, paths: list[str]) -> bool:
    """Whether BENCHMARK.json and the files under its ``paths`` in ``repo``'s working tree are as at ``parent``.

    Git decides: ``git diff`` finds no difference from ``parent``, and there is no untracked file that
    git does not ignore (so ``perfbench/out/`` and ``__pycache__`` are left out).
    """
    files = ["BENCHMARK.json", *paths]
    diff = subprocess.run(["git", "-C", str(repo), "diff", "--quiet", parent, "--", *files])
    if diff.returncode > 1:  # 0: no difference, 1: some
        raise subprocess.CalledProcessError(diff.returncode, "git diff")
    untracked = subprocess.run(["git", "-C", str(repo), "ls-files", "--others", "--exclude-standard", "--", *files],
                               stdout=subprocess.PIPE, text=True, check=True).stdout
    return diff.returncode == 0 and not untracked


def _tool_line(script: str, *args) -> dict:
    """The last line ``tools/<script>`` prints when run with ``args``, as JSON, from a fresh process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / script), *map(str, args)],
                          env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_bit_gate(tree: Path) -> dict:
    """The line ``tools/bit_gate.py`` prints for ``tree``."""
    return _tool_line("bit_gate.py", tree)


def run_ab_train(trees: dict[str, Path], seed: int) -> dict:
    """The result line of ``tools/ab_train.py`` on the parent and the change tree at ``seed``."""
    return _tool_line("ab_train.py", trees["parent"], trees["change"], "--seed", seed)


def claim_checks(claim: dict | None, trees: dict[str, Path], seed: int) -> dict:
    """What a claim adds to the output: for ``train/op_s``, ``ab_train``, the two trees' steps timed in
    alternating rounds of one process, because separate processes of one tree spread by more than a
    10% step change; for any other claim, or none, nothing."""
    if claim == {"workload": "train", "metric": "op_s"}:
        return {"ab_train": run_ab_train(trees, seed)}
    return {}


def bit_gates(trees: dict[str, Path]) -> dict:
    """``bit_gate``: the gate line of each side, run once; ``bit_identical``: whether the two lines are equal;
    ``bit_gate_differs``: the sorted names of the fields whose values differ (a field on one side only differs)."""
    gates = {side: run_bit_gate(tree) for side, tree in trees.items()}
    parent, change = gates["parent"], gates["change"]
    differs = sorted(name for name in parent.keys() | change.keys() if parent.get(name) != change.get(name))
    return {"bit_gate": gates, "bit_identical": not differs, "bit_gate_differs": differs}


def export(rev: str, into: Path) -> None:
    """Write the committed files of ``rev`` into ``into``."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, "git archive")


def copy_checkout(repo: Path, into: Path) -> None:
    """Copy into ``into`` the files of ``repo``'s working tree that git tracks or would track.

    These are the files of ``git ls-files --cached --others --exclude-standard``:
    tracked files as they are now, and untracked files that git does not
    ignore (so ``perfbench/out/`` and ``__pycache__`` stay behind). A tracked
    file deleted in the working tree is left out.
    """
    names = subprocess.run(["git", "-C", str(repo), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           stdout=subprocess.PIPE, check=True).stdout.split(b"\0")
    for name in map(os.fsdecode, filter(None, names)):
        if (repo / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(repo / name, into / name)


def run_once(tree: Path, workload: str, seed: int, pair: int, side: str, order: int) -> tuple[dict, dict]:
    """One benchmark process in ``tree`` as an entry of the output's ``runs``, and its environment line.

    ``exit_code`` says how the process ended. A run that printed no result
    line (a crash, a kill) has ``no_result`` true, no metrics and no operations.
    """
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    environment = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{workload} in {tree} exited with code {proc.returncode} and no result", file=sys.stderr)
        result = None
    got = result or {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"workload": workload, "pair": pair, "seed": seed, "side": side, "order": order, "started_utc": started,
            "exit_code": proc.returncode, "no_result": result is None, "correct": got["correct"],
            "attempted": got["attempted"], "failed": got["failed"],
            "metrics": {k: v["value"] for k, v in got["metrics"].items()}}, environment


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--parent", default="HEAD", help="commit to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--claim", help="WORKLOAD/METRIC the change claims to improve, as named in BENCHMARK.json")
    args = parser.parse_args()
    try:
        claim = parse_claim(args.claim, spec) if args.claim else None
    except ValueError as err:
        parser.error(str(err))

    parent = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                            check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
    runs: list[dict] = []
    host: dict = {}
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"parent": tmp / "parent", "change": tmp / "change"}
        for tree in trees.values():
            tree.mkdir()
        export(parent, trees["parent"])
        copy_checkout(ROOT, trees["change"])
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        unchanged = benchmark_unchanged(ROOT, parent, spec["paths"])
        gates = bit_gates(trees)
        print(f"bit gate: {gates}", flush=True)
        checks = claim_checks(claim, trees, args.seed)
        if checks:
            print(f"claim checks: {checks}", flush=True)
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in [w["name"] for w in spec["workloads"]]:
                for position, side in enumerate(order):
                    record, environment = run_once(trees[side], workload, args.seed, pair, side, position)
                    host = host or environment
                    runs.append(record)
                    print(f"pair {pair} {workload} {side}: {runs[-1]['metrics']}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    out = {
        "what": "perfbench/run.py end-to-end metrics, parent commit against this change, in alternating order",
        "parent_commit": parent,
        "change": args.change,
        "command": f"python3 perfbench/run.py --workload <workload> --seed {args.seed} "
                   f"({spec['run_seconds']}-s runs, the benchmark default), run once in a copy of each side",
        "produced_by": "python3 tools/bench_pairs.py " + " ".join(
            a if " " not in a else json.dumps(a) for a in sys.argv[1:]),
        "protocol": "each pair runs both sides back to back, one process at a time; "
                    "the side that runs first alternates from pair to pair",
        "host": host,
        "claim": claim,
        **checks,
        "src_lines": lines,
        "benchmark_unchanged": unchanged,
        **gates,
        "summary": summarize(runs, spec["end_to_end"]),
        "runs": runs,
    }
    if claim:
        better = next(m["better"] for m in spec["end_to_end"] if m["name"] == claim["metric"])
        both = metric_pairs(runs, f"{claim['workload']}/seed{args.seed}", claim["metric"])
        out["claim_met"] = bool(both) and claim_met(both, better)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
