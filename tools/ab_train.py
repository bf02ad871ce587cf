"""In-process A/B of the training step: two trees' ``lhgm`` in alternating seeded rounds.

    python3 tools/ab_train.py <parent-tree> <change-tree> [--seed 0]

Each tree's ``src/lhgm`` is loaded under its own package name
(``lhgm_parent``, ``lhgm_change``) through ``importlib``; ``lhgm`` imports
its own modules only relatively, so the two never share a module. Both
sides run the ``train`` workload's set-up at seed S (``--seed``):
``default_ctx`` weights from the tree's ``perfbench/weights``,
``make_corpus(S, 32, 64)``, batch 8 and 32x32 patches. A round is one
``train_loop`` of STEPS steps from the loaded weights, seeded by S, so
every round of one side repeats the same run; its time is its median
step, as ``train`` op_s is a run's median step. Of ROUNDS rounds, round r
runs the parent first when r is even and the change first when it is
odd, after one untimed warm-up round per side. The script prints a line
per round and, last, one JSON line with each round's ratio change/parent,
the ratios' quartiles and the wins (rounds whose ratio is below 1). One
process for both sides takes out the process-to-process spread of
``train`` op_s. BLAS runs single-threaded, as in the benchmark.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
from pathlib import Path

SIDES = ("parent", "change")
WEIGHTS, IMAGES, IMAGE_SIZE, BATCH, PATCH = "default_ctx", 32, 64, 8, 32
ROUNDS, STEPS = 8, 12


def load_package(tree: Path, name: str):
    """``tree``'s ``src/lhgm`` imported as the package ``name``, with its ``train`` and ``model`` modules loaded."""
    root = tree / "src" / "lhgm"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.train")
    return package


def load_corpus(tree: Path):
    """``tree``'s ``perfbench/corpus.py`` as a module of its own name."""
    spec = importlib.util.spec_from_file_location("ab_train_corpus", tree / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def weights_blob(tree: Path) -> bytes:
    weights = tree / "perfbench" / "weights"
    return (weights / json.loads((weights / "MANIFEST.json").read_text())[WEIGHTS]["file"]).read_bytes()


def round_step_s(package, blob: bytes, images, seed: int, steps: int) -> float:
    """The median step of one seeded ``train_loop`` round from ``blob``, from its rows' wall times."""
    config = package.train.TrainConfig(steps=steps, batch=BATCH, patch=PATCH, seed=seed, log_every=1)
    _, rows = package.train.train_loop(config, images, weights=package.model.ModelWeights.deserialize(blob))
    walls = [0.0] + [r.wall_time for r in rows]
    return statistics.median(b - a for a, b in zip(walls, walls[1:]))


def summarize(rounds: list[dict]) -> dict:
    """Each round's ratio change/parent, the ratios' [q1, median, q3] and the rounds whose ratio is below 1."""
    ratios = [r["change"] / r["parent"] for r in rounds]
    quartiles = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    return {"rounds": rounds, "ratios": ratios, "ratio_q1_median_q3": quartiles,
            "wins": sum(r < 1.0 for r in ratios), "of": len(ratios)}


def run(trees: dict[str, Path], rounds: int, steps: int, seed: int) -> dict:
    packages = {side: load_package(trees[side], f"lhgm_{side}") for side in SIDES}
    blobs = {side: weights_blob(trees[side]) for side in SIDES}
    images = load_corpus(trees["change"]).make_corpus(seed, IMAGES, IMAGE_SIZE)
    for side in SIDES:
        round_step_s(packages[side], blobs[side], images, seed, 1)
    timed = []
    for r in range(rounds):
        step_s = {}
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            step_s[side] = round_step_s(packages[side], blobs[side], images, seed, steps)
        timed.append({side: step_s[side] for side in SIDES})
        print(f"round {r}: parent {step_s['parent']:.4f} s, change {step_s['change']:.4f} s, "
              f"ratio {step_s['change'] / step_s['parent']:.3f}", flush=True)
    return {"steps": steps, "seed": seed, "batch": BATCH, "patch": PATCH, **summarize(timed)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="tree whose src/lhgm is the parent side")
    parser.add_argument("change", type=Path, help="tree whose src/lhgm is the change side")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before either tree imports numpy
    print(json.dumps(run({"parent": args.parent.resolve(), "change": args.change.resolve()},
                         ROUNDS, STEPS, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
