"""Train the two weight sets the codec workloads use, reproducibly.

    python3 perfbench/train_weights.py            # writes perfbench/weights/

Both sets come from ``lhgm.train.train_loop`` on a synthetic corpus drawn
from the training domain of ``corpus.py``, which no workload seed can
reach. The script writes each weight file and a manifest with its model
config, training config, corpus parameters and ``digest8()``. The
benchmark's set-up refuses weights whose digest differs from the manifest.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from lhgm.model import ModelConfig  # noqa: E402
from lhgm.train import TrainConfig, train_loop  # noqa: E402

import corpus  # noqa: E402

WEIGHTS_DIR = HERE / "weights"
MANIFEST = WEIGHTS_DIR / "MANIFEST.json"
CORPUS = {"seed": 20200205, "count": 48, "size": 64, "domain": corpus.TRAINING_DOMAIN}

# name -> (model config, steps); the schedule keeps train.py's proportions
SETS = {
    "tiny_hyper": (ModelConfig.tiny(context_model=False), 4000),
    "default_ctx": (ModelConfig(), 2000),
}


def train_config(steps: int) -> TrainConfig:
    return TrainConfig(steps=steps, warmup_steps=steps * 12 // 100, lr_switch_step=steps * 84 // 100,
                       batch=8, patch=32, seed=CORPUS["seed"], log_every=100)


def main() -> None:
    images = corpus.make_corpus(CORPUS["seed"], CORPUS["count"], CORPUS["size"], CORPUS["domain"])
    WEIGHTS_DIR.mkdir(exist_ok=True)
    manifest = {}
    for name, (model_cfg, steps) in SETS.items():
        cfg = train_config(steps)
        start = time.monotonic()
        weights, rows = train_loop(cfg, images, model_cfg)
        last = rows[-1]
        bpsp = (last.rate_x + last.rate_y + last.rate_z) / (3 * cfg.patch * cfg.patch)
        print(f"{name}: {steps} steps in {time.monotonic() - start:.0f} s, last-step bpsp {bpsp:.3f}")
        path = WEIGHTS_DIR / f"{name}.lhgw"
        weights.save(path)
        manifest[name] = {
            "file": path.name,
            "digest8": weights.digest8().hex(),
            "model_config": model_cfg.to_text().splitlines(),
            "train_config": cfg.to_text().splitlines(),
            "corpus": CORPUS,
        }
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main()
