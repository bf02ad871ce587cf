"""What a process loads: float32 training never imports scipy, and the float64 table path imports it on demand.

The check runs in a fresh interpreter, since this suite's own modules import scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

import numpy as np

import lhgm.train as TR
from lhgm.model import ModelConfig


def scipy_loaded():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))


rng = np.random.default_rng(0)
corpus = [rng.integers(0, 256, size=(40, 48, 3)).astype(np.float64) for _ in range(2)]
config = TR.TrainConfig(steps=2, warmup_steps=1, batch=2, log_every=1)
_, rows = TR.train_loop(config, corpus, model_config=ModelConfig.tiny())
assert len(rows) == 2 and all(np.isfinite(row.total) for row in rows), rows
assert scipy_loaded() == [], scipy_loaded()

import lhgm.distributions as D

rows = 150  # three table blocks
weights = rng.dirichlet(np.ones(3), size=rows)
means = rng.uniform(-30.0, 290.0, size=(rows, 3))
scales = np.exp(rng.uniform(np.log(1e-3), np.log(300.0), size=(rows, 3)))
table = D.mixture_pmf(weights, means, scales, D.PIXEL_ALPHABET)
assert "scipy.special" in scipy_loaded(), scipy_loaded()

from oracles import one_shot_mixture_pmf

assert np.array_equal(table, one_shot_mixture_pmf(weights, means, scales, 0, 255))
print("ok")
"""


def test_float32_training_never_loads_scipy_and_a_float64_table_does():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr
