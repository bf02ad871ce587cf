"""Memory of the first two seeded training steps, as one JSON line.

    python3 tools/step_memory.py [--patch 32]

Runs two ``train_loop`` steps of the default ``ModelConfig`` from fresh
weights (seed 0) at batch 8 on ``--patch`` x ``--patch`` crops of four
seeded noise images, under tracemalloc, and prints: ``peak_mib``, the
first step's peak above what was held before it; ``held_at_backward_mib``,
what that step holds when backward starts (the tape's records and closures,
the loss and the batch); ``peak_op``, where the peak was reached; and
``held_between_steps_mib``, what the loop holds as the second step starts
above what it held as the first one started (Adam's moments, and anything
else the first step left behind). ``peak_op`` is the op whose backward
closure was running, named as ``perfbench``'s trace names closures, or
``forward`` (before backward), ``backward`` (between closures) or
``update`` (after backward). Weights made before the run are not counted.
A step starts when it calls ``lhgm.train.sample_patches``. BLAS runs
single-threaded, as in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tracemalloc
from pathlib import Path

MIB = 2**20


class _Probe:
    """The highest tracemalloc peak of the first step, where it was reached, the bytes held at its backward start,
    and the bytes held as each step starts."""

    def __init__(self, base: int):
        self.base = base
        self.label = "forward"
        self.peak = (0, "forward")
        self.held_at_backward = 0
        self.held_at_start: list[int] = []

    def note(self, next_label: str) -> None:
        """Closes the current segment at its peak and starts ``next_label``'s; does nothing after the first step."""
        if len(self.held_at_start) > 1:
            return
        self.peak = max(self.peak, (tracemalloc.get_traced_memory()[1] - self.base, self.label))
        tracemalloc.reset_peak()
        self.label = next_label

    def wrap_backward(self, backward):
        def probed(loss):
            if len(self.held_at_start) == 1:
                self.held_at_backward = tracemalloc.get_traced_memory()[0] - self.base
            self.note("backward")
            try:
                return backward(loss)
            finally:
                self.note("update")

        return probed

    def wrap_record(self, record):
        def probed_record(tape, out, backward_fn):
            op = backward_fn.__qualname__.split(".", 1)[0]

            def probed(g):
                self.note(op)
                try:
                    backward_fn(g)
                finally:
                    self.note("backward")

            record(tape, out, probed)

        return probed_record

    def wrap_sample(self, sample):
        def probed(*args):
            if self.held_at_start:
                self.note("")  # the first step ends
            self.held_at_start.append(tracemalloc.get_traced_memory()[0] - self.base)
            return sample(*args)

        return probed


def measure(patch: int, model_config=None, batch: int = 8) -> dict:
    """Two steps of ``model_config`` (default ``ModelConfig()``) at ``batch`` x ``patch`` px, as a dict."""
    import numpy as np

    from lhgm import model as M
    from lhgm import tensor as T
    from lhgm import train as TR

    corpus = [np.random.default_rng(i).integers(0, 256, size=(2 * patch, 2 * patch, 3)).astype(np.float64)
              for i in range(4)]
    weights = M.init_weights(model_config or M.ModelConfig(), seed=0)
    saved = T.backward, T.GradTape.record, TR.sample_patches
    tracemalloc.start()
    try:
        probe = _Probe(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        T.backward, T.GradTape.record, TR.sample_patches = (
            probe.wrap_backward(saved[0]), probe.wrap_record(saved[1]), probe.wrap_sample(saved[2]))
        TR.train_loop(TR.TrainConfig(steps=2, batch=batch, patch=patch), corpus, weights=weights)
    finally:
        T.backward, T.GradTape.record, TR.sample_patches = saved
        tracemalloc.stop()
    first, second = probe.held_at_start
    return {"batch": batch, "patch": patch, "peak_mib": round(probe.peak[0] / MIB, 2),
            "held_at_backward_mib": round(probe.held_at_backward / MIB, 2), "peak_op": probe.peak[1],
            "held_between_steps_mib": round((second - first) / MIB, 2)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--patch", type=int, default=32, help="crop side in pixels, a multiple of 16")
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before lhgm imports numpy
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(json.dumps(measure(args.patch)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
