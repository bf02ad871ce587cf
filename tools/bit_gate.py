"""Bit-identity gate: what one tree trains and codes, as one JSON line.

    python3 tools/bit_gate.py <tree>

Runs ``<tree>/src`` and ``<tree>/perfbench`` and prints ``train_digest8``
and ``train_bpsp`` of one 48-step ``train`` round
(``workloads._train_round`` from ``default_ctx`` on
``corpus.make_corpus(0, 32, 64)``, seed 0), and ``containers_sha256``, the
sha256 over the ``codec.compress`` containers of ``make_corpus(seed, 6, 96)``
for seeds 0, 3 and 17 with ``default_ctx``, then the same with
``tiny_hyper``. Two trees that print the same line train and code the
same numbers bit for bit. BLAS runs single-threaded, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

GATE_WEIGHTS = ("default_ctx", "tiny_hyper")
GATE_SEEDS = (0, 3, 17)


def containers_sha256(compress, weights: list, images: list) -> str:
    """sha256 over ``compress(image, w).to_bytes()`` for every image under each of ``weights`` in turn."""
    digest = hashlib.sha256()
    for w in weights:
        for image in images:
            digest.update(compress(image, w).to_bytes())
    return digest.hexdigest()


def load_tree(tree: Path):
    """The ``codec``, ``corpus`` and ``workloads`` modules of ``tree``, with its ``lhgm`` first on the path."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import codec
    import corpus
    import workloads

    return codec, corpus, workloads


def gate(tree: Path) -> dict:
    codec, corpus, workloads = load_tree(tree)
    blob, _ = workloads.load_weights("default_ctx")
    _, bpsp, digest, _ = workloads._train_round(blob, corpus.make_corpus(0, 32, 64), 0, 48)
    images = [image for seed in GATE_SEEDS for image in corpus.make_corpus(seed, 6, 96)]
    weights = [workloads.load_weights(name)[1] for name in GATE_WEIGHTS]
    return {"train_digest8": digest.hex(), "train_bpsp": bpsp,
            "containers_sha256": containers_sha256(codec.compress, weights, images)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="checkout whose src/ and perfbench/ to run")
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    print(json.dumps(gate(args.tree.resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
