"""Seeded synthetic RGB corpus for the benchmark.

Every image is a grid of 16x16 tiles. Each tile holds one content class:

    gradient   smooth linear ramps per channel
    edges      hard-edged half-planes and rectangles
    texture    periodic stripes or checkers
    noise      Gaussian noise around a random colour
    flat       one constant colour
    saturated  blocks of exact 0 and 255 per channel (the folded edge bins)

How many tiles each class gets depends only on the image size, and the
seed only moves tiles and draws their parameters. That keeps bits per
sub-pixel close across seeds, so the benchmark's bpsp spread stays small
while the content still changes with every seed.

Usage: python3 perfbench/corpus.py --seed 3 --count 4 --size 128 --out corpus.npy
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

TILE = 16
CLASSES = ("gradient", "edges", "texture", "noise", "flat", "saturated")

# Workload corpora and the weight-training corpus draw from different
# domains, so no benchmark seed can reproduce the images the weights saw.
WORKLOAD_DOMAIN = 0xB3
TRAINING_DOMAIN = 0x7A


def class_counts(tiles: int) -> list[int]:
    """Tiles per class for a grid of ``tiles``: as even as possible, seed-free."""
    base, extra = divmod(tiles, len(CLASSES))
    return [base + (1 if i < extra else 0) for i in range(len(CLASSES))]


def _colour(rng) -> np.ndarray:
    return rng.uniform(24.0, 232.0, size=3)


def _gradient(rng, yy, xx):
    start = _colour(rng)
    slope = rng.uniform(-3.0, 3.0, size=(3, 2))
    return start + yy[..., None] * slope[:, 0] + xx[..., None] * slope[:, 1]


def _edges(rng, yy, xx):
    out = np.broadcast_to(_colour(rng), yy.shape + (3,)).copy()
    for _ in range(3):
        if rng.random() < 0.5:
            angle = rng.uniform(0.0, np.pi)
            offset = rng.uniform(-6.0, 6.0)
            inside = (yy - TILE / 2) * np.cos(angle) + (xx - TILE / 2) * np.sin(angle) > offset
        else:
            top, left = rng.integers(0, TILE - 4, size=2)
            h, w = rng.integers(4, TILE, size=2)
            inside = (yy >= top) & (yy < top + h) & (xx >= left) & (xx < left + w)
        out[inside] = _colour(rng)
    return out


def _texture(rng, yy, xx):
    period = rng.uniform(3.0, 8.0)
    angle = rng.uniform(0.0, np.pi)
    phase = (yy * np.cos(angle) + xx * np.sin(angle)) * (2.0 * np.pi / period)
    wave = np.sin(phase)
    if rng.random() < 0.5:
        wave = np.sign(wave * np.sin(xx * (2.0 * np.pi / period)))
    amp = rng.uniform(30.0, 60.0)
    return _colour(rng) + amp * wave[..., None]


def _noise(rng, yy, xx):
    sigma = rng.uniform(10.0, 20.0)
    return _colour(rng) + rng.normal(0.0, sigma, size=yy.shape + (3,))


def _flat(rng, yy, xx):
    return np.broadcast_to(_colour(rng), yy.shape + (3,)).copy()


def _saturated(rng, yy, xx):
    # 4x4 blocks, each channel independently at 0 or 255
    blocks = rng.integers(0, 2, size=(TILE // 4, TILE // 4, 3)) * 255.0
    return np.repeat(np.repeat(blocks, 4, axis=0), 4, axis=1)


_MAKERS = {
    "gradient": _gradient,
    "edges": _edges,
    "texture": _texture,
    "noise": _noise,
    "flat": _flat,
    "saturated": _saturated,
}


def make_image(rng: np.random.Generator, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """One uint8 [height, width, 3] image and its [rows, cols] tile-class grid."""
    if height % TILE or width % TILE:
        raise ValueError(f"image size {height}x{width} is not a multiple of {TILE}")
    rows, cols = height // TILE, width // TILE
    labels = np.repeat(np.arange(len(CLASSES)), class_counts(rows * cols))
    labels = rng.permutation(labels).reshape(rows, cols)
    yy, xx = np.mgrid[0:TILE, 0:TILE].astype(np.float64)
    img = np.empty((height, width, 3), dtype=np.uint8)
    for r in range(rows):
        for c in range(cols):
            tile = _MAKERS[CLASSES[labels[r, c]]](rng, yy, xx)
            img[r * TILE : (r + 1) * TILE, c * TILE : (c + 1) * TILE] = np.clip(np.rint(tile), 0, 255)
    return img, labels


def make_corpus(seed: int, count: int, size: int, domain: int = WORKLOAD_DOMAIN) -> list[np.ndarray]:
    """``count`` square images of side ``size``; the same seed gives the same bytes."""
    rng = np.random.default_rng([domain, seed])
    return [make_image(rng, size, size)[0] for _ in range(count)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=4)
    parser.add_argument("--size", type=int, default=128)
    parser.add_argument("--out", help="write the corpus as one uint8 [count, size, size, 3] .npy file")
    args = parser.parse_args()
    stack = np.stack(make_corpus(args.seed, args.count, args.size))
    if args.out:
        np.save(args.out, stack)
    print(hashlib.sha256(stack.tobytes()).hexdigest())


if __name__ == "__main__":
    main()
