import hashlib
import subprocess
import sys

import numpy as np
import pytest

import corpus


def test_same_seed_same_bytes_and_other_seed_differs():
    a = corpus.make_corpus(7, 2, 64)
    b = corpus.make_corpus(7, 2, 64)
    c = corpus.make_corpus(8, 2, 64)
    assert all(x.dtype == np.uint8 and x.shape == (64, 64, 3) for x in a)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_command_line_digest_matches_in_process_corpus():
    out = subprocess.run([sys.executable, str(corpus.__file__), "--seed", "5", "--count", "2", "--size", "32"],
                         capture_output=True, text=True, check=True, timeout=60)
    expected = hashlib.sha256(np.stack(corpus.make_corpus(5, 2, 32)).tobytes()).hexdigest()
    assert out.stdout.strip() == expected


def test_training_domain_never_reproduces_a_workload_corpus():
    assert not np.array_equal(corpus.make_corpus(3, 1, 64)[0],
                              corpus.make_corpus(3, 1, 64, domain=corpus.TRAINING_DOMAIN)[0])


@pytest.mark.parametrize("size", [64, 96, 128])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_class_appears_in_fixed_proportions(size, seed):
    rng = np.random.default_rng(seed)
    img, labels = corpus.make_image(rng, size, size)
    counts = np.bincount(labels.ravel(), minlength=len(corpus.CLASSES))
    assert counts.tolist() == corpus.class_counts((size // corpus.TILE) ** 2)
    assert counts.min() >= 1

    t = corpus.TILE
    tiles = {name: [] for name in corpus.CLASSES}
    for r in range(labels.shape[0]):
        for c in range(labels.shape[1]):
            tiles[corpus.CLASSES[labels[r, c]]].append(img[r * t : (r + 1) * t, c * t : (c + 1) * t])
    assert all(np.all(tile == tile[0, 0]) for tile in tiles["flat"])
    assert all(np.isin(tile, (0, 255)).all() for tile in tiles["saturated"])
    sat = np.stack(tiles["saturated"])
    assert (sat == 0).any() and (sat == 255).any()
    assert all(len(np.unique(tile.reshape(-1, 3), axis=0)) > t for tile in tiles["noise"])
    assert all(len(np.unique(tile.reshape(-1, 3), axis=0)) > 2 for tile in tiles["gradient"])
    assert all(len(np.unique(tile.reshape(-1, 3), axis=0)) >= 2 for tile in tiles["texture"])


def test_rejects_size_off_the_tile_grid():
    with pytest.raises(ValueError):
        corpus.make_image(np.random.default_rng(0), 40, 32)
