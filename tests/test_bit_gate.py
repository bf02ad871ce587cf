"""tools/bit_gate.py: the hash over coded containers that the bit-identity gate prints."""

import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bit_gate", ROOT / "tools" / "bit_gate.py")
bit_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bit_gate)


def test_containers_sha256_hashes_every_container_in_order():
    codec, corpus, workloads = bit_gate.load_tree(ROOT)
    image = corpus.make_corpus(0, 1, 16)[0]
    weights = workloads.load_weights("tiny_hyper")[1]
    container = codec.compress(image, weights).to_bytes()
    assert bit_gate.containers_sha256(codec.compress, [weights], [image]) == hashlib.sha256(container).hexdigest()
    twice = bit_gate.containers_sha256(codec.compress, [weights, weights], [image])
    assert twice == hashlib.sha256(container + container).hexdigest()
    assert bit_gate.containers_sha256(codec.compress, [weights], [image[::-1]]) != hashlib.sha256(container).hexdigest()


def test_containers_of_two_small_images_keep_their_bytes():
    # the coded bytes of the committed models, frozen: a change to any container byte fails here, in tier-1, and not
    # only in the full gate; CI also runs this test on OpenBLAS's Haswell and Prescott kernels
    codec, corpus, workloads = bit_gate.load_tree(ROOT)
    weights = [workloads.load_weights(name)[1] for name in ("default_ctx", "tiny_hyper")]
    digest = bit_gate.containers_sha256(codec.compress, weights, corpus.make_corpus(0, 2, 32))
    assert digest == "dc7de87c2946f11abd534e6d2de6cf99545be86b7014b0f26b420289e88769c1"
