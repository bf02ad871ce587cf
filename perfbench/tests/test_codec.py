import json
import shutil

import numpy as np
import pytest

import codec
import corpus
import workloads
from lhgm import model as M
from lhgm.errors import ContainerFormatError, WeightsDigestError
from trace import Tracer


@pytest.fixture(scope="module", params=["tiny_hyper", "default_ctx"])
def weights(request):
    return workloads.load_weights(request.param)[1]


@pytest.fixture(scope="module")
def images():
    return corpus.make_corpus(11, 2, 32)


def test_round_trip_is_bit_exact_and_repeatable(weights, images):
    for img in images:
        first = workloads.round_trip(img, weights)
        again = workloads.round_trip(img, weights)
        assert first.ok and again.ok
        assert first.data == again.data
        _, streams = codec.parse(first.data)
        assert streams == first.streams


def test_round_trip_with_untrained_weights_and_edge_bins():
    img = np.zeros((32, 48, 3), dtype=np.uint8)
    img[:, 24:] = 255
    for cfg in (M.ModelConfig.tiny(context_model=False), M.ModelConfig.tiny(context_model=True)):
        assert workloads.round_trip(img, M.init_weights(cfg, seed=3)).ok


def test_codec_loop_counts_every_image_once_per_cycle_and_pairs_traced_ops(images):
    weights = M.init_weights(M.ModelConfig.tiny(context_model=False), seed=2)
    run = workloads.codec_loop(images, weights, seconds=0.0, tracer=Tracer())
    assert run.failed == 0 and run.attempted == 2 * len(images)
    assert {i: len(rts) for i, rts in run.untraced.items()} == {i: 1 for i in range(len(images))}
    assert [i for i, _ in run.traced] == list(range(len(images)))
    assert len(run.pairs) == len(images)


def _flip(offset_of):
    def tamper(data):
        at = offset_of(codec.parse(data)[0])
        return data[:at] + bytes([data[at] ^ 0x5A]) + data[at + 1 :]
    return tamper


# The leading byte of a stream always steers decoding. A flip in the last
# flush bytes can leave every symbol intact, and then the decode is right.
@pytest.mark.parametrize("stream,offset_of", [
    ("z", lambda h: h.offsets()["z"]),
    ("y", lambda h: h.offsets()["y"]),
    ("x", lambda h: h.offsets()["x"]),
    ("x-middle", lambda h: h.offsets()["x"] + h.n_x // 2),
])
def test_flipped_payload_byte_is_counted_as_failure(weights, images, stream, offset_of):
    run = workloads.codec_loop(images, weights, seconds=0.0, tamper=_flip(offset_of))
    assert run.attempted >= len(images)
    assert run.failed == run.attempted
    assert not run.untraced and not run.first


def test_truncated_container_is_rejected(weights, images):
    data = workloads.round_trip(images[0], weights).data
    with pytest.raises(ContainerFormatError):
        codec.decompress(data[:-1], weights)


def test_digest_mismatch_fails_setup(tmp_path, monkeypatch):
    shutil.copytree(workloads.WEIGHTS_DIR, tmp_path, dirs_exist_ok=True)
    manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
    manifest["tiny_hyper"]["digest8"] = "00" * 8
    (tmp_path / "MANIFEST.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(workloads, "WEIGHTS_DIR", tmp_path)
    with pytest.raises(WeightsDigestError):
        workloads.load_weights("tiny_hyper")
