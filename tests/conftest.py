import json
import struct

import pytest

from acnn import model as M

_VALID_META = {
    "config": M.ModelConfig(
        arch="cnn", vocab_size=10, embedding_dim=3, dropout_rate=0.0,
        l2_weight=0.0, layers=(M.LayerConfig("conv", ((0, 1),), 2),)).to_dict(),
    "vocab": ["<pad>", "<unk>", "a"],
    "rng_algorithm": "pcg64",
    "seed": 0,
    "step": 0,
}


def _changed(d: dict, **changes) -> dict:
    """A copy of `d` with keys replaced, or deleted where the value is None."""
    out = {**d, **changes}
    return {k: v for k, v in out.items() if v is not None}


def _config_changed(**changes) -> dict:
    return _changed(_VALID_META, config=_changed(_VALID_META["config"], **changes))


# case -> (metadata, declared metadata length or None, tensors as (name, shape))
HOSTILE_CHECKPOINTS = {
    "no-config": (_changed(_VALID_META, config=None), None, ()),
    "no-vocab": (_changed(_VALID_META, vocab=None), None, ()),
    "config-is-list": (_changed(_VALID_META, config=[1, 2]), None, ()),
    "config-without-layers": (_config_changed(layers=None), None, ()),
    "vocab-size-is-string": (_config_changed(vocab_size="10"), None, ()),
    "kernel-width-is-float": (_config_changed(layers=[
        {"kind": "conv", "kernel_groups": [[0.5, 1]], "channels": 2}]), None, ()),
    "channels-is-float": (_config_changed(layers=[
        {"kind": "conv", "kernel_groups": [[0, 1]], "channels": 2.0}]), None, ()),
    "metadata-is-list": ([1, 2], None, ()),
    "metadata-length-2**62": (_VALID_META, 2 ** 62, ()),
    "tensor-dims-beyond-file": (_VALID_META, None, (("embedding", (2 ** 32 - 1, 2 ** 32 - 1)),)),
}


@pytest.fixture(params=sorted(HOSTILE_CHECKPOINTS))
def hostile_checkpoint(request, tmp_path):
    """A checkpoint file with well-formed framing but hostile content."""
    meta, meta_len, tensors = HOSTILE_CHECKPOINTS[request.param]
    blob = json.dumps(meta).encode("utf-8")
    parts = [b"ACNNCKPT", struct.pack("<I", 1),
             struct.pack("<Q", len(blob) if meta_len is None else meta_len), blob,
             struct.pack("<I", len(tensors))]
    for name, shape in tensors:
        parts += [struct.pack("<H", len(name)), name.encode("utf-8"),
                  struct.pack("<BB", 0, len(shape))]
        parts += [struct.pack("<I", d) for d in shape]
    path = tmp_path / "hostile.ckpt"
    path.write_bytes(b"".join(parts))
    return path
