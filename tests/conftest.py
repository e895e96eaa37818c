import json
import math
import struct

import pytest

from acnn import model as M

_VALID_META = {
    "config": M.ModelConfig(
        vocab_size=10, embedding_dim=3, dropout_rate=0.0,
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




def _tensor(name: str | bytes, shape: tuple[int, ...], code: int = 0) -> tuple:
    """(name, shape, dtype code, data): float64 zeros filling the shape. A
    name given as bytes is written as it is, not encoded."""
    return (name, shape, code, bytes(8 * math.prod(shape)))


# the tensors of _VALID_META's config, in store order
_VALID_TENSORS = (_tensor("embedding", (10, 3)), _tensor("layer1.group0.A", (2, 2, 3)),
                  _tensor("layer1.group0.b", (2,)), _tensor("output.W", (2, 2)),
                  _tensor("output.b", (2,)))

# case -> (metadata, declared metadata length or None,
#          tensors as (name, shape, dtype code, data)[, format version, 1 if left out])
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
    "tensor-dims-beyond-file": (_VALID_META, None,
                                (("embedding", (2 ** 32 - 1, 2 ** 32 - 1), 0, b""),)),
    "tensor-data-beyond-file": (_config_changed(vocab_size=2 ** 32 - 1), None,
                                (("embedding", (2 ** 32 - 1, 3), 0, b""),) + _VALID_TENSORS[1:]),
    "no-tensors": (_VALID_META, None, ()),
    "tensor-missing": (_VALID_META, None, _VALID_TENSORS[:2] + _VALID_TENSORS[3:]),
    "tensor-extra": (_VALID_META, None, _VALID_TENSORS + (_tensor("extra", (1,)),)),
    "tensor-wrong-shape": (_VALID_META, None,
                           _VALID_TENSORS[:3] + (_tensor("output.W", (2, 3)),) + _VALID_TENSORS[4:]),
    "vocab-beyond-vocab-size": (
        _changed(_VALID_META, vocab=["<pad>", "<unk>"] + [f"w{i}" for i in range(9)]), None,
        _VALID_TENSORS),
    # Vocabulary.encode would send unknown words to the row of "b"
    "vocab-without-pad-unk": (_changed(_VALID_META, vocab=["a", "b", "c"]), None, _VALID_TENSORS),
    # both copies would encode to one id, and the other's embedding row would go unused
    "vocab-word-repeats": (_changed(_VALID_META, vocab=["<pad>", "<unk>", "a", "a"]), None,
                           _VALID_TENSORS),
    # two float32 values, as a reader of a float32 code would take them
    "dtype-code-1": (_VALID_META, None, _VALID_TENSORS[:4] + (("output.b", (2,), 1, bytes(8)),)),
    # a seed that no Rng takes, so the checkpoint could not have been built from it
    "seed-negative": (_config_changed(seed=-1), None, _VALID_TENSORS),
    # JSON true is a Python int; config seed 1 equals it, so only its type is wrong
    "seed-is-true": (_changed(_config_changed(seed=1), seed=True), None, _VALID_TENSORS),
    "step-is-true": (_changed(_VALID_META, step=True), None, _VALID_TENSORS),
    "step-negative": (_changed(_VALID_META, step=-1), None, _VALID_TENSORS),
    # a tagging manifest records the metadata seed, which training writes equal to config.seed
    "seed-not-config-seed": (_changed(_VALID_META, seed=1), None, _VALID_TENSORS),
    # a tagging manifest would record pcg64 beside a seed of another generator
    "rng-algorithm-mt19937": (_changed(_VALID_META, rng_algorithm="mt19937"), None,
                              _VALID_TENSORS),
    "vocab-entry-not-string": (_changed(_VALID_META, vocab=["<pad>", "<unk>", 3]), None,
                               _VALID_TENSORS),
    # the right count and shapes, but a name that is not UTF-8 or not its config's
    "tensor-name-not-utf8": (_VALID_META, None,
                             _VALID_TENSORS[:4] + (_tensor(b"output.\xff", (2,)),)),
    "tensor-renamed": (_VALID_META, None, _VALID_TENSORS[:4] + (_tensor("output.c", (2,)),)),
    # an embedding dim that no u32 header field holds
    "vocab-size-2**32": (_config_changed(vocab_size=2 ** 32), None, _VALID_TENSORS),
    # configs that only their own check refuses: each comes with its layout's tensors
    "layer-kind-unknown": (_config_changed(layers=[
        {"kind": "lstm", "kernel_groups": [[0, 1]], "channels": 2}]), None, _VALID_TENSORS),
    "kernel-groups-empty": (_config_changed(layers=[
        {"kind": "conv", "kernel_groups": [], "channels": 2}]), None,
        _VALID_TENSORS[:1] + _VALID_TENSORS[3:]),
    "channels-zero": (_config_changed(layers=[
        {"kind": "conv", "kernel_groups": [[0, 1]], "channels": 0}]), None,
        (_VALID_TENSORS[0], _tensor("layer1.group0.A", (0, 2, 3)),
         _tensor("layer1.group0.b", (0,)), _tensor("output.W", (2, 0)), _VALID_TENSORS[4])),
    "embedding-dim-0": (_config_changed(embedding_dim=0), None,
                        (_tensor("embedding", (10, 0)), _tensor("layer1.group0.A", (2, 2, 0)))
                        + _VALID_TENSORS[2:]),
    "no-layers": (_config_changed(layers=[]), None,
                  (_VALID_TENSORS[0], _tensor("output.W", (2, 3)), _VALID_TENSORS[4])),
    "version-2": (_VALID_META, None, _VALID_TENSORS, 2),
}


def _write_checkpoint(path, meta, meta_len, tensors, version=1):
    blob = json.dumps(meta).encode("utf-8")
    parts = [b"ACNNCKPT", struct.pack("<I", version),
             struct.pack("<Q", len(blob) if meta_len is None else meta_len), blob,
             struct.pack("<I", len(tensors))]
    for name, shape, code, raw in tensors:
        name = name if isinstance(name, bytes) else name.encode("utf-8")
        parts += [struct.pack("<H", len(name)), name,
                  struct.pack("<BB", code, len(shape))]
        parts += [struct.pack("<I", d) for d in shape]
        parts.append(raw)
    path.write_bytes(b"".join(parts))
    return path


@pytest.fixture(params=sorted(HOSTILE_CHECKPOINTS))
def hostile_checkpoint(request, tmp_path):
    """A checkpoint file with well-formed framing but hostile content."""
    return _write_checkpoint(tmp_path / "hostile.ckpt", *HOSTILE_CHECKPOINTS[request.param])


@pytest.fixture
def valid_checkpoint(tmp_path):
    """The checkpoint that every hostile case departs from."""
    return _write_checkpoint(tmp_path / "valid.ckpt", _VALID_META, None, _VALID_TENSORS)
