"""Seeded bytes held against recorded sha256 digests.

The determinism tests elsewhere compare the program with itself, two runs
against each other. These hold the seeded bytes that depend only on numpy's
PCG64 streams and Python arithmetic, not on BLAS, against digests recorded
once: each preset's initial values, the first epoch's batches and its first
dropout mask, and `acnn synth --preset toy`'s corpus. tensor.Rng promises the
same stream across runs and platforms, and numpy allows a Generator's stream
to change between versions (NEP 19), so these tests also check that promise
on the numpy they run with. A change that means to move any of these bytes
records the new digest here and says why.
"""

import hashlib

import numpy as np
import pytest

from acnn import cli, layers, training
from acnn import model as M

SPLITS = ("train", "dev", "test")

# preset -> digest of Model.build(model_preset(preset, vocab_size=40, seed=5))
BUILD_DIGESTS = {
    "cnn-table1": "0b040b767e7aa00baf63a67c7299089f304d30ab3e25ecce44bf4e7735a52c13",
    "acnn-table1": "8785d1793415c2e2413bf4d315f3dbb9a966b2971019aaedd9f0d88860daa262",
    "cnn-toy": "0fee701fe7c3fe7ff8331db06a07848f8f98ccc9fbe753d66c747c7cbc4332c8",
    "acnn-toy": "f0bdb50e30a3831b4df59885be6798f54ffc4542794a43048c68186f1db92115",
}

# split -> digest of `acnn synth --preset toy`'s file
SYNTH_DIGESTS = {
    "train": "bcec4a62508b827b4778682725e7c9335044460b05ac597381a911467736adf1",
    "dev": "4526854cd145f6a55d7799140d3a34bc204be7a38b94bec200b4929208ba097c",
    "test": "d9244fd3d5072ec58571011280bdc1f79a47c47f83ceab62aa5757168a1defd6",
}

# `acnn train --preset cnn-toy --seed 3` on that corpus, epoch 1: every
# step's (ids, labels) in order, and the mask of its first dropout draw
BATCHES_DIGEST = "4290812abdf783aef16358e039783aa3de97a9929a026fe24cfca58abbf25a36"
DROPOUT_DIGEST = "ff08d01250c7ec86537ee3d93787e7aff4c46c3553001b3fba42c3343ccdda68"


def sha256(arrays) -> str:
    """One digest over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def toy_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert cli.main(["synth", "--preset", "toy", "--out", str(out)]) == cli.EXIT_OK
    return out


@pytest.mark.parametrize("preset", M.MODEL_PRESETS)
def test_initial_values(preset):
    model = M.Model.build(M.model_preset(preset, vocab_size=40, seed=5))
    assert sha256(p.value for _, p in model.params.items()) == BUILD_DIGESTS[preset]


def test_synth_toy_corpus(toy_corpus):
    digests = {split: hashlib.sha256((toy_corpus / f"{split}.bt").read_bytes()).hexdigest()
               for split in SPLITS}
    assert digests == SYNTH_DIGESTS


def test_first_epoch_batches_and_dropout_mask(toy_corpus, tmp_path, monkeypatch):
    """Observed through `acnn train`, by spies on the training step and on
    layers.dropout, which pass every call on."""
    batches, masks = [], []
    step, dropout = training.batch_loss_and_grads, layers.dropout

    def spy_step(model, batch, **kwargs):
        batches.append(batch)
        return step(model, batch, **kwargs)

    def spy_dropout(*args):
        out, mask = dropout(*args)
        masks.append(mask)
        return out, mask

    monkeypatch.setattr(training, "batch_loss_and_grads", spy_step)
    monkeypatch.setattr(layers, "dropout", spy_dropout)
    code = cli.main(["train", "--preset", "cnn-toy", "--seed", "3", "--max-epochs", "1",
                     "--train", str(toy_corpus / "train.bt"), "--dev", str(toy_corpus / "dev.bt"),
                     "--out", str(tmp_path / "model.ckpt")])
    assert code == cli.EXIT_OK
    assert len(batches) == 8  # 200 sentences, 25 a step
    assert sha256(array for batch in batches for pair in batch for array in pair) == BATCHES_DIGEST
    assert masks[0] is not None
    assert sha256([masks[0]]) == DROPOUT_DIGEST
