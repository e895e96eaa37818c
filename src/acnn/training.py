"""Cross-entropy loss, L2 on the width-1 layer, Adam, and the minibatch
training loop with dev-F early stopping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import evaluate
from .data import DISFLUENT, CorpusFormatError, TokenSequence, Vocabulary
from .layers import softmax_xent_backward
from .model import CLASS_DISFLUENT, Model, ModelConfig, ParamStore
from .tensor import NumericError, Rng


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 25
    learning_rate: float = 0.001
    max_epochs: int = 30
    patience: int = 5  # epochs without dev-F improvement before stopping

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


def cross_entropy(probs: np.ndarray, label_ids):
    """Mean negative log-likelihood over tokens, with the fused gradient
    w.r.t. pre-softmax scores: (softmax - onehot) / tokens. `label_ids` are
    integer class ids, 0 (fluent) or 1 (disfluent)."""
    ids = np.asarray(label_ids)
    if ids.dtype.kind not in "iu" or ((ids < 0) | (ids > 1)).any():
        raise ValueError("labels must be integer class ids 0 or 1")
    if probs.shape != (len(ids), 2):
        raise ValueError(f"probs shape {probs.shape} vs {len(ids)} labels")
    n = len(ids)
    picked = np.maximum(probs[np.arange(n), ids], 1e-300)
    loss = float(-np.log(picked).sum() / n)
    return loss, softmax_xent_backward(probs, ids)


def l2_penalty(params: ParamStore, weight: float) -> float:
    """Penalty on the width-1 layer weights only (bias excluded)."""
    W = params["output.W"].value
    return float(weight * (W * W).sum())


def add_l2_grad(params: ParamStore, weight: float) -> None:
    params["output.W"].grad += 2.0 * weight * params["output.W"].value


# Elements per Adam block: its two float64 scratch blocks (256 KiB each) and
# the block's value, gradient and moments stay in cache between its passes.
ADAM_BLOCK = 1 << 15


def adam_step(params: ParamStore, t: int, cfg: TrainConfig) -> None:
    """Standard Adam with bias-corrected moments; t is 1-based.

    Works in place over blocks of ADAM_BLOCK elements, with two block-sized
    scratch arrays shared by every tensor, doing the textbook float operations
    in the textbook order: value -= (lr * m_hat) / (sqrt(v_hat) + eps)."""
    if t < 1:
        raise ValueError("Adam step index must be >= 1")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    scratch = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for _, p in params.items():
        # views, since Param keeps every array C-contiguous
        flat = [a.reshape(-1) for a in (p.value, p.grad, p.adam_m, p.adam_v)]
        for lo in range(0, p.value.size, ADAM_BLOCK):
            value, grad, m, v = (a[lo:lo + ADAM_BLOCK] for a in flat)
            step, denom = (a[:len(value)] for a in scratch)
            np.multiply(1.0 - b1, grad, out=step)
            m *= b1
            m += step
            np.multiply(1.0 - b2, grad, out=step)
            step *= grad
            v *= b2
            v += step
            np.divide(m, 1.0 - b1 ** t, out=step)
            step *= cfg.learning_rate
            np.divide(v, 1.0 - b2 ** t, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            value -= step


# Bytes of the float64s that _token_floats counts one packed tagging pass may
# hold: 119 tokens of acnn-table1, 40 of cnn-table1, and over 1,000 of either
# toy model. A training step is one pass over its whole batch.
CHUNK_BYTES = 3_600_000


def _token_floats(config: ModelConfig) -> int:
    """The float64s one token adds to a forward pass: each layer's input and
    output and every group's kn2row Y (c * w)."""
    floats, m = 0, config.embedding_dim
    for lc in config.layers:
        widths = sum(ell + r + 1 for ell, r in lc.kernel_groups)
        floats += m + lc.channels + lc.group_channels * widths
        m = lc.channels
    return floats


def _chunks(sentences, tokens: int):
    """The sentences' token-id arrays in order, cut into runs of whole
    sentences of at most `tokens` tokens; a longer sentence is a run of its
    own. Each run is yielded as (lengths, ids): its sentence lengths and its
    ids concatenated."""
    def joined(run):
        return [len(ids) for ids in run], np.concatenate(run)
    run, size = [], 0
    for ids in sentences:
        if run and size + len(ids) > tokens:
            yield joined(run)
            run, size = [], 0
        run.append(ids)
        size += len(ids)
    if run:
        yield joined(run)


def batch_loss_and_grads(model: Model, batch, training: bool = False,
                         rng: Rng | None = None) -> float:
    """Token-averaged loss over a batch of (ids, label_ids) pairs plus the L2
    penalty, with its gradients written into the model's parameter store. The
    sentences run packed, in one forward and one backward pass, so a step
    folds each B once."""
    model.params.zero_grads()
    lengths = [len(ids) for ids, _ in batch]
    ids, label_ids = (np.concatenate(column) for column in zip(*batch))
    probs, cache = model.forward_with_cache(ids, training=training, rng=rng, lengths=lengths)
    loss, dscores = cross_entropy(probs, label_ids)
    model.backward(cache, dscores)
    loss += l2_penalty(model.params, model.config.l2_weight)
    add_l2_grad(model.params, model.config.l2_weight)
    if not math.isfinite(loss):
        raise NumericError("non-finite training loss")
    return loss


def predict_masks(model: Model, seqs: list[TokenSequence],
                  vocab: Vocabulary) -> list[np.ndarray]:
    """Per-sentence disfluency masks (eval mode), packed: one Model.forward
    per _chunks run within CHUNK_BYTES, over Model.with_kept_folds, so each B
    is folded once per call, or never for a model that keeps its folds
    (Checkpoint.build_model). A sentence with no tokens gets an empty mask and
    takes no part in a pass."""
    model = model.with_kept_folds()
    masks = []
    tokens = CHUNK_BYTES // (8 * _token_floats(model.config))
    encoded = [vocab.encode(seq.tokens) for seq in seqs if seq.tokens]
    for lengths, ids in _chunks(encoded, tokens):
        probs = model.forward(ids, training=False, lengths=lengths)
        disfluent = probs.argmax(axis=1) == CLASS_DISFLUENT
        masks += np.split(disfluent, np.cumsum(lengths[:-1]))
    tagged = iter(masks)
    return [next(tagged) if seq.tokens else np.zeros(0, dtype=bool) for seq in seqs]


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    train_loss: float
    dev_precision: float | None
    dev_recall: float | None
    dev_f1: float | None
    best: bool

    def format(self) -> str:
        fmt = evaluate.format_percent
        star = " *" if self.best else ""
        return (f"epoch {self.epoch:3d}  loss {self.train_loss:.4f}  "
                f"dev P {fmt(self.dev_precision)} R {fmt(self.dev_recall)} "
                f"F {fmt(self.dev_f1)}{star}")


@dataclass
class TrainResult:
    best_f1: float
    best_epoch: int
    steps: int
    log: list[EpochLog] = field(default_factory=list)


def train(model: Model, train_seqs: list[TokenSequence],
          dev_seqs: list[TokenSequence], vocab: Vocabulary,
          cfg: TrainConfig) -> TrainResult:
    """Seeded-shuffle minibatch training with Adam and patience-based early
    stopping on dev F-score; returns with the model at its best epoch.
    Shuffling and dropout draw from the model config's seed, so that seed and
    the data fix the whole run."""
    data = [(vocab.encode(seq.tokens), seq.disfluent_mask().astype(np.int64))
            for seq in train_seqs if seq.tokens]
    if not data or not dev_seqs:
        raise CorpusFormatError("training and dev corpora must hold at least one token each")
    if not any(DISFLUENT in seq.labels for seq in dev_seqs):
        raise CorpusFormatError(
            "dev set has no disfluent tokens, so F-score is undefined; "
            "add disfluent examples to the dev corpus")
    rng = Rng(model.config.seed)
    shuffle_rng = rng.spawn(1)
    dropout_rng = rng.spawn(2)
    best_values = None  # set by epoch 1, whose F always beats -1
    best_f1 = -1.0
    best_epoch = 0
    without_improvement = 0
    t = 0
    log: list[EpochLog] = []
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(len(data))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [data[i] for i in order[start:start + cfg.batch_size]]
            loss = batch_loss_and_grads(model, batch, training=True, rng=dropout_rng)
            t += 1
            adam_step(model.params, t, cfg)
            losses.append(loss)
        report = evaluate.score(dev_seqs, predict_masks(model, dev_seqs, vocab))
        f1 = report.f1 if report.f1 is not None else 0.0
        improved = f1 > best_f1
        if improved:
            best_f1 = f1
            best_epoch = epoch
            best_values = model.params.values_copy()
            without_improvement = 0
        else:
            without_improvement += 1
        log.append(EpochLog(epoch=epoch, train_loss=float(np.mean(losses)),
                            dev_precision=report.precision,
                            dev_recall=report.recall, dev_f1=report.f1,
                            best=improved))
        if without_improvement >= cfg.patience:
            break
    model.params.load_values(best_values)
    return TrainResult(best_f1=best_f1, best_epoch=best_epoch, steps=t, log=log)
