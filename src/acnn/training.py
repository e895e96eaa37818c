"""Cross-entropy loss, L2 on the width-1 layer, Adam, and the minibatch
training loop with dev-F early stopping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import evaluate
from .data import DISFLUENT, CorpusFormatError, TokenSequence, Vocabulary
from .layers import pair_views, softmax_xent_backward
from .model import CLASS_DISFLUENT, Model, ModelConfig, Param, ParamStore, is_pair_kernel
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


def _adam_blocks(p: Param):
    """p's (value, grad, m, v, mirror) blocks of at most ADAM_BLOCK elements,
    views all. Any tensor but a pair kernel is cut flat, with no mirror. A
    pair kernel (a B, model.is_pair_kernel) is cut per offset d into channel
    blocks of its pairs (i, i + d) and of their moments; for d > 0 the mirror
    is the same block of the pairs (i + d, i). A block holds one channel at
    least, even where that channel has more than ADAM_BLOCK elements."""
    # views, since Param keeps every array C-contiguous
    if not is_pair_kernel(p.value):
        flat = [a.reshape(-1) for a in (p.value, p.grad, p.adam_m, p.adam_v)]
        for lo in range(0, p.value.size, ADAM_BLOCK):
            yield *(a[lo:lo + ADAM_BLOCK] for a in flat), None
        return
    lo = 0
    for d, ((upper, lower), (grad, _)) in enumerate(zip(pair_views(p.value), pair_views(p.grad))):
        m_d, v_d = (a[lo:lo + upper.size].reshape(upper.shape) for a in (p.adam_m, p.adam_v))
        lo += upper.size
        channels = max(1, ADAM_BLOCK // upper[0].size)
        for u in range(0, len(upper), channels):
            s = slice(u, u + channels)
            yield upper[s], grad[s], m_d[s], v_d[s], lower[s] if d else None


def adam_step(params: ParamStore, t: int, cfg: TrainConfig) -> None:
    """Standard Adam with bias-corrected moments; t is 1-based.

    Works in place over blocks of ADAM_BLOCK elements (_adam_blocks), with two
    block-sized scratch arrays shared by every tensor, doing the textbook float
    operations in the textbook order: value -= (lr * m_hat) / (sqrt(v_hat) +
    eps). Precondition: each B's gradient is symmetric bit for bit, as
    Model.backward leaves it. Only its pairs i <= j are read, and each step is
    subtracted from both B[i, j] and B[j, i]. All or nothing: a read-only
    value is a ValueError before the first write."""
    if t < 1:
        raise ValueError("Adam step index must be >= 1")
    for name, p in params.items():
        if not p.value.flags.writeable:
            raise ValueError(f"parameter {name!r} is read-only")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    unbias1, unbias2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    scratch = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for _, p in params.items():
        for value, grad, m, v, mirror in _adam_blocks(p):
            if value.size > len(scratch[0]):  # a channel larger than ADAM_BLOCK
                scratch = np.empty(value.size), np.empty(value.size)
            step, denom = (a[:value.size].reshape(value.shape) for a in scratch)
            np.multiply(1.0 - b1, grad, out=step)
            m *= b1
            m += step
            np.multiply(1.0 - b2, grad, out=step)
            step *= grad
            v *= b2
            v += step
            np.divide(m, unbias1, out=step)
            step *= cfg.learning_rate
            np.divide(v, unbias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            value -= step
            if mirror is not None:
                mirror -= step


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
    penalty. Model.backward writes every gradient of the store, and the L2
    gradient is then added onto output.W's. The sentences run packed, in one
    forward and one backward pass, so a step folds each B once."""
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
    """One epoch of training: its mean batch loss, the dev set's scores after
    it, and whether its dev F is the best so far (its values are kept)."""
    epoch: int
    train_loss: float
    dev: evaluate.EvalReport
    best: bool

    def format(self) -> str:
        star = " *" if self.best else ""
        return (f"epoch {self.epoch:3d}  loss {self.train_loss:.4f}  "
                f"dev {self.dev.format_prf()}{star}")


@dataclass
class TrainResult:
    """The steps taken and one EpochLog per epoch run; the best epoch and its
    dev F are read from the log."""
    steps: int
    log: list[EpochLog] = field(default_factory=list)

    @property
    def best_epoch(self) -> int:
        """The last epoch marked best, 0 before the first epoch."""
        return max((e.epoch for e in self.log if e.best), default=0)

    @property
    def best_f1(self) -> float:
        """The best epoch's dev F, 0.0 when it is absent."""
        return (self.log[self.best_epoch - 1].dev.f1 or 0.0) if self.best_epoch else 0.0


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
    best_values = None  # set by epoch 1, the first best
    result = TrainResult(steps=0)
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(len(data))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [data[i] for i in order[start:start + cfg.batch_size]]
            loss = batch_loss_and_grads(model, batch, training=True, rng=dropout_rng)
            result.steps += 1
            adam_step(model.params, result.steps, cfg)
            losses.append(loss)
        report = evaluate.score(dev_seqs, predict_masks(model, dev_seqs, vocab))
        improved = epoch == 1 or (report.f1 or 0.0) > result.best_f1
        if improved:
            best_values = model.params.values_copy()
        result.log.append(EpochLog(epoch=epoch, train_loss=float(np.mean(losses)),
                                   dev=report, best=improved))
        if epoch - result.best_epoch >= cfg.patience:
            break
    model.params.load_values(best_values)
    return result
