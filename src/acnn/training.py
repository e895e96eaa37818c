"""The training step and loop: cross-entropy with its gradient w.r.t. the
scores, L2 on the width-1 layer with its gradient, in-place Adam over what
each parameter's Param.parts yields (nothing here knows a pair kernel's
layout), and the minibatch loop with dev-F early stopping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import evaluate
from .data import DISFLUENT, CorpusFormatError, TokenSequence, Vocabulary
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


def softmax_xent_backward(probs: np.ndarray, label_ids: np.ndarray) -> np.ndarray:
    """Fused gradient of mean cross-entropy w.r.t. pre-softmax scores:
    (softmax - onehot) / tokens."""
    n = len(label_ids)
    d = probs.copy()
    d[np.arange(n), label_ids] -= 1.0
    return d / n


def cross_entropy(probs: np.ndarray, label_ids):
    """Mean negative log-likelihood over tokens, with its gradient w.r.t.
    pre-softmax scores (softmax_xent_backward). `label_ids` are integer class
    ids, 0 (fluent) or 1 (disfluent)."""
    ids = np.asarray(label_ids)
    if ids.dtype.kind not in "iu" or ((ids < 0) | (ids > 1)).any():
        raise ValueError("labels must be integer class ids 0 or 1")
    if probs.shape != (len(ids), 2):
        raise ValueError(f"probs shape {probs.shape} vs {len(ids)} labels")
    n = len(ids)
    picked = np.maximum(probs[np.arange(n), ids], 1e-300)
    loss = float(-np.log(picked).sum() / n)
    return loss, softmax_xent_backward(probs, ids)


# apart from add_l2 so that perfbench's step check can drop the gradient alone
def add_l2_grad(params: ParamStore, weight: float) -> None:
    params["output.W"].grad += 2.0 * weight * params["output.W"].value


def add_l2(params: ParamStore, weight: float) -> float:
    """The L2 penalty on the width-1 layer's weights (bias excluded),
    weight * sum(W**2), after adding its gradient 2 * weight * W onto
    output.W's (add_l2_grad)."""
    add_l2_grad(params, weight)
    W = params["output.W"].value
    return float(weight * (W * W).sum())


# Elements per Adam block: its two float64 scratch blocks (256 KiB each) and
# the block's value, gradient and moments stay in cache between its passes.
# On acnn-table1 (vocabulary 163) a step's Adam took 25.5 ms in these blocks,
# against 30.4 ms over whole parts and 29.3 ms with per-block temporaries
# (medians of 15, one BLAS thread, a shared 2-vCPU x86 host).
ADAM_BLOCK = 1 << 15


def _adam_blocks(p):
    """Each of p.parts() cut in its memory order into blocks of whole
    channels, at most ADAM_BLOCK elements, or one channel where one channel
    is larger; views all, as (value, grad, m, v, mirror). A part is cut along
    its slowest axis in memory: the leading one, or the last one of an
    F-ordered part (an A, model._held, whose gradient and moments are in its
    order, Param.of), so that a contiguous part's blocks are contiguous."""
    for value, grad, m, v, mirror in p.parts():
        if value.flags.f_contiguous and not value.flags.c_contiguous:
            value, grad, m, v = value.T, grad.T, m.T, v.T  # no mirror: a pair part is neither
        channels = max(1, ADAM_BLOCK // value[0].size)
        for u in range(0, len(value), channels):
            s = slice(u, u + channels)
            yield value[s], grad[s], m[s], v[s], None if mirror is None else mirror[s]


def adam_step(params: ParamStore, t: int, cfg: TrainConfig) -> None:
    """Standard Adam with bias-corrected moments; t is 1-based.

    Works in place over blocks of at most ADAM_BLOCK elements (_adam_blocks),
    with two block-sized scratch arrays shared by every tensor, doing the
    textbook float operations in the textbook order: value -= (lr * m_hat) /
    (sqrt(v_hat) + eps), each step also subtracted from its part's mirror.
    Precondition: each B's gradient is symmetric bit for bit, as
    Model.backward leaves it, since only its pairs i <= j are read
    (Param.parts). All or nothing: a read-only value is a ValueError before
    the first write."""
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
    penalty. Model.backward writes every gradient of the store, and add_l2
    then adds the L2 gradient onto output.W's. The sentences run packed, in one
    forward and one backward pass, so a step folds each B once."""
    lengths = [len(ids) for ids, _ in batch]
    ids, label_ids = (np.concatenate(column) for column in zip(*batch))
    probs, cache = model.forward_with_cache(ids, training=training, rng=rng, lengths=lengths)
    loss, dscores = cross_entropy(probs, label_ids)
    model.backward(cache, dscores)
    loss += add_l2(model.params, model.config.l2_weight)
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
