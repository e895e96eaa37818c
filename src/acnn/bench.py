"""CNN-vs-ACNN benchmark on synthetic corpora: matched desk-scale configs that
differ only in the first-layer operator, trained over several seeds."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import evaluate, training
from .data import GENERATOR_PRESETS, TokenSequence, Vocabulary, build_vocab, generate_corpus
from .model import Model, model_preset
from .tensor import Rng


@dataclass
class ArmResult:
    arch: str
    seed: int
    dev_f1: float
    per_kind_f1: dict[str, float | None]
    best_epoch: int


@dataclass
class BenchResult:
    preset: str
    seeds: tuple[int, ...]
    cnn: list[ArmResult] = field(default_factory=list)
    acnn: list[ArmResult] = field(default_factory=list)
    # last trained ACNN, kept for the embedding similarity diagnostic
    acnn_model: Model | None = None
    vocab: Vocabulary | None = None
    dev_seqs: list[TokenSequence] | None = None

    @property
    def mean_cnn_f1(self) -> float:
        return float(np.mean([a.dev_f1 for a in self.cnn]))

    @property
    def mean_acnn_f1(self) -> float:
        return float(np.mean([a.dev_f1 for a in self.acnn]))

    @property
    def mean_gap(self) -> float:
        return self.mean_acnn_f1 - self.mean_cnn_f1

    def mean_kind_f1(self, arch: str, kind: str) -> float:
        arms = self.cnn if arch == "cnn" else self.acnn
        vals = [a.per_kind_f1.get(kind) for a in arms]
        vals = [v for v in vals if v is not None]
        return float(np.mean(vals)) if vals else float("nan")

    def format_table(self) -> str:
        lines = ["seed\tcnn_f1\tacnn_f1\tgap"]
        for c, a in zip(self.cnn, self.acnn):
            lines.append(f"{c.seed}\t{c.dev_f1:.4f}\t{a.dev_f1:.4f}\t{a.dev_f1 - c.dev_f1:+.4f}")
        lines.append(f"mean\t{self.mean_cnn_f1:.4f}\t{self.mean_acnn_f1:.4f}\t{self.mean_gap:+.4f}")
        return "\n".join(lines)


def _train_arm(arch: str, seed: int, train_seqs, dev_seqs, vocab,
               train_cfg: training.TrainConfig) -> tuple[ArmResult, Model]:
    model = Model.build(model_preset(f"{arch}-toy", vocab_size=len(vocab), seed=seed))
    result = training.train(model, train_seqs, dev_seqs, vocab, train_cfg)
    masks = training.predict_masks(model, dev_seqs, vocab)
    report = evaluate.score(dev_seqs, masks)
    by_kind = evaluate.score_by_kind(dev_seqs, masks)
    return ArmResult(
        arch=arch, seed=seed,
        dev_f1=report.f1 if report.f1 is not None else 0.0,
        per_kind_f1={k: r.f1 for k, r in by_kind.items()},
        best_epoch=result.best_epoch), model


def ab_bench(preset: str = "rough-copy-hard", seeds=(11, 12, 13),
             train_count: int = 2000, dev_count: int = 500,
             train_cfg: training.TrainConfig | None = None,
             progress=None) -> BenchResult:
    """Train matched CNN and ACNN toy models per seed on a synthetic preset.

    The corpus is generated once from the preset (deterministic); the seeds
    vary parameter initialization, shuffling, and dropout.
    """
    if len(seeds) < 3:
        raise ValueError("ab_bench needs at least 3 seeds for a stable mean")
    gen_cfg = GENERATOR_PRESETS[preset]
    train_seqs = generate_corpus(replace(gen_cfg, sentence_count=train_count,
                                         seed=gen_cfg.seed))
    dev_seqs = generate_corpus(replace(gen_cfg, sentence_count=dev_count,
                                       seed=gen_cfg.seed + 1))
    vocab = build_vocab(train_seqs)
    if train_cfg is None:
        train_cfg = training.TrainConfig(learning_rate=0.002, max_epochs=25, patience=6)
    result = BenchResult(preset=preset, seeds=tuple(seeds))
    for seed in seeds:
        for arch in ("cnn", "acnn"):
            arm, model = _train_arm(arch, seed, train_seqs, dev_seqs, vocab, train_cfg)
            if progress is not None:
                progress(arm)
            if arch == "cnn":
                result.cnn.append(arm)
            else:
                result.acnn.append(arm)
                result.acnn_model = model
    result.vocab = vocab
    result.dev_seqs = dev_seqs
    return result


RANDOM_PAIRS = 2000


def copy_pair_similarity(embeddings: np.ndarray, vocab: Vocabulary,
                         seqs: list[TokenSequence], rng: Rng) -> tuple[float, float]:
    """Mean embedding cosine between aligned reparandum/repair token pairs vs
    between RANDOM_PAIRS random token pairs from the same corpus."""
    norms = np.linalg.norm(embeddings, axis=1)
    unit = embeddings / np.where(norms == 0, 1.0, norms)[:, None]

    def cos(a: int, b: int) -> float:
        return float(unit[a] @ unit[b])

    copy_vals = []
    all_ids = []
    for seq in seqs:
        ids = vocab.encode(seq.tokens)
        all_ids.extend(int(i) for i in ids)
        for s in seq.spans:
            if s.repair is None:
                continue
            rep = ids[s.reparandum[0]:s.reparandum[1]]
            fix = ids[s.repair[0]:s.repair[1]]
            for a, b in zip(rep, fix):
                copy_vals.append(cos(int(a), int(b)))
    rand_vals = []
    for _ in range(RANDOM_PAIRS):
        a = rng.choice(all_ids)
        b = rng.choice(all_ids)
        rand_vals.append(cos(a, b))
    return float(np.mean(copy_vals)), float(np.mean(rand_vals))
