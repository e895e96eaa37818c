"""CNN-vs-ACNN benchmark on synthetic corpora: matched desk-scale configs that
differ only in the first-layer operator, trained over several seeds."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import evaluate, training
from .data import (GENERATOR_PRESETS, KINDS, TokenSequence, Vocabulary, build_vocab,
                   generate_corpus)
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
    """The arms of one A/B run, per arch ("cnn", "acnn") in seed order, and
    the copy-pair diagnostic."""
    max_epochs: int  # the training recipe's
    arms: dict[str, list[ArmResult]] = field(default_factory=lambda: {"cnn": [], "acnn": []})
    # copy_pair_similarity of the last ACNN arm's embeddings on the dev set
    copy_cosine: float = float("nan")
    random_cosine: float = float("nan")

    def mean_f1(self, arch: str) -> float:
        return float(np.mean([a.dev_f1 for a in self.arms[arch]]))

    @property
    def mean_gap(self) -> float:
        return self.mean_f1("acnn") - self.mean_f1("cnn")

    def mean_kind_f1(self, arch: str, kind: str) -> float:
        vals = [a.per_kind_f1.get(kind) for a in self.arms[arch]]
        vals = [v for v in vals if v is not None]
        return float(np.mean(vals)) if vals else float("nan")

    def report(self) -> str:
        """The per-seed table, each kind's mean F per arch and the copy-pair
        diagnostic: the text `acnn ab-bench` prints and writes. A best epoch
        is marked * where it is the recipe's last, max_epochs: that arm may
        not have converged."""
        def best(arm: ArmResult) -> str:
            return f"{arm.best_epoch}{'*' if arm.best_epoch == self.max_epochs else ''}"

        lines = ["seed\tcnn_f1\tacnn_f1\tgap\tcnn_best\tacnn_best"]
        for c, a in zip(self.arms["cnn"], self.arms["acnn"]):
            lines.append(f"{c.seed}\t{c.dev_f1:.4f}\t{a.dev_f1:.4f}\t{a.dev_f1 - c.dev_f1:+.4f}"
                         f"\t{best(c)}\t{best(a)}")
        lines += [f"mean\t{self.mean_f1('cnn'):.4f}\t{self.mean_f1('acnn'):.4f}\t"
                  f"{self.mean_gap:+.4f}", ""]
        for kind in KINDS:
            lines.append(f"{kind:<12} CNN {100 * self.mean_kind_f1('cnn', kind):6.2f}  "
                         f"ACNN {100 * self.mean_kind_f1('acnn', kind):6.2f}")
        lines += ["", f"copy-pair embedding cosine {self.copy_cosine:.3f} "
                      f"vs random-pair {self.random_cosine:.3f}"]
        return "\n".join(lines)


def preset_corpora(preset: str, train_count: int, dev_count: int,
                   ) -> tuple[list[TokenSequence], list[TokenSequence], Vocabulary]:
    """A generator preset's train corpus, its dev corpus (drawn from the
    preset's seed + 1) and the train corpus's vocabulary."""
    gen_cfg = GENERATOR_PRESETS[preset]
    train_seqs = generate_corpus(replace(gen_cfg, sentence_count=train_count))
    dev_seqs = generate_corpus(replace(gen_cfg, sentence_count=dev_count, seed=gen_cfg.seed + 1))
    return train_seqs, dev_seqs, build_vocab(train_seqs)


def _train_arm(arch: str, seed: int, train_seqs, dev_seqs, vocab,
               train_cfg: training.TrainConfig) -> tuple[ArmResult, Model]:
    model = Model.build(model_preset(f"{arch}-toy", vocab_size=len(vocab), seed=seed))
    result = training.train(model, train_seqs, dev_seqs, vocab, train_cfg)
    by_kind = evaluate.score_by_kind(dev_seqs, training.predict_masks(model, dev_seqs, vocab))
    return ArmResult(
        arch=arch, seed=seed, dev_f1=result.best_f1,
        per_kind_f1={k: r.f1 for k, r in by_kind.items()},
        best_epoch=result.best_epoch), model


# The default training recipe of every arm; `acnn ab-bench` takes its flag
# defaults from it.
AB_TRAIN = training.TrainConfig(learning_rate=0.002, max_epochs=25, patience=6)


def check_seeds(seeds) -> None:
    """Refuse, with a ValueError, fewer than 3 seeds, a repeated seed (it
    trains the same arms again and adds nothing to the mean) or one that Rng
    rejects."""
    if len(seeds) < 3 or len(set(seeds)) < len(seeds):
        raise ValueError("ab-bench needs at least 3 distinct seeds for a stable mean "
                         "(e.g. --seeds 11,12,13)")
    for seed in seeds:
        Rng(seed)


def ab_bench(preset: str, seeds, train_count: int, dev_count: int,
             train_cfg: training.TrainConfig = AB_TRAIN,
             progress=None) -> BenchResult:
    """Train matched CNN and ACNN toy models per seed on a synthetic preset,
    and take the copy-pair diagnostic of the last ACNN arm.

    The corpus is generated once from the preset (deterministic); the seeds
    vary parameter initialization, shuffling, and dropout.
    """
    check_seeds(seeds)
    train_seqs, dev_seqs, vocab = preset_corpora(preset, train_count, dev_count)
    result = BenchResult(max_epochs=train_cfg.max_epochs)
    for seed in seeds:
        for arch in ("cnn", "acnn"):
            arm, model = _train_arm(arch, seed, train_seqs, dev_seqs, vocab, train_cfg)
            if progress is not None:
                progress(arm)
            result.arms[arch].append(arm)
    # each seed trains its ACNN arm last, so `model` is the last ACNN arm
    result.copy_cosine, result.random_cosine = copy_pair_similarity(
        model.params["embedding"].value, vocab, dev_seqs, Rng(99))
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
