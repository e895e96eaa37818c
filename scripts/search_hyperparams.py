#!/usr/bin/env python3
"""Randomized hyperparameter search for the desk-scale models on a synthetic
corpus. Prints a ranked trial table."""

import argparse
from dataclasses import dataclass, replace

from acnn import training
from acnn.bench import ab_corpora
from acnn.data import DISFLUENT, GENERATOR_PRESETS, build_vocab, generate_corpus
from acnn.model import LAYER1_KIND, LayerConfig, Model, ModelConfig
from acnn.tensor import Rng


# The ranges every trial draws from; only the architecture varies per search.
SEARCH_EMBEDDING_DIMS = (16, 32)
SEARCH_CHANNELS = (8, 16)
SEARCH_DROPOUT = (0.1, 0.6)
SEARCH_L2 = (0.0, 0.2)
SEARCH_ELL = (0, 3)
SEARCH_R = (1, 6)
SEARCH_LEARNING_RATES = (0.001, 0.003)


def _sample_trial(arch: str, rng: Rng, vocab_size: int,
                  seed: int) -> tuple[ModelConfig, training.TrainConfig]:
    def group() -> tuple[int, int]:
        ell = int(rng.integers(SEARCH_ELL[0], SEARCH_ELL[1] + 1))
        r = int(rng.integers(SEARCH_R[0], SEARCH_R[1] + 1))
        return (ell, r)

    channels = rng.choice(SEARCH_CHANNELS)
    mcfg = ModelConfig(
        vocab_size=vocab_size,
        embedding_dim=rng.choice(SEARCH_EMBEDDING_DIMS),
        dropout_rate=float(rng.uniform(*SEARCH_DROPOUT)),
        l2_weight=float(rng.uniform(*SEARCH_L2)),
        layers=(LayerConfig(LAYER1_KIND[arch], (group(),), channels),
                LayerConfig("conv", (group(),), channels),
                LayerConfig("conv", (group(),), channels)),
        seed=seed)
    return mcfg, training.TrainConfig(learning_rate=rng.choice(SEARCH_LEARNING_RATES))


@dataclass(frozen=True)
class Trial:
    index: int
    seed: int
    model_config: ModelConfig
    train_config: training.TrainConfig
    dev_f1: float


def random_search(arch: str, budget: int, runner, vocab_size: int,
                  master_seed: int = 0) -> list[Trial]:
    """Sample `budget` configurations, train each via `runner(model_cfg,
    train_cfg) -> dev_f1`, and rank by dev F (descending). Reproducible from
    the master seed; each trial records its own derived seed."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = Rng(master_seed)
    trials = []
    for i in range(budget):
        trial_seed = int(rng.integers(0, 2 ** 31))
        mcfg, tcfg = _sample_trial(arch, rng, vocab_size, trial_seed)
        dev_f1 = runner(mcfg, tcfg)
        trials.append(Trial(index=i, seed=trial_seed, model_config=mcfg,
                            train_config=tcfg, dev_f1=dev_f1))
    return sorted(trials, key=lambda tr: -tr.dev_f1)


def trial_table(trials: list[Trial]) -> str:
    header = "rank\ttrial\tseed\tarch\temb\tchannels\tdropout\tl2\tlr\tdev_f1"
    rows = [header]
    for rank, tr in enumerate(trials, start=1):
        m, t = tr.model_config, tr.train_config
        rows.append(f"{rank}\t{tr.index}\t{tr.seed}\t{m.arch}\t{m.embedding_dim}\t"
                    f"{m.layers[0].channels}\t{m.dropout_rate:.3f}\t{m.l2_weight:.3f}\t"
                    f"{t.learning_rate}\t{tr.dev_f1:.4f}")
    return "\n".join(rows)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--arch", choices=("cnn", "acnn"), default="acnn")
    ap.add_argument("--preset", choices=sorted(GENERATOR_PRESETS), default="toy")
    ap.add_argument("--budget", type=int, default=8)
    ap.add_argument("--train-count", type=int, default=400)
    ap.add_argument("--dev-count", type=int, default=100)
    ap.add_argument("--max-epochs", type=int, default=5)
    ap.add_argument("--master-seed", type=int, default=0)
    args = ap.parse_args()
    for flag, least in (("budget", 1), ("train_count", 1), ("dev_count", 1),
                        ("max_epochs", 1), ("master_seed", 0)):
        if getattr(args, flag) < least:
            ap.error(f"--{flag.replace('_', '-')} must be >= {least}, got {getattr(args, flag)}")

    train_seqs, dev_seqs = map(generate_corpus,
                               ab_corpora(args.preset, args.train_count, args.dev_count))
    vocab = build_vocab(train_seqs)
    # training.train refuses such a dev split too, but only once a trial starts
    if not any(DISFLUENT in seq.labels for seq in dev_seqs):
        ap.exit(2, f"{ap.prog}: error: the {args.dev_count}-sentence dev split has no "
                   f"disfluent token, so dev F is undefined; raise --dev-count\n")

    def runner(mcfg, tcfg) -> float:
        model = Model.build(mcfg)
        tcfg = replace(tcfg, max_epochs=args.max_epochs)
        result = training.train(model, train_seqs, dev_seqs, vocab, tcfg)
        print(f"trial seed {mcfg.seed}: dev F {100 * result.best_f1:.2f}")
        return result.best_f1

    trials = random_search(args.arch, args.budget, runner,
                           vocab_size=len(vocab), master_seed=args.master_seed)
    print()
    print(trial_table(trials))


if __name__ == "__main__":
    main()
