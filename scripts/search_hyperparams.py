#!/usr/bin/env python3
"""Randomized hyperparameter search for the desk-scale models on a synthetic
corpus. Prints a ranked trial table."""

import argparse
from dataclasses import replace

from acnn import training
from acnn.data import GENERATOR_PRESETS, build_vocab, generate_corpus
from acnn.model import Model


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--arch", choices=("cnn", "acnn"), default="acnn")
    ap.add_argument("--preset", default="toy")
    ap.add_argument("--budget", type=int, default=8)
    ap.add_argument("--train-count", type=int, default=400)
    ap.add_argument("--dev-count", type=int, default=100)
    ap.add_argument("--max-epochs", type=int, default=5)
    ap.add_argument("--master-seed", type=int, default=0)
    args = ap.parse_args()

    gen = GENERATOR_PRESETS[args.preset]
    train_seqs = generate_corpus(replace(gen, sentence_count=args.train_count))
    dev_seqs = generate_corpus(replace(gen, sentence_count=args.dev_count,
                                       seed=gen.seed + 1))
    vocab = build_vocab(train_seqs)

    def runner(mcfg, tcfg) -> float:
        model = Model.build(mcfg)
        tcfg = replace(tcfg, max_epochs=args.max_epochs)
        result = training.train(model, train_seqs, dev_seqs, vocab, tcfg)
        print(f"trial seed {mcfg.seed}: dev F {100 * result.best_f1:.2f}")
        return result.best_f1

    trials = training.random_search(
        args.arch, args.budget, runner,
        vocab_size=len(vocab), master_seed=args.master_seed)
    print()
    print(training.trial_table(trials))


if __name__ == "__main__":
    main()
