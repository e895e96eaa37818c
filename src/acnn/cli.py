"""Command-line entry point: corpus synthesis, training, tagging, evaluation,
gradient checking, and the CNN-vs-ACNN benchmark.

synth, train, tag and ab-bench write a run manifest (JSON, atomic) next to
their primary output, and eval does with --out, so a run can be reproduced
bit-for-bit (float64, fixed OPENBLAS_NUM_THREADS); gradcheck writes nothing.
Each of them keeps its record in one _RunRecord, which first refuses the
outputs that atomic.check_outputs rejects. An input path names exactly the file
given. The package reads no environment variable to decide anything; a
manifest records the BLAS thread settings the process saw (_environment).
A command prints its results only once its outputs and manifest are written,
so a stdout closed early (`| head -1`) leaves them whole; ab-bench's progress
lines, one per trained arm, are printed before.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure. A data
error is one of the exceptions raised where inputs are read and checked
(CorpusFormatError, AlignmentError, CheckpointError, ConfigError, OSError);
a numeric failure is a NumericError or a numpy float overflow, division by
zero or invalid operation; any other exception is a program error and
propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bench, data, evaluate, training
from .atomic import atomic_open, check_outputs
from .model import (LAYER1_KIND, MODEL_PRESETS, Checkpoint, LayerConfig, Model,
                    ModelConfig, CheckpointError, ConfigError, load_checkpoint,
                    model_preset, param_count, save_checkpoint)
from .tensor import GradCheckReport, NumericError, Rng, grad_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


@contextmanager
def _flag_values():
    """Configs and output paths built from flag values: a value they reject
    (a ValueError) is a usage error."""
    try:
        yield
    except ValueError as exc:  # ConfigError included
        raise UsageError(str(exc)) from exc


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_path(primary_output) -> Path:
    return Path(str(primary_output) + ".manifest.json")


def _write_text(path, text: str) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _environment() -> dict:
    """What a run's bytes depend on beside its inputs, config and seed: numpy's
    version, its BLAS library's name and version, OPENBLAS_NUM_THREADS and
    OMP_NUM_THREADS as this process saw them (None when unset), and the number
    of CPUs the process may use. A matmul's rounding can change with any of
    them."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    # sched_getaffinity counts the CPUs this process may run on, where the OS has it
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version")},
            "threads_env": {key: os.environ.get(key)
                            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "cpus": cpus}


class _RunRecord:
    """The run record of one command, made before any work. It refuses bad
    outputs (atomic.check_outputs, the manifest next to `primary` included)
    and starts one clock. `lap` times a phase from the previous mark; `write`,
    once the outputs exist, writes the manifest: the command, its config and
    seed, the RNG algorithm, the sha256 of every input and output, the
    environment (_environment), and the timings in seconds, total_sec last."""

    def __init__(self, command: str, primary, inputs: dict, outputs: dict):
        with _flag_values():  # an output that replaces another path is a usage error
            check_outputs(inputs, {**outputs, "manifest": _manifest_path(primary)})
        self.command, self.primary = command, primary
        self.inputs, self.outputs = inputs, outputs
        self.timings: dict[str, float] = {}
        self._start = self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.timings[f"{phase}_sec"] = now - self._mark
        self._mark = now

    def write(self, config: dict, seed: int) -> None:
        def digests(paths: dict) -> dict[str, str]:
            return {str(Path(path)): _sha256(path) for path in paths.values()}

        manifest = {"command": self.command, "config": config, "seed": seed,
                    "rng_algorithm": Rng.ALGORITHM, "inputs": digests(self.inputs),
                    "outputs": digests(self.outputs), "environment": _environment()}
        # total_sec is read after the hashing, so it covers every other timing
        manifest["timings"] = {**self.timings, "total_sec": time.perf_counter() - self._start}
        _write_text(_manifest_path(self.primary),
                    json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

DEFAULT_SPLITS = {"switchboard-like": (3000, 500, 500),
                  "rough-copy-hard": (2000, 500, 500),
                  "toy": (200, 50, 50)}


def cmd_synth(args) -> int:
    cfg = data.GENERATOR_PRESETS[args.preset]
    counts = dict(zip(("train", "dev", "test"), DEFAULT_SPLITS[args.preset]))
    for split in counts:
        override = getattr(args, f"{split}_count")
        if override is not None:
            counts[split] = override
    with _flag_values():
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        master = Rng(cfg.seed)
        split_cfgs = [replace(cfg, seed=master.spawn(i).seed, sentence_count=count)
                      for i, count in enumerate(counts.values())]
    out_dir = Path(args.out)
    paths = {split: out_dir / f"{split}.bt" for split in counts}
    record = _RunRecord("synth", out_dir / "corpus", {},
                        {f"{split} split": path for split, path in paths.items()})
    for (split, count), split_cfg in zip(counts.items(), split_cfgs):
        data.write_corpus(data.generate_corpus(split_cfg), paths[split], "bracket-text")
        record.lap(split)
    record.write({"preset": args.preset, "generator": dataclasses.asdict(cfg),
                  "counts": counts}, cfg.seed)
    for split, count in counts.items():
        print(f"wrote {paths[split]} ({count} sentences)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    out = Path(args.out)
    log_path = Path(args.log) if args.log else out.with_suffix(".log")
    train_path, dev_path = Path(args.train), Path(args.dev)
    record = _RunRecord("train", out, {"training corpus": train_path, "dev corpus": dev_path},
                        {"checkpoint": out, "log": log_path})
    with _flag_values():  # before any corpus is read; the vocabulary size comes after
        mcfg = model_preset(args.preset, vocab_size=2, seed=args.seed)
        tcfg = training.TrainConfig(batch_size=args.batch_size, learning_rate=args.lr,
                                    max_epochs=args.max_epochs, patience=args.patience)
    if args.min_freq < 1:
        raise UsageError(f"--min-freq must be >= 1, got {args.min_freq}")
    train_seqs = data.read_sentences(train_path, args.format)
    dev_seqs = data.read_sentences(dev_path, args.format)
    record.lap("read")
    vocab = data.build_vocab(train_seqs, min_freq=args.min_freq)
    record.lap("vocabulary")
    mcfg = replace(mcfg, vocab_size=len(vocab))
    model = Model.build(mcfg)
    record.lap("build")
    result = training.train(model, train_seqs, dev_seqs, vocab, tcfg)
    record.lap("train")

    ckpt = Checkpoint(config=mcfg, vocab_words=vocab.words,
                      rng_algorithm=Rng.ALGORITHM, seed=mcfg.seed,
                      step=result.steps,
                      tensors={name: p.value for name, p in model.params.items()})
    save_checkpoint(ckpt, out)
    _write_text(log_path, "\n".join(line.format() for line in result.log) + "\n")
    record.lap("save")
    record.write({"model": mcfg.to_dict(), "train": dataclasses.asdict(tcfg),
                  "preset": args.preset,
                  "min_freq": args.min_freq, "format": args.format},
                 args.seed)
    best = result.log[result.best_epoch - 1]
    print(f"best epoch {best.epoch}: dev {best.dev.format_prf()}")
    print(param_count(model.params).format())
    return EXIT_OK


# ---------------------------------------------------------------------------
# tag
# ---------------------------------------------------------------------------

def cmd_tag(args) -> int:
    ckpt_path, input_path = Path(args.checkpoint), Path(args.input)
    out = Path(args.out)
    record = _RunRecord("tag", out, {"checkpoint": ckpt_path, "input": input_path},
                        {"output": out})
    ckpt = load_checkpoint(ckpt_path)
    model = ckpt.build_model()
    record.lap("load")
    seqs = data.read_sentences(input_path, args.format)
    masks = training.predict_masks(model, seqs, data.Vocabulary(words=ckpt.vocab_words))
    tagged = [data.TokenSequence(
        tokens=s.tokens,
        labels=[data.DISFLUENT if m else data.FLUENT for m in mask])
        for s, mask in zip(seqs, masks)]
    record.lap("tag")
    data.write_corpus(tagged, out, "tabular")
    record.lap("write")
    record.write({"format": args.format}, ckpt.seed)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    if args.errors < 0:
        raise UsageError(f"--errors must be >= 0, got {args.errors}")
    gold_path, predicted_path = Path(args.gold), Path(args.predicted)
    record = _RunRecord("eval", args.out, {"gold corpus": gold_path,
                                           "predicted corpus": predicted_path},
                        {"report": args.out}) if args.out else None
    lap = record.lap if record else lambda phase: None
    gold = data.read_corpus(gold_path, args.gold_format)
    predicted = data.read_corpus(predicted_path, "tabular")
    tokens = [seq.tokens for seq in predicted]
    # The gold corpus as written, else as `acnn tag` reads its input. Both
    # match only when preprocessing changes no token, and then they are alike.
    if [seq.tokens for seq in gold] != tokens:
        gold = data.read_sentences(gold_path, args.gold_format)
        if [seq.tokens for seq in gold] != tokens:
            raise evaluate.AlignmentError(
                "gold tokens match the predicted file's neither as written nor "
                "preprocessed; tag the gold corpus itself")
    lap("read")
    masks = [seq.disfluent_mask() for seq in predicted]
    report = evaluate.score(gold, masks)
    printed = [report.format(), report.as_tsv()]
    if any(seq.spans for seq in gold):
        printed += [f"kind:{kind}\tF={evaluate.format_percent(kr.f1)}"
                    for kind, kr in sorted(evaluate.score_by_kind(gold, masks).items())]
    if args.errors:
        listing = evaluate.error_listing(gold, masks, args.errors)
        if listing:
            printed.append(listing)
    lap("score")
    if record:
        _write_text(args.out, report.as_tsv() + "\n")
        record.write({"gold_format": args.gold_format}, 0)
    print("\n".join(printed))
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def gradcheck_config(arch: str, seed: int) -> ModelConfig:
    """The small 3-layer model that `acnn gradcheck` checks: vocabulary 16,
    embedding 5, 4 channels, and a layer geometry with an ell=0 group."""
    return ModelConfig(
        vocab_size=16, embedding_dim=5,
        dropout_rate=0.0, l2_weight=0.05, seed=seed,
        layers=(LayerConfig(LAYER1_KIND[arch], ((1, 2), (2, 1)), 4),
                LayerConfig("conv", ((1, 1),), 4),
                LayerConfig("conv", ((0, 1),), 4)))


def gradcheck_model(cfg: ModelConfig, tol: float = 1e-4) -> list[tuple[str, GradCheckReport]]:
    """Finite-difference check, at grad_check's step, of every parameter
    tensor of a model built from cfg, on one packed training step over a
    6-token, a 1-token and a 4-token sentence drawn from cfg.seed + 1, so that
    autocorr's bands gather rows that do not start the pass. Dropout, at
    cfg's rate (none for gradcheck_config's), draws from a stream made afresh
    from cfg.seed + 2 at each loss evaluation, so that every one sees the
    same mask. The analytic gradients come from one
    training.batch_loss_and_grads call; each finite-difference evaluation
    runs the forward pass alone, for the same loss in the same float order."""
    model = Model.build(cfg)
    rng = Rng(cfg.seed + 1)
    batch = []
    for n in (6, 1, 4):
        ids = rng.integers(2, cfg.vocab_size, size=n)
        labels = rng.integers(0, 2, size=n)
        batch.append((np.asarray(ids), np.asarray(labels)))
    training.batch_loss_and_grads(model, batch, training=True, rng=Rng(cfg.seed + 2))
    analytic = {name: p.grad.copy() for name, p in model.params.items()}
    lengths = [len(ids) for ids, _ in batch]
    ids, label_ids = (np.concatenate(column) for column in zip(*batch))

    def loss_fn(_=None) -> float:
        probs = model.forward(ids, training=True, rng=Rng(cfg.seed + 2), lengths=lengths)
        loss, _ = training.cross_entropy(probs, label_ids)
        # add_l2 also adds onto output.W's gradient, copied into `analytic` above
        return loss + training.add_l2(model.params, cfg.l2_weight)

    results = []
    for name, p in model.params.items():
        report = grad_check(loss_fn, p.value, analytic[name], tol=tol)
        results.append((name, report))
    return results


def cmd_gradcheck(args) -> int:
    if not 0.0 < args.tol < math.inf:
        raise UsageError(f"--tol must be finite and positive, got {args.tol}")
    with _flag_values():
        cfg = gradcheck_config(args.arch, args.seed)
    results = gradcheck_model(cfg, tol=args.tol)
    print(f"{'tensor':<24}{'coords':>8}  {'max_rel_err':>12}  status")
    ok = True
    for name, report in results:
        status = "pass" if report.ok else "FAIL"
        ok = ok and report.ok
        print(f"{name:<24}{report.checked:>8}  {report.max_rel_error:>12.3e}  {status}")
    if not ok:
        raise NumericError("gradient check failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ab-bench
# ---------------------------------------------------------------------------

def cmd_ab_bench(args) -> int:
    with _flag_values():
        corpora = bench.ab_corpora(args.preset, args.train_count, args.dev_count)
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        bench.check_seeds(seeds)
        tcfg = training.TrainConfig(learning_rate=args.lr, max_epochs=args.max_epochs,
                                    patience=args.patience)
    record = _RunRecord("ab-bench", args.out, {}, {"report": args.out})

    def progress(arm):
        print(f"seed {arm.seed} {arm.arch}: dev F {100 * arm.dev_f1:.2f} "
              f"(best epoch {arm.best_epoch})")
        record.lap(f"{arm.arch}_seed{arm.seed}")  # the first arm's includes the corpora

    result = bench.ab_bench(*corpora, seeds=seeds, train_cfg=tcfg, progress=progress)
    report = result.report()
    _write_text(args.out, report + "\n")
    record.write({"preset": args.preset, "seeds": seeds, "train_count": args.train_count,
                  "dev_count": args.dev_count, "train": dataclasses.asdict(tcfg)}, seeds[0])
    print(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="acnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--preset", choices=sorted(data.GENERATOR_PRESETS),
                   default="switchboard-like")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--train-count", type=int, default=None)
    p.add_argument("--dev-count", type=int, default=None)
    p.add_argument("--test-count", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--preset", choices=MODEL_PRESETS, required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--format", choices=("bracket-text", "tabular"),
                   default="bracket-text")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-freq", type=int, default=1)
    train_defaults = training.TrainConfig()
    p.add_argument("--lr", type=float, default=train_defaults.learning_rate)
    p.add_argument("--batch-size", type=int, default=train_defaults.batch_size)
    p.add_argument("--max-epochs", type=int, default=train_defaults.max_epochs)
    p.add_argument("--patience", type=int, default=train_defaults.patience)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="label a file with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("bracket-text", "tabular"),
                   default="bracket-text")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--gold", required=True)
    p.add_argument("--predicted", required=True)
    p.add_argument("--gold-format", choices=("bracket-text", "tabular"),
                   default="bracket-text")
    p.add_argument("--errors", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of a toy model")
    p.add_argument("--arch", choices=("cnn", "acnn"), default="acnn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ab-bench", help="CNN vs ACNN benchmark on synthetic data")
    p.add_argument("--preset", choices=sorted(data.GENERATOR_PRESETS),
                   default="rough-copy-hard")
    p.add_argument("--seeds", default="11,12,13")
    p.add_argument("--train-count", type=int, default=2000)
    p.add_argument("--dev-count", type=int, default=500)
    p.add_argument("--max-epochs", type=int, default=bench.AB_TRAIN.max_epochs)
    p.add_argument("--patience", type=int, default=bench.AB_TRAIN.patience)
    p.add_argument("--lr", type=float, default=bench.AB_TRAIN.learning_rate)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ab_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a float overflow, division by zero or invalid operation stops the
        # command at once, as one numeric error rather than warnings
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except UsageError as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, data.CorpusFormatError, evaluate.AlignmentError,
            CheckpointError, ConfigError) as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, FloatingPointError) as exc:
        print(f"error:numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
