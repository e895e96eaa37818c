"""The benchmark's workloads: seeded inputs, set-up, the timed loop and
the output checks.

Run as a script, it runs one workload in this process and prints the raw
result as one JSON line. `run.py` starts it in a fresh process with the BLAS
thread count pinned, and turns the raw result into metrics.

    PYTHONPATH=src python3 perfbench/workloads.py --workload train-table1 --seed 1 --seconds 20 --trace 0

Every call into the program goes through a module attribute
(`data.generate_corpus`, `training.predict_masks`, ...), never a name bound
here at import time, so that the traced run sees each call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from acnn import data, training
from acnn import model as acnn_model
from acnn.tensor import Rng

import oracle
from spans import Tracer, instrument, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
BATCH_SIZE = 25
CORPUS_SENTENCES = 400  # train corpus and tag vocabulary corpus
SETUPS = 5              # set-ups per run; setup_s is their median
CHECK_SENTENCES = 5     # a checked step's loss and gradients are recomputed on the
                        # first sentences of its batch: several, so that a batched
                        # path is exercised, and few, as the oracle is slow


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str             # "train": one unit is an optimizer step; "tag": one predict_masks call
    preset: str           # acnn model preset
    corpus: str           # acnn generator preset
    units_per_s: float    # units one second of --seconds buys, calibrated on a
                          # 2-core x86 machine; fixes the work of every run
    check_every: int      # units i with i % check_every == 0 are checked against the oracle


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("train-table1", "train", "acnn-table1", "switchboard-like", 0.45, 3),
    Workload("tag-acnn-long", "tag", "acnn-table1", "switchboard-like", 11.0, 16),
    Workload("tag-cnn-long", "tag", "cnn-table1", "switchboard-like", 13.0, 16),
)}


def units_for(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds * workload.units_per_s))


@dataclass
class Inputs:
    """What a set-up hands to the timed loop."""
    model: acnn_model.Model
    vocab: data.Vocabulary
    sentences: list        # train: (ids, label ids) per sentence
    utterances: list       # tag: TokenSequence per unit
    sha256: str


def _label_ids(seq: data.TokenSequence) -> np.ndarray:
    return np.array([lab == data.DISFLUENT for lab in seq.labels], dtype=np.int64)


def _read_back(seqs, path: Path):
    """Write generated sentences to a corpus file and read them back, as the
    CLI's synth/train pair does. Returns the preprocessed sequences and the
    file's bytes."""
    data.write_corpus(seqs, path, "bracket-text")
    return [data.preprocess(s) for s in data.read_corpus(path, "bracket-text")], path.read_bytes()


def _utterances(rng: Rng, gen, count: int) -> list[data.TokenSequence]:
    """`count` utterances, each the bracket text of 3-6 generated sentences.
    Each size is used equally often, in seeded order, so that the length mix
    (and with it the median unit time) does not drift from seed to seed."""
    sizes = [3 + i % 4 for i in rng.permutation(count)]
    sents = data.generate_corpus(replace(gen, seed=rng.spawn(1).seed,
                                         sentence_count=sum(sizes)))
    out, pos = [], 0
    for size in sizes:
        text = " ".join(data.write_bracket(s) for s in sents[pos:pos + size])
        out.append(data.parse_annotated(text))
        pos += size
    return out


def setup(workload: Workload, seed: int, units: int, workdir: Path) -> Inputs:
    """Generate the inputs of one run from `seed` and build the model."""
    master = Rng(seed)
    gen = data.GENERATOR_PRESETS[workload.corpus]
    corpus = data.generate_corpus(replace(gen, seed=master.spawn(1).seed,
                                          sentence_count=CORPUS_SENTENCES))
    corpus, corpus_bytes = _read_back(corpus, workdir / "corpus.bt")
    vocab = data.build_vocab(corpus)
    config = replace(acnn_model.model_preset(workload.preset, len(vocab)),
                     seed=master.spawn(2).seed)
    model = acnn_model.Model.build(config)
    digest = hashlib.sha256(corpus_bytes)
    sentences, utterances = [], []
    if workload.kind == "train":
        sentences = [(vocab.encode(s.tokens), _label_ids(s)) for s in corpus]
    else:
        utterances = _utterances(master.spawn(3), gen, units)
        utterances, utt_bytes = _read_back(utterances, workdir / "utterances.bt")
        digest.update(utt_bytes)
        # A tagger starts from the checkpoint file alone, so the built model
        # is dropped before the load.
        ckpt_path = workdir / "model.ckpt"
        acnn_model.save_checkpoint(acnn_model.Checkpoint(
            config=config, vocab_words=vocab.words, rng_algorithm=Rng.ALGORITHM,
            seed=config.seed, step=0, tensors=model.params.values_copy()), ckpt_path)
        del model
        ckpt = acnn_model.load_checkpoint(ckpt_path, expect_config=config)
        model = ckpt.build_model()
        vocab = data.Vocabulary(words=ckpt.vocab_words)
    return Inputs(model=model, vocab=vocab, sentences=sentences,
                  utterances=utterances, sha256=digest.hexdigest())


def _values(model) -> dict[str, np.ndarray]:
    return {name: p.value for name, p in model.params.items()}


def _check_step(model, batch, direction_seed) -> str | None:
    """Check the model after an optimizer step, in eval mode, on `batch`
    against the oracle: the first sentence's probabilities, the batch loss, and
    the gradients along one seeded direction by central difference. Returns
    what differs, or None. The gradients it leaves in the store are zeroed by
    the next step."""
    values = _values(model)
    ids = batch[0][0]
    if not oracle.probs_match(model.forward(ids, training=False),
                              oracle.forward(values, model.config, ids)):
        return "probabilities differ from the oracle"
    loss = training.batch_loss_and_grads(model, batch, training=False)
    reference = oracle.batch_loss(values, model.config, batch)
    if not oracle.loss_matches(loss, reference):
        return f"batch loss {loss!r} differs from the oracle's {reference!r}"
    rng = np.random.default_rng(direction_seed)
    direction = {name: rng.standard_normal(v.shape) for name, v in values.items()}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    direction = {name: d / norm for name, d in direction.items()}
    grads = {name: p.grad for name, p in model.params.items()}
    analytic = sum(float((grads[name] * d).sum()) for name, d in direction.items())
    numeric = oracle.directional_derivative(values, model.config, batch, direction)
    grad_norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if abs(numeric - analytic) > oracle.GRAD_TOL * grad_norm:
        return (f"gradient along a seeded direction is {analytic!r}, the oracle's "
                f"central difference {numeric!r}")
    return None


@dataclass
class RunLog:
    unit_s: list = field(default_factory=list)  # time of each completed unit
    tokens: int = 0                             # tokens in the completed units
    failed: int = 0
    checked: int = 0
    probs_source: str | None = None  # tag: where the checked probabilities came from
    errors: list = field(default_factory=list)

    def done(self, seconds: float, tokens: int) -> None:
        self.unit_s.append(seconds)
        self.tokens += tokens

    def fail(self, unit: int, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"unit {unit}: {message}")


def _train_loop(workload, seed, inputs, units, tracer, log: RunLog) -> None:
    master = Rng(seed)
    shuffle, dropout = master.spawn(4), master.spawn(5)
    cfg = training.TrainConfig(batch_size=BATCH_SIZE)
    sentences = inputs.sentences
    order, pos = [], len(sentences)
    for i in range(units):
        if pos + BATCH_SIZE > len(sentences):  # next epoch: drop the partial batch
            order, pos = shuffle.permutation(len(sentences)), 0
        batch = [sentences[j] for j in order[pos:pos + BATCH_SIZE]]
        pos += BATCH_SIZE
        tracer.current_unit = i
        try:
            t0 = time.perf_counter()
            loss = training.batch_loss_and_grads(inputs.model, batch, training=True, rng=dropout)
            training.adam_step(inputs.model.params, i + 1, cfg)
            dt = time.perf_counter() - t0
        except Exception:
            log.fail(i, traceback.format_exc(limit=3))
            continue
        if not math.isfinite(loss):
            log.fail(i, f"non-finite loss {loss}")
            continue
        log.done(dt, sum(len(ids) for ids, _ in batch))
        if i % workload.check_every == 0:
            with tracer.paused():
                try:
                    problem = _check_step(inputs.model, batch[:CHECK_SENTENCES], (seed, i))
                except Exception:
                    log.fail(i, traceback.format_exc(limit=3))
                    continue
            log.checked += 1
            if problem is not None:
                log.fail(i, problem)


def _tag_loop(workload, inputs, tracer, log: RunLog) -> None:
    sampled = []
    for i, seq in enumerate(inputs.utterances):
        tracer.current_unit = i
        try:
            t0 = time.perf_counter()
            masks = training.predict_masks(inputs.model, [seq], inputs.vocab)
            dt = time.perf_counter() - t0
        except Exception:
            log.fail(i, traceback.format_exc(limit=3))
            continue
        if len(masks) != 1 or masks[0].shape != (len(seq.tokens),):
            log.fail(i, "mask shape does not match the utterance")
            continue
        log.done(dt, len(seq.tokens))
        if i % workload.check_every == 0:
            sampled.append((i, seq, masks[0]))
    with tracer.paused():
        try:
            again, probs = _tag_with_probs(inputs, [seq for _, seq, _ in sampled])
        except Exception:
            for i, _, _ in sampled:
                log.fail(i, traceback.format_exc(limit=3))
            return
        values = _values(inputs.model)
        if sampled:
            log.probs_source = "Model.forward" if probs[0] is None else "predict_masks"
        for (i, seq, mask), mask_again, p in zip(sampled, again, probs):
            try:
                ref = oracle.forward(values, inputs.model.config, inputs.vocab.encode(seq.tokens))
                if p is None:  # predict_masks did not go through Model.forward
                    p = inputs.model.forward(inputs.vocab.encode(seq.tokens), training=False)
            except Exception:
                log.fail(i, traceback.format_exc(limit=3))
                continue
            log.checked += 1
            ref_mask = ref.argmax(axis=1) == acnn_model.CLASS_DISFLUENT
            if not oracle.probs_match(p, ref):
                log.fail(i, "probabilities differ from the oracle")
            elif not np.array_equal(mask, ref_mask):
                log.fail(i, "argmax mask of the timed call differs from the oracle")
            elif not np.array_equal(mask_again, ref_mask):
                log.fail(i, "argmax mask of the multi-utterance call differs from the oracle")


def _tag_with_probs(inputs, seqs) -> tuple[list, list]:
    """Tag `seqs` in one predict_masks call and keep the probabilities its
    Model.forward calls return, one array per utterance; None for each if the
    call does not return them that way."""
    model, seen = inputs.model, []

    def forward(*args, **kwargs):
        probs = type(model).forward(model, *args, **kwargs)
        seen.append(probs)
        return probs

    model.forward = forward
    try:
        masks = training.predict_masks(model, seqs, inputs.vocab)
    finally:
        del model.forward
    if len(masks) != len(seqs):
        raise ValueError(f"predict_masks returned {len(masks)} masks for {len(seqs)} utterances")
    if [p.shape[0] for p in seen] != [len(seq.tokens) for seq in seqs]:
        seen = [None] * len(seqs)
    return masks, seen


def run(workload: Workload, seed: int, units: int, workdir: Path,
        tracer: Tracer | None = None, setups: int = SETUPS) -> dict:
    """One run: `setups` set-ups (the last one is used), then `units` timed
    units with output checks outside the timed region. Traced when `tracer`
    is given. Returns the raw result; timings are in seconds."""
    workdir.mkdir(parents=True, exist_ok=True)
    active = tracer if tracer is not None else Tracer()
    setup_s, inputs = [], None
    for r in range(setups):
        active.current_unit = -1 - r
        inputs = None  # let the previous set-up's model go first
        t0 = time.perf_counter()
        inputs = setup(workload, seed, units, workdir)
        setup_s.append(time.perf_counter() - t0)
    log = RunLog()
    if workload.kind == "train":
        _train_loop(workload, seed, inputs, units, active, log)
    else:
        _tag_loop(workload, inputs, active, log)
    result = {
        "workload": workload.name, "seed": seed, "attempted": units,
        "failed": log.failed, "checked": log.checked, "probs_source": log.probs_source,
        "errors": log.errors,
        "tokens": log.tokens, "unit_s": log.unit_s, "setup_s": setup_s,
        "input_sha256": inputs.sha256,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(tracer, units, setups)
    return result


def _os_threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads_env": {k: os.environ.get(k)
                        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "os_threads": _os_threads(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            with instrument(tracer):
                result = run(workload, args.seed, units_for(workload, args.seconds),
                             workdir, tracer)
            out = ROOT / ".perfbench-out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"{workload.name}.spans.npz")
        else:
            result = run(workload, args.seed, units_for(workload, args.seconds), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
