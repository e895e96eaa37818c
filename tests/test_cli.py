import errno
import hashlib
import io
import json
import os
import re
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from acnn import bench, cli, data, evaluate
from acnn import layers as L
from acnn.model import load_checkpoint, save_checkpoint
from acnn.tensor import NumericError

from gradcheck_table import gradcheck_table


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    code = run("synth", "--preset", "toy", "--out", str(d),
               "--train-count", "80", "--dev-count", "30", "--test-count", "20")
    assert code == cli.EXIT_OK
    return d


@pytest.fixture(scope="module")
def trained(corpus_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("run")
    ckpt = d / "model.ckpt"
    code = run("train", "--preset", "acnn-toy",
               "--train", str(corpus_dir / "train.bt"),
               "--dev", str(corpus_dir / "dev.bt"),
               "--out", str(ckpt), "--max-epochs", "2", "--seed", "3")
    assert code == cli.EXIT_OK
    return ckpt


class TestSynth:
    def test_writes_three_splits(self, corpus_dir):
        for split, count in (("train", 80), ("dev", 30), ("test", 20)):
            path = corpus_dir / f"{split}.bt"
            assert path.exists()
            lines = [l for l in path.read_text().splitlines() if l.strip()]
            assert len(lines) == count

    def test_manifest_written(self, corpus_dir):
        manifest = json.loads((corpus_dir / "corpus.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["rng_algorithm"] == "pcg64"
        for path, digest in manifest["outputs"].items():
            assert cli._sha256(path) == digest

    def test_seed_flag_gives_identical_splits_and_is_recorded(self, tmp_path):
        counts = ("--train-count", "20", "--dev-count", "5", "--test-count", "5")
        a, b, c = (tmp_path / name for name in "abc")
        for seed, d in (("41", a), ("41", b), ("42", c)):
            assert run("synth", "--preset", "toy", "--seed", seed, *counts,
                       "--out", str(d)) == cli.EXIT_OK
        for split in ("train", "dev", "test"):
            assert (a / f"{split}.bt").read_bytes() == (b / f"{split}.bt").read_bytes()
        assert (a / "train.bt").read_bytes() != (c / "train.bt").read_bytes()
        manifest = json.loads((a / "corpus.manifest.json").read_text())
        assert manifest["seed"] == 41
        assert manifest["config"]["generator"]["seed"] == 41

    def test_unknown_preset_is_usage_error(self, tmp_path):
        assert run("synth", "--preset", "nope",
                   "--out", str(tmp_path)) == cli.EXIT_USAGE

    @pytest.fixture
    def no_generation(self, monkeypatch):
        def never(*_, **__):
            pytest.fail("generated a split before the outputs were checked")

        monkeypatch.setattr(cli.data, "generate_corpus", never)

    def test_out_is_a_file_is_data_error(self, no_generation, tmp_path, capsys):
        out = tmp_path / "corpus"
        out.write_text("keep\n")
        assert run("synth", "--preset", "toy", "--out", str(out)) == cli.EXIT_DATA
        assert "not a directory" in capsys.readouterr().err
        assert out.read_text() == "keep\n"

    def test_split_is_a_directory_is_data_error(self, no_generation, tmp_path, capsys):
        (tmp_path / "dev.bt").mkdir()
        assert run("synth", "--preset", "toy", "--out", str(tmp_path)) == cli.EXIT_DATA
        assert "error:data" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dev.bt"]


class TestTrain:
    def test_checkpoint_and_log(self, trained):
        ckpt = load_checkpoint(trained)
        assert ckpt.config.arch == "acnn"
        assert ckpt.rng_algorithm == "pcg64"
        assert ckpt.step > 0
        log = trained.with_suffix(".log").read_text()
        assert log.count("epoch") == 2

    def test_manifest_records_io_hashes(self, trained, corpus_dir):
        manifest = json.loads(
            (trained.parent / "model.ckpt.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert str(corpus_dir / "train.bt") in manifest["inputs"]
        assert manifest["config"]["model"]["layers"][0]["kind"] == "autocorr"

    def test_deterministic_reruns_byte_identical(self, corpus_dir, tmp_path):
        outs = []
        for sub in ("a", "b"):
            ckpt = tmp_path / sub / "m.ckpt"
            code = run("train", "--preset", "cnn-toy",
                       "--train", str(corpus_dir / "train.bt"),
                       "--dev", str(corpus_dir / "dev.bt"),
                       "--out", str(ckpt), "--max-epochs", "2", "--seed", "9")
            assert code == cli.EXIT_OK
            outs.append(ckpt)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (outs[0].with_suffix(".log").read_text()
                == outs[1].with_suffix(".log").read_text())

    def test_best_epoch_line_repeats_the_logs_best(self, corpus_dir, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--preset", "cnn-toy", "--train", str(corpus_dir / "train.bt"),
                   "--dev", str(corpus_dir / "dev.bt"), "--out", str(ckpt),
                   "--max-epochs", "3", "--seed", "4") == cli.EXIT_OK
        best = [line for line in ckpt.with_suffix(".log").read_text().splitlines()
                if line.endswith(" *")][-1]
        epoch, prf = re.fullmatch(r"epoch +(\d+)  loss \S+  (dev P \S+ R \S+ F \S+) \*",
                                  best).groups()
        assert f"best epoch {epoch}: {prf}" in capsys.readouterr().out.splitlines()

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert run("train", "--preset", "cnn-toy",
                   "--train", str(tmp_path / "missing.bt"),
                   "--dev", str(tmp_path / "missing.bt"),
                   "--out", str(tmp_path / "m.ckpt")) == cli.EXIT_DATA

    def test_float_overflow_is_one_numeric_line(self, corpus_dir, tmp_path, capsys):
        """numpy's overflow stops the run as one error line, with no
        RuntimeWarning before it, and nothing is written."""
        assert run("train", "--preset", "cnn-toy", "--train", str(corpus_dir / "train.bt"),
                   "--dev", str(corpus_dir / "dev.bt"), "--out", str(tmp_path / "m.ckpt"),
                   "--lr", "1e300", "--max-epochs", "1") == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("error:numeric: ") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []

    def test_min_freq_that_keeps_no_word_is_data_error(self, corpus_dir, tmp_path, capsys):
        """A --min-freq above every word's count would train an all-<unk>
        model; it is one data error line, and nothing is written."""
        assert run("train", "--preset", "acnn-toy", "--train", str(corpus_dir / "train.bt"),
                   "--dev", str(corpus_dir / "dev.bt"), "--out", str(tmp_path / "m.ckpt"),
                   "--min-freq", "100000") == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:data: ") and err.count("\n") == 1, err
        assert "min_freq" in err
        assert list(tmp_path.iterdir()) == []

    def test_malformed_corpus_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.bt"
        bad.write_text("a [ broken\n")
        assert run("train", "--preset", "cnn-toy", "--train", str(bad),
                   "--dev", str(bad),
                   "--out", str(tmp_path / "m.ckpt")) == cli.EXIT_DATA


class TestTagAndEval:
    @pytest.mark.parametrize("preset", ["acnn-toy", "cnn-toy"])
    def test_checkpoint_tags_dev_to_the_best_epochs_scores(self, preset, corpus_dir,
                                                           tmp_path, capsys):
        """`acnn tag` of the dev corpus with the written checkpoint, then
        `acnn eval`, gives the P/R/F that training reported for its best
        epoch: the loaded model tags as the trained one did. The recipe's
        models tag disfluencies (dev F neither absent nor 0)."""
        ckpt, tagged = tmp_path / "m.ckpt", tmp_path / "dev.tab"
        assert run("train", "--preset", preset, "--train", str(corpus_dir / "train.bt"),
                   "--dev", str(corpus_dir / "dev.bt"), "--out", str(ckpt),
                   "--max-epochs", "6", "--seed", "3", "--lr", "0.005") == cli.EXIT_OK
        best = re.fullmatch(r"best epoch \d+: dev (P \S+ R \S+ F \S+)",
                            capsys.readouterr().out.splitlines()[0]).group(1)
        assert "absent" not in best and not best.endswith("F 0.00"), best
        assert run("tag", "--checkpoint", str(ckpt), "--input", str(corpus_dir / "dev.bt"),
                   "--out", str(tagged)) == cli.EXIT_OK
        assert run("eval", "--gold", str(corpus_dir / "dev.bt"),
                   "--predicted", str(tagged)) == cli.EXIT_OK
        p, r, f = re.fullmatch(r"tp=\d+ fp=\d+ fn=\d+ P=(\S+) R=(\S+) F=(\S+)",
                               capsys.readouterr().out.splitlines()[0]).groups()
        assert f"P {p} R {r} F {f}" == best

    def test_tag_then_eval(self, corpus_dir, trained, tmp_path, capsys):
        tagged = tmp_path / "test.tab"
        assert run("tag", "--checkpoint", str(trained),
                   "--input", str(corpus_dir / "test.bt"),
                   "--out", str(tagged)) == cli.EXIT_OK
        assert tagged.exists()
        assert (tmp_path / "test.tab.manifest.json").exists()
        out_tsv = tmp_path / "report.tsv"
        assert run("eval", "--gold", str(corpus_dir / "test.bt"),
                   "--predicted", str(tagged),
                   "--out", str(out_tsv)) == cli.EXIT_OK
        printed = capsys.readouterr().out
        assert "tp=" in printed
        assert "kind:" in printed
        tsv = out_tsv.read_text()
        assert tsv.startswith("tp\t")

    def test_errors_lists_first_mismatched_sentences(self, tmp_path, capsys):
        gold = tmp_path / "gold.bt"
        gold.write_text("[ a + a ] b\nc d\n[ e + e ] f\ng h\n")
        predicted = tmp_path / "predicted.tab"
        # sentence 0 right, 1 a false alarm, 2 a miss, 3 a false alarm
        predicted.write_text("a\tE\na\t_\nb\t_\n\nc\tE\nd\t_\n\n"
                             "e\t_\ne\t_\nf\t_\n\ng\t_\nh\tE\n\n")
        assert run("eval", "--gold", str(gold), "--predicted", str(predicted),
                   "--errors", "2") == cli.EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert printed[-2:] == ["#1: c/p d", "#2: e/g e f"]

    def test_misaligned_eval_is_data_error(self, corpus_dir, trained, tmp_path, capsys):
        tagged = tmp_path / "dev.tab"
        assert run("tag", "--checkpoint", str(trained),
                   "--input", str(corpus_dir / "dev.bt"),
                   "--out", str(tagged)) == cli.EXIT_OK
        # gold from a different split than the tagged file: tokens differ
        assert run("eval", "--gold", str(corpus_dir / "test.bt"),
                   "--predicted", str(tagged)) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:data: ") and err.count("\n") == 1

    def test_gold_that_needs_preprocessing_scores_without_a_flag(self, trained, tmp_path,
                                                                 capsys):
        """A gold corpus with punctuation, capitals and a partial word is
        scored against its own `acnn tag` output as `acnn tag` read it."""
        gold = tmp_path / "gold.bt"
        gold.write_text("[ The , + the ] dog Bos- barked .\nUh , [ I + I ] went home .\n")
        tagged, report = tmp_path / "gold.tab", tmp_path / "r.tsv"
        assert run("tag", "--checkpoint", str(trained), "--input", str(gold),
                   "--out", str(tagged)) == cli.EXIT_OK
        assert run("eval", "--gold", str(gold), "--predicted", str(tagged),
                   "--out", str(report)) == cli.EXIT_OK
        masks = [seq.disfluent_mask() for seq in data.read_corpus(tagged, "tabular")]
        expected = evaluate.score(data.read_sentences(gold), masks)
        printed = capsys.readouterr().out
        assert printed.splitlines()[0] == expected.format()
        assert "\nkind:repetition\t" in printed
        assert report.read_text() == expected.as_tsv() + "\n"

    def test_missing_checkpoint_is_data_error(self, corpus_dir, tmp_path):
        assert run("tag", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--input", str(corpus_dir / "test.bt"),
                   "--out", str(tmp_path / "o.tab")) == cli.EXIT_DATA

    def test_corrupt_checkpoint_is_data_error(self, corpus_dir, trained, tmp_path):
        broken = tmp_path / "broken.ckpt"
        raw = bytearray(trained.read_bytes())
        raw[0] ^= 0xFF
        broken.write_bytes(bytes(raw))
        assert run("tag", "--checkpoint", str(broken),
                   "--input", str(corpus_dir / "test.bt"),
                   "--out", str(tmp_path / "o.tab")) == cli.EXIT_DATA

    def test_checkpoint_truncated_in_tensor_data_is_data_error(self, corpus_dir, trained,
                                                                tmp_path):
        broken = tmp_path / "broken.ckpt"
        raw = trained.read_bytes()
        broken.write_bytes(raw[: len(raw) // 2])
        assert run("tag", "--checkpoint", str(broken),
                   "--input", str(corpus_dir / "test.bt"),
                   "--out", str(tmp_path / "o.tab")) == cli.EXIT_DATA

    def test_nan_weight_is_numeric_error(self, corpus_dir, trained, tmp_path, capsys):
        """A checkpoint in valid format whose output bias holds a NaN loads,
        but its forward output is not finite: exit 3, and neither the tagged
        file nor its manifest is written."""
        ckpt = load_checkpoint(trained)
        bias = ckpt.tensors["output.b"].copy()
        bias[0] = np.nan
        ckpt.tensors["output.b"] = bias
        broken = tmp_path / "nan.ckpt"
        save_checkpoint(ckpt, broken)
        assert run("tag", "--checkpoint", str(broken),
                   "--input", str(corpus_dir / "test.bt"),
                   "--out", str(tmp_path / "o.tab")) == cli.EXIT_NUMERIC
        assert "error:numeric:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [broken]

    def test_hostile_checkpoint_is_data_error(self, corpus_dir, hostile_checkpoint,
                                              tmp_path):
        assert run("tag", "--checkpoint", str(hostile_checkpoint),
                   "--input", str(corpus_dir / "test.bt"),
                   "--out", str(tmp_path / "o.tab")) == cli.EXIT_DATA

    @pytest.mark.parametrize("flag", ["--input", "--out"])
    def test_directory_path_is_data_error(self, flag, corpus_dir, trained, tmp_path, capsys):
        paths = {"--input": str(corpus_dir / "test.bt"), "--out": str(tmp_path / "o.tab")}
        paths[flag] = str(tmp_path)
        assert run("tag", "--checkpoint", str(trained), "--input", paths["--input"],
                   "--out", paths["--out"]) == cli.EXIT_DATA
        assert "error:data" in capsys.readouterr().err

    def test_non_utf8_corpus_is_data_error(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.bt"
        bad.write_bytes(b"a b \xff\xfe c\n")
        assert run("tag", "--checkpoint", str(trained), "--input", str(bad),
                   "--out", str(tmp_path / "o.tab")) == cli.EXIT_DATA
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["tag", "eval"])
    def test_deep_nesting_is_data_error(self, command, trained, tmp_path, capsys):
        """A line nested past data.MAX_NESTING is a format error naming the
        line, not a RecursionError."""
        deep = tmp_path / "deep.bt"
        deep.write_text("a b\n" + "[ a + " * 600 + "b" + " ]" * 600 + "\n")
        predicted = tmp_path / "p.tab"
        predicted.write_text("a\t_\nb\t_\n\n")
        argv = {"tag": ("--checkpoint", str(trained), "--input", str(deep),
                        "--out", str(tmp_path / "o.tab")),
                "eval": ("--gold", str(deep), "--predicted", str(predicted))}[command]
        assert run(command, *argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{deep}:2: disfluencies nested deeper than {data.MAX_NESTING}" in err
        assert not (tmp_path / "o.tab").exists()

    def test_program_error_is_not_data_error(self, corpus_dir, trained, tmp_path,
                                             monkeypatch):
        """A ValueError from the program itself, not from its inputs, leaves
        cli.main as a traceback rather than an exit 2."""
        def broken(*_, **__):
            raise ValueError("shape bug")

        monkeypatch.setattr(L, "autocorr_forward", broken)
        with pytest.raises(ValueError, match="shape bug"):
            run("tag", "--checkpoint", str(trained),
                "--input", str(corpus_dir / "test.bt"),
                "--out", str(tmp_path / "o.tab"))
        assert not (tmp_path / "o.tab").exists()

    @pytest.mark.parametrize("value", ["-3", "-1"])
    def test_negative_errors_is_usage_error(self, value, corpus_dir, monkeypatch,
                                            capsys):
        def never(*_, **__):
            raise AssertionError("read a corpus after a rejected flag value")

        monkeypatch.setattr(cli.data, "read_corpus", never)
        assert run("eval", "--gold", str(corpus_dir / "test.bt"),
                   "--predicted", str(corpus_dir / "test.bt"),
                   "--errors", value) == cli.EXIT_USAGE
        assert "error:usage" in capsys.readouterr().err


def test_tabular_corpus_runs_like_bracket_text(tmp_path):
    """Training, tagging and scoring a corpus written as tabular give the
    checkpoint, log, tagged file and report of the same corpus in bracket
    text, byte for byte."""
    corpus = tmp_path / "corpus"
    assert run("synth", "--preset", "toy", "--out", str(corpus), "--train-count", "150",
               "--dev-count", "40", "--test-count", "10") == cli.EXIT_OK
    for split in ("train", "dev"):
        data.write_corpus(data.read_corpus(corpus / f"{split}.bt"), corpus / f"{split}.tab",
                          "tabular")
    outputs = {}
    for fmt, suffix in (("bracket-text", "bt"), ("tabular", "tab")):
        train, dev = (corpus / f"{split}.{suffix}" for split in ("train", "dev"))
        ckpt, tagged, report = (tmp_path / fmt / name for name in ("m.ckpt", "dev.tab", "r.tsv"))
        assert run("train", "--preset", "acnn-toy", "--format", fmt, "--train", str(train),
                   "--dev", str(dev), "--out", str(ckpt), "--max-epochs", "2") == cli.EXIT_OK
        assert run("tag", "--checkpoint", str(ckpt), "--format", fmt, "--input", str(dev),
                   "--out", str(tagged)) == cli.EXIT_OK
        assert run("eval", "--gold", str(dev), "--gold-format", fmt, "--predicted",
                   str(tagged), "--out", str(report)) == cli.EXIT_OK
        outputs[fmt] = [path.read_bytes()
                        for path in (ckpt, ckpt.with_suffix(".log"), tagged, report)]
    assert outputs["tabular"] == outputs["bracket-text"]


class TestGradcheck:
    @pytest.mark.parametrize("arch", ["cnn", "acnn"])
    def test_passes_for_both_archs(self, arch):
        """Every tensor's row of the table passes, the embedding's and the
        output layer's among them, and an acnn's lists its pair kernels."""
        code, rows = gradcheck_table(arch)
        assert code == cli.EXIT_OK
        assert rows and all(row[-1] == "pass" for row in rows)
        names = {row[0] for row in rows}
        assert {"embedding", "output.W"} <= names
        assert ({"layer1.group0.B", "layer1.group1.B"} <= names) == (arch == "acnn")

    def test_all_tensors_reported(self):
        code, rows = gradcheck_table("acnn")
        names = [row[0] for row in rows]
        assert "embedding" in names
        assert "layer1.group0.B" in names
        assert "layer1.group1.B" in names
        assert "output.W" in names
        assert code == cli.EXIT_OK and all(row[-1] == "pass" for row in rows)

    def test_detects_broken_gradient(self, monkeypatch, capsys):
        true_backward = L.conv1d_backward

        def broken(cache, A, upstream):
            dx, dA, db = true_backward(cache, A, upstream)
            return dx, dA * 1.01, db

        monkeypatch.setattr(L, "conv1d_backward", broken)
        assert run("gradcheck", "--arch", "cnn") == cli.EXIT_NUMERIC

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--tol", "-1"),
                                            ("--tol", "0"), ("--tol", "nan"),
                                            ("--tol", "inf")])
    def test_rejected_flag_value_is_usage_error(self, flag, value, monkeypatch, capsys):
        def never(*_, **__):
            raise AssertionError("checked gradients after a rejected flag value")

        monkeypatch.setattr(cli, "gradcheck_model", never)
        assert run("gradcheck", flag, value) == cli.EXIT_USAGE
        assert "error:usage" in capsys.readouterr().err


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run() == cli.EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        assert run("synth", "--bogus") == cli.EXIT_USAGE

    def test_eval_preprocess_is_unknown_flag(self, corpus_dir, capsys):
        gold = str(corpus_dir / "test.bt")
        assert run("eval", "--gold", gold, "--predicted", gold,
                   "--preprocess") == cli.EXIT_USAGE
        assert "unrecognized arguments: --preprocess" in capsys.readouterr().err

    def test_ab_bench_too_few_seeds(self, tmp_path):
        assert run("ab-bench", "--seeds", "1,2",
                   "--out", str(tmp_path / "b.tsv")) == cli.EXIT_USAGE

    @pytest.mark.parametrize("seeds", [[11, 11, 11], [11, 12, 13, 12]],
                             ids=["all-repeated", "one-repeated-of-4"])
    def test_ab_bench_repeated_seed(self, seeds):
        """A repeated seed trains the same arms again and adds nothing to the mean."""
        with pytest.raises(ValueError, match="distinct"):
            bench.ab_bench(*bench.ab_corpora("toy", 30, 10), seeds)

    @pytest.mark.parametrize("argv", [
        ("train", "--preset", "cnn-toy", "--lr", "-1"),
        ("train", "--preset", "cnn-toy", "--batch-size", "0"),
        ("train", "--preset", "cnn-toy", "--seed", "-1"),
        ("ab-bench", "--seeds", "a,b,c"),
        ("synth", "--train-count", "0"),
        ("ab-bench", "--preset", "nope"),
        ("ab-bench", "--train-count", "0"),
        ("ab-bench", "--seeds=-1,-2,-3"),
        ("train", "--preset", "cnn-toy", "--max-epochs", "0"),
        ("train", "--preset", "cnn-toy", "--max-epochs", "-3"),
        ("train", "--preset", "cnn-toy", "--lr", "nan"),
        ("train", "--preset", "cnn-toy", "--lr", "inf"),
        ("ab-bench", "--max-epochs", "0"),
        ("ab-bench", "--lr", "nan"),
        ("train", "--preset", "cnn-toy", "--patience", "0"),
        ("train", "--preset", "cnn-toy", "--patience", "-4"),
        ("ab-bench", "--patience", "0"),
        ("train", "--preset", "cnn-toy", "--min-freq", "0"),
        ("train", "--preset", "cnn-toy", "--min-freq", "-3"),
        # small runs, so that a check that lets them through fails quickly
        ("ab-bench", "--seeds", "11,11,11", "--train-count", "30", "--dev-count", "10",
         "--max-epochs", "1"),
        ("ab-bench", "--seeds", "11,12,13,12", "--train-count", "30", "--dev-count", "10",
         "--max-epochs", "1"),
    ], ids=["lr-negative", "batch-size-0", "seed-negative",
            "seeds-not-integers", "train-count-0", "ab-bench-unknown-preset",
            "ab-bench-train-count-0", "ab-bench-seeds-negative", "max-epochs-0",
            "max-epochs-negative", "lr-nan", "lr-inf", "ab-bench-max-epochs-0",
            "ab-bench-lr-nan", "patience-0", "patience-negative",
            "ab-bench-patience-0", "min-freq-0", "min-freq-negative",
            "ab-bench-seed-repeated", "ab-bench-seed-repeated-of-4"])
    def test_rejected_flag_value_is_usage_error(self, argv, corpus_dir, tmp_path, capsys):
        if argv[0] == "train":
            argv += ("--train", str(corpus_dir / "train.bt"),
                     "--dev", str(corpus_dir / "dev.bt"))
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == cli.EXIT_USAGE
        assert "error:usage" in capsys.readouterr().err
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ("--preset", "cnn-toy", "--patience", "0"),
        ("--preset", "cnn-toy", "--seed", "-1"),
        ("--preset", "cnn-toy", "--min-freq", "0"),
    ], ids=["patience-0", "seed-negative", "min-freq-0"])
    def test_train_flags_checked_before_corpora(self, flags, tmp_path, monkeypatch,
                                                capsys):
        def never(*_, **__):
            raise AssertionError("read a corpus before checking the flag values")

        monkeypatch.setattr(cli.data, "read_corpus", never)
        missing = str(tmp_path / "missing.bt")
        assert run("train", *flags, "--train", missing, "--dev", missing,
                   "--out", str(tmp_path / "out")) == cli.EXIT_USAGE
        assert "error:usage" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestAbBench:
    def test_runs_to_completion(self, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        assert run("ab-bench", "--train-count", "30", "--dev-count", "10",
                   "--max-epochs", "1", "--patience", "1",
                   "--out", str(out)) == cli.EXIT_OK
        printed = capsys.readouterr().out
        written = out.read_text()
        for text in (printed, written):
            assert text.count("\n11\t") == 1 and "mean\t" in text
            for kind in data.KINDS:
                assert re.search(rf"^{kind} +CNN +\S+ +ACNN +\S+$", text, re.M), kind
            assert re.search(r"^copy-pair embedding cosine \S+ vs random-pair \S+$",
                             text, re.M)
        # --max-epochs 1: every arm's best epoch is the recipe's last
        assert re.search(r"^11\t\S+\t\S+\t\S+\t1\*\t1\*$", written, re.M)
        manifest = json.loads((tmp_path / "bench.tsv.manifest.json").read_text())
        assert manifest["command"] == "ab-bench"
        assert manifest["config"]["seeds"] == [11, 12, 13]
        assert manifest["outputs"] == {str(out): cli._sha256(out)}

    def test_report_has_best_epochs_marked_at_max_epochs(self):
        def arm(arch, seed, f1, best):
            return bench.ArmResult(arch=arch, seed=seed, dev_f1=f1,
                                   per_kind_f1={}, best_epoch=best)

        result = bench.BenchResult(
            max_epochs=25,
            arms={"cnn": [arm("cnn", 11, 0.88, 13), arm("cnn", 12, 0.86, 25)],
                  "acnn": [arm("acnn", 11, 0.87, 25), arm("acnn", 12, 0.9, 24)]})
        table = result.report().splitlines()[:4]
        assert table == ["seed\tcnn_f1\tacnn_f1\tgap\tcnn_best\tacnn_best",
                         "11\t0.8800\t0.8700\t-0.0100\t13\t25*",
                         "12\t0.8600\t0.9000\t+0.0400\t25*\t24",
                         "mean\t0.8700\t0.8850\t+0.0150"]


class ClosedStdout(io.TextIOBase):
    """A stdout whose reader goes after `kept` lines: every later write
    raises BrokenPipeError."""

    def __init__(self, kept=0):
        self.kept = kept

    def write(self, text):
        if self.kept <= 0:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        self.kept -= text.count("\n")
        return len(text)


class TestClosedStdout:
    """A closed stdout stops a command after its outputs and their manifest
    are written: the run exits 2 (an OSError is a data error), and the
    manifest's sha256 values are the outputs'."""

    def check(self, primary, capsys):
        assert "error:data: " in capsys.readouterr().err
        manifest = json.loads(Path(f"{primary}.manifest.json").read_text())
        assert manifest["outputs"] and all(
            hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest
            for path, digest in manifest["outputs"].items())

    def test_train(self, corpus_dir, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        with redirect_stdout(ClosedStdout()):
            assert run("train", "--preset", "cnn-toy", "--train", str(corpus_dir / "train.bt"),
                       "--dev", str(corpus_dir / "dev.bt"), "--out", str(ckpt),
                       "--max-epochs", "1") == cli.EXIT_DATA
        self.check(ckpt, capsys)

    def test_synth(self, tmp_path, capsys):
        with redirect_stdout(ClosedStdout()):
            assert run("synth", "--preset", "toy", "--out", str(tmp_path), "--train-count", "5",
                       "--dev-count", "3", "--test-count", "2") == cli.EXIT_DATA
        self.check(tmp_path / "corpus", capsys)

    def test_eval(self, corpus_dir, trained, tmp_path, capsys):
        tagged, report = tmp_path / "test.tab", tmp_path / "test.eval.tsv"
        assert run("tag", "--checkpoint", str(trained), "--input", str(corpus_dir / "test.bt"),
                   "--out", str(tagged)) == cli.EXIT_OK
        with redirect_stdout(ClosedStdout()):
            assert run("eval", "--gold", str(corpus_dir / "test.bt"), "--predicted", str(tagged),
                       "--errors", "1000", "--out", str(report)) == cli.EXIT_DATA
        self.check(report, capsys)

    def test_ab_bench_after_its_progress_lines(self, tmp_path, capsys):
        # its six progress lines, one per arm, are printed while it trains
        report = tmp_path / "ab.tsv"
        with redirect_stdout(ClosedStdout(kept=6)):
            assert run("ab-bench", "--train-count", "30", "--dev-count", "10",
                       "--max-epochs", "1", "--patience", "1",
                       "--out", str(report)) == cli.EXIT_DATA
        self.check(report, capsys)


class TestAtomicOutputs:
    def test_train_out_directory_rejected_before_training(self, corpus_dir, tmp_path,
                                                          monkeypatch, capsys):
        def never(*_, **__):
            raise AssertionError("reached after a directory --out")

        monkeypatch.setattr(cli.data, "read_corpus", never)
        monkeypatch.setattr(cli.training, "train", never)
        out = tmp_path / "outdir"
        out.mkdir()
        assert run("train", "--preset", "cnn-toy", "--train", str(corpus_dir / "train.bt"),
                   "--dev", str(corpus_dir / "dev.bt"), "--out", str(out)) == cli.EXIT_DATA
        assert "is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir"]

    def test_failed_checkpoint_replace_leaves_no_tmp(self, corpus_dir, tmp_path,
                                                     monkeypatch, capsys):
        def refuse(src, dst):
            raise PermissionError(f"refused: {src} -> {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        out = tmp_path / "m.ckpt"
        assert run("train", "--preset", "cnn-toy", "--train", str(corpus_dir / "train.bt"),
                   "--dev", str(corpus_dir / "dev.bt"), "--out", str(out),
                   "--max-epochs", "1") == cli.EXIT_DATA
        assert "refused" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_tag_out_directory_leaves_no_tmp(self, corpus_dir, trained, tmp_path):
        out = tmp_path / "o.tab"
        out.mkdir()
        assert run("tag", "--checkpoint", str(trained), "--input", str(corpus_dir / "test.bt"),
                   "--out", str(out)) == cli.EXIT_DATA
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.tab"]


# argv ("{d}" stands for a directory holding train.bt, dev.bt, test.bt, m.ckpt,
# two more copies of test.bt, t.bt.tmp and o.tab.manifest.json.tmp, and an
# empty outdir/), the exit code, and what stderr names
OUTPUT_PATH_CASES = {
    "train-out-is-default-log": (("train", "--preset", "cnn-toy", "--train", "{d}/train.bt",
                                  "--dev", "{d}/dev.bt", "--out", "{d}/m.log"),
                                 cli.EXIT_USAGE, "log"),
    "train-log-is-out": (("train", "--preset", "cnn-toy", "--train", "{d}/train.bt",
                          "--dev", "{d}/dev.bt", "--out", "{d}/m.ckpt", "--log", "{d}/m.ckpt"),
                         cli.EXIT_USAGE, "log"),
    "train-out-is-train": (("train", "--preset", "cnn-toy", "--train", "{d}/train.bt",
                            "--dev", "{d}/dev.bt", "--out", "{d}/train.bt"),
                           cli.EXIT_USAGE, "training corpus"),
    "tag-out-is-input": (("tag", "--checkpoint", "{d}/m.ckpt", "--input", "{d}/test.bt",
                          "--out", "{d}/test.bt"), cli.EXIT_USAGE, "input"),
    "eval-out-is-gold": (("eval", "--gold", "{d}/test.bt", "--predicted", "{d}/dev.bt",
                          "--out", "{d}/test.bt"), cli.EXIT_USAGE, "gold corpus"),
    "ab-bench-out-is-directory": (("ab-bench", "--out", "{d}/outdir"), cli.EXIT_DATA,
                                  "is a directory"),
    "train-out-under-a-file": (("train", "--preset", "cnn-toy", "--train", "{d}/train.bt",
                                "--dev", "{d}/dev.bt", "--out", "{d}/m.ckpt/m.ckpt"),
                               cli.EXIT_DATA, "not a directory"),
    # an output's temporary file (atomic_open) is an input or another output
    "tag-out-tmp-is-input": (("tag", "--checkpoint", "{d}/m.ckpt", "--input", "{d}/t.bt.tmp",
                              "--out", "{d}/t.bt"), cli.EXIT_USAGE, "the input"),
    "train-log-tmp-is-out": (("train", "--preset", "cnn-toy", "--train", "{d}/train.bt",
                              "--dev", "{d}/dev.bt", "--out", "{d}/mm.tmp", "--log", "{d}/mm"),
                             cli.EXIT_USAGE, "the checkpoint"),
    "tag-manifest-tmp-is-input": (("tag", "--checkpoint", "{d}/m.ckpt",
                                   "--input", "{d}/o.tab.manifest.json.tmp",
                                   "--out", "{d}/o.tab"), cli.EXIT_USAGE, "the input"),
}


class TestOutputPaths:
    @pytest.mark.parametrize("case", sorted(OUTPUT_PATH_CASES))
    def test_refused_before_any_work(self, case, corpus_dir, tmp_path, monkeypatch, capsys):
        """An output that would replace an input or another output, or that is
        a directory, is refused before any corpus, checkpoint or benchmark
        work, and nothing is written."""
        def never(*_, **__):
            raise AssertionError("work began before the output paths were checked")

        monkeypatch.setattr(cli.data, "read_corpus", never)
        monkeypatch.setattr(cli, "load_checkpoint", never)
        monkeypatch.setattr(cli.bench, "ab_bench", never)
        for split in ("train", "dev", "test"):
            (tmp_path / f"{split}.bt").write_bytes((corpus_dir / f"{split}.bt").read_bytes())
        for name in ("t.bt.tmp", "o.tab.manifest.json.tmp"):
            (tmp_path / name).write_bytes((corpus_dir / "test.bt").read_bytes())
        (tmp_path / "m.ckpt").write_bytes(b"a checkpoint that is never read")
        (tmp_path / "outdir").mkdir()
        before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
        argv, code, named = OUTPUT_PATH_CASES[case]
        assert run(*(a.format(d=tmp_path) for a in argv)) == code
        assert named in capsys.readouterr().err
        assert {p: p.read_bytes() if p.is_file() else None
                for p in tmp_path.rglob("*")} == before


class TestOutputDirectories:
    def test_eval_out_creates_missing_directory(self, corpus_dir, trained, tmp_path):
        tagged = tmp_path / "test.tab"
        assert run("tag", "--checkpoint", str(trained), "--input", str(corpus_dir / "test.bt"),
                   "--out", str(tagged)) == cli.EXIT_OK
        report = tmp_path / "newdir" / "r.tsv"
        assert run("eval", "--gold", str(corpus_dir / "test.bt"), "--predicted", str(tagged),
                   "--out", str(report)) == cli.EXIT_OK
        assert report.read_text().startswith("tp\t")
        assert (tmp_path / "newdir" / "r.tsv.manifest.json").exists()

    def test_train_log_creates_missing_directory(self, corpus_dir, tmp_path):
        out, log = tmp_path / "m.ckpt", tmp_path / "logs" / "m.log"
        assert run("train", "--preset", "cnn-toy", "--train", str(corpus_dir / "train.bt"),
                   "--dev", str(corpus_dir / "dev.bt"), "--out", str(out),
                   "--log", str(log), "--max-epochs", "1") == cli.EXIT_OK
        assert log.read_text().count("epoch") == 1
        manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
        assert manifest["outputs"][str(log)] == cli._sha256(log)


class TestManifest:
    def test_atomic_write_no_tmp_left_behind(self, tmp_path):
        primary = tmp_path / "out.bin"
        primary.write_bytes(b"output")
        cli._RunRecord("x", primary, {}, {"output": primary}).write({}, 0)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "out.bin.manifest.json"]
        loaded = json.loads((tmp_path / "out.bin.manifest.json").read_text())
        assert loaded["command"] == "x"
        assert loaded["rng_algorithm"] == "pcg64"

    def test_thread_settings_as_seen_and_null_when_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        primary = tmp_path / "out.bin"
        primary.write_bytes(b"output")
        cli._RunRecord("x", primary, {}, {"output": primary}).write({}, 0)
        manifest = json.loads((tmp_path / "out.bin.manifest.json").read_text())
        assert manifest["environment"]["threads_env"] == {"OPENBLAS_NUM_THREADS": "3",
                                                          "OMP_NUM_THREADS": None}


@pytest.fixture(scope="module")
def run_records(tmp_path_factory):
    """One tiny run of each command that writes a manifest: command ->
    (primary output, the input paths, the output paths)."""
    d = tmp_path_factory.mktemp("records")
    splits = [d / f"{split}.bt" for split in ("train", "dev", "test")]
    ckpt, tagged, report, bench = d / "m.ckpt", d / "test.tab", d / "r.tsv", d / "bench.tsv"
    for argv in (("synth", "--preset", "toy", "--out", str(d), "--train-count", "12",
                  "--dev-count", "6", "--test-count", "4"),
                 ("train", "--preset", "acnn-toy", "--train", str(splits[0]),
                  "--dev", str(splits[1]), "--out", str(ckpt), "--max-epochs", "1"),
                 ("tag", "--checkpoint", str(ckpt), "--input", str(splits[2]),
                  "--out", str(tagged)),
                 ("eval", "--gold", str(splits[2]), "--predicted", str(tagged),
                  "--out", str(report)),
                 ("ab-bench", "--train-count", "12", "--dev-count", "6", "--max-epochs", "1",
                  "--patience", "1", "--out", str(bench))):
        assert run(*argv) == cli.EXIT_OK, argv[0]
    return {"synth": (d / "corpus", [], splits),
            "train": (ckpt, splits[:2], [ckpt, d / "m.log"]),
            "tag": (tagged, [ckpt, splits[2]], [tagged]),
            "eval": (report, [splits[2], tagged], [report]),
            "ab-bench": (bench, [], [bench])}


# command -> the phases its manifest times, as run_records runs it
PHASES = {"synth": ["train", "dev", "test"],
          "train": ["read", "vocabulary", "build", "train", "save"],
          "tag": ["load", "tag", "write"],
          "eval": ["read", "score"],
          "ab-bench": [f"{arch}_seed{seed}" for seed in (11, 12, 13) for arch in ("cnn", "acnn")]}


class TestRunRecord:
    @pytest.mark.parametrize("command", ["synth", "train", "tag", "eval", "ab-bench"])
    def test_manifest_records_the_run(self, command, run_records):
        primary, inputs, outputs = run_records[command]
        manifest = json.loads(Path(f"{primary}.manifest.json").read_text())
        assert set(manifest) == {"command", "config", "seed", "inputs", "outputs",
                                 "timings", "rng_algorithm", "environment"}
        assert manifest["command"] == command
        for role, paths in (("inputs", inputs), ("outputs", outputs)):
            assert manifest[role] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()
                                      for path in paths}, role
        timings = manifest["timings"]
        for key, value in timings.items():
            assert key.endswith("_sec"), key
            assert 0.0 <= value <= timings["total_sec"], key

    @pytest.mark.parametrize("command", list(PHASES))
    def test_manifest_times_its_phases(self, command, run_records):
        """One `<phase>_sec` per phase, and the phases, each lapped from the
        end of the one before, take no more than total_sec together."""
        primary, _, _ = run_records[command]
        timings = json.loads(Path(f"{primary}.manifest.json").read_text())["timings"]
        assert set(timings) == {f"{phase}_sec" for phase in PHASES[command]} | {"total_sec"}
        assert sum(v for key, v in timings.items() if key != "total_sec") <= timings["total_sec"]

    @pytest.mark.parametrize("command", ["synth", "train", "tag", "eval", "ab-bench"])
    def test_manifest_records_what_the_bytes_depend_on(self, command, run_records):
        """numpy's version, the BLAS library numpy reports, both BLAS thread
        variables as the process saw them (null when unset) and the CPUs the
        process may use."""
        primary, _, _ = run_records[command]
        env = json.loads(Path(f"{primary}.manifest.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert all(isinstance(value, str) for value in env["blas"].values())
        assert env["threads_env"] == {key: os.environ.get(key)
                                      for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        assert env["cpus"] == len(os.sched_getaffinity(0)) >= 1
