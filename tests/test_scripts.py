"""The scripts under scripts/: their experiments' code, loaded as modules, and
smoke and usage-error runs of each as its own process."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from acnn import cli
from acnn.tensor import Rng

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    """scripts/<name>.py as a module; scripts/ is not a package, and each
    script's main() runs only under its __main__ guard."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SH = load_script("search_hyperparams")
EH = load_script("embedding_heatmap")


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_embedding_heatmap(tmp_path):
    corpus = tmp_path / "corpus"
    ckpt = tmp_path / "m.ckpt"
    assert cli.main(["synth", "--preset", "toy", "--out", str(corpus), "--train-count", "30",
                     "--dev-count", "10", "--test-count", "1"]) == cli.EXIT_OK
    assert cli.main(["train", "--preset", "acnn-toy", "--train", str(corpus / "train.bt"),
                     "--dev", str(corpus / "dev.bt"), "--out", str(ckpt),
                     "--max-epochs", "1"]) == cli.EXIT_OK
    proc = run_script("embedding_heatmap.py", "--checkpoint", str(ckpt),
                      "--sentence", "the [ big + big ] dog")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "the big big dog"
    assert len(lines) == 5 and all(len(line.split()) == 4 for line in lines[1:])


def test_search_hyperparams():
    proc = run_script("search_hyperparams.py", "--budget", "1", "--train-count", "30",
                      "--dev-count", "10", "--max-epochs", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("rank\ttrial\tseed\tarch")
    assert lines[-1].startswith("1\t0\t")


@pytest.mark.parametrize("args", [
    ["--preset", "nope"],
    ["--budget", "0"],
    ["--train-count", "0"],
    ["--dev-count", "-1"],
    ["--max-epochs", "0"],
    ["--master-seed", "-1"],
], ids=lambda args: "-".join(args).lstrip("-"))
def test_search_hyperparams_bad_flag_is_usage_error(args):
    proc = run_script("search_hyperparams.py", *args)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("sentence", ["the [ big dog", "a + b", "] x"],
                         ids=["unclosed-bracket", "bare-plus", "stray-close"])
def test_embedding_heatmap_malformed_sentence_is_usage_error(tmp_path, sentence):
    # refused before the checkpoint is read, so none need exist
    proc = run_script("embedding_heatmap.py", "--checkpoint", str(tmp_path / "none.ckpt"),
                      "--sentence", sentence)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and "--sentence" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_search_hyperparams_dev_split_without_disfluency_refused():
    # the toy preset's first dev sentence is fluent; refused before any trial
    proc = run_script("search_hyperparams.py", "--budget", "1", "--train-count", "30",
                      "--dev-count", "1", "--max-epochs", "1")
    assert proc.returncode == 2
    assert "no disfluent token" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("content", [None, b"ACNNCKPT\x01\x00\x00\x00"],
                         ids=["missing", "truncated"])
def test_embedding_heatmap_unreadable_checkpoint_is_data_error(tmp_path, content):
    ckpt = tmp_path / "m.ckpt"
    if content is not None:
        ckpt.write_bytes(content)
    proc = run_script("embedding_heatmap.py", "--checkpoint", str(ckpt),
                      "--sentence", "the [ big + big ] dog")
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and str(ckpt) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


class TestRandomSearch:
    def test_budget_one(self):
        trials = SH.random_search("acnn", 1, lambda m, t: 0.5, vocab_size=20)
        assert len(trials) == 1
        assert trials[0].dev_f1 == 0.5

    def test_reproducible_sampling(self):
        a = SH.random_search("acnn", 4, lambda m, t: 0.0, 20, master_seed=3)
        b = SH.random_search("acnn", 4, lambda m, t: 0.0, 20, master_seed=3)
        assert [tr.model_config for tr in a] == [tr.model_config for tr in b]
        assert [tr.seed for tr in a] == [tr.seed for tr in b]

    def test_ranked_by_dev_f1(self):
        scores = iter([0.2, 0.9, 0.5])
        trials = SH.random_search("acnn", 3, lambda m, t: next(scores), 20)
        assert [tr.dev_f1 for tr in trials] == [0.9, 0.5, 0.2]
        assert trials[0].index == 1

    def test_samples_within_space(self):
        trials = SH.random_search("cnn", 8, lambda m, t: 0.0, 20, master_seed=1)
        for tr in trials:
            m = tr.model_config
            assert m.arch == "cnn"
            assert m.seed == tr.seed
            assert m.embedding_dim in SH.SEARCH_EMBEDDING_DIMS
            assert m.layers[0].channels in SH.SEARCH_CHANNELS
            assert all(lc.channels == m.layers[0].channels for lc in m.layers)
            assert SH.SEARCH_DROPOUT[0] <= m.dropout_rate <= SH.SEARCH_DROPOUT[1]
            assert SH.SEARCH_L2[0] <= m.l2_weight <= SH.SEARCH_L2[1]
            for lc in m.layers:
                for ell, r in lc.kernel_groups:
                    assert SH.SEARCH_ELL[0] <= ell <= SH.SEARCH_ELL[1]
                    assert SH.SEARCH_R[0] <= r <= SH.SEARCH_R[1]
            assert tr.train_config.learning_rate in SH.SEARCH_LEARNING_RATES

    def test_trial_table_lists_all(self):
        trials = SH.random_search("acnn", 3, lambda m, t: 0.1, 20)
        table = SH.trial_table(trials)
        assert len(table.splitlines()) == 4

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            SH.random_search("acnn", 0, lambda m, t: 0.0, 20)


class TestHeatmap:
    def embeddings(self):
        rng = Rng(0)
        emb = rng.uniform(-1, 1, (6, 4))
        emb[5] = 0.0  # zero-norm row for the flagging path
        return emb

    def test_symmetric_unit_diagonal(self):
        mat, flagged = EH.similarity_heatmap(self.embeddings(), [0, 1, 2, 3])
        assert flagged == []
        assert np.allclose(mat, mat.T)
        assert np.allclose(np.diag(mat), 1.0)
        assert np.all(mat <= 1.0 + 1e-12) and np.all(mat >= -1.0 - 1e-12)

    def test_identical_tokens_have_similarity_one(self):
        mat, _ = EH.similarity_heatmap(self.embeddings(), [2, 0, 2])
        assert mat[0, 2] == pytest.approx(1.0)

    def test_zero_norm_flagged(self):
        mat, flagged = EH.similarity_heatmap(self.embeddings(), [0, 5, 1])
        assert flagged == [1]
        assert not mat[1, :].any() and not mat[:, 1].any()

    def test_text_rendering(self):
        mat, _ = EH.similarity_heatmap(self.embeddings(), [0, 1])
        text = EH.heatmap_text(mat, tokens=["a", "b"])
        lines = text.splitlines()
        assert lines[0] == "a b"
        assert len(lines) == 3
        assert lines[1].split()[0] == "+1.00"

    def test_pgm_output(self, tmp_path):
        mat, _ = EH.similarity_heatmap(self.embeddings(), [0, 1, 2])
        path = tmp_path / "h.pgm"
        EH.write_heatmap_pgm(mat, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n3 3\n255\n")
        pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
        assert pixels.shape == (9,)
        assert pixels.reshape(3, 3)[0, 0] == 255  # cosine 1.0 -> white
