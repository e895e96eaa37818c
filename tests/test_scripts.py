"""Smoke runs of the scripts under scripts/, each as its own process."""

import os
import subprocess
import sys
from pathlib import Path

from acnn import cli

ROOT = Path(__file__).resolve().parents[1]


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
