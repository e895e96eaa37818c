"""End-to-end acceptance checks. Each test is one numbered criterion and
prints a single CRITERION line so a log scan shows pass/fail per item.

The slow shared piece (the 3-seed CNN-vs-ACNN benchmark) runs once as a
module-scoped fixture and feeds criteria 4, 5, and 10.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

from acnn import bench, cli, data, evaluate, layers as L, model as M
from acnn.tensor import Rng

from corpus_stats import disfluent_token_rate, distance_histogram, exact_copy_rate


def report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}",
          file=sys.stderr)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ab_result():
    return bench.ab_bench(*bench.ab_corpora("rough-copy-hard", 2000, 500),
                          seeds=(11, 12, 13))


def test_criterion_01_reduction_invariant():
    vocab_size, seed = 60, 4
    acnn = M.Model.build(M.model_preset("acnn-toy", vocab_size, seed))
    cnn = M.Model.build(M.model_preset("cnn-toy", vocab_size, seed))
    shared = {k: v for k, v in acnn.params.values_copy().items()
              if not k.endswith(".B")}
    cnn.params.load_values(shared)
    for name, p in acnn.params.items():
        if name.endswith(".B"):
            p.value[...] = 0.0
    rng = Rng(99)
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 25))
        ids = rng.integers(0, vocab_size, size=n)
        ok = ok and np.array_equal(acnn.forward(ids), cnn.forward(ids))
    report(1, ok, "ACNN with zeroed B bitwise-equals matched CNN on 50 "
                  "random sentences")


def test_criterion_02_gradient_correctness():
    worst = 0.0
    ok = True
    for arch in ("cnn", "acnn"):
        # dropout 0.5: the gradient that training steps with, through one mask
        for rate in (0.0, 0.5):
            cfg = replace(cli.gradcheck_config(arch, 0), dropout_rate=rate)
            for name, rep in cli.gradcheck_model(cfg, tol=1e-4):
                ok = ok and rep.ok
                worst = max(worst, rep.max_rel_error)
    report(2, ok, f"every tensor of toy CNN and ACNN passes grad_check on one "
                  f"packed 6+1+4-token training step (incl. ell=0 group, a "
                  f"1-token sentence and gathered band rows), with dropout off "
                  f"and at 0.5; max rel err {worst:.2e}")


def _padded_row(x, t):
    n, m = x.shape
    return x[t] if 0 <= t < n else np.zeros(m)


def _naive_conv(x, spec, A, b):
    n, m = x.shape
    out = np.zeros((n, A.shape[0]))
    for t in range(n):
        for u in range(A.shape[0]):
            acc = 0.0
            for k in range(spec.width):
                row = _padded_row(x, t - spec.ell + k)
                for j in range(m):
                    acc += A[u, k, j] * row[j]
            out[t, u] = acc + b[u]
    return out


def _naive_autocorr(x, spec, A, B, b):
    n, m = x.shape
    out = _naive_conv(x, spec, A, b)
    for t in range(n):
        rows = [_padded_row(x, t - spec.ell + k) for k in range(spec.width)]
        for u in range(A.shape[0]):
            for i in range(spec.width):
                for j in range(spec.width):
                    out[t, u] += float(B[u, i, j] @ (rows[i] * rows[j]))
    return out


def test_criterion_03_operator_oracles():
    rng = Rng(7)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, 9))
        ell = int(rng.integers(0, 4))
        r = int(rng.integers(1, 5))
        c = int(rng.integers(1, 5))
        spec = L.ConvKernelSpec(ell, r)
        x = rng.uniform(-1, 1, (n, m))
        A = rng.uniform(-1, 1, (c, spec.width, m))
        b = rng.uniform(-1, 1, c)
        B = rng.uniform(-1, 1, (c, spec.width, spec.width, m))
        for got, want in (
                (L.conv1d_forward(x, spec, A, b)[0], _naive_conv(x, spec, A, b)),
                (L.autocorr_forward(x, spec, A, B, b)[0],
                 _naive_autocorr(x, spec, A, B, b))):
            scale = max(1.0, float(np.abs(want).max()))
            worst = max(worst, float(np.abs(got - want).max()) / scale)
    report(3, worst <= 1e-12,
           f"conv and autocorr match naive oracles on 100 random instances "
           f"each; worst rel err {worst:.2e}")


@pytest.mark.slow
def test_criterion_04_ab_gap(ab_result):
    gap = ab_result.mean_gap
    acnn = ab_result.mean_f1("acnn")
    ok = gap >= 0.03 and acnn >= 0.85
    report(4, ok, f"rough-copy-hard 3-seed mean dev F: CNN "
                  f"{100 * ab_result.mean_f1('cnn'):.2f}, ACNN {100 * acnn:.2f}, "
                  f"gap {100 * gap:+.2f} (need gap >= +3 and ACNN >= 85)")


@pytest.mark.slow
def test_criterion_05_per_kind_ordering(ab_result):
    a_rep = ab_result.mean_kind_f1("acnn", "repetition")
    a_cor = ab_result.mean_kind_f1("acnn", "correction")
    c_rep = ab_result.mean_kind_f1("cnn", "repetition")
    c_cor = ab_result.mean_kind_f1("cnn", "correction")
    ok = a_rep > a_cor and a_rep >= c_rep and a_cor >= c_cor
    report(5, ok, f"ACNN F(rep) {100 * a_rep:.1f} > F(cor) {100 * a_cor:.1f}; "
                  f"ACNN >= CNN on both (CNN rep {100 * c_rep:.1f}, "
                  f"cor {100 * c_cor:.1f})")


def test_criterion_06_generator_statistics():
    swb = data.generate_corpus(data.GENERATOR_PRESETS["switchboard-like"])
    copy = exact_copy_rate(swb)
    rate = disfluent_token_rate(swb)
    # enough sentences of the correction-heavy preset for >= 10,000 spans
    cfg = replace(data.GENERATOR_PRESETS["rough-copy-hard"],
                  sentence_count=16000, seed=5)
    seqs = data.generate_corpus(cfg)
    n_spans = sum(len(s.spans) for s in seqs)
    got = distance_histogram(seqs)
    want = dict(cfg.distance_histogram)
    hist_err = max(abs(got.get(d, 0.0) - p) for d, p in want.items())
    ok = (abs(copy - 0.60) <= 0.05 and 0.05 <= rate <= 0.08
          and n_spans >= 10000 and hist_err <= 0.03)
    report(6, ok, f"copy rate {copy:.3f} (target 0.60±0.05), disfluent-token "
                  f"rate {rate:.3f} (in [0.05, 0.08]), distance-histogram max "
                  f"bucket err {hist_err:.3f} over {n_spans} spans (<= 0.03)")


def test_criterion_07_data_round_trips():
    cfg = replace(data.GENERATOR_PRESETS["toy"], sentence_count=1000, seed=11)
    seqs = data.generate_corpus(cfg)
    rt_ok = all(
        (lambda p: p.tokens == s.tokens and p.labels == s.labels
         and p.spans == s.spans)(data.parse_annotated(data.write_bracket(s)))
        for s in seqs)
    idem_ok = True
    for s in seqs[:300]:
        once = data.preprocess(s)
        twice = data.preprocess(once)
        idem_ok = idem_ok and once.tokens == twice.tokens \
            and once.labels == twice.labels and once.spans == twice.spans
    ex = data.parse_annotated(
        "i want a flight [ to boston + { uh i mean } to denver ] on friday")
    marked = {t for t, lab in zip(ex.tokens, ex.labels) if lab == data.DISFLUENT}
    ex_ok = marked == {"to", "boston"}
    report(7, rt_ok and idem_ok and ex_ok,
           "1000-sentence bracket round-trip, preprocess idempotence, and the "
           "flight example labeling exactly {to, boston}")


def test_criterion_08_training_determinism(tmp_path):
    """The recipe trains a model that tags disfluencies, so the checkpoint
    bytes it compares hold a model that uses its input."""
    d = tmp_path / "c"
    assert cli.main(["synth", "--preset", "toy", "--out", str(d),
                     "--train-count", "400", "--dev-count", "100",
                     "--test-count", "100"]) == 0
    blobs, logs = [], []
    for sub in ("r1", "r2"):
        ckpt = tmp_path / sub / "m.ckpt"
        assert cli.main(["train", "--preset", "acnn-toy",
                         "--train", str(d / "train.bt"),
                         "--dev", str(d / "dev.bt"), "--out", str(ckpt),
                         "--max-epochs", "6", "--seed", "5"]) == 0
        blobs.append(ckpt.read_bytes())
        logs.append(ckpt.with_suffix(".log").read_text())
    tagged = tmp_path / "dev.tsv"
    assert cli.main(["tag", "--checkpoint", str(tmp_path / "r1" / "m.ckpt"),
                     "--input", str(d / "dev.bt"), "--out", str(tagged)]) == 0
    disfluent = sum(int(s.disfluent_mask().sum())
                    for s in data.read_corpus(tagged, "tabular"))
    ok = blobs[0] == blobs[1] and logs[0] == logs[1] and disfluent > 0
    report(8, ok, "two same-seed cmd_train runs give byte-identical "
                  "checkpoints and identical metric logs; the model tags "
                  f"{disfluent} dev tokens disfluent (need >= 1)")


def test_criterion_09_parameter_count_report():
    reports = {}
    for name in ("cnn-table1", "acnn-table1"):
        cfg = M.model_preset(name, vocab_size=3000)
        reports[name] = M.param_count(M.Model.build(cfg).params)
    cnn_n = reports["cnn-table1"].network
    acnn_n = reports["acnn-table1"].network
    rel = abs(cnn_n - acnn_n) / max(cnn_n, acnn_n)
    ok = rel <= 0.25
    report(9, ok, f"non-embedding params: CNN {cnn_n:,} vs ACNN {acnn_n:,} "
                  f"({100 * rel:.1f}% apart, <= 25%); totals with a "
                  f"3000-word vocabulary: CNN {reports['cnn-table1'].total:,}, "
                  f"ACNN {reports['acnn-table1'].total:,} "
                  f"(reference figure ~4.9M, reported not asserted)")


@pytest.mark.slow
def test_criterion_10_similarity_diagnostic(ab_result):
    copy_mean, rand_mean = ab_result.copy_cosine, ab_result.random_cosine
    margin = copy_mean - rand_mean
    report(10, margin >= 0.1,
           f"copy-pair embedding cosine {copy_mean:.3f} vs random-pair "
           f"{rand_mean:.3f}; margin {margin:+.3f} (need >= +0.1)")
