"""Seeded inputs, traced/untraced parity, the computed operation counts and
the oracle's tolerance."""

import numpy as np
import pytest

import oracle
import spans
import workloads
from acnn import layers, training
from acnn.model import Model, model_preset
from spans import Tracer, instrument


@pytest.mark.parametrize("name", ["train-table1", "tag-cnn-long"])
def test_input_sha256_follows_the_seed(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    first = workloads.setup(workload, 1, 4, tmp_path).sha256
    assert workloads.setup(workload, 1, 4, tmp_path).sha256 == first
    assert workloads.setup(workload, 2, 4, tmp_path).sha256 != first


@pytest.mark.parametrize("name,units", [("train-table1", 2), ("tag-acnn-long", 3)])
def test_traced_and_untraced_runs_do_the_same_work(tmp_path, name, units):
    workload = workloads.WORKLOADS[name]
    plain = workloads.run(workload, 4, units, tmp_path / "plain", setups=1)
    tracer = Tracer()
    with instrument(tracer):
        traced = workloads.run(workload, 4, units, tmp_path / "traced", tracer, setups=1)
    for result in (plain, traced):
        assert result["failed"] == 0, result["errors"]
        assert result["checked"] > 0
    assert traced["tokens"] == plain["tokens"] > 0
    assert len(traced["unit_s"]) == len(plain["unit_s"]) == units
    assert traced["input_sha256"] == plain["input_sha256"]
    if workload.kind == "tag":  # the checked probabilities are predict_masks' own
        assert plain["probs_source"] == traced["probs_source"] == "predict_masks"


def test_operation_counts_on_a_tiny_case():
    n, w, m, c = 2, 2, 3, 1
    # each of the n*c outputs: w*m multiplies, w*m adds, one bias add
    assert spans.conv_forward_flops(n, w, m, c) == 26
    # dA and dwin: 2*n*c*w*m each; db: n*c adds; scatter: n*w*m adds
    assert spans.conv_backward_flops(n, w, m, c) == 24 + 24 + 2 + 12
    # pair: n*w*w*m; A term 2*n*c*w*m; B term 2*n*c*w*w*m; two adds per output
    assert spans.autocorr_forward_flops(n, w, m, c) == 24 + 24 + 48 + 4
    # conv part, dB and dpair (48 each), dpair onto both window sides (48 each),
    # and the two window-gradient adds (12 each)
    assert spans.autocorr_backward_flops(n, w, m, c) == 62 + 96 + 96 + 24

    x = np.arange(n * m, dtype=np.float64).reshape(n, m)
    spec = layers.ConvKernelSpec(0, w - 1)
    _, cache = layers.autocorr_forward(x, spec, np.zeros((c, w, m)),
                                       np.zeros((c, w, w, m)), np.zeros(c))
    assert spans.autocorr_cache_bytes(n, w, m) == 288 == (
        cache.windows.nbytes + cache.pair_windows.nbytes)


def test_oracle_matches_the_model_and_rejects_a_small_change():
    model = Model.build(model_preset("acnn-toy", vocab_size=12, seed=3))
    ids = np.array([3, 5, 7, 5, 3, 2, 11])
    values = {name: p.value for name, p in model.params.items()}
    reference = oracle.forward(values, model.config, ids)
    probs = model.forward(ids, training=False)
    assert oracle.probs_match(probs, reference)
    assert not oracle.probs_match(probs * (1 + 1e-8), reference)


def test_step_check_rejects_a_wrong_gradient(monkeypatch):
    model = Model.build(model_preset("acnn-toy", vocab_size=12, seed=3))
    batch = [(np.array([3, 5, 7, 5, 3]), np.array([0, 1, 1, 0, 0])),
             (np.array([2, 11, 4]), np.array([0, 0, 1]))]
    assert workloads._check_step(model, batch, 1) is None
    monkeypatch.setattr(training, "add_l2_grad", lambda params, weight: None)
    assert "gradient" in workloads._check_step(model, batch, 1)
