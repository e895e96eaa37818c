"""Span coverage: every per-layer metric fires on each workload where the
layer is on the path, and reads 0 where it is not. A name wrapped at the
wrong binding shows here as a metric that never fires."""

import json

import pytest

import acnn.model
import acnn.training
import workloads
from conftest import ROOT
from spans import Tracer, instrument

ALL = frozenset(workloads.WORKLOADS)
TRAIN = frozenset({"train-table1"})
TAG = frozenset({"tag-acnn-long", "tag-cnn-long"})
ACNN = frozenset({"train-table1", "tag-acnn-long"})

# metric name prefix -> workloads on which it must be non-zero
EXPECTED = {
    "layers.autocorr_forward.": ACNN,
    "layers.autocorr_backward.": ACNN & TRAIN,
    "layers.conv1d_forward.": ALL,
    "layers.conv1d_backward.": TRAIN,
    "layers.width1_forward.": ALL,
    "layers.width1_backward.": TRAIN,
    "layers.softmax_rows.": ALL,
    "layers.relu.": ALL,
    "layers.relu_backward.": TRAIN,
    "layers.dropout.": ALL,
    "layers.calls_per_unit": ALL,
    "training.batch_loss_and_grads.self_s": TRAIN,
    "model.Model.forward_with_cache.self_s": ALL,
    "model.Model.backward.self_s": TRAIN,
    "training.cross_entropy.busy_s": TRAIN,
    "training.adam_step.busy_s": TRAIN,
    "training.predict_masks.self_s": TAG,
    "data.": ALL,
    "model.Model.build.busy_s": ALL,
    "model.save_checkpoint.busy_s": TAG,
    "model.load_checkpoint.busy_s": TAG,
}


def _expected(metric: str) -> frozenset:
    matches = [prefix for prefix in EXPECTED if metric.startswith(prefix)]
    assert len(matches) == 1, f"{metric} needs exactly one EXPECTED entry, has {matches}"
    return EXPECTED[matches[0]]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per-layer metrics of a short traced run of every workload."""
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        tracer = Tracer()
        with instrument(tracer):
            result = workloads.run(workload, seed=5, units=2 if name != "train-table1" else 1,
                                   workdir=tmp_path_factory.mktemp(name), tracer=tracer,
                                   setups=1)
        assert result["failed"] == 0, result["errors"]
        out[name] = result["per_layer"]
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_metrics_fire_where_expected(traced, workload):
    for metric, (value, _) in traced[workload].items():
        if workload in _expected(metric):
            assert value > 0, f"{metric} is 0 on {workload}"
        else:
            assert value == 0, f"{metric} is {value} on {workload}, expected absent"


def test_per_layer_names_match_benchmark_json(traced):
    declared = {m["name"]: m["unit"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for metrics in traced.values():
        emitted = {name: unit for name, (_, unit) in metrics.items()}
        emitted.update({"trace.untraced_tokens_per_s": "1/s", "trace.tokens_per_s": "1/s",
                        "trace.overhead_share": "ratio"})
        assert emitted == declared


def test_calls_per_unit_repeats_exactly(tmp_path):
    def calls(run_dir):
        tracer = Tracer()
        with instrument(tracer):
            result = workloads.run(workloads.WORKLOADS["train-table1"], seed=9, units=1,
                                   workdir=run_dir, tracer=tracer, setups=1)
        return result["per_layer"]["layers.calls_per_unit"][0]

    first = calls(tmp_path / "a")
    assert first == calls(tmp_path / "b")
    # per sentence: dropout, 3 layers of 2 operator groups, 3 relu, width1 and
    # softmax forward; softmax_xent_backward; width1, 3 relu and 6 operator
    # backwards
    assert first == 25 * 23


def test_instrument_wraps_imported_names_and_restores_them():
    originals = (acnn.training.softmax_xent_backward, acnn.model.Model.forward_with_cache,
                 acnn.model.Model.backward, acnn.model.Model.__dict__["build"])
    with instrument(Tracer()):
        assert acnn.training.softmax_xent_backward is not originals[0]
        assert acnn.model.Model.forward_with_cache is not originals[1]
        assert acnn.model.Model.backward is not originals[2]
        assert acnn.model.Model.__dict__["build"] is not originals[3]
    assert (acnn.training.softmax_xent_backward, acnn.model.Model.forward_with_cache,
            acnn.model.Model.backward, acnn.model.Model.__dict__["build"]) == originals
