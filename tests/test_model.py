import json
import struct
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from acnn import model as M
from acnn.tensor import Rng, grad_check
from acnn.training import batch_loss_and_grads


def toy_config(arch="acnn", vocab_size=12, embedding_dim=5, channels=4, seed=0):
    first = "autocorr" if arch == "acnn" else "conv"
    return M.ModelConfig(
        vocab_size=vocab_size, embedding_dim=embedding_dim,
        dropout_rate=0.0, l2_weight=0.0, seed=seed,
        layers=(
            M.LayerConfig(first, ((1, 2),), channels),
            M.LayerConfig("conv", ((1, 1),), channels),
            M.LayerConfig("conv", ((0, 1),), channels),
        ))


class TestConfig:
    @pytest.mark.parametrize("arch", ["cnn", "acnn"])
    def test_arch_follows_layer_1(self, arch):
        cfg = toy_config(arch)
        assert cfg.arch == arch
        assert "arch" not in cfg.to_dict()
        assert M.ModelConfig.from_dict(cfg.to_dict()).arch == arch

    def test_autocorr_only_at_first_layer(self):
        with pytest.raises(M.ConfigError):
            M.ModelConfig(vocab_size=8, embedding_dim=4,
                          dropout_rate=0.0, l2_weight=0.0,
                          layers=(M.LayerConfig("autocorr", ((1, 1),), 4),
                                  M.LayerConfig("autocorr", ((1, 1),), 4)))

    def test_channels_divisible_by_groups(self):
        with pytest.raises(M.ConfigError):
            M.LayerConfig("conv", ((0, 1), (1, 1)), 5)

    @pytest.mark.parametrize("kernel_groups,channels", [
        (((0.5, 1),), 4), (((0, 1.0),), 4), (((True, 1),), 4),
        (((0, 1),), 4.0), (((0, 1),), True)])
    def test_layer_integers_are_ints(self, kernel_groups, channels):
        with pytest.raises(M.ConfigError):
            M.LayerConfig("conv", kernel_groups, channels)

    @pytest.mark.parametrize("kernel_groups", [((-1, 1),), ((0, 0),)])
    def test_kernel_group_bounds(self, kernel_groups):
        with pytest.raises(M.ConfigError):
            M.LayerConfig("conv", kernel_groups, 4)

    @pytest.mark.parametrize("field,value", [
        ("vocab_size", 12.0), ("embedding_dim", True), ("seed", 1.5),
        ("dropout_rate", 1.0), ("dropout_rate", -0.1), ("dropout_rate", "0.1"),
        ("l2_weight", -0.01), ("l2_weight", float("nan"))])
    def test_model_fields_checked(self, field, value):
        with pytest.raises(M.ConfigError):
            M.ModelConfig(**{**vars(toy_config()), field: value})

    def test_dict_round_trip(self):
        cfg = M.model_preset("acnn-table1", vocab_size=300, seed=7)
        assert M.ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_presets_all_build(self):
        for name in M.MODEL_PRESETS:
            cfg = M.model_preset(name, vocab_size=50)
            assert M.Model.build(cfg) is not None

    def test_unknown_preset_rejected(self):
        with pytest.raises(M.ConfigError, match="unknown model preset 'acnn-table2'"):
            M.model_preset("acnn-table2", vocab_size=50)


class TestBuild:
    def test_deterministic(self):
        cfg = toy_config(seed=3)
        a = M.Model.build(cfg).params.values_copy()
        b = M.Model.build(cfg).params.values_copy()
        assert set(a) == set(b)
        for k in a:
            assert np.array_equal(a[k], b[k]), k

    def test_seed_changes_weights(self):
        a = M.Model.build(toy_config(seed=1)).params["embedding"].value
        b = M.Model.build(toy_config(seed=2)).params["embedding"].value
        assert not np.array_equal(a, b)

    def test_biases_start_at_one(self):
        model = M.Model.build(toy_config())
        for name, p in model.params.items():
            if name.endswith(".b"):
                assert np.all(p.value == 1.0), name

    def test_expected_tensor_names(self):
        model = M.Model.build(toy_config("acnn"))
        names = model.params.names()
        assert names[0] == "embedding"
        assert "layer1.group0.B" in names
        assert "layer2.group0.B" not in names
        assert names[-2:] == ["output.W", "output.b"]

    @pytest.mark.parametrize("preset", M.MODEL_PRESETS)
    def test_pair_moments_exactly_for_the_pair_kernels(self, preset):
        """The parameters whose Adam moments cover pairs only are exactly the
        (c, w, w, m) tensors, the B's, each with c * m * w(w+1)/2 floats."""
        model = M.Model.build(M.model_preset(preset, vocab_size=20))
        kernels = 0
        for name, p in model.params.items():
            pairs = p.adam_m.shape != p.value.shape
            assert pairs == (p.value.ndim == 4), name
            if pairs:
                c, w, w2, m = p.value.shape
                assert w2 == w and name.endswith(".B"), name
                assert p.adam_m.shape == p.adam_v.shape == (c * m * w * (w + 1) // 2,), name
                kernels += 1
        assert kernels == {"acnn-table1": 2, "acnn-toy": 1}.get(preset, 0)

    def test_param_count_closed_form(self):
        # single autocorr layer, one group: A w*m per channel, B w*w*m, bias 1
        cfg = M.ModelConfig(vocab_size=10, embedding_dim=3,
                            dropout_rate=0.0, l2_weight=0.0,
                            layers=(M.LayerConfig("autocorr", ((1, 1),), 2),))
        model = M.Model.build(cfg)
        report = M.param_count(model.params)
        w, m, c = 3, 3, 2
        expect_layer = c * (w * m + w * w * m + 1)
        expect_out = 2 * c + 2
        assert report.embedding == 10 * 3
        assert report.network == expect_layer + expect_out
        assert report.total == report.embedding + report.network

    def test_count_table_mentions_every_tensor(self):
        model = M.Model.build(toy_config())
        text = M.param_count(model.params).format()
        for name in model.params.names():
            assert name in text


class TestForward:
    def test_rows_are_distributions(self):
        model = M.Model.build(toy_config())
        probs = model.forward(np.arange(8) % model.config.vocab_size)
        assert probs.shape == (8, 2)
        assert np.all(probs > 0)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_single_token_sentence(self):
        model = M.Model.build(toy_config())
        probs = model.forward([3])
        assert probs.shape == (1, 2)
        assert np.isclose(probs.sum(), 1.0)

    def test_eval_mode_bitwise_deterministic(self):
        model = M.Model.build(toy_config())
        ids = [1, 4, 2, 7, 7, 2]
        assert np.array_equal(model.forward(ids), model.forward(ids))

    def test_out_of_vocab_id_rejected(self):
        model = M.Model.build(toy_config(vocab_size=8))
        with pytest.raises(ValueError):
            model.forward([8])
        with pytest.raises(ValueError):
            model.forward([-1])

    def test_empty_sentence_rejected(self):
        model = M.Model.build(toy_config())
        with pytest.raises(ValueError):
            model.forward([])

    def test_untrained_entropy_near_uniform(self):
        # with symmetric initialization the class scores share the same bias,
        # so early predictions should sit near the 2-class entropy ceiling
        model = M.Model.build(toy_config(vocab_size=40, embedding_dim=8,
                                         channels=8, seed=5))
        rng = Rng(0)
        ids = rng.integers(0, 40, 200)
        probs = model.forward(ids)
        ent = float(-(probs * np.log(probs)).sum(axis=1).mean())
        assert ent > 0.6 * np.log(2)

    def test_acnn_with_zero_B_matches_cnn_bitwise(self):
        """Once B is zero, the same probabilities, one sentence or packed, and
        a packed training step (dropout and L2 included) gives the same loss
        and every shared gradient, bit for bit."""
        amodel, cmodel = (M.Model.build(replace(toy_config(arch, seed=9), dropout_rate=0.3,
                                                l2_weight=0.1)) for arch in ("acnn", "cnn"))
        # share all non-B tensors and zero the interaction kernels
        cmodel.params.load_values({k: v for k, v in amodel.params.values_copy().items()
                                   if not k.endswith(".B")})
        amodel.params["layer1.group0.B"].value[...] = 0.0
        ids = [1, 5, 3, 3, 8, 0, 2]
        for lengths in (None, [3, 1, 3]):
            assert np.array_equal(amodel.forward(ids, lengths=lengths),
                                  cmodel.forward(ids, lengths=lengths))
        rng = Rng(4)
        batch = [(rng.integers(0, 12, n), rng.integers(0, 2, n)) for n in (5, 1, 7, 2)]
        losses = []
        for model in (amodel, cmodel):
            for _, p in model.params.items():
                p.grad[...] = np.nan  # backward writes every entry
            losses.append(batch_loss_and_grads(model, batch, training=True, rng=Rng(5)))
        assert losses[0] == losses[1]
        for name, p in cmodel.params.items():
            assert np.array_equal(amodel.params[name].grad, p.grad), name


class TestBackward:
    @pytest.mark.parametrize("arch", ["cnn", "acnn"])
    def test_whole_model_grad_check(self, arch):
        model = M.Model.build(toy_config(arch, vocab_size=9, embedding_dim=4,
                                         channels=4, seed=2))
        ids = np.array([1, 3, 3, 7, 0])
        labels = np.array([0, 1, 1, 0, 0])

        def loss() -> float:
            probs = model.forward(ids)
            return float(-np.log(probs[np.arange(len(ids)), labels]).mean())

        probs, cache = model.forward_with_cache(ids)
        from acnn.training import cross_entropy
        for _, p in model.params.items():
            p.grad[...] = np.nan  # backward writes every entry
        model.backward(cache, cross_entropy(probs, labels)[1])
        for name, p in model.params.items():
            report = grad_check(lambda _v: loss(), p.value, p.grad)
            assert report.ok, f"{name}: max rel err {report.max_rel_error:.2e}"

    def test_repeated_ids_accumulate_embedding_grad(self):
        model = M.Model.build(toy_config(vocab_size=6, seed=1))
        ids = np.array([2, 2, 2])
        labels = np.array([1, 1, 1])
        probs, cache = model.forward_with_cache(ids)
        from acnn.training import cross_entropy
        for _, p in model.params.items():
            p.grad[...] = np.nan  # backward writes every entry
        model.backward(cache, cross_entropy(probs, labels)[1])
        grad = model.params["embedding"].grad
        touched = {i for i in range(6) if grad[i].any()}
        # zero padding contributes nothing, so only id 2 can receive gradient
        assert touched == {2}

    @pytest.mark.parametrize("arch", ["cnn", "acnn"])
    def test_short_pass_after_a_long_one_writes_every_gradient(self, arch):
        """A backward pass writes every entry of every gradient: after a
        30-token pass, a 3-token pass, shorter than the toy models' 9-row
        window, so that an acnn's B offsets 3 to 8 meet empty bands and most
        embedding rows no token, leaves the gradients that a fresh model with
        the same values gets from the 3-token pass alone, byte for byte."""
        from acnn.training import cross_entropy
        cfg = M.model_preset(f"{arch}-toy", vocab_size=20, seed=4)
        model = M.Model.build(cfg)
        fresh = M.Model.build(replace(cfg, seed=5))
        fresh.params.load_values(model.params.values_copy())
        rng = Rng(6)
        for n in (30, 3):
            ids, labels = rng.integers(0, 20, size=n), rng.integers(0, 2, size=n)
            probs, cache = model.forward_with_cache(ids)
            model.backward(cache, cross_entropy(probs, labels)[1])
        probs, cache = fresh.forward_with_cache(ids)
        fresh.backward(cache, cross_entropy(probs, labels)[1])
        assert model.params["layer1.group0.A"].grad.shape[1] == 9
        for name, p in model.params.items():
            assert p.grad.tobytes() == fresh.params[name].grad.tobytes(), name


class TestParamStore:
    def test_load_values_name_mismatch(self):
        model = M.Model.build(toy_config())
        vals = model.params.values_copy()
        vals.pop("output.b")
        with pytest.raises(M.ConfigError):
            model.params.load_values(vals)

    def test_load_values_shape_mismatch(self):
        model = M.Model.build(toy_config())
        vals = model.params.values_copy()
        vals["output.b"] = np.zeros(3)
        with pytest.raises(M.ConfigError):
            model.params.load_values(vals)

    def test_load_values_checks_every_shape_before_writing(self):
        model = M.Model.build(toy_config())
        before = model.params.values_copy()
        values = {k: v + 1.0 for k, v in before.items() if k != "output.W"}
        values["output.W"] = np.zeros((3, 3))  # the last tensor written, of the wrong shape
        with pytest.raises(M.ConfigError, match="output.W"):
            model.params.load_values(values)
        assert {k: p.value.tobytes() for k, p in model.params.items()} == \
            {k: v.tobytes() for k, v in before.items()}

    def test_load_values_into_read_only_B_writes_nothing(self):
        cfg = toy_config()
        model = M.Checkpoint(config=cfg, vocab_words=["<pad>", "<unk>"], rng_algorithm="pcg64",
                             seed=0, step=0,
                             tensors=M.Model.build(cfg).params.values_copy()).build_model()
        before = model.params.values_copy()
        with pytest.raises(ValueError, match="read-only"):
            model.params.load_values({k: v + 1.0 for k, v in before.items()})
        assert {k: p.value.tobytes() for k, p in model.params.items()} == \
            {k: v.tobytes() for k, v in before.items()}


class TestCheckpoint:
    def make(self, tmp_path, seed=0):
        cfg = toy_config(seed=seed)
        model = M.Model.build(cfg)
        ckpt = M.Checkpoint(config=cfg, vocab_words=["<pad>", "<unk>", "a", "b"],
                            rng_algorithm="pcg64", seed=seed, step=17,
                            tensors=model.params.values_copy())
        path = tmp_path / "m.ckpt"
        M.save_checkpoint(ckpt, path)
        return cfg, model, ckpt, path

    def test_round_trip_values(self, tmp_path):
        cfg, model, ckpt, path = self.make(tmp_path)
        loaded = M.load_checkpoint(path)
        assert loaded.config == cfg
        assert loaded.vocab_words == ckpt.vocab_words
        assert loaded.rng_algorithm == "pcg64"
        assert loaded.step == 17
        for k, v in ckpt.tensors.items():
            assert np.array_equal(loaded.tensors[k], v), k

    def test_save_load_save_byte_identical(self, tmp_path):
        _, _, _, path = self.make(tmp_path)
        loaded = M.load_checkpoint(path)
        path2 = tmp_path / "again.ckpt"
        M.save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()
        assert not list(tmp_path.glob("*.tmp"))  # saving is tmp + os.replace

    def test_failed_save_keeps_old_file_and_no_tmp(self, tmp_path):
        _, _, ckpt, path = self.make(tmp_path)
        before = path.read_bytes()
        # the right names and shapes, but the last tensor fails its float64
        # conversion after the rest of the file is written
        broken = replace(ckpt, tensors={**ckpt.tensors,
                                        "output.b": np.array(["x", "y"], dtype=object)})
        with pytest.raises(ValueError, match="could not convert"):
            M.save_checkpoint(broken, path)
        (tmp_path / "dir").mkdir()
        with pytest.raises(IsADirectoryError):
            M.save_checkpoint(ckpt, tmp_path / "dir")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "m.ckpt"]

    @pytest.mark.parametrize("changes", [
        lambda ckpt: {"seed": 1},
        lambda ckpt: {"step": -1},
        lambda ckpt: {"rng_algorithm": "mt19937"},
        lambda ckpt: {"tensors": dict(list(ckpt.tensors.items())[:-1])},
        lambda ckpt: {"tensors": {**ckpt.tensors, "extra": np.zeros(1)}},
        lambda ckpt: {"tensors": dict([*list(ckpt.tensors.items())[1::-1],
                                       *list(ckpt.tensors.items())[2:]])},
        # the embedding's values, with its dims swapped
        lambda ckpt: {"tensors": {**ckpt.tensors, "embedding":
                                  ckpt.tensors["embedding"].reshape(5, 12)}},
    ], ids=["seed-not-config-seed", "step-negative", "rng-algorithm", "tensor-missing",
            "tensor-extra", "tensors-swapped", "embedding-reshaped"])
    def test_save_refuses_what_load_refuses(self, changes, tmp_path):
        """A checkpoint that load_checkpoint rejects is never written: the old
        file stays as it was, no new file appears and no temporary file is
        left."""
        _, _, ckpt, path = self.make(tmp_path)
        before = path.read_bytes()
        for target in (path, tmp_path / "new.ckpt"):
            with pytest.raises(M.CheckpointError):
                M.save_checkpoint(replace(ckpt, **changes(ckpt)), target)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_rebuilt_model_predicts_identically(self, tmp_path):
        _, model, _, path = self.make(tmp_path)
        rebuilt = M.load_checkpoint(path).build_model()
        ids = [1, 2, 3, 0, 2]
        assert np.array_equal(model.forward(ids), rebuilt.forward(ids))

    def test_build_model_draws_nothing(self, tmp_path, monkeypatch):
        _, model, _, path = self.make(tmp_path)

        def no_draw(*args):
            raise AssertionError("build_model drew a tensor")

        monkeypatch.setattr(M, "_uniform_init", no_draw)
        ckpt = M.load_checkpoint(path)
        rebuilt = ckpt.build_model()
        for name, p in rebuilt.params.items():
            assert p.value is ckpt.tensors[name], name  # taken over, not copied
            assert np.array_equal(p.value, model.params[name].value), name

    def test_config_arch_key_is_ignored(self, tmp_path):
        """Older checkpoints carry an `arch` key in their config; they load."""
        cfg, _, _, path = self.make(tmp_path)
        raw = path.read_bytes()
        (size,) = struct.unpack("<Q", raw[12:20])
        meta = json.loads(raw[20:20 + size])
        assert "arch" not in meta["config"]
        meta["config"]["arch"] = "acnn"
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + size:])
        assert M.load_checkpoint(path, expect_config=cfg).config.arch == "acnn"

    def test_valid_fixture_loads(self, valid_checkpoint):
        probs = M.load_checkpoint(valid_checkpoint).build_model().forward([2, 1, 0])
        assert probs.shape == (3, 2)

    def test_bad_magic(self, tmp_path):
        _, _, _, path = self.make(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(M.CheckpointError):
            M.load_checkpoint(path)

    def test_truncation(self, tmp_path):
        _, _, _, path = self.make(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(M.CheckpointError):
            M.load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        _, _, _, path = self.make(tmp_path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(M.CheckpointError):
            M.load_checkpoint(path)

    def test_config_mismatch_detected(self, tmp_path):
        _, _, _, path = self.make(tmp_path, seed=0)
        other = toy_config(arch="cnn", seed=0)
        with pytest.raises(M.CheckpointError):
            M.load_checkpoint(path, expect_config=other)

    def test_truncated_inside_tensor_data(self, tmp_path):
        _, _, ckpt, path = self.make(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - ckpt.tensors["output.W"].nbytes // 2 - 16])
        with pytest.raises(M.CheckpointError, match="truncated"):
            M.load_checkpoint(path)

    def test_file_shrinking_while_read(self, tmp_path, monkeypatch):
        """A tensor read that comes short of what the file's size promised is
        a CheckpointError too."""
        _, _, _, path = self.make(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])
        monkeypatch.setattr(M.os, "fstat", lambda fd: SimpleNamespace(st_size=len(raw)))
        with pytest.raises(M.CheckpointError, match="truncated"):
            M.load_checkpoint(path)

    def test_hostile_metadata_is_checkpoint_error(self, hostile_checkpoint):
        with pytest.raises(M.CheckpointError):
            M.load_checkpoint(hostile_checkpoint)


def big_B_config():
    """A (5, 6) autocorr group whose B (2.2 MB) is most of the checkpoint."""
    return M.ModelConfig(
        vocab_size=4, embedding_dim=48, dropout_rate=0.0, l2_weight=0.0, seed=3,
        layers=(M.LayerConfig("autocorr", ((5, 6),), 40),
                M.LayerConfig("conv", ((0, 1),), 4),
                M.LayerConfig("conv", ((0, 1),), 4)))


class TestCheckpointIO:
    def test_load_holds_each_tensor_once(self, tmp_path):
        """Tensors are read straight into their arrays: the traced peak of a
        load stays near the file's size. A reader that keeps the bytes of a
        tensor beside its array peaks near twice the size of B."""
        cfg = big_B_config()
        tensors = M.Model.build(cfg).params.values_copy()
        assert tensors["layer1.group0.B"].nbytes > 0.9 * sum(t.nbytes for t in tensors.values())
        path = tmp_path / "big.ckpt"
        M.save_checkpoint(M.Checkpoint(config=cfg, vocab_words=["<pad>", "<unk>"],
                                       rng_algorithm="pcg64", seed=3, step=0,
                                       tensors=tensors), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = M.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * size, f"traced peak {peak / 1e6:.2f} MB, file {size / 1e6:.2f} MB"
        for name, value in tensors.items():
            assert loaded.tensors[name].tobytes() == value.tobytes(), name
        again = tmp_path / "again.ckpt"
        M.save_checkpoint(loaded, again)
        assert again.read_bytes() == path.read_bytes()
