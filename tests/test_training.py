import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from acnn import evaluate
from acnn import layers as L
from acnn import training as TR
from acnn.data import (FLUENT, GENERATOR_PRESETS, PAD_WORD, UNK_WORD, CorpusFormatError,
                       TokenSequence, Vocabulary, build_vocab, generate_corpus,
                       parse_annotated, preprocess)
from acnn.model import (CLASS_DISFLUENT, MODEL_PRESETS, Checkpoint, LayerConfig, Model,
                        ModelConfig, ParamStore, load_checkpoint, model_preset,
                        save_checkpoint)
from acnn.tensor import NumericError, Rng, grad_check


def tiny_model(vocab_size=10, dropout=0.0, l2=0.0, seed=0):
    cfg = ModelConfig(
        vocab_size=vocab_size, embedding_dim=4,
        dropout_rate=dropout, l2_weight=l2, seed=seed,
        layers=(LayerConfig("autocorr", ((1, 2),), 4),
                LayerConfig("conv", ((0, 1),), 4)))
    return Model.build(cfg)


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = TR.cross_entropy(probs, [0, 1])
        assert loss == 0.0

    def test_uniform_prediction_is_log_two(self):
        probs = np.full((4, 2), 0.5)
        loss, _ = TR.cross_entropy(probs, [0, 1, 0, 1])
        assert loss == pytest.approx(np.log(2))

    def test_matches_per_token_oracle(self):
        rng = Rng(0)
        raw = rng.uniform(0.1, 1.0, (6, 2))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = [0, 1, 1, 0, 0, 1]
        loss, _ = TR.cross_entropy(probs, labels)
        want = float(np.mean([-np.log(probs[i, labels[i]]) for i in range(6)]))
        assert loss == pytest.approx(want, rel=1e-12)

    def test_gradient_signs(self):
        probs = np.array([[0.7, 0.3]])
        _, grad = TR.cross_entropy(probs, [1])
        # pushing toward the disfluent class: its score gradient is negative
        assert grad[0, 1] < 0 < grad[0, 0]

    def test_accepts_list_and_int_array_ids(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        a, _ = TR.cross_entropy(probs, [0, 1])
        b, _ = TR.cross_entropy(probs, np.array([0, 1], dtype=np.int64))
        assert a == b
        with pytest.raises(ValueError):
            TR.cross_entropy(probs, ["_", "E"])

    @pytest.mark.parametrize("ids", [[0, 2], [-1, 0], [True, False], [0.0, 1.0]],
                             ids=["two", "negative", "bool", "float"])
    def test_ids_outside_zero_one_rejected(self, ids):
        with pytest.raises(ValueError):
            TR.cross_entropy(np.full((2, 2), 0.5), ids)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            TR.cross_entropy(np.full((1, 2), 0.5), ["X"])

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
    def test_probs_shape_must_match_labels(self, shape):
        with pytest.raises(ValueError, match="probs shape"):
            TR.cross_entropy(np.full(shape, 0.5), [0, 1])

    def test_fused_xent_grad_check(self):
        rng = Rng(32)
        scores = rng.uniform(-2, 2, (6, 2))
        labels = np.array([0, 1, 1, 0, 1, 0])

        def loss(s):
            probs = L.softmax_rows(s)
            return float(-np.log(probs[np.arange(6), labels]).sum() / 6)

        grad = TR.cross_entropy(L.softmax_rows(scores), labels)[1]
        assert grad_check(loss, scores, grad).ok


class TestL2:
    def test_zero_weights_zero_penalty(self):
        model = tiny_model()
        model.params["output.W"].value[...] = 0.0
        assert TR.l2_penalty(model.params, 0.5) == 0.0

    def test_doubling_weights_quadruples_penalty(self):
        model = tiny_model()
        before = TR.l2_penalty(model.params, 0.3)
        model.params["output.W"].value *= 2.0
        assert TR.l2_penalty(model.params, 0.3) == pytest.approx(4 * before)

    def test_only_output_weights_penalized(self):
        model = tiny_model()
        before = TR.l2_penalty(model.params, 0.3)
        model.params["embedding"].value *= 10.0
        model.params["output.b"].value *= 10.0
        assert TR.l2_penalty(model.params, 0.3) == pytest.approx(before)

    def test_grad_is_two_lambda_w(self):
        """l2_penalty returns lambda * sum(W**2) and writes no gradient;
        add_l2_grad adds 2 * lambda * W onto output.W's gradient, the data
        gradient that Model.backward wrote, and touches no other gradient."""
        model = tiny_model()
        rng = Rng(3)
        for _, p in model.params.items():
            p.grad[...] = rng.uniform(-1, 1, p.grad.shape)
        before = {name: p.grad.copy() for name, p in model.params.items()}
        penalty = TR.l2_penalty(model.params, 0.25)
        W = model.params["output.W"]
        assert penalty == 0.25 * (W.value * W.value).sum()
        for name, p in model.params.items():
            assert np.array_equal(p.grad, before[name]), name
        TR.add_l2_grad(model.params, 0.25)
        assert np.allclose(W.grad - before["output.W"], 0.5 * W.value)
        for name, p in model.params.items():
            if name != "output.W":
                assert np.array_equal(p.grad, before[name]), name


class TestAdam:
    def test_zero_grad_is_noop_on_first_step(self):
        model = tiny_model()
        for _, p in model.params.items():
            p.grad[...] = 0.0
        before = model.params.values_copy()
        TR.adam_step(model.params, 1, TR.TrainConfig())
        after = model.params.values_copy()
        for k in before:
            assert np.array_equal(before[k], after[k]), k

    def test_first_step_closed_form(self):
        # with bias correction, step 1 moves each coordinate by
        # lr * g / (|g| + eps) regardless of gradient magnitude
        store = ParamStore({"p": np.array([1.0, -2.0, 3.0])})
        store["p"].grad[...] = np.array([0.5, -4.0, 1e-3])
        cfg = TR.TrainConfig(learning_rate=0.01)
        TR.adam_step(store, 1, cfg)
        g = np.array([0.5, -4.0, 1e-3])
        want = np.array([1.0, -2.0, 3.0]) - 0.01 * g / (np.abs(g) + TR.ADAM_EPS)
        assert np.allclose(store["p"].value, want, atol=1e-10)

    def test_optimizes_quadratic(self):
        store = ParamStore({"p": np.array([5.0])})
        cfg = TR.TrainConfig(learning_rate=0.1)
        for t in range(1, 101):
            store["p"].grad[...] = 2.0 * store["p"].value
            TR.adam_step(store, t, cfg)
        assert abs(float(store["p"].value[0])) < 0.5

    def test_step_index_validated(self):
        store = ParamStore({"p": np.zeros(1)})
        with pytest.raises(ValueError):
            TR.adam_step(store, 0, TR.TrainConfig())

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TR.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TR.TrainConfig(batch_size=0)


def toy_data(n_train=60, n_dev=20, seed=0):
    cfg = replace(GENERATOR_PRESETS["toy"], sentence_count=n_train + n_dev,
                  seed=seed)
    seqs = generate_corpus(cfg)
    train, dev = seqs[:n_train], seqs[n_train:]
    return train, dev, build_vocab(train)


def textbook_adam(value, grads, cfg):
    """Adam as written in the paper's formula, one fresh array per operation."""
    b1, b2 = TR.ADAM_BETA1, TR.ADAM_BETA2
    m, v = np.zeros_like(value), np.zeros_like(value)
    for t, g in enumerate(grads, start=1):
        m = m * b1 + (1.0 - b1) * g
        v = v * b2 + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        value = value - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + TR.ADAM_EPS)
    return value, m, v


class TestAdamInPlace:
    @pytest.mark.parametrize(
        "shape,order",
        [((7, 5, 3), "C"), ((3, 40000), "C"), ((2, 4, 2 ** 14), "C"), ((5,), "C"),
         ((7, 5, 3), "F"), ((40, 9, 290), "F"), ((2 ** 14, 4, 2), "F")],
        ids=["one-block", "partial-last-block", "whole-blocks", "bias-shaped",
             "fortran-one-block", "fortran-partial-last-block", "fortran-channel-over-a-block"])
    def test_byte_identical_to_textbook(self, shape, order):
        """In either memory order: an F-ordered (c, w, m) tensor is an A as
        every model holds it (model._held), which Adam cuts along its last
        axis, and its gradient and moments take its order."""
        assert TR.ADAM_BLOCK == 2 ** 15
        rng = np.random.default_rng(0)
        cfg = TR.TrainConfig(learning_rate=0.003)
        grads = [rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 2, shape)
                 for _ in range(6)]
        start = rng.standard_normal(shape)
        store = ParamStore({"p": np.array(start, order=order)})
        p = store["p"]
        for t, g in enumerate(grads, start=1):
            p.grad[...] = g
            TR.adam_step(store, t, cfg)
        value, m, v = textbook_adam(start, grads, cfg)
        assert p.grad.strides == p.adam_m.strides == p.adam_v.strides == p.value.strides
        assert p.value.tobytes() == value.tobytes()
        assert p.adam_m.tobytes() == m.tobytes()
        assert p.adam_v.tobytes() == v.tobytes()

    @pytest.mark.parametrize("shape", [(16, 9, 9, 32), (60, 3, 3, 290), (2, 3, 3, 11000)],
                             ids=["offsets-fit-a-block", "diagonal-over-a-block",
                                  "channel-over-a-block"])
    def test_pair_kernel_byte_identical_to_textbook(self, shape):
        # a B keeps moments for its pairs i <= j only and steps both halves
        # with them; the textbook runs on the full array
        assert TR.ADAM_BLOCK == 2 ** 15
        c, w, _, m = shape
        rng = np.random.default_rng(1)
        cfg = TR.TrainConfig(learning_rate=0.003)
        grads = []
        for _ in range(6):
            g = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 2, shape)
            grads.append(g + g.transpose(0, 2, 1, 3))  # symmetric bit for bit
        start = rng.standard_normal(shape)  # not symmetric
        store = ParamStore({"layer1.group0.B": start.copy()})
        p = store["layer1.group0.B"]
        assert p.adam_m.size == p.adam_v.size == c * m * w * (w + 1) // 2
        for t, g in enumerate(grads, start=1):
            p.grad[...] = g
            TR.adam_step(store, t, cfg)
        value, m_full, v_full = textbook_adam(start, grads, cfg)
        assert p.value.tobytes() == value.tobytes()

        def upper_pairs(a):  # the i <= j entries in layers.pair_views's order
            return np.concatenate([upper.ravel() for upper, _ in L.pair_views(a)])

        assert p.adam_m.tobytes() == upper_pairs(m_full).tobytes()
        assert p.adam_v.tobytes() == upper_pairs(v_full).tobytes()


def table1_steps(preset):
    """Three seeded steps of a table1 preset, each batch_loss_and_grads with
    dropout and then adam_step, over batches of 25 from a 75-sentence
    switchboard-like corpus: the losses and the store's bytes afterwards."""
    gen = replace(GENERATOR_PRESETS["switchboard-like"], seed=12, sentence_count=75)
    seqs = [s for s in map(preprocess, generate_corpus(gen)) if s.tokens]
    vocab = build_vocab(seqs)
    data = [(vocab.encode(s.tokens), s.disfluent_mask().astype(np.int64)) for s in seqs]
    model = Model.build(model_preset(preset, vocab_size=len(vocab), seed=3))
    rng, losses = Rng(4), []
    for t in range(3):
        batch = data[25 * t:25 * (t + 1)]
        losses.append(TR.batch_loss_and_grads(model, batch, training=True, rng=rng))
        TR.adam_step(model.params, t + 1, TR.TrainConfig())
    return losses, {name: [a.tobytes() for a in (p.value, p.grad, p.adam_m, p.adam_v)]
                    for name, p in model.params.items()}


@pytest.mark.parametrize("preset", ["acnn-toy", "cnn-toy"])
def test_adam_blocks_are_contiguous_per_channel(preset, tmp_path):
    """Adam cuts every part in memory order, in a built model and in the
    loaded model of its values: a block of any tensor but a B, and each of
    its leading channels, is contiguous, and a B's blocks (strided views of
    its pairs, layers.pair_views) run their axes in memory order, each
    channel's moments contiguous."""
    built = Model.build(model_preset(preset, vocab_size=12, seed=3))
    loaded = reloaded(built, tmp_path).build_model()
    for model in (built, loaded):
        for name, p in model.params.items():
            for value, grad, m, v, mirror in TR._adam_blocks(p):
                if p.value.ndim == 4:
                    for a in (value, grad, mirror):
                        if a is not None:
                            assert a.strides[-1] == a.itemsize, name
                            assert list(a.strides) == sorted(a.strides, reverse=True), name
                    assert all(a[u].flags.c_contiguous for a in (m, v) for u in range(len(m))), name
                    continue
                for a in (value, grad, m, v):
                    assert a.flags.c_contiguous, name
                    assert all(a[u].flags.c_contiguous for u in range(len(a))), name


class TestTable1Determinism:
    @pytest.mark.parametrize("preset", ["acnn-table1", "cnn-table1"])
    def test_steps_repeat_byte_for_byte_in_one_process(self, preset):
        """At the table1 geometry, where a BLAS thread count can change a
        GEMM's rounding, two runs of the same steps in one process agree in
        every value, gradient and moment byte."""
        first, again = table1_steps(preset), table1_steps(preset)
        assert first[0] == again[0]
        assert first[1] == again[1]


class TestBatchLoss:
    def test_loss_is_log_two_when_scores_tied(self):
        # zeroed output weights leave only the shared output bias, so every
        # token gets a uniform distribution and the loss is exactly ln 2
        train, _, vocab = toy_data()
        model = tiny_model(vocab_size=len(vocab))
        model.params["output.W"].value[...] = 0.0
        batch = [(vocab.encode(s.tokens), s.disfluent_mask().astype(np.int64))
                 for s in train[:5]]
        loss = TR.batch_loss_and_grads(model, batch)
        assert loss == pytest.approx(np.log(2), rel=1e-12)

    def test_l2_included(self):
        train, _, vocab = toy_data()
        batch = [(vocab.encode(s.tokens), s.disfluent_mask().astype(np.int64))
                 for s in train[:3]]
        plain = TR.batch_loss_and_grads(tiny_model(vocab_size=len(vocab)), batch)
        reg = TR.batch_loss_and_grads(
            tiny_model(vocab_size=len(vocab), l2=0.5), batch)
        model = tiny_model(vocab_size=len(vocab))
        expected_gap = TR.l2_penalty(model.params, 0.5)
        assert reg - plain == pytest.approx(expected_gap, rel=1e-9)

    def test_objective_is_the_steps_and_writes_no_gradient(self):
        """batch_loss, which `acnn gradcheck` differences, returns the loss a
        training step returns, byte for byte, and leaves every gradient as
        it found it."""
        batch = random_batch(STEP_LENGTHS, seed=2)
        model = step_fold_model()
        step_loss = TR.batch_loss_and_grads(model, batch, training=True, rng=Rng(3))
        grads = {name: p.grad.copy() for name, p in model.params.items()}
        loss, _, dscores = TR.batch_loss(model, batch, training=True, rng=Rng(3))
        assert loss == step_loss
        assert dscores.shape == (sum(STEP_LENGTHS), 2)
        for name, p in model.params.items():
            assert grads[name].tobytes() == p.grad.tobytes(), name

    def test_non_finite_loss_is_numeric_error(self):
        """Finite probabilities, but an L2 penalty that overflows: a caller
        that lets numpy overflow pass gets a NumericError, not an inf loss."""
        train, _, vocab = toy_data()
        model = tiny_model(vocab_size=len(vocab), l2=0.1)
        model.params["output.W"].value[...] = 1e200
        batch = [(vocab.encode(s.tokens), s.disfluent_mask().astype(np.int64))
                 for s in train[:3]]
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="non-finite training loss"):
            TR.batch_loss_and_grads(model, batch)


class TestPredictMasks:
    def test_shapes_match_sentences(self):
        train, dev, vocab = toy_data()
        model = tiny_model(vocab_size=len(vocab))
        masks = TR.predict_masks(model, dev, vocab)
        assert len(masks) == len(dev)
        for mask, seq in zip(masks, dev):
            assert mask.shape == (len(seq.tokens),)
            assert mask.dtype == bool


class TestTrain:
    def run(self, **kw):
        train, dev, vocab = toy_data()
        model = tiny_model(vocab_size=len(vocab), dropout=kw.pop("dropout", 0.1))
        cfg = TR.TrainConfig(max_epochs=kw.pop("max_epochs", 3),
                             patience=kw.pop("patience", 5),
                             learning_rate=kw.pop("lr", 0.005))
        return model, TR.train(model, train, dev, vocab, cfg)

    def test_runs_and_logs(self):
        _, result = self.run()
        assert len(result.log) == 3
        assert result.steps > 0
        assert any(e.best for e in result.log)
        for e in result.log:
            assert "epoch" in e.format()

    def test_log_line_golden(self):
        # P 3/4, R 3/5; then no token predicted disfluent: P and F undefined
        best = TR.EpochLog(epoch=3, train_loss=0.123456,
                           dev=evaluate.EvalReport(tp=3, fp=1, fn=2), best=True)
        absent = TR.EpochLog(epoch=12, train_loss=0.69314718,
                             dev=evaluate.EvalReport(tp=0, fp=0, fn=4), best=False)
        assert best.format() == "epoch   3  loss 0.1235  dev P 75.00 R 60.00 F 66.67 *"
        assert absent.format() == "epoch  12  loss 0.6931  dev P absent R 0.00 F absent"

    def test_best_epoch_tracks_max_f1(self):
        _, result = self.run()
        f1s = [e.dev.f1 if e.dev.f1 is not None else 0.0 for e in result.log]
        assert result.best_f1 == pytest.approx(max(f1s))
        assert result.log[result.best_epoch - 1].dev.f1 == pytest.approx(result.best_f1)

    @pytest.mark.parametrize("patience", [0, -4])
    def test_patience_below_one_rejected(self, patience):
        with pytest.raises(ValueError, match="patience"):
            TR.TrainConfig(patience=patience)

    def test_patience_stops_early(self):
        """With a step too small to move dev F, epoch 1 stays the best, and
        `patience` epochs without improvement end training before max_epochs."""
        _, result = self.run(lr=1e-12, max_epochs=10, patience=2)
        assert [e.best for e in result.log] == [True, False, False]
        assert result.best_epoch == 1

    def test_seed_determinism(self):
        m1, r1 = self.run()
        m2, r2 = self.run()
        assert [e.format() for e in r1.log] == [e.format() for e in r2.log]
        for k, v in m1.params.values_copy().items():
            assert np.array_equal(v, m2.params[k].value), k

    def test_model_seed_drives_shuffle_and_dropout(self):
        # same initial values, same TrainConfig: only the config seed differs
        train, dev, vocab = toy_data()
        a = tiny_model(vocab_size=len(vocab), dropout=0.1, seed=0)
        b = tiny_model(vocab_size=len(vocab), dropout=0.1, seed=1)
        b.params.load_values(a.params.values_copy())
        cfg = TR.TrainConfig(max_epochs=2, patience=5, learning_rate=0.005)
        logs = [[e.format() for e in TR.train(m, train, dev, vocab, cfg).log]
                for m in (a, b)]
        assert logs[0] != logs[1]

    def test_returns_model_at_best_epoch(self):
        train, dev, vocab = toy_data()
        model, result = self.run(max_epochs=6, patience=6)
        assert result.best_epoch < len(result.log)  # the last epoch is not the best
        report = evaluate.score(dev, TR.predict_masks(model, dev, vocab))
        assert (report.f1 or 0.0) == result.best_f1

    def test_weights_copied_once_per_improving_epoch(self, monkeypatch):
        copies = []
        values_copy = ParamStore.values_copy

        def counted(store):
            copies.append(store)
            return values_copy(store)

        monkeypatch.setattr(ParamStore, "values_copy", counted)
        _, result = self.run(max_epochs=6, patience=6)
        assert len(copies) == sum(e.best for e in result.log)

    def test_loss_decreases(self):
        train, dev, vocab = toy_data(n_train=120)
        model = tiny_model(vocab_size=len(vocab))
        result = TR.train(model, train, dev, vocab,
                          TR.TrainConfig(max_epochs=6, patience=10,
                                         learning_rate=0.005))
        losses = [e.train_loss for e in result.log]
        assert losses[-1] < losses[0]

    def test_empty_corpora_rejected(self):
        train, dev, vocab = toy_data()
        model = tiny_model(vocab_size=len(vocab))
        cfg = TR.TrainConfig(max_epochs=1)
        with pytest.raises(ValueError):
            TR.train(model, [], dev, vocab, cfg)
        with pytest.raises(ValueError):
            TR.train(model, train, [], vocab, cfg)

    def test_tokenless_training_corpus_rejected(self):
        """Empty training sentences are dropped, so a corpus of them leaves no
        step to take: a data error, not an untrained model with loss nan."""
        _, dev, vocab = toy_data()
        model = tiny_model(vocab_size=len(vocab))
        empty = TokenSequence(tokens=[], labels=[])
        with pytest.raises(CorpusFormatError, match="token"):
            TR.train(model, [empty, empty], dev, vocab, TR.TrainConfig(max_epochs=1))

    def test_empty_dev_sentence_scores_nothing(self):
        """An empty dev sentence has no tokens to tag, so training reads the
        same dev scores with it as without it."""
        train, dev, vocab = toy_data()
        empty = TokenSequence(tokens=[], labels=[])
        cfg = TR.TrainConfig(max_epochs=2, patience=5, learning_rate=0.005)
        logs = []
        for dev_seqs in (dev, [dev[0], empty] + dev[1:]):
            model = tiny_model(vocab_size=len(vocab), dropout=0.1)
            logs.append([e.format() for e in TR.train(model, train, dev_seqs, vocab, cfg).log])
        assert logs[0] == logs[1]

    def test_all_fluent_dev_rejected(self):
        train, dev, vocab = toy_data()
        fluent_dev = [parse_annotated("a plain sentence")]
        model = tiny_model(vocab_size=len(vocab))
        with pytest.raises(ValueError, match="disfluent"):
            TR.train(model, train, fluent_dev, vocab, TR.TrainConfig(max_epochs=1))


def packing_model(dropout):
    """Windows wider than a 1-token sentence on both sides, in every layer."""
    cfg = ModelConfig(
        vocab_size=12, embedding_dim=3, dropout_rate=dropout,
        l2_weight=0.0, seed=4,
        layers=(LayerConfig("autocorr", ((2, 3), (0, 1)), 4),
                LayerConfig("conv", ((1, 2),), 3),
                LayerConfig("conv", ((3, 1),), 2)))
    return Model.build(cfg)


def packs_48(monkeypatch, model):
    """`model`, with the chunk budget set so that it packs 48 tokens a tagging
    pass: at CHUNK_BYTES a tiny model would tag every batch here in one pass,
    and these tests need several."""
    monkeypatch.setattr(TR, "CHUNK_BYTES", 8 * 48 * TR._token_floats(model.config))
    return model


def random_batch(lengths, seed=0):
    rng = Rng(seed)
    return [(rng.integers(0, 12, size=n), rng.integers(0, 2, size=n)) for n in lengths]


# 1-token sentences, one that fills a chunk of 48 alone and one longer than
# it; no run of these fills its budget exactly ([1, 20] is 21 tokens).
PACKING_LENGTHS = [1, 20, 28, 48, 1, 1, 60, 5, 1, 30, 17, 1]


class TestPacking:
    def test_chunks_are_whole_sentences_within_budget(self):
        sentences = [ids for ids, _ in random_batch(PACKING_LENGTHS)]
        runs = list(TR._chunks(sentences, 48))
        chunks = [lengths for lengths, _ in runs]
        assert chunks == [[1, 20], [28], [48], [1, 1], [60], [5, 1, 30], [17, 1]]
        assert [n for chunk in chunks for n in chunk] == PACKING_LENGTHS
        assert np.array_equal(np.concatenate([ids for _, ids in runs]),
                              np.concatenate(sentences))
        # a run that reaches its budget exactly (20 + 28 = 48) is kept whole
        exact = [ids for ids, _ in random_batch([20, 28, 1])]
        assert [lengths for lengths, _ in TR._chunks(exact, 48)] == [[20, 28], [1]]

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_packed_equals_sum_of_single_sentence_batches(self, dropout, monkeypatch):
        """Loss and every gradient of a packed batch equal the token-weighted
        sum of one-sentence batches run in the same order (with dropout, on
        one shared stream: a pass draws its sentences' masks back to back)."""
        batch = random_batch(PACKING_LENGTHS, seed=1)
        total = sum(PACKING_LENGTHS)
        model = packing_model(dropout)
        loss = TR.batch_loss_and_grads(model, batch, training=True, rng=Rng(9))
        grads = {name: p.grad.copy() for name, p in model.params.items()}
        want_loss = 0.0
        want = {name: np.zeros_like(g) for name, g in grads.items()}
        rng = Rng(9)
        for ids, labels in batch:
            part = TR.batch_loss_and_grads(model, [(ids, labels)], training=True, rng=rng)
            want_loss += part * len(ids) / total
            for name, p in model.params.items():
                want[name] += p.grad * (len(ids) / total)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
        for name, g in grads.items():
            assert np.allclose(g, want[name], rtol=1e-12, atol=1e-12), name

    def test_empty_sentence_rejected(self):
        batch = random_batch([3, 0, 2])
        with pytest.raises(ValueError):
            TR.batch_loss_and_grads(packing_model(0.0), batch)


class TestChunkBudget:
    """One memory budget sizes every model's passes from its config."""

    @staticmethod
    def tokens(config):
        return TR.CHUNK_BYTES // (8 * TR._token_floats(config))

    def test_table1_presets_pack_119_and_40_tokens(self):
        assert self.tokens(model_preset("acnn-table1", 3000)) == 119
        assert self.tokens(model_preset("cnn-table1", 3000)) == 40

    @pytest.mark.parametrize("preset", ["acnn-toy", "cnn-toy"])
    def test_toy_batch_is_one_pass(self, preset, monkeypatch):
        gen = replace(GENERATOR_PRESETS["rough-copy-hard"], sentence_count=25)
        corpus = [preprocess(s) for s in generate_corpus(gen)]
        vocab = build_vocab(corpus)
        batch = [(vocab.encode(s.tokens), s.disfluent_mask().astype(np.int64)) for s in corpus]
        model = Model.build(model_preset(preset, len(vocab), seed=1))
        passes = []
        forward_with_cache = Model.forward_with_cache

        def counted(self, ids, **kwargs):
            passes.append(len(ids))
            return forward_with_cache(self, ids, **kwargs)

        monkeypatch.setattr(Model, "forward_with_cache", counted)
        TR.batch_loss_and_grads(model, batch, training=True, rng=Rng(2))
        TR.predict_masks(model, corpus, vocab)
        assert passes == [sum(len(ids) for ids, _ in batch)] * 2

    @pytest.mark.parametrize("preset", MODEL_PRESETS)
    def test_depends_only_on_embedding_dim_and_layers(self, preset):
        config = model_preset(preset, 3000, seed=1)
        floats = TR._token_floats(config)
        assert TR._token_floats(replace(config, vocab_size=12, seed=9, dropout_rate=0.0,
                                        l2_weight=0.5)) == floats
        assert TR._token_floats(replace(config, embedding_dim=config.embedding_dim + 1)) > floats
        wider = replace(config.layers[-1], channels=2 * config.layers[-1].channels)
        assert TR._token_floats(replace(config, layers=(*config.layers[:-1], wider))) > floats


def step_fold_model(layer1="autocorr"):
    """A (5, 6) and an ell = 0 group at layer 1, autocorr unless `layer1`
    says "conv", dropout and L2 on."""
    cfg = ModelConfig(
        vocab_size=12, embedding_dim=3, dropout_rate=0.3,
        l2_weight=0.1, seed=6,
        layers=(LayerConfig(layer1, ((5, 6), (0, 2)), 4),
                LayerConfig("conv", ((1, 1),), 3),
                LayerConfig("conv", ((0, 1),), 2)))
    return Model.build(cfg)


# a 1-token sentence and one longer than packs_48's tagging pass, in 146 tokens
STEP_LENGTHS = [20, 1, 25, 60, 30, 10]
STEP_KERNELS = ("layer1.group0.B", "layer1.group1.B")


class TestStepFold:
    def test_equals_one_pass_over_the_batch(self):
        """The loss and every gradient, byte for byte, of one forward_with_cache,
        cross_entropy and backward over the concatenated batch, plus the L2
        penalty and, after the backward, its gradient."""
        batch = random_batch(STEP_LENGTHS, seed=2)
        model = step_fold_model()
        loss = TR.batch_loss_and_grads(model, batch, training=True, rng=Rng(3))
        grads = {name: p.grad.copy() for name, p in model.params.items()}
        ids, labels = (np.concatenate(column) for column in zip(*batch))
        probs, cache = model.forward_with_cache(ids, training=True, rng=Rng(3),
                                                lengths=STEP_LENGTHS)
        want_loss, dscores = TR.cross_entropy(probs, labels)
        model.backward(cache, dscores)
        TR.add_l2_grad(model.params, model.config.l2_weight)
        want_loss += TR.l2_penalty(model.params, model.config.l2_weight)
        assert loss == want_loss
        for name, p in model.params.items():
            assert grads[name].tobytes() == p.grad.tobytes(), name

    def test_batch_beyond_a_tagging_pass_is_one_pass(self, monkeypatch):
        """A batch of more tokens than a tagging pass holds still runs one
        forward_with_cache and one backward, and every B gradient it leaves is
        symmetric bit for bit."""
        model = packs_48(monkeypatch, step_fold_model())
        calls = []

        def counting(name):
            method = getattr(Model, name)

            def counted(self, *args, **kwargs):
                calls.append(name)
                return method(self, *args, **kwargs)
            return counted

        for name in ("forward_with_cache", "backward"):
            monkeypatch.setattr(Model, name, counting(name))
        TR.batch_loss_and_grads(model, random_batch(STEP_LENGTHS, seed=2),
                                training=True, rng=Rng(3))
        assert calls == ["forward_with_cache", "backward"]
        for name in STEP_KERNELS:
            g = model.params[name].grad
            assert g[:, 1, 0].any()
            assert g.tobytes() == np.swapaxes(g, 1, 2).copy().tobytes(), name

    def test_each_B_folded_once_per_call(self, folded, monkeypatch):
        """A Model.build model folds each B once per step and once per
        predict_masks call, over all of the call's tagging passes, afresh in
        every call."""
        model = packs_48(monkeypatch, step_fold_model())
        shapes = [model.params[name].value.shape for name in STEP_KERNELS]
        TR.batch_loss_and_grads(model, random_batch(STEP_LENGTHS, seed=2),
                                training=True, rng=Rng(3))
        assert folded == shapes
        folded.clear()
        vocab = packing_vocab()
        seqs = [TokenSequence(tokens=["w2"] * n, labels=[FLUENT] * n) for n in STEP_LENGTHS]
        for _ in range(2):
            assert len(TR.predict_masks(model, seqs, vocab)) == len(seqs)
        assert folded == shapes * 2


@pytest.fixture
def folded(monkeypatch):
    """The shape of every B that layers.fold folds, in call order."""
    shapes = []
    fold = L.fold

    def counted(B):
        shapes.append(B.shape)
        return fold(B)

    monkeypatch.setattr(L, "fold", counted)
    return shapes


def reloaded(model, tmp_path):
    """`model`'s values saved as a checkpoint and loaded back."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(Checkpoint(config=model.config, vocab_words=packing_vocab().words,
                               rng_algorithm=Rng.ALGORITHM, seed=model.config.seed,
                               step=0, tensors=model.params.values_copy()), path)
    return load_checkpoint(path)


class TestKeptFold:
    """A checkpoint-built model folds each B once, when it is built, and
    keeps the fold; a Model.build model, whose B training writes, folds on
    every call. The naive path runs beside the kept one."""

    @pytest.mark.parametrize("layer1", ["autocorr", "conv"], ids=["acnn", "cnn"])
    def test_folds_once_at_build_and_tags_identically(self, layer1, tmp_path, folded,
                                                       monkeypatch):
        """A loaded and a built model hold every A in one memory order
        (model._held), so they make the same GEMMs over the same operands:
        a call repeated, two loads of one checkpoint and a loaded and a built
        model give the same masks and the same probabilities byte for byte,
        on one-sentence and packed passes."""
        fresh = packs_48(monkeypatch, step_fold_model(layer1))
        shapes = [p.value.shape for _, p in fresh.params.items() if p.value.ndim == 4]
        kept = reloaded(fresh, tmp_path).build_model()
        assert folded == shapes
        twin = load_checkpoint(tmp_path / "m.ckpt").build_model()
        assert folded == shapes * 2
        folded.clear()
        vocab = packing_vocab()
        rng = Rng(7)
        seqs = [TokenSequence(tokens=[vocab.words[int(i)] for i in rng.integers(0, 12, size=n)],
                              labels=[FLUENT] * n) for n in STEP_LENGTHS]
        ids = np.concatenate([vocab.encode(s.tokens) for s in seqs])
        start = sum(STEP_LENGTHS[:3])
        alone = ids[start:start + STEP_LENGTHS[3]]  # the 60-token sentence

        def tag(model):
            """The bytes of three predict_masks calls' masks, and the
            probabilities of a packed and a one-sentence pass."""
            masks = [[m.tobytes() for m in TR.predict_masks(model, seqs, vocab)]
                     for _ in range(3)]
            return masks, model.forward(ids, lengths=STEP_LENGTHS), model.forward(alone)

        kept_masks, kept_probs, kept_alone = tag(kept)
        twin_masks, twin_probs, twin_alone = tag(twin)
        assert folded == []
        fresh_masks, fresh_probs, fresh_alone = tag(fresh)
        assert folded == shapes * 5
        for masks in (kept_masks, fresh_masks):
            assert masks[0] == masks[1] == masks[2]
        assert twin_masks == kept_masks == fresh_masks
        assert twin_probs.tobytes() == kept_probs.tobytes() == fresh_probs.tobytes()
        assert twin_alone.tobytes() == kept_alone.tobytes() == fresh_alone.tobytes()

    def test_loaded_kernels_are_in_the_order_their_gemm_reads(self, tmp_path):
        """A Model.build model and the checkpoint-built model of its values
        hold every A in one order, np.asfortranarray of the (c, w, m) tensor,
        with its gradient and moments in the same order, so that the operand
        kn2row's GEMM reads, A.transpose(1, 0, 2).reshape(w * c, m).T, is
        C-contiguous; every other tensor is C-contiguous. The loaded model
        keeps each B's fold as layers.fold makes it, C-contiguous blocks."""
        built = step_fold_model()
        saved = built.params.values_copy()
        loaded = reloaded(built, tmp_path).build_model()
        for model in (built, loaded):
            for name, p in model.params.items():
                arrays = (p.value, p.grad, p.adam_m, p.adam_v)
                if p.value.ndim == 3:
                    c, w, m = p.value.shape
                    assert all(a.flags.f_contiguous and not a.flags.c_contiguous
                               for a in arrays), name
                    assert p.value.tobytes("A") == np.asfortranarray(saved[name]).tobytes("A"), name
                    assert p.value.transpose(1, 0, 2).reshape(w * c, m).T.flags.c_contiguous, name
                else:
                    assert all(a.flags.c_contiguous for a in arrays), name
        assert sorted(loaded._kept_folds) == sorted(STEP_KERNELS)
        for name, blocks in loaded._kept_folds.items():
            fresh = L.fold(saved[name])
            assert len(blocks) == len(fresh), name
            for block, again in zip(blocks, fresh):
                assert block.flags.c_contiguous, name
                assert block.shape == again.shape and block.tobytes() == again.tobytes(), name

    def test_kept_folds_give_the_forward_pass_bytes(self):
        """At acnn-table1's geometry, a built model's with_kept_folds reads
        the blocks its own forward folds, so the two give the same
        probabilities byte for byte, on a one-sentence and a packed pass."""
        model = Model.build(model_preset("acnn-table1", vocab_size=12, seed=3))
        kept = model.with_kept_folds()
        ids = Rng(8).integers(0, 12, size=sum(STEP_LENGTHS))
        alone = ids[:STEP_LENGTHS[0]]
        assert kept.forward(alone).tobytes() == model.forward(alone).tobytes()
        assert (kept.forward(ids, lengths=STEP_LENGTHS).tobytes()
                == model.forward(ids, lengths=STEP_LENGTHS).tobytes())

    def test_B_is_read_only(self, tmp_path):
        ckpt = reloaded(step_fold_model(), tmp_path)
        model = ckpt.build_model()
        for name, p in model.params.items():
            assert p.value.flags.writeable == (name not in STEP_KERNELS), name
        with pytest.raises(ValueError):
            model.params["layer1.group0.B"].value[0, 0, 1, 0] = 1.0
        with pytest.raises(ValueError):
            ckpt.tensors["layer1.group1.B"][...] = 0.0
        with pytest.raises(ValueError):
            model.params.load_values(model.params.values_copy())
        TR.batch_loss_and_grads(model, random_batch(STEP_LENGTHS, seed=2),
                                training=True, rng=Rng(3))
        values = model.params.values_copy()
        moments = {name: (p.adam_m.copy(), p.adam_v.copy()) for name, p in model.params.items()}
        with pytest.raises(ValueError, match="'layer1.group0.B' is read-only"):
            TR.adam_step(model.params, 1, TR.TrainConfig())
        # refused before the first write: nothing moved, the tensors before B included
        for name, p in model.params.items():
            assert p.value.tobytes() == values[name].tobytes(), name
            assert p.adam_m.tobytes() == moments[name][0].tobytes(), name
            assert p.adam_v.tobytes() == moments[name][1].tobytes(), name

    def test_cnn_checkpoint_folds_nothing(self, tmp_path, folded):
        cfg = ModelConfig(vocab_size=12, embedding_dim=3, dropout_rate=0.0,
                          l2_weight=0.0, seed=6,
                          layers=(LayerConfig("conv", ((5, 6),), 4),
                                  LayerConfig("conv", ((0, 1),), 2)))
        model = reloaded(Model.build(cfg), tmp_path).build_model()
        seqs = [TokenSequence(tokens=["w2"] * n, labels=[FLUENT] * n) for n in STEP_LENGTHS]
        assert len(TR.predict_masks(model, seqs, packing_vocab())) == len(seqs)
        assert folded == []
        # no tensor of a cnn is a pair kernel, so none is read-only and it can be stepped
        before = model.params.values_copy()
        TR.batch_loss_and_grads(model, random_batch(STEP_LENGTHS, seed=2))
        TR.adam_step(model.params, 1, TR.TrainConfig())
        assert all(not np.array_equal(p.value, before[name]) for name, p in model.params.items()
                   if name != "embedding")


def packing_vocab():
    """Twelve words, so that every id packing_model can embed is reachable."""
    return Vocabulary(words=[PAD_WORD, UNK_WORD] + [f"w{i}" for i in range(2, 12)])


class TestPackedTagging:
    def test_packed_masks_equal_per_utterance_forward(self, monkeypatch):
        vocab = packing_vocab()
        rng = Rng(5)
        seqs = [TokenSequence(tokens=[vocab.words[int(i)] for i in rng.integers(0, 12, size=n)],
                              labels=[FLUENT] * n)
                for n in PACKING_LENGTHS]
        model = packs_48(monkeypatch, packing_model(0.0))
        alone = [model.forward(vocab.encode(s.tokens), training=False) for s in seqs]
        packed = []  # the probabilities of predict_masks' own forward passes
        forward = Model.forward

        def seen(self, ids, **kwargs):
            probs = forward(self, ids, **kwargs)
            lengths = kwargs.get("lengths") or [len(ids)]
            packed.extend(np.split(probs, np.cumsum(lengths[:-1])))
            return probs

        monkeypatch.setattr(Model, "forward", seen)
        masks = TR.predict_masks(model, seqs, vocab)
        assert len(masks) == len(seqs)
        for mask, probs in zip(masks, alone):
            assert np.array_equal(mask, probs.argmax(axis=1) == CLASS_DISFLUENT)
        for got, want in zip(packed, alone, strict=True):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_no_utterances_no_masks(self):
        assert TR.predict_masks(packing_model(0.0), [], packing_vocab()) == []

    def test_empty_utterances_get_empty_masks(self):
        vocab = packing_vocab()
        model = packing_model(0.0)
        empty = TokenSequence(tokens=[], labels=[])
        s0, s1 = (TokenSequence(tokens=[f"w{i % 10 + 2}" for i in range(n)],
                                labels=[FLUENT] * n) for n in (10, 8))
        alone = {id(s): TR.predict_masks(model, [s], vocab)[0] for s in (s0, s1)}
        for seqs in ([empty], [s0, empty, s1], [empty, s0, s1, empty]):
            masks = TR.predict_masks(model, seqs, vocab)
            assert len(masks) == len(seqs)
            for mask, seq in zip(masks, seqs):
                assert mask.dtype == bool
                want = alone[id(seq)] if seq.tokens else np.zeros(0, dtype=bool)
                assert np.array_equal(mask, want)


class TestMemory:
    @pytest.mark.parametrize("preset", ["cnn-table1", "acnn-table1"])
    def test_table1_step_peak_memory_bounded(self, preset):
        """Traced peak of one training step, one pass, on 25 switchboard-like
        sentences (198 tokens): near 26 MB for acnn-table1 and 22 MB for
        cnn-table1. The 32 MB bound fails a layer 1 that holds the window pairs
        and their gradient (near 54 MB at 48 tokens with windows cached). Band
        arrays kept from forward to backward may stay under it; the autocorr
        cache test in test_layers catches those."""
        gen = replace(GENERATOR_PRESETS["switchboard-like"], seed=1, sentence_count=25)
        corpus = [preprocess(s) for s in generate_corpus(gen)]
        vocab = build_vocab(corpus)
        batch = [(vocab.encode(s.tokens), s.disfluent_mask().astype(np.int64))
                 for s in corpus if s.tokens]
        model = Model.build(model_preset(preset, len(vocab), seed=1))
        tracemalloc.start()
        try:
            TR.batch_loss_and_grads(model, batch, training=True, rng=Rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, f"traced peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("preset", ["cnn-table1", "acnn-table1"])
    def test_packed_tagging_peak_memory_bounded(self, preset):
        """Traced peak of one predict_masks call over 12 utterances of 3-6
        joined switchboard-like sentences stays at that of the longest
        utterance alone: a chunk never holds more tokens than the budget, so
        tagging a file costs no more memory than tagging its longest line
        (about 1.05x for acnn-table1, 1.01x for cnn-table1). Budgets that pack
        hundreds of tokens per pass fail here."""
        gen = replace(GENERATOR_PRESETS["switchboard-like"], seed=3, sentence_count=60)
        sentences = [preprocess(s).tokens for s in generate_corpus(gen)]
        utterances, start = [], 0
        for size in [3, 6, 4, 6, 5, 6] * 2:
            tokens = [t for s in sentences[start:start + size] for t in s]
            utterances.append(TokenSequence(tokens=tokens, labels=[FLUENT] * len(tokens)))
            start += size
        vocab = build_vocab(utterances)
        model = Model.build(model_preset(preset, len(vocab), seed=1))
        longest = max(utterances, key=lambda u: len(u.tokens))

        def traced_peak(seqs):
            tracemalloc.start()
            try:
                TR.predict_masks(model, seqs, vocab)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone, together = traced_peak([longest]), traced_peak(utterances)
        assert together <= 1.1 * alone, (
            f"traced peak {together / 1e6:.1f} MB vs {alone / 1e6:.1f} MB alone")
