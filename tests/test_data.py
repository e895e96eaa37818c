import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acnn import data as D


EXAMPLE = "i want a flight [ to boston + { uh i mean } to denver ] on friday"

# preprocess drops the punctuation and the partial word
WORDS = st.sampled_from(["a", "b", "uh", ",", "wou-"])


@st.composite
def bracket_region(draw, depth=0, min_size=0):
    """The tokens of a valid bracket-text region: words and disfluencies
    nested up to 4 deep, with optional (possibly empty) interregna and
    possibly empty repairs."""
    out = []
    for _ in range(draw(st.integers(min_size, 3))):
        if depth < 4 and draw(st.booleans()):
            out += ["[", *draw(bracket_region(depth + 1, 1)), "+"]
            interregnum = draw(st.none() | st.lists(WORDS, max_size=2))
            if interregnum is not None:
                out += ["{", *interregnum, "}"]
            out += [*draw(bracket_region(depth + 1)), "]"]
        else:
            out.append(draw(WORDS))
    return out


class TestParse:
    def test_flight_example_tokens_and_labels(self):
        seq = D.parse_annotated(EXAMPLE)
        assert seq.tokens == ("i want a flight to boston uh i mean "
                              "to denver on friday").split()
        disfluent = {t for t, lab in zip(seq.tokens, seq.labels)
                     if lab == D.DISFLUENT}
        assert disfluent == {"to", "boston"}

    def test_flight_example_span_structure(self):
        seq = D.parse_annotated(EXAMPLE)
        (span,) = seq.spans
        assert span.reparandum == (4, 6)
        assert span.interregnum == (6, 9)
        assert span.repair == (9, 11)
        assert span.kind == D.KIND_CORRECTION

    def test_repetition(self):
        seq = D.parse_annotated("the [ big + big ] dog")
        assert seq.spans[0].kind == D.KIND_REPETITION
        assert seq.labels == ["_", "E", "_", "_"]

    def test_restart_no_repair(self):
        seq = D.parse_annotated("[ we want + ] they need a car")
        (span,) = seq.spans
        assert span.repair is None
        assert span.kind == D.KIND_RESTART
        assert seq.labels[:2] == ["E", "E"]

    def test_interregnum_only_restart(self):
        seq = D.parse_annotated("[ so + { uh } ] we left")
        (span,) = seq.spans
        assert span.repair is None
        assert span.interregnum == (1, 2)
        assert seq.labels == ["E", "_", "_", "_"]

    def test_nested_disfluency(self):
        seq = D.parse_annotated("i [ [ a + a ] cat + a dog ] slept")
        kinds = sorted(s.kind for s in seq.spans)
        assert kinds == [D.KIND_CORRECTION, D.KIND_REPETITION]
        # both copies of "a" plus "cat" live in some reparandum
        disfluent = [t for t, lab in zip(seq.tokens, seq.labels)
                     if lab == D.DISFLUENT]
        assert disfluent == ["a", "a", "cat"]

    # each malformed line and its whole error message
    MALFORMED = {
        "a [ b c": "'[' without matching '+'",
        "a [ b + c": "'[' without matching ']'",
        "a ] b": "unexpected ']' at token 1",
        "a + b": "unexpected '+' at token 1",
        "[ a + ] ]": "unexpected ']' at token 4",
        "[ a + b } ]": "unexpected '}' at token 4",
        "a { uh } b": "interregnum braces only allowed after '+' (token 1)",
        "[ a + { uh } { x } b ]": "interregnum braces only allowed after '+' (token 6)",
        "[ + a ]": "empty reparandum",
        "[ a + { uh": "'{' without matching '}'",
        "[ a + { uh ]": "nested annotation inside interregnum",
        "[ a + { [ b + b ] } c ]": "nested annotation inside interregnum",
    }

    @pytest.mark.parametrize("bad", list(MALFORMED))
    def test_malformed_input_rejected(self, bad):
        with pytest.raises(D.CorpusFormatError, match=f"^{re.escape(self.MALFORMED[bad])}$"):
            D.parse_annotated(bad)

    def test_nesting_limit(self):
        deep = "[ a + " * (D.MAX_NESTING + 1) + "b" + " ]" * (D.MAX_NESTING + 1)
        message = f"disfluencies nested deeper than {D.MAX_NESTING} at token {3 * D.MAX_NESTING}"
        with pytest.raises(D.CorpusFormatError, match=f"^{re.escape(message)}$"):
            D.parse_annotated(deep)
        assert len(D.parse_annotated(deep[6:-2]).spans) == D.MAX_NESTING


class TestWriteBracket:
    @pytest.mark.parametrize("text", [
        EXAMPLE,
        "the [ big + big ] dog",
        "[ we want + ] they need a car",
        "i [ [ a + a ] cat + a dog ] slept",
        "plain fluent words only",
        "[ a + b ] then [ c c + { um } c c ] end",
        # spans that share an extent
        "[ [ b + ] + ]",
        "i [ [ uh + ] + ] want",
        "[ [ to + { uh } ] + ] to boston",
    ])
    def test_round_trip(self, text):
        seq = D.parse_annotated(text)
        assert D.write_bracket(seq) == text

    def test_thousand_generated_sentences_round_trip(self):
        cfg = replace(D.GENERATOR_PRESETS["toy"], sentence_count=1000, seed=123)
        for seq in D.generate_corpus(cfg):
            text = D.write_bracket(seq)
            again = D.parse_annotated(text)
            assert again.tokens == seq.tokens
            assert again.labels == seq.labels
            assert again.spans == seq.spans

    @given(st.builds(" ".join, bracket_region()))
    @settings(max_examples=300, deadline=None)
    def test_nested_round_trip(self, text):
        seq = D.parse_annotated(text)
        for s in (seq, D.preprocess(seq)):
            again = D.parse_annotated(D.write_bracket(s))
            assert (again.tokens, again.labels) == (s.tokens, s.labels)
            # spans with one extent may come back in another list order
            assert Counter(again.spans) == Counter(s.spans)


class TestPreprocess:
    def test_drops_partials_and_punctuation(self):
        seq = D.TokenSequence(tokens=["Well", ",", "I", "wou-", "would"],
                              labels=["_", "_", "_", "E", "_"])
        out = D.preprocess(seq)
        assert out.tokens == ["well", "i", "would"]
        assert out.labels == ["_", "_", "_"]

    def test_span_indices_remapped(self):
        seq = D.parse_annotated("oh , [ the the + the ] dog ran")
        out = D.preprocess(seq)
        assert out.tokens == ["oh", "the", "the", "the", "dog", "ran"]
        (span,) = out.spans
        assert span.reparandum == (1, 3)
        assert span.repair == (3, 4)
        assert out.labels == ["_", "E", "E", "_", "_", "_"]

    def test_span_dropped_when_reparandum_vanishes(self):
        seq = D.parse_annotated("a [ wou- + would ] go")
        out = D.preprocess(seq)
        assert out.tokens == ["a", "would", "go"]
        assert out.spans == []
        assert out.labels == ["_", "_", "_"]

    def test_kind_reclassified_after_dropping(self):
        # correction degrades to repetition once the differing partial is gone
        seq = D.parse_annotated("[ the wou- + the ] dog")
        assert seq.spans[0].kind == D.KIND_CORRECTION
        out = D.preprocess(seq)
        assert out.spans[0].kind == D.KIND_REPETITION

    def test_idempotent(self):
        cfg = replace(D.GENERATOR_PRESETS["toy"], sentence_count=200, seed=5)
        for seq in D.generate_corpus(cfg):
            once = D.preprocess(seq)
            twice = D.preprocess(once)
            assert twice.tokens == once.tokens
            assert twice.labels == once.labels
            assert twice.spans == once.spans


class TestClassify:
    def test_empty_repair_is_restart(self):
        span = D.DisfluencySpan((0, 1), None, None, "")
        assert D.classify_span(span, ["a", "b"]) == D.KIND_RESTART

    def test_verbatim_repair_is_repetition(self):
        span = D.DisfluencySpan((0, 2), None, (2, 4), "")
        assert D.classify_span(span, ["a", "b", "a", "b"]) == D.KIND_REPETITION

    def test_differing_repair_is_correction(self):
        span = D.DisfluencySpan((0, 2), None, (2, 4), "")
        assert D.classify_span(span, ["a", "b", "a", "c"]) == D.KIND_CORRECTION


class TestVocabulary:
    def corpus(self):
        return [D.TokenSequence(tokens="the dog saw the cat".split(),
                                labels=["_"] * 5),
                D.TokenSequence(tokens="the cat ran".split(), labels=["_"] * 3)]

    def test_frequency_order_with_tie_break(self):
        vocab = D.build_vocab(self.corpus())
        assert vocab.words[:2] == [D.PAD_WORD, D.UNK_WORD]
        assert vocab.words[2:] == ["the", "cat", "dog", "ran", "saw"]

    def test_encode_decode_round_trip(self):
        vocab = D.build_vocab(self.corpus())
        ids = vocab.encode(["the", "cat", "dog"])
        assert [vocab.words[i] for i in ids] == ["the", "cat", "dog"]

    def test_unknown_maps_to_unk(self):
        vocab = D.build_vocab(self.corpus())
        assert vocab.encode(["zebra"]).tolist() == [D.UNK_ID]

    def test_min_freq_filters(self):
        vocab = D.build_vocab(self.corpus(), min_freq=2)
        assert "the" in vocab.index and "cat" in vocab.index
        assert "dog" not in vocab.index
        assert vocab.encode(["dog"]).tolist() == [D.UNK_ID]

    @pytest.mark.parametrize("min_freq", [0, -3])
    def test_min_freq_below_one_rejected(self, min_freq):
        with pytest.raises(ValueError, match="min_freq"):
            D.build_vocab(self.corpus(), min_freq=min_freq)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            D.build_vocab([])

    def test_reserved_words_are_not_counted(self):
        corpus = [D.TokenSequence(tokens="<unk> cat <pad> cat <pad>".split(), labels=["_"] * 5)]
        vocab = D.build_vocab(corpus)
        assert vocab.words == [D.PAD_WORD, D.UNK_WORD, "cat"]
        assert vocab.encode(["<pad>", "<unk>", "cat"]).tolist() == [0, D.UNK_ID, 2]


class TestCorpusFiles:
    def test_read_sentences_preprocesses_and_drops_empty(self, tmp_path):
        path = tmp_path / "c.bt"
        path.write_text("So , I\n. ,\n[ We + { uh } they ] went-\n")
        assert [(s.tokens, s.labels) for s in D.read_sentences(path)] == [
            (["so", "i"], ["_", "_"]), (["we", "uh", "they"], ["E", "_", "_"])]

    def test_bracket_file_round_trip(self, tmp_path):
        cfg = replace(D.GENERATOR_PRESETS["toy"], sentence_count=50, seed=3)
        seqs = D.generate_corpus(cfg)
        path = tmp_path / "c.bt"
        D.write_corpus(seqs, path, "bracket-text")
        loaded = D.read_corpus(path, "bracket-text")
        assert len(loaded) == len(seqs)
        for a, b in zip(loaded, seqs):
            assert a.tokens == b.tokens and a.labels == b.labels and a.spans == b.spans

    def test_tabular_round_trip_drops_spans(self, tmp_path):
        seqs = [D.parse_annotated(EXAMPLE), D.parse_annotated("just fine")]
        path = tmp_path / "c.tab"
        D.write_corpus(seqs, path, "tabular")
        loaded = D.read_corpus(path, "tabular")
        assert [s.tokens for s in loaded] == [s.tokens for s in seqs]
        assert [s.labels for s in loaded] == [s.labels for s in seqs]
        assert all(s.spans == [] for s in loaded)

    @pytest.mark.parametrize("ending", ["", "\n"])
    def test_tabular_last_sentence_without_blank_line(self, tmp_path, ending):
        path = tmp_path / "c.tab"
        path.write_text("a\tE\na\t_\n\nb\t_\nc\tE" + ending)
        loaded = D.read_corpus(path, "tabular")
        assert [s.tokens for s in loaded] == [["a", "a"], ["b", "c"]]
        assert [s.labels for s in loaded] == [["E", "_"], ["_", "E"]]

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "c.bt"
        path.write_text("old content\n")
        with pytest.raises(ValueError):
            D.write_corpus([D.parse_annotated("just fine")], path, "no-such-format")
        assert path.read_text() == "old content\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.bt"]

    def test_parse_error_includes_line_number(self, tmp_path):
        path = tmp_path / "bad.bt"
        path.write_text("fine line\na [ broken\n")
        with pytest.raises(D.CorpusFormatError, match=r":2:"):
            D.read_corpus(path, "bracket-text")

    def test_tabular_error_includes_line_number(self, tmp_path):
        path = tmp_path / "bad.tab"
        path.write_text("ok\t_\nnot a pair\n")
        with pytest.raises(D.CorpusFormatError, match=r":2:"):
            D.read_corpus(path, "tabular")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            D.read_corpus(tmp_path / "x", "csv")


class TestGeneratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            D.GeneratorConfig(kind_mix=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            D.GeneratorConfig(fluent_ratio=1.5)
        with pytest.raises(ValueError):
            D.GeneratorConfig(distance_histogram=((0, 0.5), (1, 0.4)))


class TestGenerator:
    def test_deterministic(self):
        cfg = replace(D.GENERATOR_PRESETS["toy"], seed=42)
        a = D.generate_corpus(cfg)
        b = D.generate_corpus(cfg)
        assert [s.tokens for s in a] == [s.tokens for s in b]
        assert [s.labels for s in a] == [s.labels for s in b]

    def test_seed_changes_output(self):
        cfg = D.GENERATOR_PRESETS["toy"]
        a = D.generate_corpus(replace(cfg, seed=1))
        b = D.generate_corpus(replace(cfg, seed=2))
        assert [s.tokens for s in a] != [s.tokens for s in b]

    def test_fluent_ratio_extremes(self):
        cfg = replace(D.GENERATOR_PRESETS["toy"], sentence_count=100,
                      fluent_ratio=1.0)
        assert all(not s.spans for s in D.generate_corpus(cfg))
        cfg = replace(cfg, fluent_ratio=0.0)
        assert all(s.spans for s in D.generate_corpus(cfg))

    def test_kinds_follow_mix(self):
        cfg = replace(D.GENERATOR_PRESETS["toy"], sentence_count=2000,
                      fluent_ratio=0.0, kind_mix=(1.0, 0.0, 0.0), seed=8)
        for seq in D.generate_corpus(cfg):
            assert all(s.kind == D.KIND_REPETITION for s in seq.spans)

    def test_distance_histogram_matches_config(self):
        cfg = replace(D.GENERATOR_PRESETS["rough-copy-hard"],
                      sentence_count=4000, seed=17)
        seqs = D.generate_corpus(cfg)
        got = D.distance_histogram(seqs)
        for d, p in dict(cfg.distance_histogram).items():
            assert abs(got.get(d, 0.0) - p) < 0.03, (d, got.get(d), p)

    def test_histogram_without_zero_bucket_gives_no_zero_gap(self):
        """distance_histogram is the whole gap distribution: with no 0 bucket,
        every repair follows an interregnum."""
        cfg = D.GeneratorConfig(distance_histogram=((1, 0.5), (2, 0.5)),
                                sentence_count=2000, fluent_ratio=0.0, seed=3)
        got = D.distance_histogram(D.generate_corpus(cfg))
        assert got and 0 not in got

    def test_disfluent_token_rate_switchboard_like(self):
        seqs = D.generate_corpus(D.GENERATOR_PRESETS["switchboard-like"])
        rate = D.disfluent_token_rate(seqs)
        assert 0.05 <= rate <= 0.08

    def test_exact_copy_rate_near_target(self):
        seqs = D.generate_corpus(D.GENERATOR_PRESETS["switchboard-like"])
        assert abs(D.exact_copy_rate(seqs) - 0.60) <= 0.05


class TestStats:
    def test_copy_rate_hand_counts(self):
        seqs = [D.parse_annotated("[ a b + a c ] d"),   # 1 of 2 copied
                D.parse_annotated("[ e + e ] f"),       # 1 of 1 copied
                D.parse_annotated("[ g + ] h")]         # restart: 0 of 1
        assert D.exact_copy_rate(seqs) == pytest.approx(2 / 4)

    def test_distance_histogram_hand_counts(self):
        seqs = [D.parse_annotated("[ a + a ] x"),
                D.parse_annotated("[ b + { uh } b ] y"),
                D.parse_annotated("[ c + ] z")]  # restart excluded
        hist = D.distance_histogram(seqs)
        assert hist == {0: 0.5, 1: 0.5}

    def test_disfluent_rate_hand_counts(self):
        seqs = [D.parse_annotated("[ a + a ] x y")]  # 1 of 4 tokens
        assert D.disfluent_token_rate(seqs) == pytest.approx(0.25)

    def test_empty_inputs(self):
        assert D.exact_copy_rate([]) == 0.0
        assert D.distance_histogram([]) == {}
        assert D.disfluent_token_rate([]) == 0.0


token = st.text(alphabet="abcdefg", min_size=1, max_size=4)


@given(st.lists(token, min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_fluent_text_parses_to_itself(words):
    seq = D.parse_annotated(" ".join(words))
    assert seq.tokens == words
    assert all(lab == D.FLUENT for lab in seq.labels)
    assert D.write_bracket(seq) == " ".join(words)
