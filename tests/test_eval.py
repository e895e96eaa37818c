import numpy as np
import pytest

from acnn import evaluate as E
from acnn.data import DISFLUENT, FLUENT, DisfluencySpan, TokenSequence, parse_annotated


def seqs_and_masks():
    # gold disfluent: "a b" (2 tokens); predict one right, one wrong, one extra
    gold = [parse_annotated("[ a b + a c ] d"),
            parse_annotated("x y z")]
    masks = [np.array([True, False, False, False, False]),   # tp=1 fn=1
             np.array([True, False, False])]                 # fp=1
    return gold, masks


class TestScore:
    def test_hand_counts(self):
        gold, masks = seqs_and_masks()
        report = E.score(gold, masks)
        assert (report.tp, report.fp, report.fn) == (1, 1, 1)
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(0.5)
        assert report.f1 == pytest.approx(0.5)

    def test_perfect_prediction(self):
        gold = [parse_annotated("[ a + a ] b")]
        report = E.score(gold, [gold[0].disfluent_mask()])
        assert (report.tp, report.fp, report.fn) == (1, 0, 0)
        assert report.f1 == 1.0
        assert E.error_listing(gold, [gold[0].disfluent_mask()]) == ""

    def test_degenerate_denominators_are_none(self):
        gold = [parse_annotated("a b")]
        report = E.score(gold, [np.array([False, False])])
        assert report.precision is None
        assert report.recall is None
        assert report.f1 is None
        assert "absent" in report.format()
        assert "absent" in report.as_tsv()

    def test_zero_f1_when_nothing_right(self):
        gold = [parse_annotated("[ a + a ] b")]
        report = E.score(gold, [np.array([False, True, True])])
        assert report.tp == 0
        assert report.f1 is None  # P and R both zero -> F undefined

    def test_sentence_order_symmetric(self):
        gold, masks = seqs_and_masks()
        a = E.score(gold, masks)
        b = E.score(gold[::-1], masks[::-1])
        assert (a.tp, a.fp, a.fn) == (b.tp, b.fp, b.fn)

    def test_accumulates_per_sentence_counts(self):
        gold, masks = seqs_and_masks()
        whole = E.score(gold, masks)
        parts = [E.score([g], [m]) for g, m in zip(gold, masks)]
        assert whole.tp == sum(p.tp for p in parts)
        assert whole.fp == sum(p.fp for p in parts)
        assert whole.fn == sum(p.fn for p in parts)

    def test_error_records_only_for_mistakes(self):
        gold, masks = seqs_and_masks()
        listing = E.error_listing(gold, masks)
        assert [line.split(":")[0] for line in listing.splitlines()] == ["#0", "#1"]
        assert E.error_listing([gold[0]], [gold[0].disfluent_mask()]) == ""

    def test_length_mismatch_rejected(self):
        gold, masks = seqs_and_masks()
        with pytest.raises(E.AlignmentError):
            E.score(gold, masks[:1])
        with pytest.raises(E.AlignmentError):
            E.score([gold[0]], [np.array([True])])
        with pytest.raises(E.AlignmentError):
            E.error_listing(gold, masks[:1])


class TestScoreByKind:
    def test_kinds_partition_gold_tokens(self):
        gold = [parse_annotated("[ a + a ] x [ b c + b d ] y [ e + ] z")]
        g = gold[0].disfluent_mask()
        by_kind = E.score_by_kind(gold, [g])
        assert by_kind["repetition"].tp == 1
        assert by_kind["correction"].tp == 2
        assert by_kind["restart"].tp == 1
        total = E.score(gold, [g])
        assert sum(r.tp for r in by_kind.values()) == total.tp

    def test_miss_counts_as_kind_fn(self):
        gold = [parse_annotated("[ a + a ] x")]
        by_kind = E.score_by_kind(gold, [np.array([False, False, False])])
        assert by_kind["repetition"].fn == 1

    def test_false_positive_goes_to_nearest_span(self):
        # two spans; the stray prediction at the last token is nearest the
        # second (correction) span
        gold = [parse_annotated("[ a + a ] m m m [ b + c ] n")]
        mask = gold[0].disfluent_mask()
        mask[-1] = True
        by_kind = E.score_by_kind(gold, [mask])
        assert by_kind["correction"].fp == 1
        assert by_kind["repetition"].fp == 0

    def test_fp_in_fluent_sentence_ignored(self):
        gold = [parse_annotated("x y")]
        by_kind = E.score_by_kind(gold, [np.array([True, False])])
        assert by_kind == {}

    def test_nested_token_attributed_to_innermost(self):
        gold = [parse_annotated("i [ [ a + a ] cat + a dog ] slept")]
        mask = gold[0].disfluent_mask()
        by_kind = E.score_by_kind(gold, [mask])
        # the inner repetition's reparandum is just the first "a"; its repair
        # and "cat" sit in the outer correction's reparandum
        assert by_kind["repetition"].tp == 1
        assert by_kind["correction"].tp == 2

    def test_gold_token_outside_every_reparandum_counts_for_no_kind(self):
        # "b" is labelled disfluent, but no span's reparandum holds it
        seq = TokenSequence(tokens=["a", "x", "b"], labels=[DISFLUENT, FLUENT, DISFLUENT],
                            spans=[DisfluencySpan((0, 1), None, None, "restart")])
        for mask in ([True, False, True], [True, False, False]):
            by_kind = E.score_by_kind([seq], [np.array(mask)])
            assert {k: (r.tp, r.fp, r.fn) for k, r in by_kind.items()} == {"restart": (1, 0, 0)}


class TestMarkedText:
    def test_rendering(self):
        text = E.render_marked(["a", "b", "c", "d"],
                               [True, True, False, False],
                               [True, False, True, False])
        assert text == "a/gp b/g c/p d"

    def test_error_listing(self):
        gold, masks = seqs_and_masks()
        listing = E.error_listing(gold, masks)
        assert listing.splitlines()[0].startswith("#0:")
        assert "a/gp" in listing
        assert len(E.error_listing(gold, masks, limit=1).splitlines()) == 1
