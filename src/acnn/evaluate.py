"""Scoring and diagnostics: token-level precision/recall/F over the disfluent
class, per-disfluency-type F-scores and error listings.

Undefined ratios (zero denominators) are reported as None, never silently as 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .data import TokenSequence, DisfluencySpan, KINDS


class AlignmentError(ValueError):
    pass


def format_percent(v: float | None) -> str:
    """A ratio as a percentage to two decimals, or "absent" where undefined."""
    return "absent" if v is None else f"{100 * v:.2f}"


@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float | None:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) > 0 else None

    @property
    def recall(self) -> float | None:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) > 0 else None

    @property
    def f1(self) -> float | None:
        p, r = self.precision, self.recall
        if p is None or r is None or (p + r) == 0:
            return None
        return 2 * p * r / (p + r)

    def format(self) -> str:
        return (f"tp={self.tp} fp={self.fp} fn={self.fn} P={format_percent(self.precision)} "
                f"R={format_percent(self.recall)} F={format_percent(self.f1)}")

    def as_tsv(self) -> str:
        rows = [("tp", self.tp), ("fp", self.fp), ("fn", self.fn),
                ("precision", self.precision), ("recall", self.recall),
                ("f1", self.f1)]
        return "\n".join(f"{k}\t{'absent' if v is None else v}" for k, v in rows)


def _check_alignment(gold: list[TokenSequence], predicted: list) -> None:
    if len(gold) != len(predicted):
        raise AlignmentError(
            f"{len(gold)} gold sentences vs {len(predicted)} predictions")
    for i, (seq, mask) in enumerate(zip(gold, predicted)):
        if len(seq.tokens) != len(mask):
            raise AlignmentError(
                f"sentence {i}: {len(seq.tokens)} tokens vs {len(mask)} predictions")


def _mask_pairs(gold: list[TokenSequence], predicted: list):
    """Check the alignment now, then yield (sentence, gold mask, predicted
    mask) per sentence, both masks boolean arrays."""
    _check_alignment(gold, predicted)
    return ((seq, seq.disfluent_mask(), np.asarray(mask, dtype=bool))
            for seq, mask in zip(gold, predicted))


def score(gold: list[TokenSequence], predicted: list) -> EvalReport:
    """Token-level counts over the disfluent class only. `predicted` is one
    boolean mask per sentence, aligned with the gold tokenization."""
    tp = fp = fn = 0
    for _, g, p in _mask_pairs(gold, predicted):
        tp += int((g & p).sum())
        fp += int((~g & p).sum())
        fn += int((g & ~p).sum())
    return EvalReport(tp=tp, fp=fp, fn=fn)


def _span_of(spans: list[DisfluencySpan], idx: int) -> DisfluencySpan | None:
    """The innermost span whose reparandum holds idx, or else the span whose
    reparandum is nearest to it; ties go to the earlier span."""
    def rank(s: DisfluencySpan) -> tuple[int, int]:
        a, b = s.reparandum
        distance = max(a - idx, idx - (b - 1), 0)
        return distance, (b - a) if distance == 0 else 0
    return min(spans, key=rank, default=None)


def score_by_kind(gold: list[TokenSequence], predicted: list) -> dict[str, EvalReport]:
    """F restricted to reparandum tokens of each disfluency kind. A token
    counts for the kind of one gold span, by one rule (_span_of): the
    innermost span whose reparandum holds it, or else the nearest. A gold
    disfluent token outside every reparandum counts for no kind."""
    reports = {k: EvalReport(tp=0, fp=0, fn=0) for k in KINDS}
    for seq, g, p in _mask_pairs(gold, predicted):
        for idx in np.flatnonzero(g | p):
            span = _span_of(seq.spans, idx)
            if span is None or g[idx] and not span.reparandum[0] <= idx < span.reparandum[1]:
                continue
            report = reports[span.kind]
            if not g[idx]:
                report.fp += 1
            elif p[idx]:
                report.tp += 1
            else:
                report.fn += 1
    return {k: r for k, r in reports.items() if (r.tp + r.fn + r.fp) > 0}


# ---------------------------------------------------------------------------
# Error listing
# ---------------------------------------------------------------------------

def render_marked(tokens, gold, predicted) -> str:
    """Plain-text rendering of gold vs predicted marks. Each token carries a
    suffix: /g gold-only, /p predicted-only, /gp both, none when fluent in
    both."""
    parts = []
    for tok, g, p in zip(tokens, gold, predicted):
        tag = ("g" if g else "") + ("p" if p else "")
        parts.append(f"{tok}/{tag}" if tag else tok)
    return " ".join(parts)


def error_listing(gold: list[TokenSequence], predicted: list,
                  limit: int | None = None) -> str:
    """One line `#<index>: <marked text>` per sentence whose predicted mask
    differs from its gold labels, for the first `limit` such sentences (all
    of them when None)."""
    lines = (f"#{i}: {render_marked(seq.tokens, g, p)}"
             for i, (seq, g, p) in enumerate(_mask_pairs(gold, predicted))
             if (g != p).any())
    return "\n".join(islice(lines, limit))
