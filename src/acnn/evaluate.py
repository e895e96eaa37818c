"""Scoring and diagnostics: token-level precision/recall/F over the disfluent
class, per-disfluency-type F-scores, error listings, and the embedding
cosine-similarity heatmap.

Undefined ratios (zero denominators) are reported as None, never silently as 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open
from .data import TokenSequence, DisfluencySpan, KINDS


class AlignmentError(ValueError):
    pass


@dataclass(frozen=True)
class ErrorRecord:
    sentence: int
    tokens: tuple[str, ...]
    gold: tuple[bool, ...]
    predicted: tuple[bool, ...]


@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    errors: list[ErrorRecord] = field(default_factory=list)

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
        def fmt(v):
            return "absent" if v is None else f"{100 * v:.2f}"
        return (f"tp={self.tp} fp={self.fp} fn={self.fn} "
                f"P={fmt(self.precision)} R={fmt(self.recall)} F={fmt(self.f1)}")

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


def score(gold: list[TokenSequence], predicted: list) -> EvalReport:
    """Token-level counts over the disfluent class only. `predicted` is one
    boolean mask per sentence, aligned with the gold tokenization."""
    _check_alignment(gold, predicted)
    tp = fp = fn = 0
    errors = []
    for i, (seq, mask) in enumerate(zip(gold, predicted)):
        g = seq.disfluent_mask()
        p = np.asarray(mask, dtype=bool)
        tp += int((g & p).sum())
        fp += int((~g & p).sum())
        fn += int((g & ~p).sum())
        if (g != p).any():
            errors.append(ErrorRecord(sentence=i, tokens=tuple(seq.tokens),
                                      gold=tuple(g), predicted=tuple(p)))
    return EvalReport(tp=tp, fp=fp, fn=fn, errors=errors)


def _innermost_span(spans: list[DisfluencySpan], idx: int) -> DisfluencySpan | None:
    """Smallest reparandum range containing idx; ties go to the earlier span."""
    best = None
    for s in spans:
        a, b = s.reparandum
        if a <= idx < b and (best is None or (b - a) < (best.reparandum[1] - best.reparandum[0])):
            best = s
    return best


def _nearest_span(spans: list[DisfluencySpan], idx: int) -> DisfluencySpan | None:
    """Span whose reparandum is closest to idx; ties go to the earlier span."""
    best = None
    best_dist = None
    for s in spans:
        a, b = s.reparandum
        d = 0 if a <= idx < b else min(abs(idx - a), abs(idx - (b - 1)))
        if best_dist is None or d < best_dist:
            best, best_dist = s, d
    return best


def score_by_kind(gold: list[TokenSequence], predicted: list) -> dict[str, EvalReport]:
    """F restricted to reparandum tokens of each disfluency kind. Gold
    disfluent tokens are attributed to the innermost containing span; false
    positives to the nearest gold span in the sentence."""
    _check_alignment(gold, predicted)
    reports = {k: EvalReport(tp=0, fp=0, fn=0) for k in KINDS}
    for seq, mask in zip(gold, predicted):
        g = seq.disfluent_mask()
        p = np.asarray(mask, dtype=bool)
        for idx in range(len(seq.tokens)):
            if g[idx]:
                span = _innermost_span(seq.spans, idx)
                if span is None:
                    continue
                if p[idx]:
                    reports[span.kind].tp += 1
                else:
                    reports[span.kind].fn += 1
            elif p[idx]:
                span = _nearest_span(seq.spans, idx)
                if span is not None:
                    reports[span.kind].fp += 1
    return {k: r for k, r in reports.items() if (r.tp + r.fn + r.fp) > 0}


# ---------------------------------------------------------------------------
# Embedding similarity heatmap
# ---------------------------------------------------------------------------

def similarity_heatmap(embeddings: np.ndarray, token_ids) -> tuple[np.ndarray, list[int]]:
    """Pairwise cosine similarities between the embedding rows of a sentence.

    Returns (matrix, flagged) where flagged lists positions with zero-norm
    embeddings; any pair involving a flagged position gets similarity 0.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    vecs = embeddings[ids]
    norms = np.linalg.norm(vecs, axis=1)
    flagged = [int(i) for i in np.where(norms == 0)[0]]
    safe = np.where(norms == 0, 1.0, norms)
    unit = vecs / safe[:, None]
    mat = unit @ unit.T
    mat[flagged, :] = 0.0
    mat[:, flagged] = 0.0
    nz = norms > 0
    np.fill_diagonal(mat, np.where(nz, 1.0, 0.0))
    return mat, flagged


def heatmap_text(matrix: np.ndarray, tokens: list[str] | None = None) -> str:
    lines = []
    if tokens is not None:
        lines.append(" ".join(tokens))
    for row in matrix:
        lines.append(" ".join(f"{v:+.2f}" for v in row))
    return "\n".join(lines)


def write_heatmap_pgm(matrix: np.ndarray, path) -> None:
    """Binary (P5) grayscale image; cosine -1..1 maps linearly to 0..255."""
    scaled = np.clip(np.round((matrix + 1.0) * 127.5), 0, 255).astype(np.uint8)
    h, w = scaled.shape
    with atomic_open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())


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


def error_listing(report: EvalReport, limit: int | None = None) -> str:
    records = report.errors if limit is None else report.errors[:limit]
    return "\n".join(
        f"#{r.sentence}: {render_marked(r.tokens, r.gold, r.predicted)}"
        for r in records)
