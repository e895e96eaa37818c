"""Corpus statistics that the tests check the synthetic generator against."""

from collections import Counter

from acnn.data import DISFLUENT, TokenSequence


def exact_copy_rate(seqs: list[TokenSequence]) -> float:
    """Fraction of reparandum words that also occur in their repair. Restart
    reparanda count toward the denominator with zero copies."""
    copied = 0
    total = 0
    for seq in seqs:
        for s in seq.spans:
            rep = seq.tokens[s.reparandum[0]:s.reparandum[1]]
            total += len(rep)
            if s.repair is None:
                continue
            fix = set(seq.tokens[s.repair[0]:s.repair[1]])
            copied += sum(1 for t in rep if t in fix)
    return copied / total if total else 0.0


def distance_histogram(seqs: list[TokenSequence]) -> dict[int, float]:
    """Empirical distribution of the token gap between reparandum end and
    repair start, over spans that have a repair."""
    counts: Counter[int] = Counter()
    for seq in seqs:
        for s in seq.spans:
            if s.repair is None:
                continue
            counts[s.repair[0] - s.reparandum[1]] += 1
    total = sum(counts.values())
    return {d: c / total for d, c in sorted(counts.items())} if total else {}


def disfluent_token_rate(seqs: list[TokenSequence]) -> float:
    disfluent = sum(lab == DISFLUENT for seq in seqs for lab in seq.labels)
    total = sum(len(seq.tokens) for seq in seqs)
    return disfluent / total if total else 0.0
