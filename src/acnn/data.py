"""Transcript handling and synthetic corpus generation.

The canonical annotation format is bracket-text: one utterance per line,
space-separated tokens, with the reserved standalone tokens

    [ reparandum + { interregnum } repair ]

marking a disfluency. Reparandum words (at any nesting depth) are labeled
disfluent; interregnum and repair words are fluent. `+` is the interruption
point. Disfluencies may nest inside reparandum or repair regions.

The tabular format is one "token<TAB>label" pair per line with blank-line
sentence separators; labels are `_` (fluent) and `E` (disfluent), and a token
is one bracket-text token: not empty, no whitespace. Tabular files drop span
typing.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .atomic import atomic_open
from .tensor import Rng

FLUENT = "_"
DISFLUENT = "E"

KIND_REPETITION = "repetition"
KIND_CORRECTION = "correction"
KIND_RESTART = "restart"
KINDS = (KIND_REPETITION, KIND_CORRECTION, KIND_RESTART)

RESERVED = ("[", "]", "{", "}", "+")

# Deepest disfluency nesting a bracket-text line may have: a documented limit
# of the format, far beyond any transcript.
MAX_NESTING = 100

UNK_ID = 1
PAD_WORD = "<pad>"
UNK_WORD = "<unk>"


class CorpusFormatError(ValueError):
    pass


@dataclass(frozen=True)
class DisfluencySpan:
    """Token-index ranges (half-open) of one disfluency in the flat token list.
    `repair` is None for restarts (abandoned sentence prefixes)."""

    reparandum: tuple[int, int]
    interregnum: tuple[int, int] | None
    repair: tuple[int, int] | None
    kind: str


@dataclass
class TokenSequence:
    tokens: list[str]
    labels: list[str]
    spans: list[DisfluencySpan] = field(default_factory=list)

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise CorpusFormatError("tokens and labels must have equal length")

    def disfluent_mask(self) -> np.ndarray:
        return np.array([lab == DISFLUENT for lab in self.labels], dtype=bool)


def classify_span(span: DisfluencySpan, tokens: list[str]) -> str:
    """Repetition if the repair repeats the reparandum verbatim, restart if
    there is no repair, correction otherwise."""
    if span.repair is None or span.repair[0] == span.repair[1]:
        return KIND_RESTART
    rep = tokens[span.reparandum[0]:span.reparandum[1]]
    fix = tokens[span.repair[0]:span.repair[1]]
    return KIND_REPETITION if rep == fix else KIND_CORRECTION


def parse_annotated(text: str) -> TokenSequence:
    """Parse one bracket-annotated utterance, in one pass over its tokens."""
    tokens: list[str] = []
    labels: list[str] = []
    spans: list[DisfluencySpan] = []
    # open disfluencies, innermost last, as [phase, reparandum start, reparandum
    # end, interregnum end]; the phase is "reparandum", "+" (just after the
    # '+'), "interregnum" or "repair"
    stack: list[list] = []
    edit_depth = 0  # open disfluencies still in their reparandum
    for pos, tok in enumerate(text.split()):
        top = stack[-1] if stack else (None,)  # outside every disfluency
        if top[0] == "+" and tok == "{":
            top[0] = "interregnum"
            continue
        if top[0] == "+":
            top[0] = "repair"
        if tok not in RESERVED:
            tokens.append(tok)
            labels.append(DISFLUENT if edit_depth > 0 else FLUENT)
        elif top[0] == "interregnum" and tok == "}":
            top[0], top[3] = "repair", len(tokens)
        elif top[0] == "interregnum":
            raise CorpusFormatError("nested annotation inside interregnum")
        elif tok == "[":
            if len(stack) == MAX_NESTING:
                raise CorpusFormatError(
                    f"disfluencies nested deeper than {MAX_NESTING} at token {pos}")
            stack.append(["reparandum", len(tokens), None, None])
            edit_depth += 1
        elif tok == "+" and top[0] == "reparandum":
            if len(tokens) == top[1]:
                raise CorpusFormatError("empty reparandum")
            top[0], top[2], top[3] = "+", len(tokens), len(tokens)
            edit_depth -= 1
        elif tok == "]" and top[0] == "repair":
            _, rep_start, rep_end, ig_end = stack.pop()
            span = DisfluencySpan(
                reparandum=(rep_start, rep_end),
                interregnum=(rep_end, ig_end) if ig_end > rep_end else None,
                repair=(ig_end, len(tokens)) if len(tokens) > ig_end else None, kind="")
            spans.append(replace(span, kind=classify_span(span, tokens)))
        elif tok == "{":
            raise CorpusFormatError(f"interregnum braces only allowed after '+' (token {pos})")
        else:
            raise CorpusFormatError(f"unexpected {tok!r} at token {pos}")
    if stack:
        raise CorpusFormatError({"reparandum": "'[' without matching '+'",
                                 "interregnum": "'{' without matching '}'"}.get(
                                     stack[-1][0], "'[' without matching ']'"))
    spans.sort(key=lambda s: (s.reparandum[0], -(_span_end(s) - s.reparandum[0])))
    return TokenSequence(tokens=tokens, labels=labels, spans=spans)


def _span_end(span: DisfluencySpan) -> int:
    if span.repair is not None:
        return span.repair[1]
    if span.interregnum is not None:
        return span.interregnum[1]
    return span.reparandum[1]


def write_bracket(seq: TokenSequence) -> str:
    """Render a TokenSequence back to bracket-text, in one pass over its
    spans' marks in token order. Inverse of parse_annotated on tokens, labels and spans (spans
    that share an extent may come back in another list order)."""
    # (boundary, sort key, marks): at a token boundary an interregnum's '}'
    # goes first; then each '+' and ']', innermost span first (shorter extent,
    # then earlier reparandum end, then list order, so that spans alike close
    # one by one; a span's '+' before its ']'); then the '['s, whose order
    # (the reverse) reads the same
    marks: list[tuple] = []
    for i, s in enumerate(seq.spans):
        (start, rep_end), end = s.reparandum, _span_end(s)
        inner = (end - start, rep_end, i)
        plus = ["+"]
        if s.interregnum is not None:
            plus.append("{")
            marks.append((s.interregnum[1], (-1,), ["}"]))
        marks += [(rep_end, (0, *inner, 0), plus), (end, (0, *inner, 1), ["]"]),
                  (start, (1,), ["["])]
    out: list[str] = []
    done = 0  # tokens written
    for boundary, _, words in sorted(marks):
        out += seq.tokens[done:boundary]
        out += words
        done = boundary
    out += seq.tokens[done:]
    return " ".join(out)


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

_PUNCT = set(string.punctuation)


def _is_punct(token: str) -> bool:
    return bool(token) and all(c in _PUNCT for c in token)


def _is_partial(token: str) -> bool:
    # Partial words use the trailing-hyphen convention, e.g. "wou-".
    return token.endswith("-") and len(token) > 1 and not _is_punct(token)


def preprocess(seq: TokenSequence) -> TokenSequence:
    """Lowercase, drop punctuation-only and partial-word tokens, and remap
    labels and span indices consistently. Idempotent."""
    keep = [not (_is_punct(t) or _is_partial(t)) for t in seq.tokens]
    # new_index[i] = number of kept tokens strictly before old index i
    new_index = np.concatenate([[0], np.cumsum(keep)])

    def remap(rng: tuple[int, int] | None) -> tuple[int, int] | None:
        if rng is None:
            return None
        a, b = int(new_index[rng[0]]), int(new_index[rng[1]])
        return (a, b) if b > a else None

    tokens = [t.lower() for t, k in zip(seq.tokens, keep) if k]
    labels = [lab for lab, k in zip(seq.labels, keep) if k]
    spans = []
    for s in seq.spans:
        rep = remap(s.reparandum)
        if rep is None:
            continue
        span = DisfluencySpan(reparandum=rep, interregnum=remap(s.interregnum),
                              repair=remap(s.repair), kind="")
        spans.append(replace(span, kind=classify_span(span, tokens)))
    return TokenSequence(tokens=tokens, labels=labels, spans=spans)


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

@dataclass
class Vocabulary:
    words: list[str]              # id order; words[0] = <pad>, words[1] = <unk>
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def encode(self, tokens: list[str]) -> np.ndarray:
        return np.array([self.index.get(t, UNK_ID) for t in tokens], dtype=np.int64)


def build_vocab(corpus: list[TokenSequence], min_freq: int = 1) -> Vocabulary:
    """Frequency-ordered vocabulary with lexicographic tie-break; words below
    min_freq are left out and map to <unk> at encode time. The reserved
    <pad> and <unk> are never counted, so no word appears twice. A corpus in
    which no word reaches min_freq is a CorpusFormatError: every token would
    read as <unk>."""
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    if not corpus:
        raise CorpusFormatError("cannot build a vocabulary from an empty corpus")
    counts = Counter(t for seq in corpus for t in seq.tokens if t not in (PAD_WORD, UNK_WORD))
    ordered = sorted((w for w, c in counts.items() if c >= min_freq),
                     key=lambda w: (-counts[w], w))
    if not ordered:
        raise CorpusFormatError(f"no word of the corpus reaches min_freq={min_freq}")
    return Vocabulary(words=[PAD_WORD, UNK_WORD] + ordered)


# ---------------------------------------------------------------------------
# Corpus files
# ---------------------------------------------------------------------------

def _numbered_lines(path):
    """(line number, line) of a UTF-8 text file; other bytes are a CorpusFormatError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def read_corpus(path, fmt: str = "bracket-text") -> list[TokenSequence]:
    if fmt == "bracket-text":
        seqs = []
        for lineno, line in _numbered_lines(path):
            line = line.strip()
            if not line:
                continue
            try:
                seqs.append(parse_annotated(line))
            except CorpusFormatError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
        return seqs
    if fmt == "tabular":
        seqs = []
        tokens: list[str] = []
        labels: list[str] = []
        for lineno, line in _numbered_lines(path):
            line = line.rstrip("\n")
            if not line.strip():
                if tokens:
                    seqs.append(TokenSequence(tokens=tokens, labels=labels))
                    tokens, labels = [], []
                continue
            parts = line.split("\t")
            if len(parts) != 2 or parts[1] not in (FLUENT, DISFLUENT):
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected 'token<TAB>{FLUENT}|{DISFLUENT}', got {line!r}")
            # a token is what bracket-text's split gives: not empty, no whitespace
            if parts[0].split() != [parts[0]]:
                raise CorpusFormatError(
                    f"{path}:{lineno}: token {parts[0]!r} is empty or holds whitespace")
            tokens.append(parts[0])
            labels.append(parts[1])
        if tokens:
            seqs.append(TokenSequence(tokens=tokens, labels=labels))
        return seqs
    raise ValueError(f"unknown corpus format {fmt!r}")


def read_sentences(path, fmt: str = "bracket-text") -> list[TokenSequence]:
    """A corpus file, preprocessed, without the sentences that preprocessing
    leaves empty: what training and tagging read."""
    return [s for s in map(preprocess, read_corpus(path, fmt)) if s.tokens]


def write_corpus(seqs: list[TokenSequence], path, fmt: str = "bracket-text") -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        if fmt == "bracket-text":
            for seq in seqs:
                fh.write(write_bracket(seq) + "\n")
        elif fmt == "tabular":
            for seq in seqs:
                for tok, lab in zip(seq.tokens, seq.labels):
                    fh.write(f"{tok}\t{lab}\n")
                fh.write("\n")
        else:
            raise ValueError(f"unknown corpus format {fmt!r}")


# ---------------------------------------------------------------------------
# Synthetic corpus generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    sentence_count: int = 1000
    fluent_ratio: float = 0.5
    # kind probabilities, in KINDS order (repetition, correction, restart)
    kind_mix: tuple[float, float, float] = (0.5, 0.4, 0.1)
    # distribution over reparandum chunk length
    reparandum_lengths: tuple[tuple[int, float], ...] = ((1, 0.3), (2, 0.3), (3, 0.25), (4, 0.15))
    # distribution over the token gap between reparandum and repair, 0 included:
    # bucket 0 is the chance of no interregnum, and a positive gap is filled by
    # interregnum words
    distance_histogram: tuple[tuple[int, float], ...] = ((0, 0.5), (1, 0.25), (2, 0.15), (3, 0.1))

    def __post_init__(self):
        if self.sentence_count < 1:
            raise ValueError("sentence_count must be >= 1")
        if not 0.0 <= self.fluent_ratio <= 1.0:
            raise ValueError("fluent_ratio must be in [0, 1]")
        if abs(sum(self.kind_mix) - 1.0) > 1e-9 or any(p < 0 for p in self.kind_mix):
            raise ValueError("kind_mix must be a probability triple")
        for dist in (self.reparandum_lengths, self.distance_histogram):
            if abs(sum(p for _, p in dist) - 1.0) > 1e-9 or any(p < 0 for _, p in dist):
                raise ValueError("distribution must be normalized and non-negative")
        if any(d < 0 or d > 12 for d, _ in self.distance_histogram):
            raise ValueError("distance buckets must be in 0..12")
        if any(l < 1 for l, _ in self.reparandum_lengths):
            raise ValueError("reparandum lengths must be >= 1")


# Small hand-written template grammar: enough structure to make fluent
# sentences varied, small enough to stay dependency-free and deterministic.
LEXICON: dict[str, tuple[str, ...]] = {
    "PRON": ("i", "you", "we", "they", "he", "she"),
    "DET": ("the", "a", "this", "that", "my", "your", "our", "their", "some", "every"),
    "NOUN": (
        "flight", "meeting", "house", "dog", "car", "road", "school", "teacher",
        "garden", "book", "river", "city", "train", "ticket", "doctor", "window",
        "kitchen", "table", "phone", "letter", "movie", "store", "coffee",
        "morning", "winter", "friend", "neighbor", "office", "computer", "game",
        "song", "child", "family", "weekend", "market", "bridge", "farm",
        "horse", "lake", "mountain", "picture", "paper", "class", "lesson",
        "job", "boss", "plan", "trip", "hotel", "beach", "party", "dinner",
        "street", "station", "airport", "island", "valley", "forest", "museum",
        "library", "bakery", "engine", "cabin", "harbor", "tunnel", "tower",
    ),
    "VERB": (
        "want", "need", "like", "see", "take", "find", "buy", "sell", "build",
        "drive", "watch", "read", "write", "call", "visit", "plan", "start",
        "finish", "teach", "learn", "play", "move", "paint", "clean", "fix",
        "rent", "borrow", "remember", "forget", "enjoy", "book", "miss",
    ),
    "ADJ": (
        "big", "small", "old", "new", "red", "blue", "green", "long", "short",
        "nice", "cheap", "quiet", "busy", "early", "late", "warm", "cold",
        "easy", "hard", "pretty", "strange", "narrow", "bright", "empty",
    ),
    "PREP": ("in", "on", "at", "to", "with", "for", "near", "behind", "around",
             "after", "before"),
    "ADV": ("really", "probably", "usually", "maybe", "often", "always",
            "sometimes", "definitely"),
}

FILLERS = ("uh", "um", "well")
FILLER_PHRASES = (("i", "mean"), ("you", "know"))

TEMPLATES: tuple[tuple[str, ...], ...] = (
    ("PRON", "VERB", "DET", "ADJ", "NOUN", "PREP", "DET", "NOUN"),
    ("PRON", "ADV", "VERB", "DET", "NOUN"),
    ("DET", "NOUN", "VERB", "PREP", "DET", "ADJ", "NOUN"),
    ("PRON", "VERB", "to", "VERB", "DET", "NOUN", "PREP", "DET", "NOUN"),
    ("PRON", "VERB", "DET", "NOUN", "and", "DET", "NOUN"),
    ("ADV", "PRON", "VERB", "DET", "NOUN", "PREP", "DET", "NOUN"),
    ("PRON", "VERB", "that", "DET", "NOUN", "VERB", "DET", "NOUN"),
    ("DET", "ADJ", "NOUN", "PREP", "DET", "NOUN", "VERB", "DET", "NOUN"),
    ("PRON", "VERB", "DET", "NOUN", "PREP", "DET", "ADJ", "NOUN"),
    ("PRON", "ADV", "VERB", "PREP", "DET", "NOUN"),
)


def _fluent_sentence(rng: Rng) -> list[tuple[str, str | None]]:
    """Returns (word, category) pairs; literals carry category None."""
    template = rng.choice(TEMPLATES)
    out = []
    for slot in template:
        if slot in LEXICON:
            out.append((rng.choice(LEXICON[slot]), slot))
        else:
            out.append((slot, None))
    return out


def _sample_dist(rng: Rng, dist: tuple[tuple[int, float], ...]) -> int:
    values = [v for v, _ in dist]
    probs = [p for _, p in dist]
    return values[rng.weighted_index(probs)]


def _interregnum(rng: Rng, cfg: GeneratorConfig) -> list[str]:
    """Filler words for a gap drawn from cfg.distance_histogram: none with
    the probability of bucket 0, else a positive bucket's length."""
    zero = sum(p for d, p in cfg.distance_histogram if d == 0)
    pos = tuple((d, p) for d, p in cfg.distance_histogram if d > 0)
    if rng.random() >= 1.0 - zero or not pos:
        return []
    length = _sample_dist(rng, pos)
    out: list[str] = []
    while len(out) < length:
        if length - len(out) >= 2 and rng.random() < 0.4:
            out.extend(rng.choice(FILLER_PHRASES))
        else:
            out.append(rng.choice(FILLERS))
    return out


def _perturb(rng: Rng, pairs: list[tuple[str, str | None]]) -> list[str]:
    """Replace 1-2 tokens of the chunk with other same-category words."""
    out = [w for w, _ in pairs]
    n = len(pairs)
    k = 1 if n == 1 else 1 + int(rng.random() < 0.5)
    positions = list(rng.permutation(n)[:k])
    for i in positions:
        word, cat = pairs[i]
        pool = LEXICON.get(cat) or LEXICON["NOUN"]
        repl = rng.choice(pool)
        while repl == word and len(pool) > 1:
            repl = rng.choice(pool)
        out[i] = repl
    return out


def _annotate(rng: Rng, cfg: GeneratorConfig,
              sent: list[tuple[str, str | None]]) -> list[str]:
    kind = KINDS[rng.weighted_index(cfg.kind_mix)]
    words = [w for w, _ in sent]
    ig = _interregnum(rng, cfg)
    braced = ["{", *ig, "}"] if ig else []
    if kind == KIND_RESTART:
        alt = _fluent_sentence(rng)
        length = min(_sample_dist(rng, cfg.reparandum_lengths), len(alt))
        prefix = [w for w, _ in alt[:length]]
        return ["[", *prefix, "+", *braced, "]", *words]
    length = min(_sample_dist(rng, cfg.reparandum_lengths), len(sent))
    start = int(rng.integers(0, len(sent) - length + 1))
    chunk = sent[start : start + length]
    if kind == KIND_REPETITION:
        reparandum = [w for w, _ in chunk]
    else:
        reparandum = _perturb(rng, chunk)
    repair = [w for w, _ in chunk]
    return [*words[:start], "[", *reparandum, "+", *braced, *repair, "]",
            *words[start + length:]]


def generate_corpus(cfg: GeneratorConfig) -> list[TokenSequence]:
    """Fluent template sentences with injected disfluencies, returned as fully
    parsed TokenSequences (so generated output round-trips by construction)."""
    rng = Rng(cfg.seed)
    out = []
    for _ in range(cfg.sentence_count):
        sent = _fluent_sentence(rng)
        if rng.random() < cfg.fluent_ratio:
            toks = [w for w, _ in sent]
        else:
            toks = _annotate(rng, cfg, sent)
        out.append(parse_annotated(" ".join(toks)))
    return out


GENERATOR_PRESETS: dict[str, GeneratorConfig] = {
    # Skewed like real conversational data: ~6% of tokens disfluent.
    "switchboard-like": GeneratorConfig(
        sentence_count=4000, fluent_ratio=0.72,
        kind_mix=(0.42, 0.44, 0.14),
        reparandum_lengths=((1, 0.35), (2, 0.3), (3, 0.2), (4, 0.15)),
        distance_histogram=((0, 0.4), (1, 0.3), (2, 0.2), (3, 0.1)),
    ),
    # Correction-heavy, copy distances bounded so an r=6 window covers them.
    "rough-copy-hard": GeneratorConfig(
        sentence_count=2500, fluent_ratio=0.35,
        kind_mix=(0.3, 0.6, 0.1),
        reparandum_lengths=((1, 0.2), (2, 0.35), (3, 0.3), (4, 0.15)),
        distance_histogram=((0, 0.4), (1, 0.35), (2, 0.25)),
    ),
    # Small and fast, for tests.
    "toy": GeneratorConfig(
        sentence_count=300, fluent_ratio=0.4,
        kind_mix=(0.5, 0.4, 0.1),
        reparandum_lengths=((1, 0.35), (2, 0.35), (3, 0.3)),
        distance_histogram=((0, 0.5), (1, 0.3), (2, 0.2)),
    ),
}

