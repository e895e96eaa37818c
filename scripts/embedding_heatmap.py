#!/usr/bin/env python3
"""Render the pairwise embedding cosine-similarity matrix of a sentence under
a trained checkpoint, as text and optionally as a PGM image. The image path is
checked as every acnn output is (atomic.check_outputs) before the checkpoint is
read: one that would replace the checkpoint is a usage error, and one that is
a directory or lies under a file is a data error; both exit 2."""

import argparse

import numpy as np

from acnn.atomic import atomic_open, check_outputs
from acnn.data import CorpusFormatError, Vocabulary, parse_annotated, preprocess
from acnn.model import CheckpointError, load_checkpoint


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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--checkpoint", required=True)
    ap.add_argument("--sentence", required=True,
                    help="bracket-text sentence, e.g. 'the [ big + big ] dog'")
    ap.add_argument("--pgm", default=None, help="optional output image path")
    args = ap.parse_args()
    try:
        seq = preprocess(parse_annotated(args.sentence))
    except CorpusFormatError as e:
        ap.error(f"--sentence: {e}")
    if args.pgm:
        try:
            check_outputs({"checkpoint": args.checkpoint}, {"image": args.pgm})
        except ValueError as e:
            ap.error(f"--pgm: {e}")
        except OSError as e:
            ap.exit(2, f"{ap.prog}: error: --pgm: {e}\n")

    try:
        ckpt = load_checkpoint(args.checkpoint)
    except (OSError, CheckpointError) as e:
        ap.exit(2, f"{ap.prog}: error: checkpoint {args.checkpoint}: {e}\n")
    vocab = Vocabulary(words=ckpt.vocab_words)
    ids = vocab.encode(seq.tokens)
    emb = ckpt.tensors["embedding"]
    mat, flagged = similarity_heatmap(emb, ids)
    print(heatmap_text(mat, tokens=seq.tokens))
    if flagged:
        print(f"zero-norm embeddings at positions: {flagged}")
    if args.pgm:
        write_heatmap_pgm(mat, args.pgm)
        print(f"wrote {args.pgm}")


if __name__ == "__main__":
    main()
