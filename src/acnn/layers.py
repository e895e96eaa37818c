"""Forward and backward passes for the network's operators.

One-dimensional convolution over a token sequence, the auto-correlation
operator (convolution plus a learned contraction over the pairwise Hadamard
interaction tensor of the window), ReLU, row softmax, inverted dropout, and the
width-1 (per-position affine) convolution. Every learned term is built from
one matmul, `_contract`, with one adjoint, `_contract_backward`: the A-term is
one call over the windows, width-1 one call over the rows themselves, and
autocorr's B-term one call per window row i over that row's pairs.

The interaction tensor is symmetric, x_i * x_j == x_j * x_i, so autocorr uses
only the w(w+1)/2 window pairs with i <= j, one window row at a time: row i's
pairs (i, i .. w-1) are contracted with its block of the folded kernel,
Bs[i][:, j - i] = B[i, j] + B[j, i] (i < j) and Bs[i][:, 0] = B[i, i], which
equals the full w*w contraction with B. B itself keeps its (c, w, w, m) shape.
Each call forms only row i's (n, w-i, m) block of products, and no array of
all the pairs is ever held: the backward forms each block again from the
cached windows.

Conventions: inputs are (n, m) matrices, one row per token. All operators are
stride 1, so the output always has n rows. A kernel group with left width
`ell` and right width `r` sees a window of w = ell + r + 1 rows covering
positions t-ell .. t+r inclusive.

One window rule: the windowed operators take the sentence `lengths` of the
rows, which may be several sentences stacked in order (default: one sentence
of n rows). A window slot reads a row only if that row lies in the window row's
own sentence; any other slot, past a sentence's end or in a neighbouring
sentence, reads zero (_window_mask). Zero padding is the one-sentence case, and
each output row equals that of its sentence run on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Rng


@dataclass(frozen=True)
class ConvKernelSpec:
    """Kernel geometry for one group: window covers ell words of left context,
    the target word, and r words of right context."""

    ell: int
    r: int

    def __post_init__(self):
        if self.ell < 0:
            raise ValueError(f"ell must be >= 0, got {self.ell}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")

    @property
    def width(self) -> int:
        return self.ell + self.r + 1


def _window_mask(lengths, ell: int, r: int) -> np.ndarray:
    """(n, w) bool: True where window slot k of row t reads a row of t's own
    sentence, for sentences of `lengths` stacked in order (n = sum(lengths)).
    Every other slot reads zero."""
    lengths = np.asarray(lengths)
    ends = np.repeat(np.cumsum(lengths), lengths)
    begins = ends - np.repeat(lengths, lengths)
    src = np.arange(len(ends))[:, None] + np.arange(-ell, r + 1)
    return (src >= begins[:, None]) & (src < ends[:, None])


def sliding_windows(x: np.ndarray, ell: int, r: int, mask: np.ndarray) -> np.ndarray:
    """(n, w, m) windows: out[t, k] = x[t - ell + k] where `mask` (see
    _window_mask) is True, a zero vector where it is False. C-contiguous, so
    that the matmuls of _contract and its adjoint read it as one (n, w*m)
    matrix."""
    n = len(x)
    src = np.clip(np.arange(n)[:, None] + np.arange(-ell, r + 1), 0, n - 1)
    win = np.take(x, src, axis=0)
    win[~mask] = 0.0
    return win


def _scatter_windows(dwin: np.ndarray, n: int, ell: int, mask: np.ndarray) -> np.ndarray:
    """Adjoint of sliding_windows: accumulate window gradients back onto rows.
    Overwrites the masked-out slots of dwin with zeros."""
    _, w, m = dwin.shape
    dwin[~mask] = 0.0
    dpad = np.zeros((n + w - 1, m), dtype=dwin.dtype)
    for k in range(w):
        dpad[k : k + n] += dwin[:, k, :]
    return dpad[ell : ell + n]


def _contract(feats: np.ndarray, K: np.ndarray) -> np.ndarray:
    """out[t, u] = K[u] . feats[t] for feats (n, ...) and K (c, ...). Every learned
    term is this matmul, so autocorr with B == 0 is conv1d bit for bit."""
    return feats.reshape(len(feats), -1) @ K.reshape(len(K), -1).T


def _contract_backward(feats: np.ndarray, K: np.ndarray, upstream: np.ndarray):
    """(dK, dfeats) of a _contract call, given the upstream gradient (n, c)."""
    n, c = len(feats), len(K)
    if upstream.shape != (n, c):
        raise ValueError(f"upstream shape {upstream.shape} != ({n}, {c})")
    dK = upstream.T @ feats.reshape(n, -1)
    dfeats = upstream @ K.reshape(c, -1)
    return dK.reshape(K.shape), dfeats.reshape(feats.shape)


@dataclass
class ConvCache:
    n: int
    spec: ConvKernelSpec
    windows: np.ndarray  # (n, w, m)
    mask: np.ndarray  # (n, w) bool _window_mask of the sentences


@dataclass
class AutoCorrCache(ConvCache):
    folded: list[np.ndarray]  # _fold(B): row i's (c, w-i, m) kernel block


def _fold(B: np.ndarray) -> list[np.ndarray]:
    """B folded onto the window pairs i <= j, one (c, w-i, m) block per window
    row i over its pairs (i, i .. w-1): their contraction equals B's over all
    w*w pairs of a symmetric interaction tensor."""
    c, w, _, m = B.shape
    folded = []
    for i in range(w):
        row = np.empty((c, w - i, m), dtype=B.dtype)
        row[:, 0] = B[:, i, i]
        np.add(B[:, i, i + 1 :], B[:, i + 1 :, i], out=row[:, 1:])
        folded.append(row)
    return folded


def _mirror(dB: np.ndarray) -> None:
    """Copy the i < j half of a (c, w, w, m) kernel gradient onto its i > j
    half: the adjoint of _fold sends pair (i, j)'s gradient to both entries, so
    a gradient summed on the i <= j half is completed by one copy."""
    for i in range(dB.shape[1]):
        dB[:, i + 1 :, i] = dB[:, i, i + 1 :]


def _checked_windows(x: np.ndarray, spec: ConvKernelSpec, A: np.ndarray,
                     b: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray]:
    """The windows of x and their _window_mask, once x, A, b and the sentence
    lengths (None: one sentence of all rows) are checked against each other."""
    n, m = x.shape
    if n == 0:
        raise ValueError("empty input sequence")
    if lengths is None:
        lengths = [n]
    elif sum(lengths) != n or min(lengths) < 1:
        raise ValueError(f"sentence lengths {list(lengths)} do not split {n} rows")
    w = spec.width
    if A.ndim != 3 or A.shape[1:] != (w, m):
        raise ValueError(f"A kernel shape {A.shape} incompatible with window ({w}, {m})")
    if b.shape != (A.shape[0],):
        raise ValueError(f"bias shape {b.shape} != ({A.shape[0]},)")
    mask = _window_mask(lengths, spec.ell, spec.r)
    return sliding_windows(x, spec.ell, spec.r, mask), mask


def conv1d_forward(x: np.ndarray, spec: ConvKernelSpec, A: np.ndarray,
                   b: np.ndarray, lengths=None) -> tuple[np.ndarray, ConvCache]:
    """out[t, u] = A[u] . window(x, t) + b[u], for A of shape (c, w, m); the
    rows of x are sentences of `lengths` (default: one sentence)."""
    win, mask = _checked_windows(x, spec, A, b, lengths)
    return _contract(win, A) + b, ConvCache(n=x.shape[0], spec=spec, windows=win, mask=mask)


def conv1d_backward(cache: ConvCache, A: np.ndarray, upstream: np.ndarray):
    """Gradients of a conv1d_forward call: returns (dx, dA, db)."""
    dA, dwin = _contract_backward(cache.windows, A, upstream)
    dx = _scatter_windows(dwin, cache.n, cache.spec.ell, cache.mask)
    return dx, dA, upstream.sum(axis=0)


def autocorr_forward(x: np.ndarray, spec: ConvKernelSpec, A: np.ndarray,
                     B: np.ndarray, b: np.ndarray, lengths=None, *,
                     folded: list[np.ndarray] | None = None) -> tuple[np.ndarray, AutoCorrCache]:
    """out[t, u] = A[u] . window + B[u] . (window x window interactions) + b[u].

    B has shape (c, w, w, m); its term contracts the w*w*m sub-tensor of the
    pairwise interaction tensor restricted to the window at t, computed over
    the pairs i <= j with B folded (see the module docstring). `folded` is
    _fold(B) when the caller has it already, so that several calls over one B
    fold it once. With B == 0 this is exactly conv1d_forward. The rows of x are
    sentences of `lengths` (default: one sentence); a masked-out window row is
    zero, and so is every interaction entry it takes part in.
    """
    win, mask = _checked_windows(x, spec, A, b, lengths)
    n, w, m = win.shape
    if B.shape != (A.shape[0], w, w, m):
        raise ValueError(f"B kernel shape {B.shape} != ({A.shape[0]}, {w}, {w}, {m})")
    folded = _fold(B) if folded is None else folded
    out = _contract(win, A)
    for i, Bs in enumerate(folded):  # the pairs (i, i .. w-1)
        out += _contract(win[:, i : i + 1] * win[:, i:], Bs)
    return out + b, AutoCorrCache(n=n, spec=spec, windows=win, mask=mask, folded=folded)


def autocorr_backward(cache: AutoCorrCache, A: np.ndarray, upstream: np.ndarray,
                      dB: np.ndarray):
    """Gradients of an autocorr_forward call: returns (dx, dA, db). The kernel
    gradient is added onto the i <= j half of the caller's (c, w, w, m) `dB`
    in place, and its i > j half is neither read nor written: a caller
    summing several calls into `dB` completes it once with _mirror.

    The input gradient carries both the first-order path through A and the
    second-order path through every interaction entry touching a row; diagonal
    entries contribute the doubled 2 * B_diag * x term automatically.
    """
    win = cache.windows
    dA, dwin = _contract_backward(win, A, upstream)
    for i, Bs in enumerate(cache.folded):
        dBs, drow = _contract_backward(win[:, i : i + 1] * win[:, i:], Bs, upstream)
        # adjoint of _fold, i <= j half: pair (i, j)'s gradient, which _mirror
        # later copies to B[j, i]
        dB[:, i, i:] += dBs
        # pair (i, j) = win[i] * win[j] sends drow * win[j] to row i and
        # drow * win[i] to row j; for i == j both land on row i.
        dwin[:, i] += np.einsum("njm,njm->nm", drow, win[:, i:])
        dwin[:, i:] += drow * win[:, i : i + 1]
    dx = _scatter_windows(dwin, cache.n, cache.spec.ell, cache.mask)
    return dx, dA, upstream.sum(axis=0)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x_pre: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    # Subgradient at exactly 0 is defined as 0.
    return upstream * (x_pre > 0)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by row-max subtraction."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_xent_backward(probs: np.ndarray, label_ids: np.ndarray,
                          normalizer: int) -> np.ndarray:
    """Fused gradient of mean cross-entropy w.r.t. pre-softmax scores:
    (softmax - onehot) / normalizer."""
    d = probs.copy()
    d[np.arange(len(label_ids)), label_ids] -= 1.0
    return d / normalizer


def dropout(x: np.ndarray, rate: float, rng: Rng | None,
            training: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: zero with probability `rate`, scale survivors by
    1/(1-rate). Identity in eval mode; returns (output, mask)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def width1_forward(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-position affine map: a convolution with ell = r = 0."""
    if W.ndim != 2 or W.shape[1] != x.shape[1]:
        raise ValueError(f"weight shape {W.shape} incompatible with input {x.shape}")
    if b.shape != (W.shape[0],):
        raise ValueError(f"bias shape {b.shape} != ({W.shape[0]},)")
    return _contract(x, W) + b


def width1_backward(x: np.ndarray, W: np.ndarray, upstream: np.ndarray):
    dW, dx = _contract_backward(x, W, upstream)
    return dx, dW, upstream.sum(axis=0)
