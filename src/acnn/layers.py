"""Forward and backward passes for the network's operators.

One-dimensional convolution over a token sequence, the auto-correlation
operator (convolution plus a learned contraction over the pairwise Hadamard
interaction tensor of the window), ReLU, row softmax, inverted dropout, and the
width-1 (per-position affine) convolution. The convolution's A-term is written
once and shared by both operators; autocorr adds only its B-term.

Conventions: inputs are (n, m) matrices, one row per token. All operators are
stride 1 with virtual zero padding, so the output always has n rows. A kernel
group with left width `ell` and right width `r` sees a window of
w = ell + r + 1 rows covering positions t-ell .. t+r inclusive.
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


def sliding_windows(x: np.ndarray, ell: int, r: int) -> np.ndarray:
    """(n, w, m) stack of zero-padded windows: out[t, k] = x[t - ell + k], with
    rows outside 0..n-1 read as zero vectors."""
    n, m = x.shape
    w = ell + r + 1
    padded = np.zeros((n + w - 1, m), dtype=x.dtype)
    padded[ell : ell + n] = x
    view = np.lib.stride_tricks.sliding_window_view(padded, (w, m))
    return view.reshape(n, w, m)


def _scatter_windows(dwin: np.ndarray, n: int, ell: int) -> np.ndarray:
    """Adjoint of sliding_windows: accumulate window gradients back onto rows."""
    _, w, m = dwin.shape
    dpad = np.zeros((n + w - 1, m), dtype=dwin.dtype)
    for k in range(w):
        dpad[k : k + n] += dwin[:, k, :]
    return dpad[ell : ell + n]


@dataclass
class ConvCache:
    n: int
    spec: ConvKernelSpec
    windows: np.ndarray  # (n, w, m)


@dataclass
class AutoCorrCache(ConvCache):
    pair_windows: np.ndarray  # (n, w, w, m)


# The A-term A[u] . window and the bias have one implementation, shared by conv1d
# and autocorr, so autocorr with B == 0 is conv1d bit for bit by construction.

def _check_a_term(x: np.ndarray, spec: ConvKernelSpec, A: np.ndarray,
                  b: np.ndarray) -> None:
    n, m = x.shape
    if n == 0:
        raise ValueError("empty input sequence")
    w = spec.width
    if A.ndim != 3 or A.shape[1:] != (w, m):
        raise ValueError(f"A kernel shape {A.shape} incompatible with window ({w}, {m})")
    if b.shape != (A.shape[0],):
        raise ValueError(f"bias shape {b.shape} != ({A.shape[0]},)")


def _a_term_forward(x: np.ndarray, spec: ConvKernelSpec,
                    A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A . window, windows); the bias is added by the caller, last."""
    win = sliding_windows(x, spec.ell, spec.r)
    return np.einsum("nwm,cwm->nc", win, A), win


def _a_term_backward(cache: ConvCache, A: np.ndarray, upstream: np.ndarray):
    """(dA, db, dwindows) of the A-term and bias."""
    if upstream.shape != (cache.n, A.shape[0]):
        raise ValueError(f"upstream shape {upstream.shape} != ({cache.n}, {A.shape[0]})")
    dA = np.einsum("nc,nwm->cwm", upstream, cache.windows)
    db = upstream.sum(axis=0)
    dwin = np.einsum("nc,cwm->nwm", upstream, A)
    return dA, db, dwin


def conv1d_forward(x: np.ndarray, spec: ConvKernelSpec, A: np.ndarray,
                   b: np.ndarray) -> tuple[np.ndarray, ConvCache]:
    """out[t, u] = A[u] . window(x, t) + b[u], for A of shape (c, w, m)."""
    _check_a_term(x, spec, A, b)
    a_out, win = _a_term_forward(x, spec, A)
    return a_out + b, ConvCache(n=x.shape[0], spec=spec, windows=win)


def conv1d_backward(cache: ConvCache, A: np.ndarray, upstream: np.ndarray):
    """Gradients of a conv1d_forward call: returns (dx, dA, db)."""
    dA, db, dwin = _a_term_backward(cache, A, upstream)
    return _scatter_windows(dwin, cache.n, cache.spec.ell), dA, db


def autocorr_forward(x: np.ndarray, spec: ConvKernelSpec, A: np.ndarray,
                     B: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, AutoCorrCache]:
    """out[t, u] = A[u] . window + B[u] . (window x window interactions) + b[u].

    B has shape (c, w, w, m); its term contracts the w*w*m sub-tensor of the
    pairwise interaction tensor restricted to the window at t. With B == 0 this
    is exactly conv1d_forward.
    """
    _check_a_term(x, spec, A, b)
    n, m = x.shape
    w = spec.width
    if B.shape != (A.shape[0], w, w, m):
        raise ValueError(f"B kernel shape {B.shape} != ({A.shape[0]}, {w}, {w}, {m})")
    a_out, win = _a_term_forward(x, spec, A)
    pair = win[:, :, None, :] * win[:, None, :, :]
    out = a_out + np.einsum("nijm,cijm->nc", pair, B) + b
    return out, AutoCorrCache(n=n, spec=spec, windows=win, pair_windows=pair)


def autocorr_backward(cache: AutoCorrCache, A: np.ndarray, B: np.ndarray,
                      upstream: np.ndarray):
    """Gradients of an autocorr_forward call: returns (dx, dA, dB, db).

    The input gradient carries both the first-order path through A and the
    second-order path through every interaction entry touching a row; diagonal
    entries contribute the doubled 2 * B_diag * x term automatically.
    """
    dA, db, dwin = _a_term_backward(cache, A, upstream)
    win = cache.windows
    dB = np.einsum("nc,nijm->cijm", upstream, cache.pair_windows)
    dpair = np.einsum("nc,cijm->nijm", upstream, B)
    # d pair[i, j] / d win[i] = win[j]; rows appear on both sides of the pair.
    dwin += np.einsum("nijm,njm->nim", dpair, win)
    dwin += np.einsum("njim,njm->nim", dpair, win)
    dx = _scatter_windows(dwin, cache.n, cache.spec.ell)
    return dx, dA, dB, db


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
    return x @ W.T + b


def width1_backward(x: np.ndarray, W: np.ndarray, upstream: np.ndarray):
    dW = upstream.T @ x
    db = upstream.sum(axis=0)
    dx = upstream @ W
    return dx, dW, db
