"""Forward and backward passes for the network's operators.

One-dimensional convolution over a token sequence, the auto-correlation
operator (convolution plus a learned contraction over the pairwise Hadamard
interaction tensor of the window), ReLU, row softmax, inverted dropout, and the
width-1 (per-position affine) convolution. No operator gathers windows.

The A-term, which conv1d and autocorr share, is kn2row: one matmul of the
layer input with the kernel in its own layout, Y = x @ A.reshape(c*w, m).T,
gives every row's product with every window slot's kernel, and output row t
sums Y[t - ell + k, :, k] over its slots k (_kn2row, _slot_sum). The backward
spreads the upstream gradient the same shifted way into dY, and then dA =
dY.T @ x and dx = dY @ A (_a_term_backward). Width-1 is one matmul over the
rows themselves.

Autocorr's B-term reads the sentence's auto-correlation bands. Window t's pair
(i, j), i <= j, is x_a * x_{a+d} with a = t - ell + i and d = j - i, so every
window's pairs at offset d are rows of one band, q_d[a] = x_a * x_{a+d} of
shape (n - d, m), zero wherever row a + d leaves row a's sentence. The
interaction tensor is symmetric, so only the pairs i <= j are used, with B
folded per offset: K_d[u, i] = B[u, i, i + d] + B[u, i + d, i] (d > 0) and
K_0[u, i] = B[u, i, i], which equals the full w*w contraction with B. Each
offset is then one matmul, q_d @ K_d.T, whose column (u, i) is added onto Y's
slot i before the slots are summed, so with B == 0 autocorr is conv1d bit for
bit. A band is formed, used and dropped inside the call, and the backward forms
it again; no (n, w, m) array and no array of window pairs is formed. B itself
keeps its (c, w, w, m) shape, and the backward, the adjoint of the fold, adds
pair (i, j)'s kernel gradient onto both B[i, j] and B[j, i], so every call
leaves a complete, symmetric gradient.

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
    """(n, ell + r + 1) bool: True where slot k of row t, which reads row
    t - ell + k, reads a row of t's own sentence, for sentences of `lengths`
    stacked in order (n = sum(lengths)). Every other slot reads zero."""
    lengths = np.asarray(lengths)
    ends = np.repeat(np.cumsum(lengths), lengths)
    begins = ends - np.repeat(lengths, lengths)
    src = np.arange(len(ends))[:, None] + np.arange(-ell, r + 1)
    return (src >= begins[:, None]) & (src < ends[:, None])


def _kn2row(x: np.ndarray, A: np.ndarray, ell: int) -> np.ndarray:
    """(n + w - 1, c, w) products of every row with every slot's kernel in one
    matmul over A in its own layout: Y[ell + s, u, k] = A[u, k] . x[s], with
    ell zero rows above and r below."""
    c, w, m = A.shape
    Y = np.zeros((len(x) + w - 1, c * w))
    np.matmul(x, A.reshape(c * w, m).T, out=Y[ell : ell + len(x)])
    return Y.reshape(-1, c, w)


def _slot_sum(Y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """out[t] = sum over slots k of Y[t + k, :, k] where mask[t, k], for Y laid
    out as _kn2row's: slot k of row t reads row t - ell + k."""
    n, w = mask.shape
    out = np.zeros((n, Y.shape[1]))
    for k in range(w):
        out += Y[k : k + n, :, k] * mask[:, k, None]
    return out


def _a_term_backward(x: np.ndarray, A: np.ndarray, ell: int, mask: np.ndarray,
                     upstream: np.ndarray):
    """(dx, dA, db, dY) of _slot_sum(_kn2row(x, A, ell), mask) + b, given the
    upstream gradient (n, c): dY[s, :, k] = upstream[t] where slot k of row t
    reads row s = t - ell + k, and dY is (n, c, w)."""
    n, (c, w, m) = len(x), A.shape
    dY = np.zeros((n + w - 1, c, w))
    for k in range(w):
        dY[k : k + n, :, k] = upstream * mask[:, k, None]
    flat = dY[ell : ell + n].reshape(n, c * w)
    return (flat @ A.reshape(c * w, m), (flat.T @ x).reshape(A.shape), upstream.sum(axis=0),
            flat.reshape(n, c, w))


@dataclass
class ConvCache:
    n: int
    spec: ConvKernelSpec
    x: np.ndarray  # (n, m) layer input
    mask: np.ndarray  # (n, w) bool _window_mask of the sentences


@dataclass
class AutoCorrCache(ConvCache):
    bands: np.ndarray  # (n, w) bool: row a + d lies in row a's sentence
    folded: list[np.ndarray]  # _fold(B): offset d's (c * (w-d), m) kernel block


def _offset_pairs(pairs: np.ndarray, w: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (c, w-d, m) views of the pairs (i, i + d) and (i + d, i), i < w - d,
    of a kernel viewed as (c, w * w, m), pair (i, j) at i * w + j: the upper
    one starts at d, the lower one at d * w, each stepping w + 1. For d == 0
    both are the diagonal."""
    return pairs[:, d :: w + 1][:, : w - d], pairs[:, d * w :: w + 1]


def _fold(B: np.ndarray) -> list[np.ndarray]:
    """B folded onto the window pairs i <= j, one (c * (w-d), m) block per
    offset d over the pairs (i, i + d), rows ordered (u, i): their
    contraction equals B's over all w*w pairs of a symmetric interaction
    tensor."""
    c, w, _, m = B.shape
    pairs = B.reshape(c, w * w, m)
    folded = []
    for d in range(w):
        upper, lower = _offset_pairs(pairs, w, d)
        folded.append((np.add(upper, lower) if d else upper).reshape(c * (w - d), m))
    return folded


def _bands(x: np.ndarray, bands: np.ndarray):
    """Each offset d < min(w, n) with its band q[a] = x[a] * x[a + d] of shape
    (n - d, m), set to 0 where not bands[a, d]; one buffer serves them all."""
    n, w = bands.shape
    buffer = np.empty_like(x)
    for d in range(min(w, n)):
        q = np.multiply(x[: n - d], x[d:], out=buffer[: n - d])
        q[~bands[: n - d, d]] = 0.0
        yield d, q


def _checked_mask(x: np.ndarray, spec: ConvKernelSpec, A: np.ndarray,
                  b: np.ndarray, lengths, reach: int) -> np.ndarray:
    """_window_mask(lengths, spec.ell, reach) once x, A, b and the sentence
    lengths (None: one sentence of all rows) are checked against each other."""
    n, m = x.shape
    if n == 0:
        raise ValueError("empty input sequence")
    if lengths is None:
        lengths = [n]
    elif sum(lengths) != n or min(lengths) < 1:
        raise ValueError(f"sentence lengths {list(lengths)} do not split {n} rows")
    if A.ndim != 3 or A.shape[1:] != (spec.width, m):
        raise ValueError(f"A kernel shape {A.shape} incompatible with window ({spec.width}, {m})")
    if b.shape != (A.shape[0],):
        raise ValueError(f"bias shape {b.shape} != ({A.shape[0]},)")
    return _window_mask(lengths, spec.ell, reach)


def conv1d_forward(x: np.ndarray, spec: ConvKernelSpec, A: np.ndarray,
                   b: np.ndarray, lengths=None) -> tuple[np.ndarray, ConvCache]:
    """out[t, u] = A[u] . window(x, t) + b[u], for A of shape (c, w, m); the
    rows of x are sentences of `lengths` (default: one sentence)."""
    mask = _checked_mask(x, spec, A, b, lengths, spec.r)
    return _slot_sum(_kn2row(x, A, spec.ell), mask) + b, ConvCache(len(x), spec, x, mask)


def conv1d_backward(cache: ConvCache, A: np.ndarray, upstream: np.ndarray):
    """Gradients of a conv1d_forward call: returns (dx, dA, db)."""
    return _a_term_backward(cache.x, A, cache.spec.ell, cache.mask, upstream)[:3]


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
    (n, m), c, w = x.shape, len(A), spec.width
    # slots -ell .. w-1: the window's (n, w) mask, and from slot 0 on the bands'
    reach = _checked_mask(x, spec, A, b, lengths, w - 1)
    mask, bands = reach[:, :w], reach[:, spec.ell :]
    if B.shape != (c, w, w, m):
        raise ValueError(f"B kernel shape {B.shape} != ({c}, {w}, {w}, {m})")
    folded = _fold(B) if folded is None else folded
    Y = _kn2row(x, A, spec.ell)
    for d, q in _bands(x, bands):  # slot i's pair (i, i + d) of row a is q[a]
        Y[spec.ell : spec.ell + n - d, :, : w - d] += (q @ folded[d].T).reshape(n - d, c, w - d)
    return _slot_sum(Y, mask) + b, AutoCorrCache(n, spec, x, mask, bands, folded)


def autocorr_backward(cache: AutoCorrCache, A: np.ndarray, upstream: np.ndarray,
                      dB: np.ndarray):
    """Gradients of an autocorr_forward call: returns (dx, dA, db). The kernel
    gradient is added onto the caller's (c, w, w, m) `dB` in place, pair
    (i, j)'s onto both B[i, j] and B[j, i] as the adjoint of _fold, so `dB`
    holds complete, symmetric sums of the calls made into it.

    The input gradient carries both the first-order path through A and the
    second-order path through every interaction entry touching a row; diagonal
    entries contribute the doubled 2 * B_diag * x term automatically.
    """
    x, n, (c, w, _, m) = cache.x, cache.n, dB.shape
    dx, dA, db, dY = _a_term_backward(x, A, cache.spec.ell, cache.mask, upstream)
    pairs = dB.reshape(c, w * w, m, copy=False)
    for d, q in _bands(x, cache.bands):  # slot i's upstream of q[a] is dY[a, :, i]
        dY_d = dY[: n - d, :, : w - d].reshape(n - d, -1)
        # adjoint of _fold: pair (i, i + d)'s gradient goes to B[i, i + d]
        # and, off the diagonal, to B[i + d, i]
        grad = (dY_d.T @ q).reshape(c, w - d, m)
        upper, lower = _offset_pairs(pairs, w, d)
        upper += grad
        if d:
            lower += grad
        dq = dY_d @ cache.folded[d]
        dq[~cache.bands[: n - d, d]] = 0.0
        # q[a] = x[a] * x[a + d] sends dq * x[a + d] to row a and dq * x[a] to
        # row a + d; for d == 0 both land on row a.
        dx[: n - d] += dq * x[d:]
        dx[d:] += dq * x[: n - d]
    return dx, dA, db


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


def softmax_xent_backward(probs: np.ndarray, label_ids: np.ndarray) -> np.ndarray:
    """Fused gradient of mean cross-entropy w.r.t. pre-softmax scores:
    (softmax - onehot) / tokens."""
    n = len(label_ids)
    d = probs.copy()
    d[np.arange(n), label_ids] -= 1.0
    return d / n


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
    return upstream @ W, upstream.T @ x, upstream.sum(axis=0)
