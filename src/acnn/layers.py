"""Forward and backward passes for the network's operators.

One-dimensional convolution over a token sequence, the auto-correlation
operator (convolution plus a learned contraction over the pairwise Hadamard
interaction tensor of the window), ReLU, row softmax, inverted dropout, and the
width-1 (per-position affine) convolution. No operator gathers windows.

The A-term, which conv1d and autocorr share, is kn2row (Vasudevan, Anderson
and Gregg 2017, arXiv:1704.04428): one matmul of the layer input with the
kernel's slots side by side gives every row's product with every window slot's
kernel (_kn2row). One (n, w, c) view of Y holds, at [t, k], the product that
slot k of output row t reads (_windows), so output row t is one masked
reduction over the view's slots (_slot_sum), and the backward writes the
upstream gradient into dY through the same view in one operation, before
dA = dY.T @ x and dx = dY @ A (_a_term_backward). No loop runs over the
slots. Width-1 is one matmul over the rows themselves.

One layout holds every window product: kn2row's Y and dY, each offset's band
product and each fold block's rows are all (rows, w, c), slot-major (a fold
block's rows ordered (slot, channel)). So a row's slots 0 .. k-1 are one
contiguous run of k * c floats, and every add or read below is one block per
row.

Autocorr's B-term reads the sentences' auto-correlation bands. Window t's
pair (i, j), i <= j, is x_a * x_{a+d} with a = t - ell + i and d = j - i, so
every window's pairs at offset d are rows of one band, q_d[a] = x_a * x_{a+d}.
A pair whose row a + d leaves row a's sentence is zero under the window rule,
so the band holds only the rows a whose row a + d lies in a's sentence: a slice
when they are the leading run 0 .. k-1, as in every one-sentence pass, and
gathered by index otherwise. The interaction tensor is symmetric, so only the
pairs i <= j are used, with B folded per offset: K_d[i, u] = B[u, i, i + d] +
B[u, i + d, i] (d > 0) and K_0[i, u] = B[u, i, i], rows ordered (i, u), which
equals the full w*w contraction with B at about half its work. Each offset is
then one matmul over the band's rows, q_d @ K_d.T, whose row for band row a is
slots 0 .. w-d-1 of row a in Y's layout: it is added straight onto Y, offset 0
included, before the slots are summed, so with B == 0 autocorr is conv1d bit
for bit. The backward reads each offset's upstream from dY as it is. A band
is formed, used and dropped inside the call, and the backward forms it again;
no (n, w, m) array and no array of window pairs is formed, so a layer's cache
holds its input itself, not a copy, beside its (n, w) masks and, for
autocorr, the fold. B itself keeps its (c, w, w, m)
shape, in the parameter store and in checkpoints, and is read only through
pair_views: fold sums its two views per offset, and the backward, the adjoint
of the fold, writes each pair's gradient through both (autocorr_backward).

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
    """(n + w - 1, w, c) products of every row with every slot's kernel in one
    matmul: Y[ell + s, k] = A[:, k] @ x[s], with ell zero rows above and r
    below. The GEMM's operand, A's slots side by side, is a view of A held
    in the order model._held gives every A."""
    c, w, m = A.shape
    Y = np.zeros((len(x) + w - 1, w * c))
    np.matmul(x, A.transpose(1, 0, 2).reshape(w * c, m).T, out=Y[ell : ell + len(x)])
    return Y.reshape(-1, w, c)


def _windows(Y: np.ndarray, n: int) -> np.ndarray:
    """The (n, w, c) view whose [t, k] is Y[t + k, k], for a C-contiguous Y
    in _kn2row's (n + w - 1, w, c) layout: the product that slot k of output
    row t reads, input row t - ell + k's with slot k's kernel. Each (t, k)
    names a distinct entry of Y, so a write through the view cannot alias,
    and numpy checks the strides against Y's buffer."""
    s0, s1, s2 = Y.strides
    return np.ndarray((n,) + Y.shape[1:], Y.dtype, Y, strides=(s0, s0 + s1, s2))


def _slot_sum(Y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """out[t] = sum over slots k of _windows(Y, n)[t, k] where mask[t, k]."""
    return np.einsum("tkc,tk->tc", _windows(Y, len(mask)), mask)


def _a_term_backward(x: np.ndarray, A: np.ndarray, ell: int, mask: np.ndarray,
                     upstream: np.ndarray):
    """(dx, dA, db, dY) of _slot_sum(_kn2row(x, A, ell), mask) + b, given the
    upstream gradient (n, c): _windows(dY, n)[t, k] = upstream[t] where
    mask[t, k]. The dY returned is rows ell .. ell + n - 1 of the padded dY,
    one (w, c) block per input row."""
    n, (c, w, m) = len(x), A.shape
    dY = np.zeros((n + w - 1, w, c))
    np.multiply(upstream[:, None, :], mask[:, :, None], out=_windows(dY, n))
    flat = dY[ell : ell + n].reshape(n, w * c)
    return (flat @ A.transpose(1, 0, 2).reshape(w * c, m),
            (flat.T @ x).reshape(w, c, m).transpose(1, 0, 2), upstream.sum(axis=0),
            flat.reshape(n, w, c))


@dataclass
class ConvCache:
    n: int
    spec: ConvKernelSpec
    x: np.ndarray  # (n, m) layer input
    mask: np.ndarray  # (n, w) bool _window_mask of the sentences


@dataclass
class AutoCorrCache(ConvCache):
    bands: np.ndarray  # (n, w) bool: row a + d lies in row a's sentence, so
                       # column d marks the rows of offset d's band
    folded: list[np.ndarray]  # fold(B): offset d's ((w-d) * c, m) kernel block


def pair_views(B: np.ndarray):
    """Each offset d < w of a pair kernel B of shape (c, w, w, m), in order,
    as the (c, w-d, m) views of its pairs (i, i + d) and of its pairs
    (i + d, i), i < w - d; for d == 0 both are the diagonal. B is reshaped
    without a copy, so a write through a view lands in B, and a B whose
    layout needs a copy raises ValueError. fold, autocorr_backward and
    model.Param (the size of a B's moments and the parts an optimizer step
    updates) all read the pairs through these views."""
    c, w, _, m = B.shape
    pairs = B.reshape(c, w * w, m, copy=False)  # pair (i, j) at i * w + j
    for d in range(w):
        yield pairs[:, d :: w + 1][:, : w - d], pairs[:, d * w :: w + 1]


def fold(B: np.ndarray) -> list[np.ndarray]:
    """B folded onto the window pairs i <= j: for each offset d in order, one
    C-contiguous ((w-d) * c, m) block over the pairs (i, i + d), rows ordered
    (i, u), so that its product with a band row lays slot i's c columns side
    by side. The contraction of the blocks equals B's over all w*w pairs of a
    symmetric interaction tensor."""
    blocks = []
    for d, (upper, lower) in enumerate(pair_views(B)):
        upper, lower = upper.transpose(1, 0, 2), lower.transpose(1, 0, 2)  # (w-d, c, m)
        # a new C-order block: numpy iterates in the output's order, so the writes stream
        block = np.add(upper, lower, out=np.empty(upper.shape)) if d else upper.copy()
        blocks.append(block.reshape(-1, upper.shape[2]))
    return blocks


def _bands(x: np.ndarray, bands: np.ndarray):
    """Each offset d < w of the (n, w) `bands` as (d, a, b, q): a indexes the
    rows whose row a + d lies in their own sentence (bands[:, d]), b the rows
    d below them, and q = x[a] * x[b] is the band over those rows alone. a and
    b are slices when the rows are the leading run 0 .. k-1, as in every
    one-sentence pass, since a view costs less than a gather, and index arrays
    otherwise: gathering in every pass read tag-acnn-long at 0.95-1.00x the
    tokens/s of the slices in each of 6 alternating in-process rounds (one
    BLAS thread, a shared 2-vCPU x86 host). One buffer serves every band. An
    offset with no such row has an empty band, so that a pass whose sentences
    are all shorter than the window still visits, and its backward writes,
    every offset."""
    buffer = np.empty_like(x)
    for d in range(bands.shape[1]):
        a = np.flatnonzero(bands[:, d])
        k = len(a)
        a, b = (slice(k), slice(d, d + k)) if k == 0 or a[-1] == k - 1 else (a, a + d)
        yield d, a, b, np.multiply(x[a], x[b], out=buffer[:k])


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
    the pairs i <= j with B folded and each offset's product added onto
    kn2row's Y (see the module docstring). `folded` is fold(B) when the
    caller has it already, so that several calls over one B fold it once.
    With B == 0 this is exactly conv1d_forward. The rows of x are sentences
    of `lengths` (default: one sentence); a masked-out window row is zero,
    and so is every interaction entry it takes part in, so each offset
    multiplies only its pairs inside one sentence.
    """
    (n, m), c, w = x.shape, len(A), spec.width
    # slots -ell .. w-1: the window's (n, w) mask, and from slot 0 on the bands'
    reach = _checked_mask(x, spec, A, b, lengths, w - 1)
    mask, bands = reach[:, :w], reach[:, spec.ell :]
    if B.shape != (c, w, w, m):
        raise ValueError(f"B kernel shape {B.shape} != ({c}, {w}, {w}, {m})")
    folded = fold(B) if folded is None else folded
    Y = _kn2row(x, A, spec.ell)
    rows = Y[spec.ell : spec.ell + n]
    for d, a, _, q in _bands(x, bands):
        rows[a, : w - d] += (q @ folded[d].T).reshape(len(q), w - d, c)
    return _slot_sum(Y, mask) + b, AutoCorrCache(n, spec, x, mask, bands, folded)


def autocorr_backward(cache: AutoCorrCache, A: np.ndarray, upstream: np.ndarray,
                      dB: np.ndarray):
    """Gradients of an autocorr_forward call: returns (dx, dA, db). The kernel
    gradient is written into every entry of the caller's (c, w, w, m) `dB`,
    pair (i, j)'s into both B[i, j] and B[j, i] as the adjoint of fold, so
    `dB` holds this call's complete, symmetric gradient, whatever it held
    before.

    The input gradient carries both the first-order path through A and the
    second-order path through every interaction entry touching a row; diagonal
    entries contribute the doubled 2 * B_diag * x term automatically. Each
    offset's GEMMs run over the same in-sentence band rows as the forward's,
    and read its upstream from the A-term's dY, whose columns (i, u) are the
    fold's rows.
    """
    x, (c, w, _, m) = cache.x, dB.shape
    dx, dA, db, dY = _a_term_backward(x, A, cache.spec.ell, cache.mask, upstream)
    for (d, a, b, q), (upper, lower) in zip(_bands(x, cache.bands), pair_views(dB)):
        dY_d = dY[a, : w - d].reshape(len(q), (w - d) * c)
        # adjoint of fold: pair (i, i + d)'s gradient goes to B[i, i + d] and
        # B[i + d, i], one view for d == 0; an empty band's gradient is zero
        upper[...] = lower[...] = (dY_d.T @ q).reshape(w - d, c, m).transpose(1, 0, 2)
        dq = dY_d @ cache.folded[d]
        # q = x[a] * x[b] sends dq * x[b] to rows a and dq * x[a] to rows b;
        # for d == 0 both land on rows a.
        dx[a] += dq * x[b]
        dx[b] += dq * x[a]
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
