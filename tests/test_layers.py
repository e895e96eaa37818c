import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acnn import layers as L
from acnn.tensor import Rng, grad_check


def padded_row(x, t):
    n, m = x.shape
    return x[t] if 0 <= t < n else np.zeros(m, dtype=x.dtype)


def naive_conv1d(x, spec, A, b):
    """Independent quintuple-loop convolution oracle."""
    n, m = x.shape
    c = A.shape[0]
    out = np.zeros((n, c))
    for t in range(n):
        for u in range(c):
            acc = 0.0
            for k in range(spec.width):
                row = padded_row(x, t - spec.ell + k)
                for j in range(m):
                    acc += A[u, k, j] * row[j]
            out[t, u] = acc + b[u]
    return out


def naive_autocorr(x, spec, A, B, b):
    """Brute-force oracle: build the full interaction tensor of the padded
    input, then contract window sub-tensors without any slicing tricks."""
    n, m = x.shape
    c = A.shape[0]
    w = spec.width
    out = naive_conv1d(x, spec, A, b)
    for t in range(n):
        rows = [padded_row(x, t - spec.ell + k) for k in range(w)]
        for u in range(c):
            acc = 0.0
            for i in range(w):
                for j in range(w):
                    acc += float(B[u, i, j] @ (rows[i] * rows[j]))
            out[t, u] += acc
    return out


def naive_conv1d_backward(x, spec, A, up):
    """Loop oracle for conv1d's (dx, dA, db): out[t, u] adds A[u, k] . x[s] for
    each in-range window row s = t - ell + k, so up[t, u] sends A[u, k] to
    dx[s] and x[s] to dA[u, k]."""
    n, _ = x.shape
    c = A.shape[0]
    dx, dA, db = np.zeros_like(x), np.zeros_like(A), np.zeros(c)
    for t in range(n):
        for u in range(c):
            db[u] += up[t, u]
            for k in range(spec.width):
                s = t - spec.ell + k
                if 0 <= s < n:
                    dx[s] += up[t, u] * A[u, k]
                    dA[u, k] += up[t, u] * x[s]
    return dx, dA, db


def naive_autocorr_backward(x, spec, A, B, up):
    """Loop oracle for autocorr's (dx, dA, dB, db): the conv gradients plus, for
    every window pair (i, j), B[u, i, j] * row j onto row i and B[u, i, j] *
    row i onto row j."""
    dx, dA, db = naive_conv1d_backward(x, spec, A, up)
    n, _ = x.shape
    c, w = A.shape[:2]
    dB = np.zeros_like(B)
    for t in range(n):
        rows = [padded_row(x, t - spec.ell + k) for k in range(w)]
        for u in range(c):
            for i in range(w):
                for j in range(w):
                    dB[u, i, j] += up[t, u] * (rows[i] * rows[j])
                    for s, other in ((t - spec.ell + i, rows[j]), (t - spec.ell + j, rows[i])):
                        if 0 <= s < n:
                            dx[s] += up[t, u] * B[u, i, j] * other
    return dx, dA, dB, db


def naive_width1_backward(x, W, up):
    """Loop oracle for width-1's (dx, dW, db)."""
    n, _ = x.shape
    c = W.shape[0]
    dx, dW, db = np.zeros_like(x), np.zeros_like(W), np.zeros(c)
    for t in range(n):
        for u in range(c):
            dx[t] += up[t, u] * W[u]
            dW[u] += up[t, u] * x[t]
            db[u] += up[t, u]
    return dx, dW, db


def assert_all_close(got, want):
    for g, v in zip(got, want, strict=True):
        assert g.shape == v.shape
        assert np.allclose(g, v, rtol=1e-12, atol=1e-12)


def random_geometry(rng, seed):
    """(n, m, ell, r, c) drawn at random; seed 0 forces n = 1, seed 1 ell = 0."""
    n = 1 if seed == 0 else int(rng.integers(1, 11))
    m = int(rng.integers(1, 6))
    ell = 0 if seed == 1 else int(rng.integers(0, 3))
    return n, m, ell, int(rng.integers(1, 4)), int(rng.integers(1, 4))


def rand_instance(rng, n, m, ell, r, channels, with_B=False):
    spec = L.ConvKernelSpec(ell, r)
    x = rng.uniform(-1, 1, (n, m))
    A = rng.uniform(-1, 1, (channels, spec.width, m))
    b = rng.uniform(-1, 1, channels)
    if with_B:
        B = rng.uniform(-1, 1, (channels, spec.width, spec.width, m))
        return x, spec, A, B, b
    return x, spec, A, b


class TestConv1d:
    def test_center_selector_is_identity(self):
        x = np.array([[5.0], [7.0], [9.0]])
        spec = L.ConvKernelSpec(1, 1)
        A = np.array([[[0.0], [1.0], [0.0]]])
        out, _ = L.conv1d_forward(x, spec, A, np.zeros(1))
        assert out.ravel().tolist() == [5.0, 7.0, 9.0]

    def test_left_selector_shifts_with_zero_padding(self):
        x = np.array([[5.0], [7.0], [9.0]])
        spec = L.ConvKernelSpec(1, 1)
        A = np.array([[[1.0], [0.0], [0.0]]])
        out, _ = L.conv1d_forward(x, spec, A, np.zeros(1))
        assert out.ravel().tolist() == [0.0, 5.0, 7.0]

    def test_matches_naive_oracle(self):
        rng = Rng(42)
        x, spec, A, b = rand_instance(rng, n=8, m=4, ell=2, r=3, channels=5)
        out, _ = L.conv1d_forward(x, spec, A, b)
        want = naive_conv1d(x, spec, A, b)
        assert np.max(np.abs(out - want)) <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_random_shapes(self, seed):
        rng = Rng(seed)
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, 9))
        ell = int(rng.integers(0, 4))
        r = int(rng.integers(1, 5))
        c = int(rng.integers(1, 5))
        x, spec, A, b = rand_instance(rng, n, m, ell, r, c)
        out, _ = L.conv1d_forward(x, spec, A, b)
        want = naive_conv1d(x, spec, A, b)
        assert np.allclose(out, want, rtol=1e-12, atol=1e-12)

    def test_output_length_always_n(self):
        rng = Rng(9)
        for ell, r in ((0, 1), (3, 1), (2, 6)):
            for n in (1, 2, 7):
                x, spec, A, b = rand_instance(rng, n, 3, ell, r, 2)
                out, _ = L.conv1d_forward(x, spec, A, b)
                assert out.shape == (n, 2)

    def test_window_locality(self):
        # perturbing a row outside t-ell..t+r leaves out[t] unchanged
        rng = Rng(10)
        x, spec, A, b = rand_instance(rng, n=9, m=3, ell=1, r=2, channels=2)
        out, _ = L.conv1d_forward(x, spec, A, b)
        x2 = x.copy()
        x2[8] += 5.0
        out2, _ = L.conv1d_forward(x2, spec, A, b)
        t = 3  # window rows 2..5, row 8 untouched
        assert np.array_equal(out[t], out2[t])
        assert not np.array_equal(out[8], out2[8])

    def test_empty_input_rejected(self):
        spec = L.ConvKernelSpec(1, 1)
        with pytest.raises(ValueError):
            L.conv1d_forward(np.zeros((0, 3)), spec, np.zeros((1, 3, 3)), np.zeros(1))

    def test_shape_mismatch(self):
        spec = L.ConvKernelSpec(1, 1)
        with pytest.raises(ValueError):
            L.conv1d_forward(np.zeros((4, 3)), spec, np.zeros((1, 2, 3)), np.zeros(1))


class TestConv1dBackward:
    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_random_shapes(self, seed):
        rng = Rng(2000 + seed)
        n, m, ell, r, c = random_geometry(rng, seed)
        x, spec, A, b = rand_instance(rng, n, m, ell, r, c)
        up = rng.uniform(-1, 1, (n, c))
        _, cache = L.conv1d_forward(x, spec, A, b)
        assert_all_close(L.conv1d_backward(cache, A, up),
                         naive_conv1d_backward(x, spec, A, up))

    def test_zero_upstream(self):
        rng = Rng(1)
        x, spec, A, b = rand_instance(rng, 5, 3, 1, 1, 2)
        _, cache = L.conv1d_forward(x, spec, A, b)
        dx, dA, db = L.conv1d_backward(cache, A, np.zeros((5, 2)))
        assert not dx.any() and not dA.any() and not db.any()

    def test_one_hot_upstream_locality(self):
        rng = Rng(2)
        x, spec, A, b = rand_instance(rng, 7, 3, 1, 2, 2)
        _, cache = L.conv1d_forward(x, spec, A, b)
        up = np.zeros((7, 2))
        up[3, 0] = 1.0
        dx, _, _ = L.conv1d_backward(cache, A, up)
        touched = {i for i in range(7) if dx[i].any()}
        assert touched <= {2, 3, 4, 5}

    @pytest.mark.parametrize("n,ell,r", [(6, 2, 3), (1, 1, 1), (5, 0, 2)])
    def test_grad_check(self, n, ell, r):
        rng = Rng(n * 100 + ell * 10 + r)
        x, spec, A, b = rand_instance(rng, n, 4, ell, r, 3)
        target = rng.uniform(-1, 1, (n, 3))

        def loss(xv, Av, bv):
            out, _ = L.conv1d_forward(xv, spec, Av, bv)
            return float(((out - target) ** 2).sum())

        _, cache = L.conv1d_forward(x, spec, A, b)
        out, _ = L.conv1d_forward(x, spec, A, b)
        dx, dA, db = L.conv1d_backward(cache, A, 2.0 * (out - target))
        assert grad_check(lambda v: loss(v, A, b), x, dx).ok
        assert grad_check(lambda v: loss(x, v, b), A, dA).ok
        assert grad_check(lambda v: loss(x, A, v), b, db).ok


def pair_index(i, j, w):
    """Index of window pair (i, j), i <= j, in pair_tensor's layout: the pairs
    of row 0 (j = 0 .. w-1) first, then those of row 1, and so on."""
    assert 0 <= i <= j < w
    return sum(w - k for k in range(i)) + (j - i)


def pair_tensor(x, spec):
    """The (n, w(w+1)/2, m) pair windows, i <= j, that an autocorr call
    contracts, read off its output: with A = 0, b = 0 and one output channel
    per (pair, feature) whose B is 1 at that pair and feature and 0 elsewhere,
    channel (p, k) of row t is window t's pair p at feature k, exactly."""
    n, m = x.shape
    w = spec.width
    pairs = [(i, j) for i in range(w) for j in range(i, w)]
    B = np.zeros((len(pairs) * m, w, w, m))
    for p, (i, j) in enumerate(pairs):
        for k in range(m):
            B[p * m + k, i, j, k] = 1.0
    out, _ = L.autocorr_forward(x, spec, np.zeros((len(B), w, m)), B, np.zeros(len(B)))
    return out.reshape(n, len(pairs), m)


def gather_windows(x, spec, lengths=None):
    """(n, w, m) windows and their (n, w) bool mask, by loops: slot k of row t
    holds x[t - ell + k] when that row lies in t's sentence, zeros otherwise."""
    n, m = x.shape
    sentence = np.repeat(np.arange(len(lengths or [n])), lengths or [n])
    win = np.zeros((n, spec.width, m))
    mask = np.zeros((n, spec.width), dtype=bool)
    for t in range(n):
        for k in range(spec.width):
            s = t - spec.ell + k
            if 0 <= s < n and sentence[s] == sentence[t]:
                win[t, k] = x[s]
                mask[t, k] = True
    return win, mask


def scatter_windows(dwin, spec, mask):
    """Adjoint of gather_windows: each unmasked slot's gradient onto its row."""
    n, w, m = dwin.shape
    dx = np.zeros((n, m))
    for t in range(n):
        for k in range(w):
            if mask[t, k]:
                dx[t - spec.ell + k] += dwin[t, k]
    return dx


def full_pair_forward(x, spec, A, B, b, lengths=None):
    """Reference autocorr over all w*w window pairs: the full interaction
    tensor win[:, :, None] * win[:, None] of loop-gathered windows, contracted
    with the unfolded B."""
    n, m = x.shape
    win, mask = gather_windows(x, spec, lengths)
    pair = win[:, :, None] * win[:, None]
    out = (win.reshape(n, -1) @ A.reshape(len(A), -1).T
           + pair.reshape(n, -1) @ B.reshape(len(B), -1).T + b)
    return out, (win, pair, mask)


def full_pair_backward(x, spec, A, B, saved, up):
    """(dx, dA, dB, db) of full_pair_forward, with the two-einsum fold of the
    pair gradient back onto both window sides."""
    win, pair, mask = saved
    n = len(x)
    dA = (up.T @ win.reshape(n, -1)).reshape(A.shape)
    dB = (up.T @ pair.reshape(n, -1)).reshape(B.shape)
    dwin = (up @ A.reshape(len(A), -1)).reshape(win.shape)
    dpair = (up @ B.reshape(len(B), -1)).reshape(pair.shape)
    dwin += np.einsum("nijm,njm->nim", dpair, win)
    dwin += np.einsum("njim,njm->nim", dpair, win)
    return scatter_windows(dwin, spec, mask), dA, dB, up.sum(axis=0)


class TestAutocorrTensor:
    def test_hand_arithmetic(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        xhat = pair_tensor(x, L.ConvKernelSpec(0, 1))[0]  # window rows 0, 1
        assert xhat[pair_index(0, 1, 2)].tolist() == [3.0, 8.0]
        assert xhat[pair_index(0, 0, 2)].tolist() == [1.0, 4.0]
        assert xhat[pair_index(1, 1, 2)].tolist() == [9.0, 16.0]

    def test_folded_contraction_equals_full(self):
        """The i <= j pairs contracted with the folded kernel give the w*w
        contraction with B, for a B with B[i, j] != B[j, i]; offset d's block
        holds row (u, i) = B[u, i, i + d] + B[u, i + d, i]."""
        rng = Rng(5)
        x, spec, A, B, b = rand_instance(rng, 6, 3, 2, 2, 4, with_B=True)
        assert not np.allclose(B, np.swapaxes(B, 1, 2))
        out, cache = L.autocorr_forward(x, spec, np.zeros_like(A), B, np.zeros_like(b))
        want, _ = full_pair_forward(x, spec, np.zeros_like(A), B, np.zeros_like(b))
        assert np.allclose(out, want, rtol=1e-12, atol=1e-12)
        (c, w), m = B.shape[:2], x.shape[1]
        assert len(cache.folded) == w
        for d in range(w):
            block = cache.folded[d]
            assert block.shape == (c * (w - d), m)
            for u in range(c):
                for i in range(w - d):
                    fold = B[u, i, i + d] + B[u, i + d, i] if d else B[u, i, i]
                    assert np.array_equal(block[u * (w - d) + i], fold)

    def test_repeated_rows_give_identical_interactions(self):
        rng = Rng(6)
        x = rng.uniform(-1, 1, (5, 4))
        x[3] = x[1]  # exact copy, the rough-copy signal
        xhat = pair_tensor(x, L.ConvKernelSpec(1, 2))[2]  # window rows 1..4
        w = 4
        assert np.array_equal(xhat[pair_index(0, 2, w)], xhat[pair_index(0, 0, w)])
        assert np.array_equal(xhat[pair_index(0, 2, w)], xhat[pair_index(2, 2, w)])

    def test_permuting_identical_rows_invariant(self):
        rng = Rng(7)
        x = rng.uniform(-1, 1, (4, 3))
        x[2] = x[0]
        spec = L.ConvKernelSpec(1, 1)
        y = x.copy()
        y[[0, 2]] = y[[2, 0]]
        assert np.array_equal(pair_tensor(y, spec), pair_tensor(x, spec))


class TestAutocorrForward:
    def test_zero_B_reduces_to_conv_bitwise(self):
        rng = Rng(11)
        x, spec, A, B, b = rand_instance(rng, 7, 3, 2, 2, 4, with_B=True)
        for lengths in (None, [2, 5], [1, 3, 1, 2]):  # one sentence, then packed
            conv_out, _ = L.conv1d_forward(x, spec, A, b, lengths)
            ac_out, _ = L.autocorr_forward(x, spec, A, np.zeros_like(B), b, lengths)
            assert np.array_equal(conv_out, ac_out)

    def test_zero_input_gives_bias(self):
        rng = Rng(12)
        _, spec, A, B, b = rand_instance(rng, 4, 3, 1, 1, 2, with_B=True)
        out, _ = L.autocorr_forward(np.zeros((4, 3)), spec, A, B, b)
        assert np.array_equal(out, np.tile(b, (4, 1)))

    def test_matches_naive_oracle(self):
        rng = Rng(13)
        x, spec, A, B, b = rand_instance(rng, 7, 3, 2, 2, 4, with_B=True)
        out, _ = L.autocorr_forward(x, spec, A, B, b)
        want = naive_autocorr(x, spec, A, B, b)
        assert np.allclose(out, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_random_shapes(self, seed):
        rng = Rng(1000 + seed)
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 6))
        ell = int(rng.integers(0, 3))
        r = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        x, spec, A, B, b = rand_instance(rng, n, m, ell, r, c, with_B=True)
        out, _ = L.autocorr_forward(x, spec, A, B, b)
        assert np.allclose(out, naive_autocorr(x, spec, A, B, b),
                           rtol=1e-12, atol=1e-12)


def full_autocorr_backward(cache, A, up, B):
    """(dx, dA, dB, db) of one autocorr_forward call: autocorr_backward into a
    kernel gradient buffer of NaN, every entry of which it must write."""
    dB = np.full_like(B, np.nan)
    dx, dA, db = L.autocorr_backward(cache, A, up, dB)
    return dx, dA, dB, db


class TestAutocorrBackward:
    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_random_shapes(self, seed):
        rng = Rng(3000 + seed)
        n, m, ell, r, c = random_geometry(rng, seed)
        x, spec, A, B, b = rand_instance(rng, n, m, ell, r, c, with_B=True)
        up = rng.uniform(-1, 1, (n, c))
        _, cache = L.autocorr_forward(x, spec, A, B, b)
        assert_all_close(full_autocorr_backward(cache, A, up, B),
                         naive_autocorr_backward(x, spec, A, B, up))

    def test_zero_B_x_gradient_equals_conv(self):
        rng = Rng(21)
        x, spec, A, B, b = rand_instance(rng, 6, 4, 1, 2, 3, with_B=True)
        up = rng.uniform(-1, 1, (6, 3))
        _, ccache = L.conv1d_forward(x, spec, A, b)
        dxc, dAc, dbc = L.conv1d_backward(ccache, A, up)
        _, acache = L.autocorr_forward(x, spec, A, np.zeros_like(B), b)
        dxa, dAa, dba = L.autocorr_backward(acache, A, up, np.zeros_like(B))
        assert np.array_equal(dxc, dxa)
        assert np.array_equal(dAc, dAa)
        assert np.array_equal(dbc, dba)

    def test_single_token_diagonal_doubling(self):
        # n=1, ell=r=1: only the diagonal interaction of the real row remains,
        # so the second-order x-gradient is 2 * B_diag * x.
        rng = Rng(22)
        m = 3
        spec = L.ConvKernelSpec(1, 1)
        x = rng.uniform(-1, 1, (1, m))
        B = rng.uniform(-1, 1, (1, 3, 3, m))
        A = np.zeros((1, 3, m))
        b = np.zeros(1)
        _, cache = L.autocorr_forward(x, spec, A, B, b)
        up = np.ones((1, 1))
        dx, _, _, _ = full_autocorr_backward(cache, A, up, B)
        # the real row sits at window offset 1
        assert np.allclose(dx[0], 2.0 * B[0, 1, 1] * x[0])

    @pytest.mark.parametrize("n,ell,r", [(6, 2, 2), (1, 1, 1), (4, 0, 2)])
    def test_grad_check(self, n, ell, r):
        rng = Rng(n * 100 + ell * 10 + r + 7)
        m = 4
        x, spec, A, B, b = rand_instance(rng, n, m, ell, r, 2, with_B=True)
        target = rng.uniform(-1, 1, (n, 2))

        def loss(xv, Av, Bv, bv):
            out, _ = L.autocorr_forward(xv, spec, Av, Bv, bv)
            return float(((out - target) ** 2).sum())

        out, cache = L.autocorr_forward(x, spec, A, B, b)
        dx, dA, dB, db = full_autocorr_backward(cache, A, 2.0 * (out - target), B)
        assert grad_check(lambda v: loss(v, A, B, b), x, dx).ok
        assert grad_check(lambda v: loss(x, v, B, b), A, dA).ok
        assert grad_check(lambda v: loss(x, A, v, b), B, dB).ok
        assert grad_check(lambda v: loss(x, A, B, v), b, db).ok


# acnn-table1's layer-1 groups at its embedding width, packed and unpacked,
# with an ell = 0 group, one-token inputs, inputs shorter than the window
# (offsets with an empty band), alone and packed, and as long as it, and a
# 1-token sentence between longer ones.
FOLD_CASES = [
    ((5, 6), 48, None),
    ((5, 6), 48, [1, 20, 27]),
    ((3, 3), 48, None),
    ((3, 3), 48, [1, 20, 27]),
    ((0, 6), 13, [1, 12]),
    ((5, 6), 1, None),
    ((3, 3), 1, None),
    ((5, 6), 5, None),
    ((5, 6), 12, None),
    ((3, 3), 9, [4, 1, 4]),
    ((5, 6), 7, [3, 1, 3]),
    ((3, 3), 5, [2, 3]),
    ((0, 6), 4, [1, 1, 2]),
]


class TestFoldedPairs:
    @pytest.mark.parametrize("case", range(len(FOLD_CASES)))
    def test_equals_full_pair_path(self, case):
        """The i <= j pairs with the folded kernel give the output and every
        gradient of the full w*w pair path, for an asymmetric B; the kernel
        gradient is written over every entry of the buffer the caller passes,
        whatever that buffer held (random values, then NaN)."""
        (ell, r), n, lengths = FOLD_CASES[case]
        rng = Rng(6000 + case)
        x, spec, A, B, b = rand_instance(rng, n, 290, ell, r, 60, with_B=True)
        up = rng.uniform(-1, 1, (n, 60))
        out, cache = L.autocorr_forward(x, spec, A, B, b, lengths)
        want_out, saved = full_pair_forward(x, spec, A, B, b, lengths)
        want = (want_out, *full_pair_backward(x, spec, A, B, saved, up))
        for dB in (rng.uniform(-1, 1, B.shape), np.full(B.shape, np.nan)):
            dx, dA, db = L.autocorr_backward(cache, A, up, dB)
            for g, v in zip((out, dx, dA, dB, db), want, strict=True):
                assert g.shape == v.shape
                assert np.abs(g - v).max() <= 1e-12 * max(1.0, np.abs(v).max())

    def test_second_call_into_one_buffer_overwrites_the_first(self):
        """autocorr_backward writes each call's full-pair kernel gradient over
        the buffer it is given, so after a long call and then a call shorter
        than the window the buffer holds the second call's gradient alone."""
        rng = Rng(6100)
        x, spec, A, B, b = rand_instance(rng, 9, 4, 2, 3, 3, with_B=True)
        dB = rng.uniform(-1, 1, B.shape)
        for rows, lengths in ((9, [9]), (9, [4, 1, 4]), (3, [3]), (4, [1, 3])):
            up = rng.uniform(-1, 1, (rows, 3))
            _, cache = L.autocorr_forward(x[:rows], spec, A, B, b, lengths)
            L.autocorr_backward(cache, A, up, dB)
            _, saved = full_pair_forward(x[:rows], spec, A, B, b, lengths)
            full = full_pair_backward(x[:rows], spec, A, B, saved, up)[2]
            assert np.abs(dB - full).max() <= 1e-12 * max(1.0, np.abs(full).max())


class TestPairViews:
    @pytest.mark.parametrize("w", [1, 2, 7, 12])
    def test_views_cover_each_half_once(self, w):
        """Offset d's views hold the pairs (i, i + d) and (i + d, i), so over
        all offsets the upper views hold each pair i <= j once and the lower
        views each pair i >= j once."""
        c, m = 3, 2
        i, j = np.indices((w, w))
        pair_id = i * w + j
        B = np.broadcast_to(pair_id[None, :, :, None], (c, w, w, m)).astype(float)
        uppers, lowers = [], []
        for d, (upper, lower) in enumerate(L.pair_views(B)):
            assert upper.shape == lower.shape == (c, w - d, m)
            rows = np.arange(w - d)
            assert (upper == (rows * w + rows + d)[None, :, None]).all()
            assert (lower == ((rows + d) * w + rows)[None, :, None]).all()
            uppers += upper[0, :, 0].tolist()
            lowers += lower[0, :, 0].tolist()
        assert d == w - 1
        assert sorted(uppers) == sorted(pair_id[i <= j].tolist())
        assert sorted(lowers) == sorted(pair_id[i >= j].tolist())

    def test_write_through_a_view_lands_in_the_array(self):
        B = np.zeros((2, 4, 4, 3))
        for upper, lower in L.pair_views(B):
            upper += 1.0
            lower += 10.0  # for d == 0 the same diagonal as upper
        i, j = np.indices((4, 4))
        want = np.where(i < j, 1.0, np.where(i > j, 10.0, 11.0))
        assert (B == want[None, :, :, None]).all()

    @pytest.mark.parametrize("layout", ["pair-axes-swapped", "fortran-order"])
    def test_array_that_is_not_c_contiguous_raises(self, layout):
        B = np.zeros((2, 4, 4, 3))
        B = B.swapaxes(1, 2) if layout == "pair-axes-swapped" else np.asfortranarray(B)
        assert not B.flags.c_contiguous
        with pytest.raises(ValueError):
            next(L.pair_views(B))


@pytest.mark.parametrize("lengths", [None, [1, 20, 27]])
def test_autocorr_cache_holds_no_band_array(lengths):
    """Apart from its input x and the folded kernel, an autocorr cache holds
    less than one more (n, m) array in all, far from the n * w * m floats of
    every band: the bands are formed inside each call, not kept from the
    forward for the backward."""
    n, m = 48, 290
    x, spec, A, B, b = rand_instance(Rng(6200), n, m, 5, 6, 2, with_B=True)
    folded = L.fold(B)
    _, cache = L.autocorr_forward(x, spec, A, B, b, lengths, folded=folded)
    assert cache.x is x and cache.folded is folded
    held = 0
    for name, value in vars(cache).items():
        if name not in ("x", "folded"):
            items = value if isinstance(value, (list, tuple)) else [value]
            held += sum(a.nbytes for a in items if isinstance(a, np.ndarray))
    assert held < 8 * n * m


class TestElementwise:
    def test_relu(self):
        assert L.relu(np.array([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]
        assert not L.relu(np.array([-3.0, -0.5])).any()

    def test_relu_backward_zero_at_kink(self):
        x = np.array([-1.0, 0.0, 2.0])
        up = np.ones(3)
        assert L.relu_backward(x, up).tolist() == [0.0, 0.0, 1.0]

    def test_softmax_uniform(self):
        out = L.softmax_rows(np.zeros((1, 2)))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_softmax_shift_invariance(self):
        rng = Rng(30)
        x = rng.uniform(-3, 3, (5, 4))
        assert np.allclose(L.softmax_rows(x), L.softmax_rows(x + 7.3), atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = Rng(31)
        x = rng.uniform(-50, 50, (20, 3))
        assert np.allclose(L.softmax_rows(x).sum(axis=1), 1.0, atol=1e-9)

    def test_fused_xent_grad_check(self):
        rng = Rng(32)
        scores = rng.uniform(-2, 2, (6, 2))
        labels = np.array([0, 1, 1, 0, 1, 0])

        def loss(s):
            probs = L.softmax_rows(s)
            return float(-np.log(probs[np.arange(6), labels]).sum() / 6)

        grad = L.softmax_xent_backward(L.softmax_rows(scores), labels)
        assert grad_check(loss, scores, grad).ok


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.ones((4, 5))
        out, mask = L.dropout(x, 0.0, Rng(0), training=True)
        assert np.array_equal(out, x) and mask is None

    def test_eval_mode_identity(self):
        x = np.ones((4, 5))
        out, mask = L.dropout(x, 0.9, None, training=False)
        assert np.array_equal(out, x) and mask is None

    def test_empirical_zero_fraction(self):
        # 0.53 is the full-scale network's input dropout rate
        rate = 0.53
        out, _ = L.dropout(np.ones((1000, 1000)), rate, Rng(99), training=True)
        zero_frac = float((out == 0).mean())
        assert abs(zero_frac - rate) < 0.005

    def test_survivors_scaled(self):
        out, _ = L.dropout(np.ones((100, 100)), 0.5, Rng(1), training=True)
        kept = out[out != 0]
        assert np.allclose(kept, 2.0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            L.dropout(np.ones(3), 1.0, Rng(0), training=True)


class TestWidth1:
    def test_identity_block_copies(self):
        x = np.arange(6.0).reshape(2, 3)
        out = L.width1_forward(x, np.eye(3), np.zeros(3))
        assert np.array_equal(out, x)

    def test_zero_weights_give_bias(self):
        x = np.ones((4, 3))
        b = np.array([1.5, -2.0])
        out = L.width1_forward(x, np.zeros((2, 3)), b)
        assert np.array_equal(out, np.tile(b, (4, 1)))

    def test_matches_matrix_product_oracle(self):
        rng = Rng(40)
        x = rng.uniform(-1, 1, (5, 4))
        W = rng.uniform(-1, 1, (2, 4))
        b = rng.uniform(-1, 1, 2)
        want = np.array([[float(W[c] @ x[t]) + b[c] for c in range(2)] for t in range(5)])
        assert np.allclose(L.width1_forward(x, W, b), want, atol=1e-12)

    def test_grad_check(self):
        rng = Rng(41)
        x = rng.uniform(-1, 1, (5, 4))
        W = rng.uniform(-1, 1, (2, 4))
        b = rng.uniform(-1, 1, 2)
        target = rng.uniform(-1, 1, (5, 2))

        def loss(xv, Wv, bv):
            return float(((L.width1_forward(xv, Wv, bv) - target) ** 2).sum())

        up = 2.0 * (L.width1_forward(x, W, b) - target)
        dx, dW, db = L.width1_backward(x, W, up)
        assert grad_check(lambda v: loss(v, W, b), x, dx).ok
        assert grad_check(lambda v: loss(x, v, b), W, dW).ok
        assert grad_check(lambda v: loss(x, W, v), b, db).ok

    @pytest.mark.parametrize("seed", range(8))
    def test_backward_oracle_random_shapes(self, seed):
        rng = Rng(4000 + seed)
        n, m, _, _, c = random_geometry(rng, seed)
        x = rng.uniform(-1, 1, (n, m))
        W = rng.uniform(-1, 1, (c, m))
        up = rng.uniform(-1, 1, (n, c))
        assert_all_close(L.width1_backward(x, W, up), naive_width1_backward(x, W, up))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_output_shape_pure_function_of_input_shape(seed):
    rng = Rng(seed)
    n = int(rng.integers(1, 12))
    m = int(rng.integers(1, 6))
    ell = int(rng.integers(0, 3))
    r = int(rng.integers(1, 4))
    c = int(rng.integers(1, 5))
    x, spec, A, B, b = rand_instance(rng, n, m, ell, r, c, with_B=True)
    conv_out, _ = L.conv1d_forward(x, spec, A, b)
    ac_out, _ = L.autocorr_forward(x, spec, A, B, b)
    assert conv_out.shape == (n, c)
    assert ac_out.shape == (n, c)


# Packed sentences: rows of several sentences stacked, with their lengths.
PACKED_LENGTHS = [
    [1, 1],
    [1, 4, 1],
    [3, 1, 7, 2],
    [5, 5],
    [1, 9, 1, 1, 6],
]


class TestPacked:
    def test_lone_sentence_mask_marks_only_padding(self):
        """One sentence is the zero-padding case of the rule: slot k of row t
        is masked out exactly where t - ell + k falls outside 0 .. n-1, and a
        call without lengths takes that mask."""
        src = np.arange(7)[:, None] + np.arange(-2, 4)
        mask = L._window_mask([7], 2, 3)
        assert mask.dtype == bool
        assert np.array_equal(mask, (src >= 0) & (src < 7))
        x, spec, A, b = rand_instance(Rng(1), 7, 3, 2, 3, 2)
        _, cache = L.conv1d_forward(x, spec, A, b)
        assert np.array_equal(cache.mask, mask)

    def test_mask_marks_own_sentence_rows(self):
        # lengths 2, 1: row 0 sees rows 0-1, row 1 rows 0-1, row 2 row 2 only
        mask = L._window_mask([2, 1], 1, 1)
        assert mask.tolist() == [[False, True, True],
                                 [True, True, False],
                                 [False, True, False]]

    @pytest.mark.parametrize("case", range(len(PACKED_LENGTHS)))
    def test_packed_equals_per_sentence(self, case):
        """conv1d and autocorr forward and backward over stacked sentences
        equal the per-sentence calls stacked, for every gradient."""
        lengths = PACKED_LENGTHS[case]
        rng = Rng(5000 + case)
        m, c = 3, 2
        ell, r = (0, 1) if case == 0 else (2, 3)
        x, spec, A, B, b = rand_instance(rng, sum(lengths), m, ell, r, c, with_B=True)
        up = rng.uniform(-1, 1, (sum(lengths), c))
        cut = np.cumsum(lengths)[:-1]
        xs, ups = np.split(x, cut), np.split(up, cut)

        def stacked(forward, backward, *kernels):
            outs, grads = [], []
            for xi, upi in zip(xs, ups):
                out, cache = forward(xi, spec, *kernels)
                outs.append(out)
                grads.append(backward(cache, upi))
            dxs = np.concatenate([g[0] for g in grads])
            return (np.concatenate(outs), dxs,
                    *[sum(g[k] for g in grads) for k in range(1, len(grads[0]))])

        def conv_backward(cache, upi):
            return L.conv1d_backward(cache, A, upi)

        def autocorr_backward(cache, upi):
            return full_autocorr_backward(cache, A, upi, B)

        for forward, backward, kernels in ((L.conv1d_forward, conv_backward, (A, b)),
                                           (L.autocorr_forward, autocorr_backward,
                                            (A, B, b))):
            out, cache = forward(x, spec, *kernels, lengths)
            packed = (out, *backward(cache, up))
            assert_all_close(packed, stacked(forward, backward, *kernels))

    def test_lengths_must_split_rows(self):
        rng = Rng(5100)
        x, spec, A, b = rand_instance(rng, 5, 2, 1, 1, 2)
        for lengths in ([2, 2], [5, 0], [3, 3]):
            with pytest.raises(ValueError):
                L.conv1d_forward(x, spec, A, b, lengths)


# Criterion 01 on every geometry above: ((ell, r), n, lengths, m, c).
ZERO_B_CASES = ([((0, 1) if k == 0 else (2, 3), sum(lengths), lengths, 3, 2)
                 for k, lengths in enumerate(PACKED_LENGTHS)]
                + [(group, n, lengths, 290, 60) for group, n, lengths in FOLD_CASES])


@pytest.mark.parametrize("case", range(len(ZERO_B_CASES)))
def test_zero_B_is_conv_bitwise(case):
    """With B = 0, autocorr's output and its dx, dA and db equal conv1d's bit
    for bit, packed or not, with an ell = 0 group and one-token sentences."""
    (ell, r), n, lengths, m, c = ZERO_B_CASES[case]
    rng = Rng(7000 + case)
    x, spec, A, b = rand_instance(rng, n, m, ell, r, c)
    zero_B = np.zeros((c, spec.width, spec.width, m))
    up = rng.uniform(-1, 1, (n, c))
    conv_out, conv_cache = L.conv1d_forward(x, spec, A, b, lengths)
    ac_out, ac_cache = L.autocorr_forward(x, spec, A, zero_B, b, lengths)
    assert np.array_equal(conv_out, ac_out)
    conv_grads = L.conv1d_backward(conv_cache, A, up)
    dB = np.full_like(zero_B, np.nan)  # autocorr_backward writes every entry
    ac_grads = L.autocorr_backward(ac_cache, A, up, dB)
    assert np.isfinite(dB).all()
    for got, want in zip(ac_grads, conv_grads, strict=True):
        assert np.array_equal(got, want)
