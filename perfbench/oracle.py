"""Reference forward pass and training loss for the benchmark's output checks.

A per-window loop over the model's parameters: embedding lookup, the conv and
auto-correlation operators (one window at a time, zero rows outside the
sentence), ReLU, the width-1 layer and a row softmax. On top of it, the
eval-mode batch loss (token-averaged cross-entropy plus the L2 penalty) and
its central difference along a direction, which checks the program's
gradients. It shares no code with `acnn.layers` or `acnn.training`, so a fast
path that changes the arithmetic there is checked against arithmetic it did
not write.
"""

from __future__ import annotations

import numpy as np

# Probabilities must match the reference to this relative error. It admits
# reordered sums (GEMM rewrites match the einsum path to about 1e-12) and
# rejects any change to what is computed.
REL_TOL = 1e-9
# Central-difference step, and the error admitted between the difference and
# <grad, direction> for a unit-norm direction, relative to |grad|. The
# difference is good to about 1e-12 of |grad| on train-table1 and on an
# acnn-toy model; a gradient that drops the L2 term, the embedding or one
# layer's B is off by 1e-6 (train-table1) to 1e-4 (acnn-toy).
FD_EPS = 1e-4
GRAD_TOL = 1e-8


def _window(x: np.ndarray, t: int, ell: int, r: int) -> np.ndarray:
    n, m = x.shape
    win = np.zeros((ell + r + 1, m))
    for k in range(ell + r + 1):
        row = t - ell + k
        if 0 <= row < n:
            win[k] = x[row]
    return win


def _operator_layer(x: np.ndarray, k: int, layer, values: dict) -> np.ndarray:
    n = x.shape[0]
    cols = []
    for g, (ell, r) in enumerate(layer.kernel_groups):
        prefix = f"layer{k}.group{g}"
        A = values[f"{prefix}.A"]
        c = A.shape[0]
        A_flat = A.reshape(c, -1)
        B_flat = values[f"{prefix}.B"].reshape(c, -1) if layer.kind == "autocorr" else None
        b = values[f"{prefix}.b"]
        out = np.empty((n, c))
        for t in range(n):
            win = _window(x, t, ell, r)
            y = A_flat @ win.ravel()
            if B_flat is not None:
                y = y + B_flat @ (win[:, None, :] * win[None, :, :]).ravel()
            out[t] = y + b
        cols.append(out)
    return np.concatenate(cols, axis=1)


def forward(values: dict[str, np.ndarray], config, token_ids) -> np.ndarray:
    """Eval-mode class probabilities, one row per token, for parameter
    `values` (name -> array) of a model built from `config`."""
    x = values["embedding"][np.asarray(token_ids)]
    for k, layer in enumerate(config.layers, start=1):
        y = _operator_layer(x, k, layer, values)
        x = np.where(y > 0.0, y, 0.0)
    W, b = values["output.W"], values["output.b"]
    probs = np.empty((x.shape[0], W.shape[0]))
    for t in range(x.shape[0]):
        scores = W @ x[t] + b
        e = np.exp(scores - scores.max())
        probs[t] = e / e.sum()
    return probs


def probs_match(probs: np.ndarray, reference: np.ndarray) -> bool:
    return (probs.shape == reference.shape
            and bool(np.all(np.abs(probs - reference) <= REL_TOL * np.abs(reference))))


def batch_loss(values: dict[str, np.ndarray], config, batch) -> float:
    """Eval-mode loss of a batch of (token ids, label ids) pairs: negative
    log-likelihood averaged over all the batch's tokens, plus the L2 penalty
    on the width-1 weights."""
    total = sum(len(ids) for ids, _ in batch)
    nll = 0.0
    for ids, labels in batch:
        probs = forward(values, config, ids)
        nll -= float(np.log(probs[np.arange(len(ids)), labels]).sum())
    W = values["output.W"]
    return nll / total + config.l2_weight * float((W * W).sum())


def directional_derivative(values: dict[str, np.ndarray], config, batch,
                           direction: dict[str, np.ndarray]) -> float:
    """Central difference of `batch_loss` along `direction` (name -> array)."""
    def loss_at(step: float) -> float:
        return batch_loss({k: v + step * direction[k] for k, v in values.items()},
                          config, batch)
    return (loss_at(FD_EPS) - loss_at(-FD_EPS)) / (2 * FD_EPS)


def loss_matches(loss: float, reference: float) -> bool:
    return abs(loss - reference) <= REL_TOL * abs(reference)
