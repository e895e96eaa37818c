"""Seeded RNG, the finite-difference gradient oracle, and the numeric checks.

All numeric values are plain float64 numpy arrays, row-major, rank 1-3; 64-bit
keeps gradient checking reliable. NaN/Inf escaping a public operation is a bug
and raises NumericError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericError(RuntimeError):
    """A computation produced NaN/Inf or a numeric check failed."""


class Rng:
    """Deterministic random stream: identical seed gives an identical sample
    stream across runs and platforms (PCG64). Single-owner, never share across
    threads."""

    ALGORITHM = "pcg64"

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def uniform(self, low: float, high: float, size=None):
        out = self._gen.uniform(low, high, size)
        return float(out) if size is None else out

    def random(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, seq):
        return seq[int(self._gen.integers(len(seq)))]

    def weighted_index(self, probs) -> int:
        """Index into `probs` sampled proportionally to its entries."""
        p = np.asarray(probs, dtype=np.float64)
        return int(self._gen.choice(len(p), p=p / p.sum()))

    def spawn(self, key: int) -> "Rng":
        """Derive an independent child stream; deterministic in (seed, key)."""
        child = int(np.random.SeedSequence([self.seed, int(key)]).generate_state(1, np.uint64)[0])
        return Rng(child)


def ensure_finite(x: np.ndarray, context: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {context}")
    return x


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    ok: bool
    checked: int


def grad_check(f, p: np.ndarray, analytic: np.ndarray, eps: float = 1e-5,
               tol: float = 1e-4) -> GradCheckReport:
    """Compare an analytic gradient against central differences, coordinate by
    coordinate.

    `f(p) -> float` must be a pure function of the array `p`, which is
    perturbed in place and restored. Relative error per coordinate is
    |a - b| / max(|a|, |b|, 1e-8).
    """
    p = np.asarray(p)
    analytic = np.asarray(analytic)
    if analytic.shape != p.shape:
        raise ValueError(f"gradient shape {analytic.shape} != parameter shape {p.shape}")
    worst = 0.0
    it = np.nditer(p, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = p[idx]
        p[idx] = orig + eps
        f_plus = f(p)
        p[idx] = orig - eps
        f_minus = f(p)
        p[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError("non-finite objective during gradient check")
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = float(analytic[idx])
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
        it.iternext()
    return GradCheckReport(max_rel_error=worst, ok=worst <= tol, checked=p.size)
