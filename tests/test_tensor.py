import numpy as np
import pytest

from acnn.tensor import NumericError, Rng, grad_check


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(1234).random(10_000)
        b = Rng(1234).random(10_000)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        assert not np.array_equal(Rng(1).random(100), Rng(2).random(100))

    def test_spawn_deterministic(self):
        assert Rng(5).spawn(3).seed == Rng(5).spawn(3).seed
        assert Rng(5).spawn(3).seed != Rng(5).spawn(4).seed


class TestGradCheck:
    def test_quadratic(self):
        rng = Rng(0)
        p = rng.uniform(-2, 2, (3, 4))
        report = grad_check(lambda q: float((q * q).sum()), p, 2.0 * p, eps=1e-5, tol=1e-4)
        assert report.ok
        assert report.max_rel_error < 1e-6

    def test_constant_function(self):
        p = np.ones(5)
        report = grad_check(lambda q: 1.0, p, np.zeros(5))
        assert report.ok

    def test_detects_wrong_gradient(self):
        rng = Rng(1)
        p = rng.uniform(0.5, 2, 6)
        report = grad_check(lambda q: float((q * q).sum()), p, 3.0 * p)
        assert not report.ok

    @pytest.mark.parametrize("at", [0, 3])
    def test_detects_nan_gradient(self, at):
        p = Rng(2).uniform(0.5, 2, 4)
        analytic = 2.0 * p
        analytic[at] = np.nan
        report = grad_check(lambda q: float((q * q).sum()), p, analytic)
        assert not report.ok

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            grad_check(lambda q: 0.0, np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("objective", [lambda q: np.nan,
                                           lambda q: np.inf if q[1] > 0 else 0.0],
                             ids=["nan", "inf-on-one-side"])
    def test_non_finite_objective_is_numeric_error(self, objective):
        with pytest.raises(NumericError, match="non-finite objective"):
            grad_check(objective, np.zeros(3), np.zeros(3))

