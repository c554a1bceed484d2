import itertools
import math
import re
import warnings

import numpy as np
import pytest

from strikeaudit import logreg
from strikeaudit.dataset import FeatureMatrix
from strikeaudit.errors import CollinearityError
from strikeaudit.logreg import (
    FitDiagnostics,
    FitSettings,
    LogisticModel,
    fit,
    model_to_json,
    predict_proba,
    wald_pvalues,
)

from conftest import random_binary_matrix
from oracles import central_difference_gradient, gradient, nll, reference_newton_fit


def zero_model(support=(), ridge=0.0):
    return LogisticModel(
        support=tuple(support),
        beta=np.zeros(len(support)),
        intercept=0.0,
        ridge=ridge,
        diagnostics=FitDiagnostics(0.0, 0, True, 0.0),
    )


def naive_nll(model, m):
    """Literal summation oracle, no overflow guards or vectorization."""
    total = 0.0
    for i in range(m.n):
        eta = model.intercept
        for pos, j in enumerate(model.support):
            eta += model.beta[pos] * m.x[i, j]
        total += math.log(1.0 + math.exp(eta)) - m.y[i] * eta
    return total + 0.5 * model.ridge * float(model.beta @ model.beta)


class TestNll:
    def test_zero_model_gives_n_log2(self):
        m = random_binary_matrix(0, 37, 4)
        assert nll(zero_model(), m) == pytest.approx(37 * math.log(2), rel=1e-12)

    def test_intercept_only_closed_form(self):
        # beta0 = ln 3, all y = 1: per-row loss is ln(4/3)
        m = FeatureMatrix(
            x=np.array([[0.0], [1.0], [0.0], [1.0]]),
            columns=("a",),
            y=np.ones(4, dtype=int),
        )
        model = zero_model()
        model.intercept = math.log(3.0)
        assert nll(model, m) == pytest.approx(4 * math.log(4 / 3), rel=1e-12)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(9)
        for seed in range(10):
            m = random_binary_matrix(seed, 60, 5)
            model = zero_model(support=(0, 2, 4), ridge=0.3)
            model.beta = rng.normal(0, 2, 3)
            model.intercept = float(rng.normal())
            assert nll(model, m) == pytest.approx(naive_nll(model, m), rel=1e-12)

    def test_row_permutation_invariance(self):
        m = random_binary_matrix(4, 50, 3)
        perm = np.random.default_rng(1).permutation(m.n)
        m_perm = m.take_rows(perm)
        model = zero_model(support=(0, 1), ridge=0.1)
        model.beta = np.array([0.7, -1.2])
        assert nll(model, m) == pytest.approx(nll(model, m_perm), rel=1e-12)


class TestGradient:
    def test_zero_at_ridge_optimum(self):
        m = random_binary_matrix(1, 200, 4, signal={0: 1.0})
        model = fit(m, (0, 1, 2), FitSettings(ridge=0.2))
        assert model.diagnostics.converged
        assert np.max(np.abs(gradient(model, m))) <= 1e-8

    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        for seed in range(5):
            m = random_binary_matrix(seed + 30, 80, 6)
            support = (0, 2, 5)
            for _ in range(20):
                theta = rng.normal(0, 1.5, len(support) + 1)
                model = zero_model(support, ridge=0.25)
                model.intercept = float(theta[0])
                model.beta = theta[1:]

                def f(t):
                    trial = zero_model(support, ridge=0.25)
                    trial.intercept = float(t[0])
                    trial.beta = t[1:]
                    return nll(trial, m)

                expected = central_difference_gradient(f, theta)
                assert gradient(model, m) == pytest.approx(expected, abs=1e-6)

    def test_empty_support_reduces_to_residual_sum(self):
        m = random_binary_matrix(2, 40, 3)
        model = zero_model()
        model.intercept = 0.4
        g = gradient(model, m)
        sigma = 1.0 / (1.0 + math.exp(-0.4))
        assert g.shape == (1,)
        assert g[0] == pytest.approx(float(np.sum(sigma - m.y)), rel=1e-12)


class TestFit:
    def test_balanced_intercept_is_zero(self):
        x = np.random.default_rng(0).integers(0, 2, (60, 2)).astype(float)
        y = np.array([0, 1] * 30)
        m = FeatureMatrix(x=x, columns=("a", "b"), y=y)
        model = fit(m, (), FitSettings(ridge=0.0))
        assert model.diagnostics.converged
        assert model.intercept == pytest.approx(0.0, abs=1e-8)

    def test_quarter_positives_intercept(self):
        x = np.random.default_rng(0).integers(0, 2, (80, 2)).astype(float)
        y = np.array([1] * 20 + [0] * 60)
        m = FeatureMatrix(x=x, columns=("a", "b"), y=y)
        model = fit(m, (), FitSettings(ridge=0.0))
        assert model.intercept == pytest.approx(math.log(1 / 3), abs=1e-8)

    def test_separable_with_ridge_matches_scipy_minimizer(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        x = np.zeros((50, 1))
        x[:25] = 1.0
        y = np.zeros(50, dtype=int)
        y[:25] = 1
        m = FeatureMatrix(x=x, columns=("s",), y=y)
        settings = FitSettings(ridge=1e-3)
        model = fit(m, (0,), settings)
        assert model.diagnostics.converged
        assert np.isfinite(model.beta).all()

        def objective(theta):
            trial = zero_model((0,), ridge=1e-3)
            trial.intercept = float(theta[0])
            trial.beta = theta[1:].copy()
            return nll(trial, m)

        result = scipy_optimize.minimize(
            objective, np.zeros(2), method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000},
        )
        assert model.diagnostics.final_nll == pytest.approx(result.fun, abs=1e-8)

    def test_separable_without_ridge_flags_nonconvergence(self):
        x = np.zeros((40, 1))
        x[:20] = 1.0
        y = np.zeros(40, dtype=int)
        y[:20] = 1
        m = FeatureMatrix(x=x, columns=("s",), y=y)
        model = fit(m, (0,), FitSettings(ridge=0.0))
        assert not model.diagnostics.converged
        assert np.isfinite(model.beta).all()

    def test_ridge_shrinks_coefficients(self):
        m = random_binary_matrix(5, 300, 4, signal={0: 2.0, 1: -1.0})
        norms = []
        for ridge in (0.0, 0.5, 5.0):
            model = fit(m, (0, 1, 2, 3), FitSettings(ridge=ridge))
            assert model.diagnostics.converged
            norms.append(float(np.linalg.norm(model.beta)))
        assert norms[0] >= norms[1] >= norms[2]

    def test_objective_trace_non_increasing(self, monkeypatch):
        # Fits start from zeros, so a fit capped at t iterations stops at the
        # t-th iterate of the uncapped fit: the capped objectives are its trace.
        m = random_binary_matrix(6, 150, 5, signal={2: 1.5})
        full = fit(m, tuple(range(5)), FitSettings(ridge=0.01))
        assert full.diagnostics.converged and full.diagnostics.iterations >= 3
        trace = []
        for t in range(1, full.diagnostics.iterations + 2):
            monkeypatch.setattr(logreg, "MAX_ITERATIONS", t)
            capped = fit(m, tuple(range(5)), FitSettings(ridge=0.01))
            assert capped.diagnostics.iterations == min(t, full.diagnostics.iterations)
            trace.append(capped.diagnostics.final_nll)
        assert trace[-1] == full.diagnostics.final_nll
        trace = np.asarray(trace)
        slack = 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(np.diff(trace) <= slack)

    def test_default_ridge_is_one_over_n(self):
        m = random_binary_matrix(7, 128, 3)
        model = fit(m, (0,))
        assert model.ridge == pytest.approx(1.0 / 128)

    def test_bitwise_equal_to_reference_newton(self, monkeypatch):
        # 108 instances: every combination of ridge, max_iterations and
        # separable labels, six draws each, one of them with an empty support.
        grid = itertools.product((0.0, None, 0.5), (1, 2, 100), (False, True), range(6))
        for case, (ridge, max_iter, separable, draw) in enumerate(grid):
            rng = np.random.default_rng(case)
            n, p = int(rng.integers(15, 120)), int(rng.integers(1, 7))
            x = (rng.random((n, p)) < 0.5).astype(float)
            y = (rng.random(n) < 0.4).astype(int)
            if separable:
                y = x[:, 0].astype(int)
            if not 0 < y.sum() < n:
                y[:2] = (0, 1)
            m = FeatureMatrix(x=x, columns=tuple(f"f{j}" for j in range(p)), y=y)
            size = 0 if draw == 0 else int(rng.integers(1, p + 1))
            support = tuple(sorted(rng.choice(p, size, replace=False).tolist()))
            monkeypatch.setattr(logreg, "MAX_ITERATIONS", max_iter)
            model = fit(m, support, FitSettings(ridge=ridge))
            theta, final, iters, converged, gmax = reference_newton_fit(
                m, support, ridge, max_iterations=max_iter)
            d = model.diagnostics
            got = np.concatenate([[model.intercept], model.beta])
            assert got.tobytes() == theta.tobytes(), case
            assert (d.final_nll, d.iterations, d.converged) == (final, iters, converged), case
            assert d.max_abs_gradient == gmax, case

    @pytest.mark.parametrize("kwargs", [
        {"ridge": -0.1}, {"ridge": math.inf}, {"ridge": math.nan},
        {"ridge": True}, {"ridge": "0.1"},
    ])
    def test_bad_settings_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            FitSettings(**kwargs)

    @pytest.mark.parametrize("args, kwargs", [
        ((), {"tolerance": 5.0}), ((), {"max_iterations": 1}),
        ((None, 5.0), {}), ((None, 1e-8, 1), {}),
    ])
    def test_stopping_rule_is_not_a_setting(self, args, kwargs):
        # A looser tolerance would let branch-and-bound certify a suboptimal
        # support and a lower cap would void certificates, so no caller can
        # pass either, by name or by position.
        with pytest.raises(TypeError):
            FitSettings(*args, **kwargs)
        assert (logreg.TOLERANCE, logreg.MAX_ITERATIONS) == (1e-8, 100)

    def test_bad_support_rejected(self):
        m = random_binary_matrix(8, 30, 3)
        with pytest.raises(ValueError):
            fit(m, (0, 7))

    @pytest.mark.parametrize("support, message", [
        ((0, 0), "support index 0 is repeated"),
        ((1, 2, 1), "support index 1 is repeated"),
        ((True,), "support index True is not a column index"),
        ((0, 1.0), "support index 1.0 is not a column index"),
    ])
    def test_repeated_or_non_integer_support_rejected(self, support, message):
        # A repeated column would split its coefficient between two copies,
        # and a bool would index the columns as a mask.
        m = random_binary_matrix(8, 30, 3)
        with pytest.raises(ValueError, match=re.escape(message)):
            fit(m, support)
        with pytest.raises(ValueError, match=re.escape(message)):
            predict_proba(zero_model(support), m)


def pattern_matrix(seed, separable=False):
    """A matrix large enough that every support of up to 10 columns is fit
    on its (pattern, struck) cell table."""
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(4096, 6000)), 11
    x = (rng.random((n, p)) < rng.uniform(0.2, 0.6, p)).astype(float)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(0.4 - x[:, :3] @ (1.2, -0.8, 0.5)))).astype(int)
    if separable:
        y = x[:, 0].astype(int)
    return FeatureMatrix(x=x, columns=tuple(f"f{j}" for j in range(p)), y=y)


def theta_of(model):
    return np.concatenate([[model.intercept], model.beta])


def cell_table(m, support):
    """The (pattern, struck) table that fit runs Newton on for ``support``,
    built as its gate builds it: from PATTERN_MIN_ROWS rows up, when the
    2^(k+1) possible cells number at most n and the occupied ones at most
    n/2. Returns (the cells as a matrix over their k columns, their counts)
    in ascending order of the row code sum_j x_j 2^(j+1) + y, or None where
    the fit takes rows. The codes are summed in integers."""
    k = len(support)
    if m.n < logreg.PATTERN_MIN_ROWS or 2 << k > m.n:
        return None
    bits = np.arange(1, k + 1)
    codes = (m.x[:, support].astype(np.int64) << bits).sum(axis=1) + m.y
    cells, counts = np.unique(codes, return_counts=True)
    if 2 * cells.size > m.n:
        return None
    columns = tuple(f"c{j}" for j in range(k))
    return FeatureMatrix(x=(cells[:, None] >> bits) & 1, columns=columns, y=cells & 1), counts


def reference_fit(m, support, ridge, **cap):
    """reference_newton_fit on the table that fit runs on: the cells of
    cell_table weighted by their counts, or else the rows. The ridge
    resolves on the row count either way."""
    ridge = 1.0 / m.n if ridge is None else ridge
    table = cell_table(m, tuple(support))
    if table is None:
        return reference_newton_fit(m, support, ridge, **cap)
    cells, counts = table
    return reference_newton_fit(cells, range(cells.p), ridge, weights=counts, **cap)


def assert_is_reference(model, reference, case=None):
    """model is the reference fit bit for bit: theta, final_nll, iterations,
    converged and max_abs_gradient."""
    theta, final, iters, converged, gmax = reference
    d = model.diagnostics
    assert theta_of(model).tobytes() == theta.tobytes(), case
    assert (d.final_nll, d.iterations, d.converged, d.max_abs_gradient) == (
        final, iters, converged, gmax), case


class TestPatternFit:
    def test_matches_reference_newton_on_rows(self, monkeypatch):
        # 66 instances: k = 0..10 x ridge x separable labels, each on the cells.
        # Each fit is the reference on its weighted cell table bit for bit,
        # and the row reference to rounding: the same objective, verdict and
        # iteration count, and theta to 1e-12 relative, at the default
        # tolerance and at 1e-6.
        for case, (k, ridge, separable) in enumerate(
                itertools.product(range(11), (0.0, None, 0.5), (False, True))):
            m = pattern_matrix(case, separable)
            assert m.n >= logreg.PATTERN_MIN_ROWS and 4 << k <= m.n
            support = tuple(range(k)) if separable else tuple(range(10 - k, 10))
            for tolerance in (1e-8, 1e-6):
                monkeypatch.setattr(logreg, "TOLERANCE", tolerance)
                model = fit(m, support, FitSettings(ridge=ridge))
                assert cell_table(m, support) is not None, case
                assert_is_reference(model, reference_fit(m, support, ridge, tolerance=tolerance),
                                    case)
                theta, final, iters, converged, _ = reference_newton_fit(
                    m, support, ridge, tolerance=tolerance)
                d = model.diagnostics
                assert abs(d.final_nll - final) <= 1e-12 * abs(final), case
                assert (d.converged, d.iterations) == (converged, iters), case
                scale = max(1.0, float(np.max(np.abs(theta))))
                assert np.max(np.abs(theta_of(model) - theta)) <= 1e-12 * scale, case

    def test_row_permutation_gives_bitwise_identical_fit(self):
        for seed, support in enumerate([(), (0,), (1, 4, 6), tuple(range(9))]):
            m = pattern_matrix(100 + seed)
            shuffled = m.take_rows(np.random.default_rng(seed).permutation(m.n))
            a, b = fit(m, support), fit(shuffled, support)
            assert theta_of(a).tobytes() == theta_of(b).tobytes()
            assert a.diagnostics == b.diagnostics

    def test_separable_fit_with_ridge_converges(self):
        # The fit that used to stall at the objective's rounding floor: a
        # line search that met noise of ulp(|eta|) per row took flat steps
        # until the 100-iteration cap, at max |g| 1.9e-8.
        m = pattern_matrix(9, separable=True)
        d = fit(m, (0,)).diagnostics
        assert d.converged and d.max_abs_gradient <= logreg.TOLERANCE
        assert d.iterations <= 20

    def test_separable_fits_with_ridge_converge_promptly(self):
        # 200 separable matrices, supports of 0-10 columns holding the
        # label column, ridge 1/n and 0.5 alternately: every fit converges
        # within 20 Newton iterations.
        for seed in range(1000, 1200):
            m = pattern_matrix(seed, separable=True)
            k = int(np.random.default_rng(seed).integers(0, 11))
            ridge = None if seed % 2 == 0 else 0.5
            d = fit(m, tuple(range(k)), FitSettings(ridge=ridge)).diagnostics
            assert d.converged and d.iterations <= 20, (seed, k, ridge, d)

    def test_separable_ridge_zero_unconverged_without_warning(self):
        m = pattern_matrix(200, separable=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit(m, (0, 1, 2), FitSettings(ridge=0.0))
        assert not model.diagnostics.converged
        assert np.isfinite(theta_of(model)).all()


def warm_fit_cases():
    """(matrix, wider support, dropped columns, ridge) on the row path and on
    the cell path: one column dropped, as a bound fit's parent drops, and
    several, as a search fit's anchor drops."""
    for case, ridge in enumerate((None, 0.5)):
        rows = random_binary_matrix(60 + case, 300, 6, signal={0: 1.0, 2: -0.8})
        cells = pattern_matrix(400 + case)
        yield rows, tuple(range(6)), (2,), ridge
        yield rows, tuple(range(6)), (1, 3, 4), ridge
        yield cells, tuple(range(10)), (1,), ridge
        yield cells, tuple(range(11)), (0, 3, 4, 7, 9), ridge


class TestWarmStart:
    def test_start_sliced_from_a_wider_fit_reaches_the_fit_from_zeros(self):
        # At the optimum theta* the objective is locally quadratic with
        # Hessian H, smallest eigenvalue mu. A gradient g then puts theta
        # within |g| / mu of theta* and its objective within |g|^2 / (2 mu)
        # of the minimum; both fits stop with max |g| <= tolerance.
        for m, wide_support, dropped, ridge in warm_fit_cases():
            settings = FitSettings(ridge=ridge)
            wide = fit(m, wide_support, settings)
            support = tuple(j for j in wide_support if j not in dropped)
            start = [wide.intercept] + [b for j, b in zip(wide_support, wide.beta)
                                        if j not in dropped]
            warm = fit(m, support, settings, start=start)
            cold = fit(m, support, settings)
            assert warm.diagnostics.converged and cold.diagnostics.converged
            design = np.column_stack([np.ones(m.n), m.x[:, support]])
            p = predict_proba(cold, m)
            h = design.T @ (design * (p * (1 - p))[:, None])
            h[1:, 1:] += cold.ridge * np.eye(len(support))
            mu = np.linalg.eigvalsh(h)[0]
            g = math.sqrt(len(support) + 1) * logreg.TOLERANCE  # |g| for each fit
            value = cold.diagnostics.final_nll
            assert abs(warm.diagnostics.final_nll - value) <= g * g / mu + 1e-14 * abs(value)
            assert np.linalg.norm(theta_of(warm) - theta_of(cold)) <= 2 * g / mu

    @pytest.mark.parametrize("start", [
        [0.0, 0.0, 0.0], [0.0] * 5, [[0.0] * 4], [0.0, math.nan, 0.0, 0.0],
        [0.0, 0.0, math.inf, 0.0],
    ])
    def test_bad_start_rejected(self, start):
        m = random_binary_matrix(63, 50, 4)
        with pytest.raises(ValueError, match="start"):
            fit(m, (0, 1, 3), start=start)


def copied_columns_matrix(seed):
    """A matrix of 8,192 to 9,000 rows whose 12 columns are copies of 3 base
    columns: 2^13 possible cells, more than n/2, but at most 16 occupied."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8192, 9000))
    base = (rng.random((n, 3)) < (0.3, 0.5, 0.4)).astype(float)
    x = base[:, np.arange(12) % 3]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(0.3 - base @ (1.0, -0.7, 0.4)))).astype(int)
    return FeatureMatrix(x=x, columns=tuple(f"f{j}" for j in range(12)), y=y)


class TestOccupiedCells:
    def test_copied_columns_take_the_cell_path(self):
        # Only the cell path makes a fit a function of the rows as a multiset,
        # so bit-identical fits under row permutation show it was taken; a row
        # fit sums in row order and moves in its last bits.
        for seed in range(4):
            m = copied_columns_matrix(seed)
            support = tuple(range(12))
            assert 4 << len(support) > m.n >= 2 << len(support)
            model = fit(m, support)
            assert cell_table(m, support) is not None, seed
            assert_is_reference(model, reference_fit(m, support, None), seed)
            _, final, iters, converged, _ = reference_newton_fit(m, support, None)
            d = model.diagnostics
            assert d.converged and converged
            assert abs(d.final_nll - final) <= 1e-12 * abs(final), seed
            shuffled = m.take_rows(np.random.default_rng(seed).permutation(m.n))
            other = fit(shuffled, support)
            assert theta_of(other).tobytes() == theta_of(model).tobytes(), seed
            assert other.diagnostics == d, seed


def short_fit_cases():
    """(matrix, support, ridge, on cells) on the row path and on the cell
    path, k = 0 included. No row matrix is balanced, so k = 0 takes a step."""
    for case, ridge in enumerate((0.0, None, 0.5)):
        m = random_binary_matrix(42 + case, 90, 5, signal={0: 1.0, 2: -0.8})
        yield m, (), ridge, False
        yield m, (0, 2, 3), ridge, False
        m = pattern_matrix(300 + case)
        yield m, (), ridge, True
        yield m, (1, 4, 6, 7), ridge, True


class TestShortFits:
    """Fits that stop at the start or after one Newton step, where the loop's
    start at zeros and its first step stand alone. Row fits match the
    reference bit for bit. Cell fits take the same first step bit for bit
    (at zeros every Hessian and gradient entry is a sum of quarters or
    halves, exact in either order), but their objective and gradient sum
    over cells and match the row sums to rounding. Every fit is the
    reference on its own table, rows or weighted cells, bit for bit."""

    @pytest.mark.parametrize("cap", [
        {"tolerance": 1e6}, {"max_iterations": 1},
    ], ids=["zero-iterations", "one-iteration"])
    def test_match_reference_newton(self, monkeypatch, cap):
        for name, value in cap.items():
            monkeypatch.setattr(logreg, name.upper(), value)
        for m, support, ridge, cells in short_fit_cases():
            model = fit(m, support, FitSettings(ridge=ridge))
            theta, final, iters, converged, gmax = reference_newton_fit(m, support, ridge, **cap)
            d = model.diagnostics
            assert iters == (0 if "tolerance" in cap else 1)
            assert theta_of(model).tobytes() == theta.tobytes()
            assert (d.iterations, d.converged) == (iters, converged)
            if cells:
                assert abs(d.final_nll - final) <= 1e-12 * abs(final)
                assert abs(d.max_abs_gradient - gmax) <= 1e-12 * max(1.0, gmax)
            else:
                assert (d.final_nll, d.max_abs_gradient) == (final, gmax)

    @pytest.mark.parametrize("cap", [
        {"tolerance": 1e6}, {"max_iterations": 1},
    ], ids=["zero-iterations", "one-iteration"])
    def test_match_reference_newton_on_their_table(self, monkeypatch, cap):
        for name, value in cap.items():
            monkeypatch.setattr(logreg, name.upper(), value)
        for m, support, ridge, cells in short_fit_cases():
            assert (cell_table(m, support) is not None) == cells
            model = fit(m, support, FitSettings(ridge=ridge))
            assert_is_reference(model, reference_fit(m, support, ridge, **cap))

    def test_cell_objective_at_zeros(self, monkeypatch):
        # At zeros the cell objective is the count-weighted sum of
        # log1p(exp(-|0|)) + max((1 - 2y) * 0, 0), evaluated here term by term.
        monkeypatch.setattr(logreg, "TOLERANCE", 1e6)  # the fit stops at zeros
        for m, support, ridge, cells in short_fit_cases():
            if not cells:
                continue
            d = fit(m, support, FitSettings(ridge=ridge)).diagnostics
            codes = m.x[:, support] @ 2.0 ** np.arange(1, len(support) + 1) + m.y
            cell, counts = np.unique(codes.astype(np.int64), return_counts=True)
            eta, y = np.zeros(cell.size), (cell & 1).astype(float)
            terms = np.log1p(np.exp(-np.abs(eta))) + np.maximum((1.0 - 2.0 * y) * eta, 0.0)
            assert d.final_nll == float(np.sum(counts.astype(float) * terms))


class TestPredictProba:
    def test_zero_model_gives_half(self):
        m = random_binary_matrix(9, 25, 3)
        assert predict_proba(zero_model(), m) == pytest.approx(np.full(25, 0.5))

    def test_monotone_in_positive_coefficient(self):
        model = zero_model(support=(0,))
        model.beta = np.array([1.7])
        off = FeatureMatrix(x=np.array([[0.0]]), columns=("a",), y=np.array([0]))
        on = FeatureMatrix(x=np.array([[1.0]]), columns=("a",), y=np.array([0]))
        assert predict_proba(model, on)[0] > predict_proba(model, off)[0]

    def test_published_coefficient_row(self):
        # accused coefficient 5.75082 with intercept -0.81973: a juror whose
        # only active feature is `accused` gets sigmoid(4.93109)
        model = zero_model(support=(0,))
        model.beta = np.array([5.75082])
        model.intercept = -0.81973
        row = FeatureMatrix(x=np.array([[1.0]]), columns=("accused",), y=np.array([1]))
        expected = 1.0 / (1.0 + math.exp(-4.93109))
        assert predict_proba(model, row)[0] == pytest.approx(expected, rel=1e-12)

    def test_equal_rows_get_one_score(self):
        # One answer pattern at every third row and in the last three rows.
        # Selecting the support's columns gives a column-major array, and on
        # it a BLAS product scored the rows after the last block of four
        # 1 ulp apart from the others, so the AUC split a tie.
        rng = np.random.default_rng(5)
        for n in range(90, 110):
            x = (rng.random((n, 8)) < 0.5).astype(float)
            x[::3] = x[-3:] = x[1]
            m = FeatureMatrix(x=x, columns=tuple("abcdefgh"), y=rng.integers(0, 2, n))
            model = zero_model(support=tuple(range(8)))
            model.beta = rng.normal(0.0, 1.5, 8)
            model.intercept = float(rng.normal())
            rows = np.flatnonzero((x == x[1]).all(axis=1))
            assert np.unique(predict_proba(model, m)[rows]).size == 1, n


class TestWald:
    def test_duplicated_column_raises_collinearity(self):
        rng = np.random.default_rng(20)
        base = rng.integers(0, 2, (200, 2)).astype(float)
        x = np.column_stack([base, base[:, 0]])
        y = (rng.random(200) < 0.4).astype(int)
        m = FeatureMatrix(x=x, columns=("a", "b", "a_copy"), y=y)
        model = fit(m, (0, 1, 2), FitSettings(ridge=0.0))
        with pytest.raises(CollinearityError) as err:
            wald_pvalues(model, m)
        assert "a_copy" in err.value.columns

    def test_noise_feature_size(self):
        # pure noise: p < 0.05 should be rare across seeds
        hits = 0
        for seed in range(100):
            m = random_binary_matrix(seed, 2000, 1)
            model = fit(m, (0,), FitSettings(ridge=0.0))
            if not model.diagnostics.converged:
                continue
            if wald_pvalues(model, m)["f0"] < 0.05:
                hits += 1
        assert hits <= 10

    def test_informative_feature_power(self):
        hits = 0
        for seed in range(20):
            m = random_binary_matrix(seed + 500, 2000, 1, signal={0: 2.0})
            model = fit(m, (0,), FitSettings(ridge=0.0))
            if wald_pvalues(model, m)["f0"] < 1e-3:
                hits += 1
        assert hits == 20

    def test_ridge_fit_warns_approximate(self):
        m = random_binary_matrix(21, 300, 2, signal={0: 1.0})
        model = fit(m, (0, 1), FitSettings(ridge=0.1))
        with pytest.warns(UserWarning, match="approximate"):
            pvals = wald_pvalues(model, m)
        assert set(pvals) == {"intercept", "f0", "f1"}

    @pytest.mark.parametrize("ridge", [0.0, 0.3])
    def test_standard_errors_match_finite_difference_hessian(self, ridge):
        # Independent of the Newton Hessian: differentiate the gradient
        # numerically at the fit and invert that.
        for seed in range(5):
            m = random_binary_matrix(seed + 40, 300, 4, signal={0: 1.0, 2: -0.8})
            model = fit(m, (0, 1, 2, 3), FitSettings(ridge=ridge))
            assert model.diagnostics.converged

            def gradient_at(t):
                trial = zero_model(model.support, ridge=model.ridge)
                trial.intercept = float(t[0])
                trial.beta = t[1:]
                return gradient(trial, m)

            theta = np.concatenate([[model.intercept], model.beta])
            h = np.array([
                central_difference_gradient(lambda t: gradient_at(t)[i], theta)
                for i in range(theta.size)
            ])
            se = np.sqrt(np.diag(np.linalg.inv(h)))
            expected = [math.erfc(abs(c / s) / math.sqrt(2.0)) for c, s in zip(theta, se)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                pvals = wald_pvalues(model, m)
            assert list(pvals.values()) == pytest.approx(expected, rel=1e-6)

    def test_unconverged_model_rejected(self):
        x = np.zeros((40, 1))
        x[:20] = 1.0
        y = np.zeros(40, dtype=int)
        y[:20] = 1
        m = FeatureMatrix(x=x, columns=("s",), y=y)
        model = fit(m, (0,), FitSettings(ridge=0.0))
        with pytest.raises(ValueError):
            wald_pvalues(model, m)


class TestSerialization:
    def test_model_to_json(self):
        m = random_binary_matrix(30, 120, 4, signal={1: 1.0})
        model = fit(m, (1, 3), FitSettings(ridge=0.05))
        obj = model_to_json(model, m.columns)
        assert obj["support"] == ["f1", "f3"]
        assert obj["beta"] == model.beta.tolist()
        assert (obj["intercept"], obj["ridge"]) == (model.intercept, model.ridge)
        assert obj["diagnostics"]["converged"] == model.diagnostics.converged
