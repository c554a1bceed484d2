"""Ridge-stabilized logistic regression on a fixed support.

Damped Newton with step-halving, overflow-safe likelihood, Wald inference.
The penalized objective is strictly convex whenever ridge > 0, so a converged
fit is the unique global optimum on its support.

Binary answers make the likelihood on a support a function of its (answer
pattern, struck) cell counts, so large matrices are fit on those counts; below
PATTERN_MIN_ROWS rows a Newton step costs numpy call overhead, not rows. One
Newton loop serves both: a row is a cell of weight 1, and the intercept is
column 0 of the design [1 | X].
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CollinearityError, finite_real, whole
from .dataset import FeatureMatrix

# The Newton fit's stopping rule, the same for every caller: branch-and-bound
# certifies with the fits' objectives, so a looser tolerance would let it
# certify a suboptimal support, and a lower cap would void certificates.
# fit reads both once per call.
TOLERANCE = 1e-8  # on max |gradient|
MAX_ITERATIONS = 100
# Below ~500 rows a Newton step costs ~75-100 us whatever the row count (numpy
# call overhead; one BLAS thread, 2-core machine): cells pay from 1,024 rows.
PATTERN_MIN_ROWS = 1024
# The line search's flatness slack, in units of the objective's magnitude.
_SLACK_ULPS = 8.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class FitSettings:
    """The Newton fit's one setting, its ridge.

    ridge of None means 1/n, resolved against the training matrix at fit
    time; it vanishes asymptotically but keeps coefficients finite under
    perfect separation.
    """

    ridge: float | None = None

    def __post_init__(self):
        if self.ridge is not None and not (finite_real(self.ridge) and self.ridge >= 0):
            raise ValueError(f"ridge must be None or a finite number >= 0, got {self.ridge!r}")

    def resolve_ridge(self, n: int) -> float:
        return 1.0 / n if self.ridge is None else self.ridge


@dataclass(slots=True)
class FitDiagnostics:
    final_nll: float
    iterations: int
    converged: bool
    max_abs_gradient: float


@dataclass(slots=True)
class LogisticModel:
    """p(struck) = sigmoid(intercept + beta . x[support])."""

    support: tuple[int, ...]
    beta: np.ndarray
    intercept: float
    ridge: float
    diagnostics: FitDiagnostics

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.shape != (len(self.support),):
            raise ValueError("beta length must match support size")


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-eta)) from z = exp(-|eta|), which cannot overflow."""
    z = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, z) / (1.0 + z)


def _hessian(xa: np.ndarray, hw: np.ndarray, penalty_diag: np.ndarray) -> np.ndarray:
    """Hessian in theta = (intercept, beta) from the design [1 | X], the
    weights p(1 - p) and the penalty diag(0, ridge, ..., ridge)."""
    return (xa * hw[:, None]).T @ xa + penalty_diag


def _augmented(xs: np.ndarray) -> np.ndarray:
    """[1 | xs] in C order. A BLAS product can round differently by layout,
    so the fit and Wald inference build their design this one way."""
    xa = np.empty((xs.shape[0], xs.shape[1] + 1))
    xa[:, 0] = 1.0
    xa[:, 1:] = xs
    return xa


def _design(m: FeatureMatrix, support: tuple) -> np.ndarray:
    columns, seen = m.p, set()
    for j in support:
        if type(j) is not int and not whole(j, 0):  # an int needs no slow ABC check
            raise ValueError(f"support index {j!r} is not a column index")
        if not 0 <= j < columns:
            raise ValueError(f"support index {j} out of range for {columns} columns")
        if j in seen:
            raise ValueError(f"support index {j} is repeated")
        seen.add(j)
    return m.x[:, support]


def predict_proba(model: LogisticModel, m: FeatureMatrix) -> np.ndarray:
    """p(struck) for every row of ``m``.

    Each row's score is summed elementwise in the same order, not by a BLAS
    product, whose rounding can depend on where a row sits in the matrix and
    on the CPU's kernel: rows with the same answers then tie exactly, as the
    AUC's tie count assumes.
    """
    xs = _design(m, model.support)
    return _sigmoid(model.intercept + (xs * model.beta).sum(axis=1))


def fit(
    m: FeatureMatrix, support, settings: FitSettings = FitSettings(), *, start=None
) -> LogisticModel:
    """Damped Newton on the ridge-penalized likelihood over ``support``.

    A fit starts from the zero vector, so the result depends only on the
    rows of ``m``, the support and ``settings``, unless ``start`` (the
    intercept, then beta in support order) moves the start and the last
    bits with it. Separable data with ridge = 0 comes back with
    converged=False rather than diverging.

    From PATTERN_MIN_ROWS rows up, when the 2^(k+1) possible (pattern,
    struck) cells number at most n and the occupied ones at most n/2, Newton
    runs on the cell counts, so the fit depends on the rows as a multiset (and
    matches the row fit to rounding); other fits stay on rows. Counting the
    occupied cells of a wider support takes a sort, and there the cells
    rarely win enough to pay for it.

    One Newton loop runs on a weighted table with the design [1 | X], the
    intercept as column 0: a row fit's table is its rows, each of weight 1
    (multiplying by 1.0 is exact), and a cell fit's is its cells, weighted by
    their counts. The loop performs the step-by-step reference fit's
    floating-point operations (tests/oracles.py) in the reference's order, so
    a fit is that fit on the same table bit for bit. It saves only numpy calls
    and temporaries: hoisted constants and in-place ufuncs into one scratch
    buffer. ``wald_pvalues`` uses the same design and ``_hessian``.

    A row or cell scores softplus of its signed margin, log1p(exp(-|eta|)) +
    max((1 - 2y) eta, 0), which has none of the cancellation of max(eta, 0) -
    y eta, so the objective is accurate to a few ulp of itself. The line
    search therefore has one rule: take the first halving of the Newton step
    whose objective is at most 8 ulp above the current one, else stop.
    """
    support = tuple(support)
    xs = _design(m, support)
    y = m.y.astype(float)
    n, k = xs.shape
    if start is not None and not (np.shape(start) == (k + 1,) and np.isfinite(start).all()):
        raise ValueError(f"start must hold {k + 1} finite numbers: the intercept, then beta")
    ridge = settings.resolve_ridge(n)
    w = 1.0  # a row is a cell of weight 1
    if n >= PATTERN_MIN_ROWS and 2 << k <= n:  # a table of every possible cell is <= n long
        bits = np.arange(1, k + 1)  # row code sum_j x_j * 2^(j+1) + y
        counts = np.bincount((xs @ 2.0**bits + y).astype(np.int64), minlength=2 << k)
        cells = np.flatnonzero(counts)
        if 2 * cells.size <= n:
            w = counts[cells].astype(float)
            xs = (cells[:, None] >> bits) & 1
            y = (cells & 1).astype(float)
    xa = _augmented(xs)
    del xs  # only [1 | X] stays alive during the loop
    penalty = np.array([0.0] + [ridge] * k)  # the intercept is unpenalized
    penalty_diag = np.diag(penalty)  # once per fit: per Newton step it cost ~5% of a small fit
    half_ridge = 0.5 * ridge
    tolerance, max_iterations = TOLERANCE, MAX_ITERATIONS
    flip = 1.0 - 2.0 * y  # the margin's sign: a struck row scores -eta
    scratch = np.empty(y.size)

    def evaluate(t):
        """eta, z = exp(-|eta|) and the objective at t."""
        eta = xa @ t
        z = np.copysign(eta, -1.0)  # -|eta| in one call
        np.exp(z, out=z)
        # (log1p(z) + max(flip*eta, 0)) * w: softplus of the signed margin
        terms = np.log1p(z)
        margin = np.multiply(flip, eta, out=scratch)
        terms += np.maximum(margin, 0.0, out=scratch)
        terms *= w
        return eta, z, float(terms.sum()) + half_ridge * float(t[1:] @ t[1:])

    def probability_and_gradient(t, eta, z):
        p = np.where(eta >= 0.0, 1.0, z)
        p /= np.add(z, 1.0, out=scratch)
        resid = np.subtract(p, y, out=scratch)
        resid *= w
        return p, xa.T @ resid + penalty * t

    # Every quantity below belongs to the accepted theta and is computed once.
    theta = np.zeros(k + 1) if start is None else np.array(start, dtype=float)
    eta, z, current = evaluate(theta)
    p, g = probability_and_gradient(theta, eta, z)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if abs(g).max() <= tolerance:
            iterations -= 1
            break
        hw = np.subtract(1.0, p, out=scratch)  # Hessian weights p(1 - p) * w
        hw *= p
        hw *= w
        h = _hessian(xa, hw, penalty_diag)
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(h, g, rcond=None)[0]
        # Step-halving line search. The objective is accurate to a few ulp of
        # itself, so near the optimum, where the remaining descent is below
        # double precision, a step within that slack is no worse.
        slack = _SLACK_ULPS * max(1.0, abs(current))
        for _ in range(60):
            candidate = theta - step
            c_eta, c_z, value = evaluate(candidate)
            if value <= current + slack:
                break
            step *= 0.5  # exact: candidate h is theta - 0.5**h times the Newton step
        else:
            break  # no step within the slack
        theta, eta, current = candidate, c_eta, value
        p, g = probability_and_gradient(theta, eta, c_z)

    gmax = float(abs(g).max())
    # With ridge = 0 and every row (or cell) on its label's side (flip * eta < 0),
    # the data is separated by the fitted hyperplane and the optimum sits at
    # infinity; the small gradient is an artifact of the divergence path.
    separated = ridge == 0.0 and bool(np.all(flip * eta < 0.0))
    converged = gmax <= tolerance and not separated

    diag = FitDiagnostics(
        final_nll=current,
        iterations=iterations,
        converged=converged,
        max_abs_gradient=gmax,
    )
    return LogisticModel(
        support=support,
        beta=theta[1:].copy(),  # a view would keep all of theta alive
        intercept=float(theta[0]),
        ridge=ridge,
        diagnostics=diag,
    )


def _dependent_columns(design: np.ndarray, names) -> list[str]:
    """Names of columns linearly dependent on the ones before them. Column 0
    is the intercept's column of ones, so it opens the basis."""
    deps = []
    basis = [0]
    tol = 1e-8
    for j in range(1, design.shape[1]):
        col = design[:, j]
        b = design[:, basis]
        coef, *_ = np.linalg.lstsq(b, col, rcond=None)
        if np.linalg.norm(col - b @ coef) <= tol * max(1.0, np.linalg.norm(col)):
            deps.append(names[j])
        else:
            basis.append(j)
    return deps


def wald_pvalues(model: LogisticModel, m: FeatureMatrix) -> dict[str, float]:
    """Two-sided Wald p-values per coefficient, keyed by column name.

    Standard errors come from the inverse observed information at the fit.
    Textbook inference assumes ridge = 0; with ridge > 0 the penalty enters
    the information matrix and the result is flagged approximate.
    """
    if not model.diagnostics.converged:
        raise ValueError("Wald inference requires a converged fit")
    if model.ridge > 0:
        warnings.warn(
            "Wald p-values are approximate when ridge > 0", stacklevel=2
        )
    xa = _augmented(_design(m, model.support))
    names = ["intercept"] + [m.columns[j] for j in model.support]
    p = predict_proba(model, m)
    info = _hessian(xa, p * (1.0 - p), np.diag([0.0] + [model.ridge] * len(model.support)))
    eigvals = np.linalg.eigvalsh(info)
    if eigvals[0] <= 1e-10 * max(eigvals[-1], 1.0):
        raise CollinearityError(_dependent_columns(xa, names) or names)
    cov = np.linalg.inv(info)
    se = np.sqrt(np.diag(cov))
    theta = np.concatenate([[model.intercept], model.beta])
    pvals = {}
    for name, coef, s in zip(names, theta, se):
        z = coef / s
        pvals[name] = math.erfc(abs(z) / math.sqrt(2.0))
    return pvals


def model_to_json(model: LogisticModel, columns) -> dict:
    return {
        "support": [columns[j] for j in model.support],
        "beta": [float(b) for b in model.beta],
        "intercept": model.intercept,
        "ridge": model.ridge,
        "diagnostics": {
            "final_nll": model.diagnostics.final_nll,
            "iterations": model.diagnostics.iterations,
            "converged": model.diagnostics.converged,
            "max_abs_gradient": model.diagnostics.max_abs_gradient,
        },
    }
