"""Leave-one-out linear prediction of each ticker's return from the rest.

Given a return covariance matrix C, the minimum-mean-square predictor of
return I from all others has coefficients that come out of the single
full inverse A = C^-1 through the partitioned-inverse identity:

    B[I, K] = -(A[K, I] / A[I, I])  for K != I,  B[I, I] = 0

so one n x n inversion replaces n separate (n-1) x (n-1) inversions.
``prediction_report`` scores coefficients on a return panel, a column block
at a time, by the fraction of variance explained (FVE) and the fractional
mean-square error (FMSE); no prediction panel is made. The FVE is the squared
correlation of prediction and outcome, which is the paper's (1 - FMSE/2)^2
once each prediction is standardized to its outcome's scale, so coefficients
with no skill score 0.

``gradient_refine`` descends a training panel's mean-square prediction error
and keeps the snapshot of lowest mean validation FMSE, never worse than the
start; on the bench's wide market and a 100-ticker one it keeps the start.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .candles import _row_lines, read_table, write_table
from .covariance import CovMatrix
from .errors import DataError, NumericalError

# default_ridge's stabilizer, as a share of the mean variance
RIDGE_SCALE = 1e-4
# gradient_refine stops after this many accepted steps, after this many
# without a better validation FMSE, or once its step has halved below _MIN_STEP
_REFINE_STEPS = 500
_REFINE_PATIENCE = 20
_MIN_STEP = 1e-12
_SCORE_CELLS = 1 << 14      # cells of a block of columns scored at a time


@dataclass
class PrecisionMatrix:
    tickers: list[str]
    a: np.ndarray


@dataclass
class PredictionCoeffs:
    tickers: list[str]
    b: np.ndarray            # zero diagonal

    def write_csv(self, path) -> None:
        write_table(path, self.tickers, self.b.T)


def read_coeffs_csv(path) -> PredictionCoeffs:
    """Read a square coefficient matrix under a header of distinct tickers
    (see ``candles.read_table`` for its syntax); every coefficient is finite,
    and each ticker's on itself is 0, as no ticker predicts its own return."""
    tickers, b = read_table(path, faults=lambda b: {
        "coefficients must be finite, got {line!r}": ~np.isfinite(b).all(axis=1)})
    repeated = [t for t, k in Counter(tickers).items() if k > 1]
    if repeated:
        raise DataError(f"{path}:1: ticker {repeated[0]!r} is given more than once")
    if b.shape != (len(tickers), len(tickers)):
        raise DataError(f"{path}: coefficient matrix shape {b.shape} does not "
                        f"match {len(tickers)} tickers")
    i = int(np.argmax(np.diag(b) != 0))     # the first ticker with a coefficient on itself
    if b[i, i]:
        raise DataError(f"{path}:{_row_lines(path)[i][0]}: ticker {tickers[i]!r} has "
                        f"coefficient {b[i, i]} on itself, not 0")
    return PredictionCoeffs(tickers, b)


def check_ridge(ridge: float) -> None:
    """A ridge must be non-negative and finite."""
    if not 0 <= ridge < np.inf:
        raise DataError(f"ridge must be non-negative and finite, got {ridge}")


def invert_with_ridge(c: CovMatrix, ridge: float) -> PrecisionMatrix:
    """Exact inverse of C + ridge*I; raises if not positive definite."""
    m = c.c
    check_ridge(ridge)
    if np.isnan(m).any():
        raise DataError("covariance matrix has missing entries; impute first")
    if not np.allclose(m, m.T, atol=1e-10 * max(1.0, float(np.abs(m).max()))):
        raise DataError("covariance matrix is not symmetric")
    ridged = m + ridge * np.eye(len(m))
    try:
        np.linalg.cholesky(ridged)
    except np.linalg.LinAlgError:
        raise NumericalError(
            f"matrix not positive definite at ridge={ridge}; increase ridge"
        ) from None
    a = np.linalg.inv(ridged)
    a = (a + a.T) / 2.0
    return PrecisionMatrix(list(c.tickers), a)


def default_ridge(c: CovMatrix) -> float:
    """A small stabilizer: RIDGE_SCALE times the mean diagonal of C."""
    d = np.diag(c.c)
    d = d[~np.isnan(d)]
    if len(d) == 0:
        raise DataError("no usable diagonal entries")
    return float(RIDGE_SCALE * d.mean())


def loo_coefficients(a: PrecisionMatrix) -> PredictionCoeffs:
    """Prediction coefficients B[I,K] = -A[K,I]/A[I,I], zero diagonal."""
    m = a.a
    d = np.diag(m)
    if np.any(d == 0):
        raise NumericalError("zero diagonal element in precision matrix")
    b = -(m.T / d[:, None])
    np.fill_diagonal(b, 0.0)
    return PredictionCoeffs(list(a.tickers), b)


def market_mode(tickers: list[str], variances) -> PredictionCoeffs:
    """The market-mode baseline B[I, K] = sd_I / ((n - 1) sd_K), zero diagonal: each
    return predicted by the mean of the others' standardized returns, a missing one 0."""
    variances = np.asarray(variances, dtype=float)
    if not np.all(variances > 0):
        raise DataError("variances must be positive")
    if len(variances) < 2:
        raise DataError("need at least 2 tickers")
    sd = np.sqrt(variances)
    b = sd[:, None] / ((len(sd) - 1) * sd)
    np.fill_diagonal(b, 0.0)
    return PredictionCoeffs(list(tickers), b)


def _column_blocks(v: np.ndarray) -> Iterator[tuple]:
    """A panel's column blocks of about ``_SCORE_CELLS`` cells: each block's
    columns, and a copy of them with NaN as 0, made when the block is reached."""
    step = max(1, _SCORE_CELLS // max(len(v), 1))
    for lo in range(0, v.shape[1], step):
        cols = slice(lo, lo + step)
        yield cols, np.nan_to_num(v[:, cols])


def prediction_report(b: PredictionCoeffs, r: np.ndarray) -> dict[str, float]:
    """Score coefficients on a return panel r (n_tickers, n_periods).

    Each ticker is predicted by ``b.b @ r`` with a missing (NaN) return as 0,
    and scored over the periods where its own return is present. Returns the
    means over tickers of ``fmse``, err^2 / z^2 summed over the periods, and of
    ``fve``, the squared correlation (h z)^2 / (z^2 h^2) of prediction h and
    outcome z, 0 for a prediction that is 0 throughout. A ticker with no
    observed outcome, or only zero outcomes, is left out of the means;
    raises if every ticker is. The panel is scored a column block of
    ``_SCORE_CELLS`` cells at a time, so no prediction panel is made.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != len(b.tickers):
        raise DataError(f"return panel shape {r.shape} does not have "
                        f"{len(b.tickers)} ticker rows")
    sums = np.zeros((4, len(r)))        # per ticker: err^2, z^2, hz, h^2
    for cols, z in _column_blocks(r):
        h = np.nan_to_num(b.b @ z, copy=False)
        h[np.isnan(r[:, cols])] = 0.0   # both zero where the outcome is missing
        buf = np.subtract(h, z)         # and every product made in this buffer
        sums[0] += np.square(buf, out=buf).sum(axis=1)
        sums[1:] += [np.multiply(x, y, out=buf).sum(axis=1) for x, y in ((z, z), (h, z), (h, h))]
        del z, h, buf       # each block's buffers are freed before the next is made
    ok = sums[1] > 0
    if not ok.any():
        raise DataError("no ticker has usable observations")
    err2, rr, cross, hh = sums[:, ok]
    with np.errstate(divide="ignore", invalid="ignore"):
        fve_k = np.where(hh > 0, cross ** 2 / (rr * hh), 0.0)
    return {"fve": float(np.mean(fve_k)), "fmse": float(np.mean(err2 / rr))}


def _loss(b: np.ndarray, s: np.ndarray) -> float:
    """Empirical mean-square prediction error, summed over tickers."""
    d = b - np.eye(len(b))
    return float(np.trace(d @ s @ d.T))


def gradient_refine(train: np.ndarray, validation: list[np.ndarray],
                    init: PredictionCoeffs) -> tuple[PredictionCoeffs, dict]:
    """Refine coefficients by gradient descent on training prediction error.

    Starts from ``init`` (normally the inverse-covariance solution), takes
    plain gradient steps at a rate of 1/(2 max eigenvalue) of the training
    second moment that halves whenever a step fails to reduce the training
    loss, and stops as set out at ``_REFINE_STEPS``. The returned
    coefficients are the snapshot with the best mean FMSE over the
    validation panels, never worse than the initialization; the info dict
    counts the accepted steps.
    """
    train = np.asarray(train, dtype=float)
    n, n_h = train.shape
    if n != len(init.tickers):
        raise DataError("training panel does not match coefficient tickers")
    s = np.zeros((n, n))        # the second moment, NaN as 0, a column block at a time
    for _, z in _column_blocks(train):
        s += z @ z.T
        del z
    s /= n_h

    def val_fmse(b: np.ndarray) -> float:
        coeffs = PredictionCoeffs(init.tickers, b)
        return float(np.mean([prediction_report(coeffs, v)["fmse"] for v in validation]))

    b = init.b.copy()
    np.fill_diagonal(b, 0.0)
    lam = float(np.linalg.eigvalsh(s)[-1])
    step = 0.5 / lam if lam > 0 else 0.0
    best_b = b.copy()
    best_val = val_fmse(b)
    loss = _loss(b, s)
    stale = 0
    iterations = 0
    while iterations < _REFINE_STEPS and step > _MIN_STEP and stale < _REFINE_PATIENCE:
        grad = 2.0 * (b - np.eye(n)) @ s
        np.fill_diagonal(grad, 0.0)
        cand = b - step * grad
        cand_loss = _loss(cand, s)
        if not np.isfinite(cand_loss):
            raise NumericalError(
                f"gradient refinement diverged at iteration {iterations} "
                f"(step={step}, loss={cand_loss})")
        if cand_loss >= loss:
            step *= 0.5
            continue
        b, loss = cand, cand_loss
        iterations += 1
        v = val_fmse(b)
        if v < best_val:
            best_val, best_b = v, b.copy()
            stale = 0
        else:
            stale += 1
    return PredictionCoeffs(list(init.tickers), best_b), {"iterations": iterations}
