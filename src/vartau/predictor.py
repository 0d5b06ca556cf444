"""Leave-one-out linear prediction of each ticker's return from the rest.

Given a return covariance matrix C, the minimum-mean-square predictor of
return I from all others has coefficients that come out of the single
full inverse A = C^-1 through the partitioned-inverse identity:

    B[I, K] = -(A[K, I] / A[I, I])  for K != I,  B[I, I] = 0

so one n x n inversion replaces n separate (n-1) x (n-1) inversions.
Prediction quality is summarized by the fraction of variance explained
(FVE) and the fractional mean-square error (FMSE), linked for
standardized data by FVE = (1 - FMSE/2)^2.

Coefficients can optionally be refined by direct gradient descent on the
empirical mean-square prediction error, early-stopped on validation
panels, which helps when C is near singular.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .candles import read_table, write_table
from .covariance import CovMatrix
from .errors import DataError, NumericalError

# default_ridge's stabilizer, as a share of the mean variance
RIDGE_SCALE = 1e-4
# gradient_refine stops after this many accepted steps, after this many
# without a better validation FMSE, or once its step has halved below _MIN_STEP
_REFINE_STEPS = 500
_REFINE_PATIENCE = 20
_MIN_STEP = 1e-12
_SCORE_CELLS = 1 << 14      # cells of a block of rows scored at a time


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
    (see ``candles.read_table`` for its syntax); every coefficient is finite."""
    tickers, b = read_table(path, faults=lambda b: {
        "coefficients must be finite, got {line!r}": ~np.isfinite(b).all(axis=1)})
    repeated = [t for t, k in Counter(tickers).items() if k > 1]
    if repeated:
        raise DataError(f"{path}:1: ticker {repeated[0]!r} is given more than once")
    if b.shape != (len(tickers), len(tickers)):
        raise DataError(f"{path}: coefficient matrix shape {b.shape} does not "
                        f"match {len(tickers)} tickers")
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


def predict(b: PredictionCoeffs, r: np.ndarray) -> np.ndarray:
    """Apply coefficients to an (n_tickers, n_periods) return panel; missing
    (NaN) returns contribute 0."""
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != len(b.tickers):
        raise DataError(f"return panel shape {r.shape} does not have "
                        f"{len(b.tickers)} ticker rows")
    return b.b @ np.nan_to_num(r, nan=0.0)


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


def _per_ticker_moments(r_hat: np.ndarray, r: np.ndarray):
    """Per-ticker sums over periods where the outcome is present, a block of
    rows at a time: each row adds the same values as over the whole panel."""
    if r_hat.shape != r.shape:
        raise DataError(f"shape mismatch {r_hat.shape} vs {r.shape}")
    n = np.empty(len(r), dtype=np.int64)
    sums = np.empty((4, len(r)))
    step = max(1, _SCORE_CELLS // max(r.shape[1], 1))
    for lo in range(0, len(r), step):
        rows = slice(lo, lo + step)
        missing = np.isnan(r[rows])
        n[rows] = r.shape[1] - missing.sum(axis=1)
        z, h = np.nan_to_num(r[rows]), np.nan_to_num(r_hat[rows])
        h[missing] = 0.0            # both zero where the outcome is missing
        buf = np.subtract(h, z)     # and every product made in this buffer
        sums[0, rows] = np.square(buf, out=buf).sum(axis=1)
        for k, (a, b) in enumerate(((z, z), (h, z), (h, h)), start=1):
            sums[k, rows] = np.multiply(a, b, out=buf).sum(axis=1)
    return n, *sums


def prediction_report(r_hat: np.ndarray, r: np.ndarray) -> dict[str, float]:
    """Score predictions r_hat of a return panel r (n_tickers, n_periods).

    Returns the means over tickers of ``fmse``, of ``fve``, which follows the
    printed squared-bracket formula, and of ``fve_plain``, the plain squared
    correlation between prediction and outcome (the two coincide when
    predictions are standardized to the outcome's variance). A ticker with
    no observed outcome, or only zero outcomes, is left out of the means.
    """
    n, err2, rr, cross, hh = _per_ticker_moments(r_hat, r)
    ok = (n > 0) & (rr > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        fmse_k = np.where(ok, err2 / rr, np.nan)
        fve_k = (1.0 - 0.5 * fmse_k) ** 2
        plain_k = np.where(hh > 0, cross ** 2 / np.where(hh > 0, rr * hh, 1.0), 0.0)
        plain_k = np.where(ok, plain_k, np.nan)
    return {"fve": float(np.nanmean(fve_k)), "fmse": float(np.nanmean(fmse_k)),
            "fve_plain": float(np.nanmean(plain_k))}


def _column_blocks(v: np.ndarray) -> Iterator[tuple]:
    """A panel's column blocks of about ``_SCORE_CELLS`` cells: each block's
    columns, and a copy of them with NaN as 0, made when the block is reached."""
    step = max(1, _SCORE_CELLS // max(len(v), 1))
    for lo in range(0, v.shape[1], step):
        cols = slice(lo, lo + step)
        yield cols, np.nan_to_num(v[:, cols])


def validation_fmse(validation: list[np.ndarray]):
    """b -> the FMSE of ``predict(b, v)`` (over the tickers with a non-zero outcome, the
    mean of squared error over sum of squares), averaged over the panels v. Each panel's
    usable tickers and sums of squares are taken once, and each call scores column blocks
    of ``_SCORE_CELLS`` cells: no zero-filled copy of a panel is made."""
    panels = []
    for v in validation:
        rr = np.zeros(len(v))
        for _, z in _column_blocks(v):
            rr += np.square(z, out=z).sum(axis=1)
            del z
        if not (rr > 0).any():
            raise DataError("no ticker has usable observations")
        panels.append((v, rr > 0, rr[rr > 0]))

    def fmse(b, v, use, rr) -> float:
        err2 = np.zeros(len(v))
        for cols, z in _column_blocks(v):
            err = np.nan_to_num(b @ z, copy=False)
            err -= z
            del z
            np.square(err, out=err)
            err[np.isnan(v[:, cols])] = 0.0
            err2 += err.sum(axis=1)
            del err         # each block's buffers are freed before the next is made
        return float(np.mean(err2[use] / rr))
    return lambda b: float(np.mean([fmse(b, *panel) for panel in panels]))


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

    val_fmse = validation_fmse(validation)

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
