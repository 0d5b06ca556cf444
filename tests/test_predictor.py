"""Leave-one-out prediction: inverses, coefficients, metrics, refinement."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fmse
from vartau import predictor
from vartau.covariance import CovMatrix
from vartau.errors import DataError, NumericalError
from vartau.predictor import (PredictionCoeffs, default_ridge, gradient_refine,
                              invert_with_ridge, loo_coefficients, market_mode,
                              prediction_report, read_coeffs_csv)


def equal_corr_matrix(variances: np.ndarray, rho: float) -> np.ndarray:
    """Covariance with common correlation rho and given variances."""
    sd = np.sqrt(np.asarray(variances, dtype=float))
    c = rho * np.outer(sd, sd)
    np.fill_diagonal(c, sd * sd)
    return c


def random_spd(n, rng, jitter=0.5):
    m = rng.normal(size=(n, n))
    return m @ m.T + jitter * np.eye(n)


def cov_of(c, tickers=None):
    n = len(c)
    tickers = tickers or [f"T{i}" for i in range(n)]
    return CovMatrix(tickers, np.asarray(c, dtype=float),
                     np.full((n, n), 1000, dtype=np.int64))


class TestInverse:
    def test_identity(self):
        a = invert_with_ridge(cov_of(np.eye(3)), 0.0)
        assert np.allclose(a.a, np.eye(3))

    def test_2x2_closed_form(self):
        rho = 0.3
        a = invert_with_ridge(cov_of([[1, rho], [rho, 1]]), 0.0)
        want = np.array([[1, -rho], [-rho, 1]]) / (1 - rho ** 2)
        assert np.allclose(a.a, want, atol=1e-12)

    def test_singular_needs_ridge(self):
        c = cov_of([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericalError):
            invert_with_ridge(c, 0.0)
        a = invert_with_ridge(c, 0.01)
        resid = a.a @ (c.c + 0.01 * np.eye(2)) - np.eye(2)
        assert np.abs(resid).max() < 1e-8

    def test_residual_invariant_random(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 9):
            c = random_spd(n, rng)
            ridge = default_ridge(cov_of(c))
            a = invert_with_ridge(cov_of(c), ridge)
            resid = a.a @ (c + ridge * np.eye(n)) - np.eye(n)
            assert np.abs(resid).max() < 1e-8

    def test_rejects_nan_and_asymmetry(self):
        c = np.eye(2)
        c[0, 1] = np.nan
        with pytest.raises(DataError, match="missing"):
            invert_with_ridge(cov_of(c), 0.0)
        with pytest.raises(DataError, match="symmetric"):
            invert_with_ridge(cov_of([[1.0, 0.5], [0.1, 1.0]]), 0.0)


class TestCoefficients:
    def test_two_ticker_symmetric(self):
        rho = 0.37
        a = invert_with_ridge(cov_of([[1, rho], [rho, 1]]), 0.0)
        b = loo_coefficients(a)
        assert b.b[0, 1] == pytest.approx(rho, abs=1e-12)
        assert b.b[1, 0] == pytest.approx(rho, abs=1e-12)
        assert b.b[0, 0] == 0.0 and b.b[1, 1] == 0.0

    def test_diagonal_gives_zero(self):
        a = invert_with_ridge(cov_of(np.diag([1.0, 3.0, 0.5])), 0.0)
        assert np.allclose(loo_coefficients(a).b, 0.0)

    def test_equal_correlation_rows_uniform(self):
        for rho in (0.1, 0.49, 0.9):
            c = equal_corr_matrix(np.ones(6), rho)
            b = loo_coefficients(invert_with_ridge(cov_of(c), 0.0)).b
            off = b[0, 1:]
            assert np.allclose(off, off[0], atol=1e-12)
            # closed form rho / (1 + (n-2) rho)
            assert off[0] == pytest.approx(rho / (1 + 4 * rho), abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.floats(-6, 3),
       st.one_of(st.just(0.0), st.floats(1e-8, 1.0)))
def test_loo_coefficients_equal_direct_regressions(seed, n, log_scale, rel_ridge):
    # C = A A^T plus a diagonal down to 1e-6 of A's scale, so cond(C) reaches ~1e7;
    # row i of B must be the regression of ticker i on the rest under C + ridge*I
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, rng.integers(1, 2 * n)))
    c = (a @ a.T + np.diag(10 ** rng.uniform(-6, 0, n))) * 10 ** log_scale
    ridge = rel_ridge * np.trace(c) / n
    b = loo_coefficients(invert_with_ridge(cov_of(c), ridge)).b
    ridged = c + ridge * np.eye(n)
    # inverse and solve are each backward stable: errors reach eps * cond * |beta|
    # (at most 0.27 of that over 20,000 generated matrices), so allow 32 times it
    tol = 32 * np.finfo(float).eps * np.linalg.cond(ridged)
    for i in range(n):
        rest = np.arange(n) != i
        beta = np.linalg.solve(ridged[np.ix_(rest, rest)], c[rest, i])
        assert b[i, i] == 0.0
        assert np.all(np.abs(b[i, rest] - beta) <= tol * (1 + np.abs(beta).max()))


class TestPredict:
    """Each ticker is predicted from the present returns of the others; the
    report scores that prediction over the hours where the ticker's own return is present."""

    def test_zero_coeffs(self):
        b = PredictionCoeffs(["A", "B"], np.zeros((2, 2)))
        rep = prediction_report(b, np.array([[1.0], [-2.0]]))
        assert rep == {"fmse": 1.0, "fve": 0.25, "fve_plain": 0.0}

    def test_two_ticker_cross(self):
        # predictions [[2, -0.8], [1.2, 0.4]]; each ticker's sum of h*z is 5.2
        rho = 0.4
        b = PredictionCoeffs(["A", "B"], np.array([[0.0, rho], [rho, 0.0]]))
        rep = prediction_report(b, np.array([[3.0, 1.0], [5.0, -2.0]]))
        fmse_k = np.array([(1.0 + 1.8 ** 2) / 10.0, (3.8 ** 2 + 2.4 ** 2) / 29.0])
        assert rep["fmse"] == pytest.approx(fmse_k.mean(), rel=1e-12)
        assert rep["fve"] == pytest.approx(np.mean((1 - fmse_k / 2) ** 2), rel=1e-12)
        assert rep["fve_plain"] == pytest.approx(5.2 ** 2 / 46.4, rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        c = random_spd(5, rng)
        b = loo_coefficients(invert_with_ridge(cov_of(c), 0.0))
        r = rng.normal(size=(5, 50))
        base = prediction_report(b, r)
        perm = rng.permutation(5)
        bp = loo_coefficients(invert_with_ridge(cov_of(c[np.ix_(perm, perm)]), 0.0))
        got = prediction_report(bp, r[perm])
        assert all(got[k] == pytest.approx(base[k], rel=1e-10) for k in base)

    def test_missing_contributes_zero(self):
        # predictions [2, 3, 1]; B's outcome is missing, so A and C are scored
        b = PredictionCoeffs(["A", "B", "C"],
                             np.array([[0, 1.0, 1.0], [1.0, 0, 1.0], [1.0, 1.0, 0]]))
        rep = prediction_report(b, np.array([[1.0], [np.nan], [2.0]]))
        assert rep == {"fmse": 0.625, "fve": (0.25 + 0.875 ** 2) / 2, "fve_plain": 1.0}

    def test_panel_rows_must_match_tickers(self):
        b = PredictionCoeffs(["A", "B"], np.zeros((2, 2)))
        with pytest.raises(DataError, match="does not have 2 ticker rows"):
            prediction_report(b, np.ones((3, 4)))


def naive_predict(r, variances):
    """The market-mode prediction of a return panel, a missing return as 0, as
    ``prediction_report`` makes it from ``market_mode``'s coefficients."""
    return market_mode([f"T{i}" for i in range(len(r))], variances).b @ np.nan_to_num(r)


class TestNaive:
    def test_identical_returns_reproduced(self):
        r = np.full((5, 1), 0.7)
        assert np.allclose(naive_predict(r, np.ones(5)), r)

    def test_lone_nonzero_excluded_from_self(self):
        r = np.array([[0.9], [0.0], [0.0]])
        got = naive_predict(r, np.ones(3))
        assert got[0, 0] == 0.0
        assert got[1, 0] == pytest.approx(0.45)

    def test_two_ticker_swap(self):
        got = naive_predict(np.array([[1.0], [-1.0]]), np.ones(2))
        assert np.allclose(got, [[-1.0], [1.0]])

    def test_matches_equal_corr_coefficients_up_to_scale(self):
        # the equal-correlation matrix yields coefficients proportional to
        # the unweighted average; the analytic row scale is
        # (n-1) rho / (1 + (n-2) rho), approaching 1 for large n
        rng = np.random.default_rng(3)
        n = 7
        variances = rng.uniform(0.5, 2.0, size=n)
        r = rng.normal(size=(n, 40))
        for rho in (0.2, 0.49, 0.8):
            c = equal_corr_matrix(variances, rho)
            b = loo_coefficients(invert_with_ridge(cov_of(c), 0.0))
            scale = (n - 1) * rho / (1 + (n - 2) * rho)
            assert np.allclose(b.b @ r, scale * naive_predict(r, variances), atol=1e-10)

    @pytest.mark.parametrize("tickers, variances", [
        (["A", "B", "C"], [1.0, 0.0, 2.0]), (["A", "B"], [1.0, np.nan]), (["A"], [1.0]),
    ])
    def test_rejects_a_variance_that_is_not_positive_and_a_lone_ticker(self, tickers,
                                                                       variances):
        with pytest.raises(DataError):
            market_mode(tickers, np.array(variances))


class TestMetrics:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(4)
        r = rng.normal(size=(3, 200))
        b = PredictionCoeffs(["A", "B", "C"], np.eye(3))
        rep = prediction_report(b, r)
        assert fmse(b, r) == 0.0 and rep["fmse"] == 0.0
        assert rep["fve"] == 1.0
        assert rep["fve_plain"] == pytest.approx(1.0)

    def test_zero_prediction(self):
        rng = np.random.default_rng(5)
        r = rng.normal(size=(3, 200))
        rep = prediction_report(PredictionCoeffs(["A", "B", "C"], np.zeros((3, 3))), r)
        assert rep["fmse"] == pytest.approx(1.0)
        # the printed squared-bracket formula gives 1/4 at FMSE = 1
        assert rep["fve"] == pytest.approx(0.25)
        # the plain squared correlation reports no explanatory power
        assert rep["fve_plain"] == 0.0

    def test_identity_link(self):
        rng = np.random.default_rng(6)
        r = rng.normal(size=400)
        noisy = 0.6 * r + rng.normal(size=400) * 0.4
        # standardize prediction to the outcome's sample moments
        noisy = (noisy - noisy.mean()) / noisy.std() * r.std()
        r = r - r.mean()
        corr = np.mean(noisy * r) / np.sqrt(np.mean(noisy ** 2) * np.mean(r ** 2))
        # each of two tickers predicts the other, so both have the same FMSE, and
        # FVE = (1 - FMSE/2)^2 on standardized data
        b = PredictionCoeffs(["A", "B"], np.array([[0.0, 1.0], [1.0, 0.0]]))
        rep = prediction_report(b, np.stack([r, noisy]))
        assert rep["fve"] == pytest.approx(corr ** 2, abs=1e-10)
        assert rep["fve_plain"] == pytest.approx(corr ** 2, abs=1e-10)

    def test_missing_hours_excluded(self):
        # A is predicted 99 at the hour its return is missing, and scores 0
        b = PredictionCoeffs(["A", "B"], np.array([[0.0, 1.0], [1.0, 0.0]]))
        r = np.array([[0.1, np.nan, 0.3], [0.1, 99.0, 0.3]])
        want = 99.0 ** 2 / (0.1 ** 2 + 99.0 ** 2 + 0.3 ** 2) / 2
        assert prediction_report(b, r)["fmse"] == pytest.approx(want, rel=1e-12)
        assert fmse(b, r) == pytest.approx(want, rel=1e-12)

    def test_report_and_groups(self):
        # a group of periods is scored by the report of its columns
        rng = np.random.default_rng(7)
        c = random_spd(4, rng)
        b = loo_coefficients(invert_with_ridge(cov_of(c), 0.0))
        r = np.linalg.cholesky(c) @ rng.normal(size=(4, 500))
        rep = prediction_report(b, r)
        assert 0.0 <= rep["fve"] <= 1.0
        assert rep["fmse"] == pytest.approx(fmse(b, r), rel=1e-12)
        for cols in (slice(0, 250), slice(250, 500)):
            group = prediction_report(b, r[:, cols])
            assert group["fmse"] == pytest.approx(fmse(b, r[:, cols]), rel=1e-12)
            assert 0.0 <= group["fve"] <= 1.0

    def test_scale_equivariance(self):
        # rescaling one ticker's returns rescales its predictions and
        # leaves FVE alone (exact with the sample covariance, no ridge)
        rng = np.random.default_rng(8)
        n, n_h = 5, 300
        r = np.linalg.cholesky(random_spd(n, rng)) @ rng.normal(size=(n, n_h))
        def coeffs(panel):
            return loo_coefficients(invert_with_ridge(cov_of(np.cov(panel, bias=True)), 0.0))
        b1 = coeffs(r)
        scaled = r.copy()
        scaled[2] *= 3.0
        b2 = coeffs(scaled)
        pred1, pred2 = b1.b @ r, b2.b @ scaled
        assert np.allclose(pred2[2], 3.0 * pred1[2], rtol=1e-9)
        others = [i for i in range(n) if i != 2]
        assert np.allclose(pred2[others], pred1[others], rtol=1e-9)
        assert prediction_report(b2, scaled)["fve"] == \
            pytest.approx(prediction_report(b1, r)["fve"], rel=1e-9)


class TestRefine:
    def planted(self, rng, n=8, n_h=4000):
        c_true = random_spd(n, rng)
        chol = np.linalg.cholesky(c_true)
        train = chol @ rng.normal(size=(n, n_h))
        val = chol @ rng.normal(size=(n, n_h))
        b_true = loo_coefficients(invert_with_ridge(cov_of(c_true), 0.0))
        return c_true, b_true, train, val

    def test_recovers_planted_coefficients(self, monkeypatch):
        rng = np.random.default_rng(9)
        c_true, b_true, train, val = self.planted(rng)
        init = loo_coefficients(invert_with_ridge(
            cov_of(np.cov(train, bias=True)), default_ridge(cov_of(c_true))))
        monkeypatch.setattr(predictor, "_REFINE_STEPS", 300)
        refined, _ = gradient_refine(train, [val], init)
        assert fmse(refined, val) <= fmse(init, val) + 1e-12
        # sampling noise floor for coefficients is ~ 1/sqrt(n_h)
        assert np.abs(refined.b - b_true.b).max() < 0.15

    def test_zero_step_returns_init(self):
        # an all-zero training panel has largest eigenvalue 0, so step 0
        rng = np.random.default_rng(10)
        _, _, train, val = self.planted(rng, n=4, n_h=200)
        init = PredictionCoeffs([f"T{i}" for i in range(4)],
                                rng.normal(size=(4, 4)) * 0.1)
        np.fill_diagonal(init.b, 0.0)
        out, info = gradient_refine(np.zeros_like(train), [val], init)
        assert np.array_equal(out.b, init.b) and info == {"iterations": 0}

    def test_training_loss_monotone_when_validating_on_train(self, monkeypatch):
        # the snapshot kept after 1, 2, ... accepted steps never has a higher loss
        rng = np.random.default_rng(11)
        _, _, train, _ = self.planted(rng, n=4, n_h=300)
        init = PredictionCoeffs([f"T{i}" for i in range(4)], np.zeros((4, 4)))
        losses = []
        for steps in range(1, 51):
            monkeypatch.setattr(predictor, "_REFINE_STEPS", steps)
            out, _ = gradient_refine(train, [train], init)
            losses.append(np.sum((out.b @ train - train) ** 2) / train.shape[1])
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_never_worse_than_init(self, monkeypatch):
        rng = np.random.default_rng(12)
        _, b_true, train, val = self.planted(rng, n=5, n_h=500)
        monkeypatch.setattr(predictor, "_REFINE_STEPS", 40)
        out, _ = gradient_refine(train, [val], b_true)
        assert fmse(out, val) <= fmse(b_true, val) + 1e-12

    def test_diagonal_stays_zero(self, monkeypatch):
        rng = np.random.default_rng(13)
        _, _, train, val = self.planted(rng, n=6, n_h=400)
        init = loo_coefficients(invert_with_ridge(
            cov_of(np.cov(train, bias=True)), 0.01))
        monkeypatch.setattr(predictor, "_REFINE_STEPS", 30)
        out, _ = gradient_refine(train, [val], init)
        assert np.all(np.diag(out.b) == 0.0)


def test_refine_holds_one_block_beyond_its_inputs(monkeypatch):
    # the second moment and every validation score are taken a column block at
    # a time: six times the hours raise the peak by less than one block
    monkeypatch.setattr(predictor, "_REFINE_STEPS", 5)
    n = 8
    init = PredictionCoeffs([f"T{i}" for i in range(n)], np.zeros((n, n)))

    def peak(hours):
        rng = np.random.default_rng(15)
        train, val = (np.where(rng.random((n, hours)) < 0.2, np.nan, rng.normal(size=(n, hours)))
                      for _ in range(2))
        tracemalloc.start()
        try:
            gradient_refine(train, [val, train], init)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    hours = 4 * predictor._SCORE_CELLS // n
    one, six = peak(hours), peak(6 * hours)
    assert one < 4 * 8 * predictor._SCORE_CELLS, one      # a few blocks, not a panel
    assert six - one < 8 * predictor._SCORE_CELLS, (one, six)


def test_refine_rejects_a_validation_panel_with_no_usable_ticker():
    # every return of the second panel is missing or zero
    rng = np.random.default_rng(16)
    train = rng.normal(size=(3, 50))
    empty = np.where(rng.random((3, 50)) < 0.5, np.nan, 0.0)
    init = PredictionCoeffs(["A", "B", "C"], np.zeros((3, 3)))
    with pytest.raises(DataError, match="no ticker has usable observations"):
        gradient_refine(train, [train, empty], init)


def test_report_holds_one_block_beyond_its_inputs():
    # the predictions and their sums are made a column block at a time: six
    # times the hours raise the peak by less than one block
    n = 8
    rng = np.random.default_rng(17)
    b = PredictionCoeffs([f"T{i}" for i in range(n)], rng.normal(size=(n, n)))

    def peak(hours):
        r = np.where(rng.random((n, hours)) < 0.2, np.nan, rng.normal(size=(n, hours)))
        tracemalloc.start()
        try:
            prediction_report(b, r)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    hours = 4 * predictor._SCORE_CELLS // n
    one, six = peak(hours), peak(6 * hours)
    assert one < 4 * 8 * predictor._SCORE_CELLS, one      # a few blocks, not a panel
    assert six - one < 8 * predictor._SCORE_CELLS, (one, six)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        b = PredictionCoeffs(["AA", "BB"], rng.normal(size=(2, 2)))
        np.fill_diagonal(b.b, 0.0)
        path = tmp_path / "coeffs.csv"
        b.write_csv(path)
        back = read_coeffs_csv(path)
        assert back.tickers == ["AA", "BB"]
        assert np.allclose(back.b, b.b, rtol=1e-15)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n1.0,2.0\n")
        with pytest.raises(DataError, match="shape"):
            read_coeffs_csv(path)

    def test_non_numeric_cell_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n0.0,1.0\n2.0,x\n")
        with pytest.raises(DataError, match=r"bad\.csv:3: cannot read B from 'x' as float64"):
            read_coeffs_csv(path)

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"A,B\n0.0,1.0\n2.0,0\xe9\n")
        with pytest.raises(DataError, match=r"bad\.csv:3: byte 0xe9 is not UTF-8"):
            read_coeffs_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            read_coeffs_csv(tmp_path / "none.csv")

    def test_short_row_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n0.0\n2.0,0.0\n")
        with pytest.raises(DataError, match=r"bad\.csv:2: expected 2 fields, got 1"):
            read_coeffs_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("A,A\n0.0,1.0\n1.0,0.0\n", r"bad\.csv:1: ticker 'A' is given more than once"),
        ("A,B\n0.0,1.0\nnan,0.0\n", r"bad\.csv:3: coefficients must be finite, got 'nan,0.0'"),
        # a blank line is skipped: A's row is line 3
        ("A,B\n\n0.5,1.0\n2.0,0.0\n", r"bad\.csv:3: ticker 'A' has coefficient 0\.5 on itself"),
    ], ids=["repeated_ticker", "nan_cell", "own_coefficient"])
    def test_bad_table_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            read_coeffs_csv(path)

    @pytest.mark.parametrize("text", ["\ufeffA,B\n0.0,1.0\n2.0,0.0\n",
                                      "A,B\n0.0,1.0\n2.0,0.0\n\n"],
                             ids=["byte_order_mark", "trailing_blank_line"])
    def test_read_like_a_candle_file(self, tmp_path, text):
        path = tmp_path / "coeffs.csv"
        path.write_text(text, encoding="utf-8")
        back = read_coeffs_csv(path)
        assert back.tickers == ["A", "B"]
        assert back.b.tolist() == [[0.0, 1.0], [2.0, 0.0]]
