"""Transaction-time market analysis toolkit.

Pipeline pieces: minute-candle ingestion and tau binning (``candles``),
dollar/volume transaction clocks (``clock``), the ticker x bin grid of
several years (``panel``), asynchronous variogram estimation and fits
(``variogram``), Hurst shot-noise / fractional Brownian simulation
(``hurst``), pairwise correlation and the two-component return model
(``covariance``), leave-one-out return prediction (``predictor``), and
the arbitrage backtests (``backtest``).
"""

__version__ = "0.1.0"

from .errors import DataError, NumericalError, VartauError

__all__ = ["DataError", "NumericalError", "VartauError", "__version__"]
