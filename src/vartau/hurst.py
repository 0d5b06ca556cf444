"""Power-law shot-noise / fractional Brownian price simulation.

The model process is a sum of impulses at Poisson times with normal
amplitudes. The impulse rises to 1 at time delta and then follows
(t/delta)^(-eps); eps = 0 makes it a unit step and the process a
memoryless random walk, 0 < eps < 1/2 gives a mean-reverting
(anti-persistent) process with Hurst exponent H = 1/2 - eps and
variogram V(tau) proportional to tau^(1-2*eps).

Note the kernel exponent: the power that reproduces the tau^(2H)
variogram (and the unit-step random-walk limit) is -eps, i.e. the
moving-average representation of fractional Brownian motion with kernel
u^(H-1/2). Published statements of the impulse sometimes carry a
different printed exponent; this implementation is calibrated against
the variogram scaling itself (see tests).

In the dense-impulse Gaussian limit the same process is generated by
FFT-convolving i.i.d. normal innovations with the sampled impulse.
Innovations live on the hourly grid; the kernel is sampled at step
midpoints ((j - 1/2) hours), which keeps the lattice process's measured
variogram exponent within a few thousandths of 1 - 2*eps over fit
spans of one to a few hundred hours. Each simulated year is linearly
detrended to begin and end at log price zero, the panel is rescaled to
the target global volatility, and exponentiated.

The convolution is sectioned (Stockham, AFIPS 1966) into the panel's own
rows: kernel block p and innovation block q, one simulated year of H hours
each, are transformed at the next fast length >= 2H - 1, so their linear
convolution K_p * X_q never wraps, and it lands at year p + q. Year s's
output is the inverse transform of the sum over p + q = s of the block
spectra; its first H values add into row s and the rest into row s + 1.
Each year's kernel and innovations are sampled, drawn and transformed in
turn, so no full-length operand or transform exists: the path holds the
block spectra of both, about 33 bytes an hour, and the 8-byte log prices.
Peak RSS grows by about 40 bytes a simulated hour, against about 75 for
one transform twice the series long with pocketfft's scratch. The cost is
years^2 / 2 block products beside 3 transforms a year: on one Xeon core,
about 1.0 s against 0.5 s at 200 years, and no slower at 50.

The shot-noise path sums s_i * f(h - t_i) over the events before each
hour h without visiting every (hour, event) pair. Event i falls in hour
bucket b_i = floor(t_i) at offset phi_i = t_i - b_i. Its near field,
hours b_i .. b_i + K with K = max(32, ceil(delta)), is evaluated exactly.
In the far field, d = h - b_i > K, the kernel is the binomial series

    f(d - phi) = delta^eps * d^(-eps) * sum_k c_k (phi/d)^k,
    c_k = (eps)_k / k!  (rising factorial),

truncated after P = 8 terms. Since |c_k| <= 1 for |eps| < 1 and
phi/d < 1/(K + 1), the truncation changes each kernel value by at most
(K + 1)^-P / (1 - 1/(K + 1)) = 7.3e-13 of delta^eps * d^(-eps). Term k is
the convolution of the bucket moments m_k[b] = sum_{b_i = b} s_i phi_i^k
with d^(-eps-k), d > K; the P products are summed in the frequency domain
and inverted once. The cost is O(events * K + P * n log n) for n hours,
against O(events * n) for the direct sum. This is the near/far split of
the fast multipole method (Greengard & Rokhlin, J. Comput. Phys. 1987).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .candles import check_unique, read_table
from .errors import DataError

HOURS_PER_YEAR = 8760
PANEL_HEADER = ["year", "hour", "price"]
# Shot-noise near-field hours K (ceil(delta) when longer) and far-field
# series terms P, set by the truncation bound in the module docstring
_NEAR_HOURS = 32
_FAR_TERMS = 8
# (event x near hour) cells evaluated per chunk, bounding near-field memory
_NEAR_CELLS = 1 << 16


@dataclass(frozen=True)
class HurstParams:
    """Shape parameters of the impulse process.

    delta is the impulse rise time in hours. The FFT path samples the
    kernel at hourly midpoints, so delta only matters there as an
    amplitude (removed by the volatility rescale) as long as
    delta <= 0.5; the shot-noise path honors it exactly.
    """

    epsilon: float
    delta: float = 0.5
    rate: float = 10.0       # Poisson events per hour (shot noise only)

    def __post_init__(self):
        if not -0.5 < self.epsilon < 0.5:
            raise DataError(f"epsilon must be in (-1/2, 1/2), got {self.epsilon}")
        for name in ("delta", "rate"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise DataError(f"{name} must be positive and finite, got {value}")

    @property
    def hurst(self) -> float:
        return 0.5 - self.epsilon


@dataclass(frozen=True)
class SimConfig:
    """Size, volatility and seed of a simulated panel; an error names the
    ``simulate`` flag of the bad field and the value it got."""

    n_years: int
    hours_per_year: int = HOURS_PER_YEAR
    target_vol: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if self.n_years < 1:
            raise DataError(f"--years must be >= 1, got {self.n_years}")
        if self.hours_per_year < 4:
            raise DataError(f"--hours-per-year must be >= 4, got {self.hours_per_year}")
        if not 0 < self.target_vol < math.inf:
            raise DataError(f"--vol must be positive and finite, got {self.target_vol}")
        if self.seed < 0:
            raise DataError(f"--seed must be >= 0, got {self.seed}")


@dataclass
class PricePanel:
    """Hourly prices indexed (year, hour); each year starts/ends at 1.0."""

    prices: np.ndarray

    def __post_init__(self):
        self.prices = np.asarray(self.prices, dtype=float)
        if self.prices.ndim != 2:
            raise DataError("panel prices must be 2-d (year, hour)")

    @property
    def n_years(self) -> int:
        return self.prices.shape[0]

    @property
    def hours_per_year(self) -> int:
        return self.prices.shape[1]

    def write_csv(self, path) -> None:
        """``candles.write_table``'s format, one ``year,hour,price`` row per cell.

        Joining hour prefixes with the prices is faster: 0.50-0.62 s on one Xeon
        core for a 50-year panel (438,000 rows), 0.62-0.85 s in ``write_table``.
        """
        hours = [f",{h}," for h in range(self.hours_per_year)]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(PANEL_HEADER) + "\n")
            for y in range(self.n_years):
                lead = str(y)
                prices = map(repr, self.prices[y].tolist())
                fh.write("".join([f"{lead}{h}{p}\n" for h, p in zip(hours, prices)]))


def read_panel_csv(path) -> PricePanel:
    """Read a ``year,hour,price`` table (see ``candles.read_table`` for its syntax).

    Years and hours are whole numbers counted from 0, each (year, hour)
    cell is given once, in any order, and every cell of the rectangle is
    given; prices are positive and finite. A bad row raises DataError
    naming the file and the line, a repeated cell both of its lines.
    """
    _, data = read_table(path, header=PANEL_HEADER, faults=_panel_faults)
    if len(data) == 0:
        raise DataError(f"{path}: no panel rows")
    year, hour, price = data.T
    ny, nh = int(year.max()) + 1, int(hour.max()) + 1
    if ny * nh > len(data):
        raise DataError(f"{path}: panel has missing (year, hour) cells")
    # with no repeated cell, the len(data) >= ny * nh rows fill the panel
    cell = (year * nh + hour).astype(np.int64)
    if np.bincount(cell).max() > 1:
        order = np.argsort(cell, kind="stable")
        check_unique(path, cell[order], order, lambda i: f"year {year[i]:g}, hour {hour[i]:g}")
    prices = np.empty(ny * nh)
    prices[cell] = price
    return PricePanel(prices.reshape(ny, nh))


def _panel_faults(data) -> dict:
    # a column at a time: no temporary as large as two columns
    ok = (data[:, 2] > 0) & (data[:, 2] < np.inf)
    for col in data[:, 0], data[:, 1]:
        ok &= (col >= 0) & (col < np.inf)
        ok &= col == np.floor(col)
    return {"want a whole year and hour from 0 and a positive finite price, "
            "got {line!r}": ~ok}


def impulse_response(epsilon: float, delta: float, t) -> np.ndarray:
    """Impulse value at time(s) t: zero before delta, then (t/delta)^(-eps)."""
    if delta <= 0:
        raise DataError("delta must be positive")
    t = np.asarray(t, dtype=float)
    out = np.where(t >= delta,
                   np.power(np.maximum(t, delta) / delta, -epsilon), 0.0)
    return out if out.ndim else float(out)


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (decent FFT sizes without scipy)."""
    if n <= 6:
        return max(n, 1)
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 <= best:
        p35 = p5
        while p35 <= best:
            if p35 >= n:
                best = min(best, p35)
            else:
                q = -(-n // p35)                  # ceil(n / p35)
                best = min(best, p35 << (q - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def sampled_kernel(params: HurstParams, n: int, start: int = 0) -> np.ndarray:
    """Impulse response sampled at hourly step midpoints, hours start .. start + n - 1."""
    t = np.arange(start, start + n, dtype=float)
    t -= 0.5
    return impulse_response(params.epsilon, params.delta, t)     # 0 at t = -1/2 < delta


def _postprocess(x: np.ndarray, target_vol: float) -> np.ndarray:
    """Per-year linear detrend to zero endpoints, global vol rescale, exp; in place on x."""
    n_years, hours = x.shape
    ramp = np.arange(hours) / (hours - 1)
    x -= x[:, [0]] + (x[:, [-1]] - x[:, [0]]) * ramp
    sd = x.std()
    if sd > 0:
        x *= target_vol / sd
    return np.exp(x, out=x)


def simulate_fbm(params: HurstParams, config: SimConfig) -> PricePanel:
    """Gaussian-limit simulation: convolve hourly normals with the kernel a
    year block at a time (see the module docstring)."""
    rng = np.random.default_rng(config.seed)
    years, hours = config.n_years, config.hours_per_year
    size = _next_fast_len(2 * hours - 1)
    kernel = np.empty((years, size // 2 + 1), dtype=complex)
    normals = np.empty_like(kernel)
    logp = np.zeros((years, hours))
    for s in range(years):
        kernel[s] = np.fft.rfft(sampled_kernel(params, hours, s * hours), size)
        normals[s] = np.fft.rfft(rng.standard_normal(hours), size)
        # year s: the sum over p + q = s of K_p X_q, spilling into year s + 1
        out = np.fft.irfft(np.einsum("ij,ij->j", kernel[:s + 1], normals[s::-1]), size)
        logp[s] += out[:hours]
        if s + 1 < years:
            logp[s + 1, :hours - 1] = out[hours:2 * hours - 1]
    del kernel, normals         # before the post-processing's panel-sized temporaries
    return PricePanel(_postprocess(logp, config.target_vol))


def _shot_logp(params: HurstParams, n: int, times: np.ndarray,
               amps: np.ndarray) -> np.ndarray:
    """sum_i amps[i] * f(h - times[i]) at hours h = 0..n-1, for epsilon != 0.

    Event i sits in hour bucket b = floor(t_i) at offset phi = t_i - b.
    Hours h = b .. b + K are summed exactly; for d = h - b > K the kernel
    is the series delta^eps * sum_k c_k phi^k d^(-eps-k), truncated at P
    terms, and each term is one FFT convolution of the bucket moments
    sum_i s_i phi_i^k with d^(-eps-k).
    """
    eps, delta = params.epsilon, params.delta
    near = min(max(_NEAR_HOURS, math.ceil(delta)), n)
    buckets = np.floor(times).astype(np.int64)
    phase = times - buckets
    logp = np.zeros(n)
    offsets = np.arange(near + 1)
    chunk = max(1, _NEAR_CELLS // (near + 1))
    for lo in range(0, len(times), chunk):
        h = buckets[lo:lo + chunk, None] + offsets
        u = h - times[lo:lo + chunk, None]
        live = (u >= delta) & (h < n)
        w = u[live]
        del u
        w /= delta
        np.power(w, -eps, out=w)
        w *= np.broadcast_to(amps[lo:lo + chunk, None], h.shape)[live]
        logp += np.bincount(h[live], weights=w, minlength=n)
    if n <= near + 1:
        return logp
    # every far pair has u > near >= delta, so the kernel is live there
    size = _next_fast_len(2 * n - 1)
    d = np.arange(near + 1, n, dtype=float)
    g = np.zeros(n)
    g[near + 1:] = d ** -eps
    moment, coef, acc = amps, 1.0, 0.0
    for k in range(_FAR_TERMS):
        m_k = np.bincount(buckets, weights=moment, minlength=n)
        acc = acc + coef * np.fft.rfft(m_k, size) * np.fft.rfft(g, size)
        moment = moment * phase
        coef *= (eps + k) / (k + 1)          # c_k = (eps)_k / k!
        g[near + 1:] /= d
    return logp + delta ** eps * np.fft.irfft(acc, size)[:n]


def simulate_shot_noise(params: HurstParams, config: SimConfig) -> PricePanel:
    """Exact-event-time simulation, sampled hourly.

    Event gaps are Exponential(rate), amplitudes Normal(0, 1) (the volatility
    rescale sets the scale); the log price at hour t is the sum of
    s_i * f(t - t_i) over past events. For eps = 0 that is a prefix sum of
    amplitudes. Otherwise the K = max(32, ceil(delta)) hours after each
    event's hour bucket are summed exactly and the rest by a P = 8 term
    series in phi/d evaluated with FFTs, each kernel value within 7.3e-13
    relative of the exact one (see the module docstring).
    """
    rng = np.random.default_rng(config.seed)
    duration = float(config.n_years * config.hours_per_year)
    # draw exponential gaps in blocks until the span is covered
    times = np.empty(0)
    t_last = 0.0
    while t_last < duration:
        block = rng.exponential(1.0 / params.rate, size=max(1024, int(params.rate * duration * 0.2)))
        new = t_last + np.cumsum(block)
        times = np.concatenate([times, new])
        t_last = float(times[-1])
    times = times[times < duration]
    amps = rng.normal(0.0, 1.0, size=len(times))

    n = config.n_years * config.hours_per_year
    if len(times) == 0:
        logp = np.zeros(n)
    elif params.epsilon == 0.0:
        # unit-step impulse: the log price is a prefix sum of amplitudes
        csum = np.concatenate(([0.0], np.cumsum(amps)))
        hours = np.arange(n, dtype=float)
        logp = csum[np.searchsorted(times, hours - params.delta, side="right")]
    else:
        logp = _shot_logp(params, n, times, amps)
    prices = _postprocess(logp.reshape(config.n_years, config.hours_per_year),
                          config.target_vol)
    return PricePanel(prices)


def default_lag_grid(hours_per_year: int, max_lag: float = 300.0) -> np.ndarray:
    top = min(int(max_lag), hours_per_year // 4)
    lags = np.unique(np.round(np.geomspace(1, top, 30)).astype(int))
    return lags


def panel_variogram(panel: PricePanel, lags=None) -> "Variogram":
    """Pooled two-point variogram of hourly log prices at integer lags."""
    from .variogram import Variogram        # here, so that simulate loads no variogram layer
    if lags is None:
        lags = default_lag_grid(panel.hours_per_year)
    lags = np.asarray(lags, dtype=int)
    logp = np.log(panel.prices)
    v = np.empty(len(lags))
    n = np.empty(len(lags), dtype=np.int64)
    for i, m in enumerate(lags):
        d = logp[:, m:] - logp[:, :-m]
        v[i] = np.mean(d * d)
        n[i] = d.size
    return Variogram(lags.astype(float), v, n)
