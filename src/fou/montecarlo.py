"""Monte Carlo harness: replicate the normalized statistic, estimate the
empirical Kolmogorov distance to N(0,1), and fit the decay rate.

Replication r at horizon index i draws from the stream derive_seed(master,
i, r), so results are bit-identical regardless of chunking or worker
count; FOU_THREADS caps the worker pool (default: hardware concurrency).

Per-replication statistics avoid dense n x n kernels entirely.  The
exponential kernel is E = L + L' - I, with L the causal AR(1) filter
(L[i, j] = rho^(i-j) for i >= j, rho = exp(-theta dt)), so its quadratic
form needs one forward scan:

    u_i = rho u_{i-1} + xi_i,   xi' E xi = 2 xi' L xi - xi' xi = sum_i xi_i (2 u_i - xi_i).

The boundary kernel is rank one, and the recentering traces use the
Toeplitz structure of the Gram weights; everything is O(n) or O(n log n)
per replication and agrees with the dense operations to rounding error.
At H = 3/4 the statistic carries the extra 1/sqrt(log T) normalization.

Replications are drawn in chunks of at most CHUNK_CELLS cells (rows x n),
here and in the batched `estimate` command.  One chunk's buffers (2n
normals, n+1 complex coefficients and the 2n-point transform per row, then
the scan) take about 4 MB per worker, so they stay in the processor's
caches, and peak memory does not grow with the replication count; chunks
of 8M cells needed about 0.7 GB per worker.  Chunks of 32K to 128K cells
ran equally fast on a 2-core host, and going from 64K to 128K raised the
peak memory of a whole `estimate` run from 112 to 117 MB.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import matmul_toeplitz
from scipy.signal import lfilter
from scipy.special import ndtr

from .constants import (
    ModelParams,
    b_t_closed_form,
    check_log_horizons,
    sigma2_h,
    skorohod_correction,
)
from .errors import DegeneratePathError
from .fgn import Grid, _unit_autocov, derive_seed, sample_fgn_batch
from .process import (
    CHAOS_RATIO,
    NEAR_ZERO_DENOM,
    denominator_floor,
    pathwise_terms,
    simulate_fou_batch,
)

PATHWISE = "pathwise"
CHUNK_CELLS = 1 << 16  # cells per chunk; see the module docstring


@dataclass(frozen=True)
class MCConfig:
    theta: float
    hurst: float
    t_list: tuple
    replications: int = 1000
    master_seed: int = 42
    dt: float | None = 0.05
    n_per_t: int | None = None
    statistic_method: str = CHAOS_RATIO

    def __post_init__(self) -> None:
        ModelParams(theta=self.theta, hurst=self.hurst, horizon=1.0)
        object.__setattr__(self, "t_list", tuple(float(t) for t in self.t_list))
        if any(t2 <= t1 for t1, t2 in zip(self.t_list, self.t_list[1:])):
            raise ValueError("t_list must be strictly increasing")
        if self.replications < 100:
            raise ValueError(f"need at least 100 replications, got {self.replications}")
        if (self.dt is None) == (self.n_per_t is None):
            raise ValueError("exactly one of dt or n_per_t must be set")
        if self.statistic_method not in (CHAOS_RATIO, PATHWISE):
            raise ValueError(f"unknown statistic method {self.statistic_method!r}")
        check_log_horizons(self.hurst, self.t_list)


@dataclass(frozen=True)
class MCRow:
    t: float
    samples: np.ndarray = field(repr=False)
    ks_distance: float
    sample_mean: float
    sample_var: float


@dataclass(frozen=True)
class RateFit:
    beta_hat: float
    c_hat: float
    r_squared: float


@dataclass(frozen=True)
class MCReport:
    config: MCConfig
    rows: list
    fitted: RateFit | None


def row_chunks(reps: int, n: int) -> list[tuple[int, int]]:
    """[r0, r1) bounds covering reps replications of n cells in CHUNK_CELLS chunks."""
    rows = max(1, CHUNK_CELLS // n)
    return [(r0, min(r0 + rows, reps)) for r0 in range(0, reps, rows)]


def ks_distance(samples) -> float:
    """One-sample Kolmogorov statistic against the standard normal CDF."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    z = np.sort(samples)
    cdf = ndtr(z)
    i = np.arange(1, z.size + 1, dtype=float)
    return float(max(np.max(i / z.size - cdf), np.max(cdf - (i - 1) / z.size)))


def rate_fit(rows) -> RateFit:
    """OLS of log distance on log T: distance ~ c_hat * T^(-beta_hat)."""
    ts = np.array([t for t, _ in rows], dtype=float)
    ds = np.array([d for _, d in rows], dtype=float)
    if ts.size < 3:
        raise ValueError(f"need at least 3 rows to fit a rate, got {ts.size}")
    if np.any(ds <= 0):
        raise ValueError("all distances must be positive for a log-log fit")
    if np.all(ts == ts[0]):
        raise ValueError("all horizons equal; the fit is singular")
    lx, ly = np.log(ts), np.log(ds)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(beta_hat=float(-slope), c_hat=float(math.exp(intercept)),
                   r_squared=r2)


def _chaos_batch(params: ModelParams, grid: Grid, xi: np.ndarray,
                 b_t: float, traces: tuple) -> tuple[np.ndarray, int]:
    """Chaos-ratio statistic for each row of xi; returns (values, degenerate count)."""
    theta, h, horizon = params.theta, params.hurst, params.horizon
    rho = math.exp(-theta * grid.step)
    tr_f, tr_h, w_vec = traces
    sf = 1.0 / (2.0 * math.sqrt(theta * sigma2_h(h) * horizon))
    cg1 = math.sqrt(sigma2_h(h) / (theta * horizon))
    cg2 = 1.0 / (2.0 * theta * horizon)
    u = lfilter([1.0], [1.0, -rho], xi, axis=1)
    u *= 2.0
    u -= xi
    u *= xi
    q_exp = u.sum(axis=1)
    # einsum, not a BLAS matvec: its per-row sum does not depend on how many
    # rows share the call, so no value depends on chunk boundaries.
    q_h = np.einsum("ij,j->i", xi, w_vec) ** 2
    i2_f = sf * q_exp - tr_f
    i2_g = cg1 * i2_f - cg2 * (q_h - tr_h)
    den = i2_g + b_t
    degenerate = int(np.sum(np.abs(den) < NEAR_ZERO_DENOM))
    return -i2_f / den, degenerate


def _chaos_traces(params: ModelParams, grid: Grid) -> tuple:
    """Recentering traces tr(K_f W), tr(K_h W) via the Toeplitz structure."""
    theta, h, horizon = params.theta, params.hurst, params.horizon
    n, dt = grid.n, grid.step
    gamma = dt ** (2 * h) * _unit_autocov(n - 1, h)
    k = np.arange(n, dtype=float)
    sf = 1.0 / (2.0 * math.sqrt(theta * sigma2_h(h) * horizon))
    rho_pow = np.exp(-theta * dt * k)
    tr_f = sf * (n * gamma[0] + 2.0 * np.sum((n - k[1:]) * rho_pow[1:] * gamma[1:]))
    w_vec = np.exp(-theta * (horizon - grid.midpoints))
    tr_h = float(w_vec @ matmul_toeplitz(gamma, w_vec))
    return tr_f, tr_h, w_vec


def _pathwise_batch(params: ModelParams, grid: Grid, xi: np.ndarray,
                    c_t: float) -> tuple[np.ndarray, int]:
    """Normalized pathwise estimator error for each row of xi; returns
    (values, degenerate count)."""
    x = simulate_fou_batch(grid, params, xi)
    num, den, _ = pathwise_terms(grid, params, x, c_t)
    degenerate = int(np.sum(den < denominator_floor(params)))
    scale = math.sqrt(params.horizon / (params.theta * sigma2_h(params.hurst)))
    return scale * (num / den - params.theta), degenerate


def run(config: MCConfig) -> MCReport:
    """Replicate the statistic over every horizon and summarize.

    Deterministic given the config: each replication's draws come from its
    own derived stream and no value depends on chunk boundaries or thread
    scheduling.  Aborts if more than 0.1% of replications at any horizon
    produce degenerate denominators.
    """
    workers = os.environ.get("FOU_THREADS")
    workers = int(workers) if workers else (os.cpu_count() or 1)
    reps = config.replications
    rows: list[MCRow | None] = [None] * len(config.t_list)

    tasks = []
    for i, t in enumerate(config.t_list):
        grid = Grid.for_horizon(t, n=config.n_per_t, dt=config.dt)
        params = ModelParams(theta=config.theta, hurst=config.hurst, horizon=t)
        if config.statistic_method == CHAOS_RATIO:
            aux = (b_t_closed_form(params), _chaos_traces(params, grid))
        else:
            aux = skorohod_correction(params)
        tasks.extend((i, t, grid, params, aux, r0, r1)
                     for r0, r1 in row_chunks(reps, grid.n))

    samples = [np.empty(reps) for _ in config.t_list]
    degenerates = [0] * len(config.t_list)

    def work(task):
        i, t, grid, params, aux, r0, r1 = task
        seeds = [derive_seed(config.master_seed, i, r) for r in range(r0, r1)]
        xi = sample_fgn_batch(grid, config.hurst, seeds)
        if config.statistic_method == CHAOS_RATIO:
            b_t, traces = aux
            vals, bad = _chaos_batch(params, grid, xi, b_t, traces)
        else:
            vals, bad = _pathwise_batch(params, grid, xi, aux)
        if config.hurst == 0.75:
            vals = vals / math.sqrt(math.log(t))
        return i, r0, r1, vals, bad

    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        for i, r0, r1, vals, bad in pool.map(work, tasks):
            samples[i][r0:r1] = vals
            degenerates[i] += bad

    for i, t in enumerate(config.t_list):
        if degenerates[i] > 0.001 * reps:
            raise DegeneratePathError(
                f"{degenerates[i]} of {reps} replications degenerate at T={t}")
        s = samples[i]
        rows[i] = MCRow(t=t, samples=s, ks_distance=ks_distance(s),
                        sample_mean=float(s.mean()), sample_var=float(s.var()))

    fitted = None
    if len(rows) >= 3 and all(r.ks_distance > 0 for r in rows):
        fitted = rate_fit([(r.t, r.ks_distance) for r in rows])
    return MCReport(config=config, rows=rows, fitted=fitted)
