"""Monte Carlo harness: replicate the normalized statistic, estimate the
empirical Kolmogorov distance to N(0,1), and fit the decay rate.  `run`
and `replicate` take the (params, grid) pair of every horizon, resolved
and checked once by `cli.resolve_horizons`; `run` returns one row per
horizon, and `rate_fit` is the `rate-fit` command's own step.

Replication r at horizon index i draws from the stream derive_seed(master,
i, r), so results are bit-identical regardless of chunking or worker
count; FOU_THREADS sets the worker pool, 1 to MAX_THREADS (default: the
CPU count, capped at MAX_THREADS).

Per-replication statistics avoid dense n x n kernels entirely.  With
rho = exp(-theta dt) and u = L xi the causal AR(1) scan of a row (the
blocked `process.ar1_scan`, u_i = rho u_{i-1} + xi_i), the exponential
kernel E[i, j] = rho^|i-j| = (1 - rho^2) L'L + w w' (w_i = rho^(n-i)) and
the boundary vector v_i = rho^(n-1/2-i) give

    xi' E xi = (1 - rho^2) sum_i u_i^2 + rho^2 u_T^2,    (xi . v)^2 = rho u_T^2,

with 1 - rho^2 taken as -expm1(-2 theta dt).  It is O(n) per replication
and agrees with the dense operations to rounding error.  Once per horizon,
`_chaos_traces` reads the record of `hilbert.horizon`, checked as for
`bounds`: the scale of f, c1 and c2 of g, b_T, and the recentering trace
tr(v v' W) = v' W v.  Only tr(f W) it takes itself, from the Toeplitz rows
of f and W.  At H = 3/4 the statistic carries the extra 1/sqrt(log T)
normalization.

`replicate` draws every replication, for `run` (`kolmogorov` and
`rate-fit`) and for the `estimate` command; its docstring gives the order
of its checks, draws and aborts.  It draws in chunks of at most CHUNK_CELLS
cells (rows x n), so peak memory does not grow with the replication
count.  Each pool thread reuses one `fgn.Workspace` (the chunk buffers and
the Philox generator), and the statistics reduce each row with
einsum("ij,ij->i", ...), so in steady state the only path-sized arrays a
chunk allocates are those of the scan.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context

import numpy as np

from .constants import HURST_MAX, ModelParams, sigma2_h, skorohod_correction
from .errors import NumericsError, arithmetic
from .fgn import Grid, Workspace, derive_seed, sample_fgn_batch
from .hilbert import horizon
from .process import ar1_scan, degenerate_denominators, estimate_pathwise

CHAOS_RATIO = "chaos_ratio"
PATHWISE = "pathwise"
CHUNK_CELLS = 1 << 16  # cells per chunk; see the module docstring
# Largest FOU_THREADS: the pool starts a thread per submitted chunk up to
# its size, and a horizon can have hundreds of chunks.
MAX_THREADS = 64


def normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF erfc(-z / sqrt 2) / 2, accurate in the lower tail."""
    return 0.5 * np.fromiter(map(math.erfc, -math.sqrt(0.5) * z), float, count=z.size)


def ks_distance(samples) -> float:
    """One-sample Kolmogorov statistic against the standard normal CDF."""
    z = np.sort(np.asarray(samples, dtype=float))
    cdf = normal_cdf(z)
    i = np.arange(1, z.size + 1, dtype=float)
    return float(max(np.max(i / z.size - cdf), np.max(cdf - (i - 1) / z.size)))


def rate_fit(rows) -> dict:
    """OLS of log distance on log T over (T, distance) pairs: distance ~
    c_hat * T^(-beta_hat).  The caller passes at least 3 strictly increasing
    horizons (`cli.parse_args`).  Every distance is positive: a Kolmogorov
    distance of N finite samples is at least 1/(2N), as at each order
    statistic its two gaps to the empirical CDF sum to 1/N, and `replicate`
    aborts a horizon before any NaN sample."""
    lx, ly = np.log(np.array(rows, dtype=float).T)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return {"beta_hat": float(-slope), "c_hat": float(math.exp(intercept)), "r_squared": r2}


def _chaos_batch(params: ModelParams, grid: Grid, xi: np.ndarray,
                 traces: tuple) -> tuple[np.ndarray, int]:
    """Chaos-ratio statistic for each row of xi; returns (values, degenerate
    count).  `traces` is what `_chaos_traces` returns for the same params and
    grid.  A row whose T * denominator is degenerate (`degenerate_denominators`)
    is NaN, not divided."""
    tr_f, tr_h, sf, c1, c2, b_t = traces
    x = params.theta * grid.step
    rho = math.exp(-x)
    u = ar1_scan(xi, rho)
    u_t2 = u[:, -1] ** 2
    # einsum, not BLAS: its per-row sum does not depend on how many rows
    # share the call, so no value depends on chunk boundaries.
    q_exp = -math.expm1(-2.0 * x) * np.einsum("ij,ij->i", u, u) + rho * rho * u_t2
    i2_f = sf * q_exp - tr_f
    i2_g = c1 * i2_f - c2 * (rho * u_t2 - tr_h)
    den = i2_g + b_t
    bad = degenerate_denominators(params, params.horizon * den)
    return np.divide(-i2_f, den, out=np.full_like(den, np.nan), where=~bad), int(bad.sum())


def _chaos_traces(params: ModelParams, grid: Grid) -> tuple:
    """Per-horizon inputs of `_chaos_batch`: (tr(f W), tr(v v' W), f[0, 0],
    c1, c2, b_T).  tr(f W) comes from the Toeplitz rows of f and W, the
    rest from the record of the horizon (`hilbert.horizon`)."""
    rec, n = horizon(params, grid), grid.n
    lags = np.arange(1, n, dtype=float)
    tr_f = n * rec.f_row[0] * rec.w[0] + 2.0 * np.sum((n - lags) * rec.f_row[1:] * rec.w[1:])
    return (tr_f, rec.vwv, rec.f_row[0], rec.c1, rec.c2, rec.b_t)


def _pathwise_batch(params: ModelParams, grid: Grid, xi: np.ndarray,
                    c_t: float) -> tuple[np.ndarray, int]:
    """Normalized pathwise estimator error for each row of xi; returns
    (values, degenerate count).  A degenerate row is NaN, not divided."""
    num, den, _ = estimate_pathwise(grid, params, xi, c_t)
    bad = degenerate_denominators(params, den)
    theta_hat = np.divide(num, den, out=np.full_like(num, np.nan), where=~bad)
    scale = math.sqrt(params.horizon / (params.theta * sigma2_h(params.hurst)))
    return scale * (theta_hat - params.theta), int(np.count_nonzero(bad))


def replicate(setup, horizons, reps: int, seed: int) -> list[list]:
    """Draw reps replications at every horizon of `horizons`, its (params,
    grid) pairs, and apply a statistic to each chunk of them; returns, per
    horizon, the chunk results in replication order.

    Per horizon, `setup(params, grid)` runs once, serially, and returns the
    statistic, a function of one chunk of fGn rows (rows x n) that returns
    (result, degenerate count).  A FOU_THREADS that is not an integer in
    [1, MAX_THREADS] (unset or empty means the CPU count, capped at
    MAX_THREADS) is a ValueError, and a theta*T that overflows a
    NumericsError; both checks and every setup run before the pool starts.
    Replication r at horizon index i is the row drawn from
    derive_seed(seed, i, r), and the chunks of at most CHUNK_CELLS cells
    run on a pool of FOU_THREADS workers, so no row depends on chunk
    boundaries or scheduling.  One horizon at a time, its
    chunks are drawn and collected, and their degenerate counts summed,
    before the next horizon's chunks are submitted: the first horizon with
    a degenerate replication raises NumericsError ("k of reps replications
    degenerate at T=..."), and no later horizon is drawn.  Each chunk runs
    in its own copy of the calling thread's context, so under that
    thread's numpy error state (a pool thread does not inherit it), and
    `errors.arithmetic` names theta and T of a FloatingPointError.

    Each worker draws into its own `fgn.Workspace`, so the rows a statistic
    receives are overwritten by that worker's next chunk: a statistic must
    not keep a view of its input rows, only arrays of its own.
    """
    threads = os.environ.get("FOU_THREADS")
    try:
        workers = int(threads) if threads else min(os.cpu_count() or 1, MAX_THREADS)
    except ValueError:
        workers = 0  # not an integer: rejected with the out-of-range counts
    if not 1 <= workers <= MAX_THREADS:
        raise ValueError(f"FOU_THREADS must be an integer in [1, {MAX_THREADS}], "
                         f"got {threads!r}")
    statistics = []
    for params, grid in horizons:
        if not math.isfinite(params.theta * params.horizon):
            raise NumericsError(f"theta*T overflows at theta = {params.theta:.6g}, "
                                f"T = {params.horizon:.6g}")
        statistics.append(setup(params, grid))

    local = threading.local()

    def start():  # each pool thread's own `fgn.Workspace`
        local.workspace = Workspace()

    def work(i, params, grid, statistic, r0, r1):
        seeds = [derive_seed(seed, i, r) for r in range(r0, r1)]
        with arithmetic(params.theta, params.horizon, "a replication chunk"):
            return statistic(sample_fgn_batch(grid, params.hurst, seeds, local.workspace))

    out = []
    with ThreadPoolExecutor(workers, initializer=start) as pool:
        for i, ((params, grid), statistic) in enumerate(zip(horizons, statistics)):
            rows = max(1, CHUNK_CELLS // grid.n)
            # copy_context() here: each chunk runs under this thread's error state
            futures = [pool.submit(copy_context().run, work, i, params, grid, statistic,
                                   r0, min(r0 + rows, reps)) for r0 in range(0, reps, rows)]
            chunks = [future.result() for future in futures]
            degenerate = sum(bad for _, bad in chunks)
            if degenerate:
                raise NumericsError(f"{degenerate} of {reps} replications "
                                    f"degenerate at T={params.horizon}")
            out.append([result for result, _ in chunks])
    return out


def run(horizons, reps: int, seed: int, method: str) -> list[dict]:
    """One row per horizon of the CHAOS_RATIO or PATHWISE statistic, drawn by
    `replicate` over the (params, grid) pairs of `horizons`, with the
    `samples` array that no report writes.  Both statistics return
    (values, degenerate count), so a degenerate replication aborts its
    horizon in `replicate`, under either statistic."""
    def setup(params, grid):
        if method == CHAOS_RATIO:
            traces = _chaos_traces(params, grid)
            return lambda xi: _chaos_batch(params, grid, xi, traces)
        c_t = skorohod_correction(params)
        return lambda xi: _pathwise_batch(params, grid, xi, c_t)

    rows = []
    for (params, _), chunks in zip(horizons, replicate(setup, horizons, reps, seed)):
        t = params.horizon
        with arithmetic(params.theta, t, "the summary"):
            s = np.concatenate(chunks)
            if params.hurst == HURST_MAX:
                s /= math.sqrt(math.log(t))
            rows.append({"T": t, "ks_distance": ks_distance(s), "sample_mean": float(s.mean()),
                         "sample_var": float(s.var()), "samples": s})
    return rows
