"""Monte Carlo harness: replicate the normalized statistic, estimate the
empirical Kolmogorov distance to N(0,1), and fit the decay rate.  `run`
and `replicate` take the (params, grid) pair of every horizon, resolved
and checked once by `cli.resolve_horizons`; `run` returns one row per
horizon, and `rate_fit` is the `rate-fit` command's own step.
`replicate` draws the replications of `run` (`kolmogorov` and `rate-fit`)
and of the `estimate` command.

Per-replication statistics avoid dense n x n kernels entirely.  With
rho = exp(-theta dt) and u = L xi the causal AR(1) scan of a row
(u_i = rho u_{i-1} + xi_i, reduced by `process.scan_sums`), the
exponential kernel E[i, j] = rho^|i-j| = (1 - rho^2) L'L + w w'
(w_i = rho^(n-i)) and the boundary vector v_i = rho^(n-1/2-i) give

    xi' E xi = (1 - rho^2) sum_i u_i^2 + rho^2 u_T^2,    (xi . v)^2 = rho u_T^2,

with 1 - rho^2 taken as -expm1(-2 theta dt).  It is O(n) per replication
and agrees with the dense operations to rounding error.  Once per horizon,
`_chaos_traces` reads the record of `hilbert.horizon`, checked as for
`bounds`: the scale of f, c1 and c2 of g, b_T, and the recentering trace
tr(v v' W) = v' W v.  Only tr(f W) it takes itself, from the Toeplitz rows
of f and W.

Both statistics are the estimator error under the paper's normalization,
sqrt(T / (theta sigma2_H)) (theta_hat - theta) / l_T with l_T =
`constants.log_factor`, sqrt(log T) at H = 3/4 and 1 below it: the chaos
ratio through the kernel f of `hilbert`, which carries l_T, and the
pathwise form in `_pathwise_batch`.  So the samples of `run` are the
statistic whose distance the `bounds` terms bound, with no step of their
own.
"""
from __future__ import annotations

import math
import os
from contextvars import copy_context
from threading import Thread

import numpy as np

from .constants import ModelParams, log_factor, sigma2_h, skorohod_correction
from .errors import NumericsError
from .fgn import Grid, Workspace, derive_seed, sample_fgn_batch
from .hilbert import horizon
from .process import degenerate_denominators, estimate_pathwise, scan_sums

CHAOS_RATIO = "chaos_ratio"
PATHWISE = "pathwise"
CHUNK_CELLS = 1 << 16  # cells per chunk; see `replicate`
# Largest FOU_THREADS: a horizon starts min(FOU_THREADS, its chunk count)
# threads, and a horizon can have hundreds of chunks.
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
    u_t2, sum_u2 = scan_sums(xi, rho)
    q_exp = -math.expm1(-2.0 * x) * sum_u2 + rho * rho * u_t2
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
    """Normalized pathwise estimator error sqrt(T / (theta sigma2_H))
    (theta_hat - theta) / l_T for each row of xi (module docstring); returns
    (values, degenerate count).  A degenerate row is NaN, not divided."""
    num, den = estimate_pathwise(grid, params, xi, c_t).T
    bad = degenerate_denominators(params, den)
    theta_hat = np.divide(num, den, out=np.full_like(num, np.nan), where=~bad)
    scale = math.sqrt(params.horizon / (params.theta * sigma2_h(params.hurst)))
    return scale / log_factor(params) * (theta_hat - params.theta), int(np.count_nonzero(bad))


def replicate(horizons, reps: int, seed: int, prepare, statistic) -> list[np.ndarray]:
    """Draw reps replications at every horizon of `horizons`, its (params,
    grid) pairs, and apply `statistic` to each chunk of them; returns one
    array per horizon, the chunk values joined along axis 0 in replication
    order.

    Per horizon, `prepare(params, grid)` runs once, serially.  Each chunk
    of fGn rows xi (rows x n) calls statistic(params, grid, xi, prepared),
    which returns (values, degenerate count), values with one entry per
    row along axis 0.  A FOU_THREADS that is not an integer in
    [1, MAX_THREADS] (unset or empty means the CPU count, capped at
    MAX_THREADS) is a ValueError; the check and every `prepare` run before
    any thread starts.  Replication r at horizon index i is the row drawn
    from derive_seed(seed, i, r), in chunks of at most CHUNK_CELLS cells
    (rows x n), so no row depends on chunk boundaries or scheduling, and
    no path-sized array grows with reps.

    One horizon at a time, min(FOU_THREADS, its chunk count) worker threads
    start, each with its own copy of the calling thread's context, so under
    that thread's numpy error state, which a new thread does not inherit.
    Each draws every chunk it takes into its own `fgn.Workspace` (the chunk
    buffers and the Philox generator), so a statistic must not keep a view
    of its input rows, which its worker's next chunk overwrites, only
    arrays of its own.  A chunk with a degenerate replication fails with a
    NumericsError ("k of reps replications degenerate at T=...", k counted
    over the replications up to that chunk's last, and "at least k" when
    later chunks were not counted), as does a chunk whose statistic raises.
    The workers take chunks from one shared iterator, in order; a worker
    whose chunk fails takes every chunk left.  All are joined, then the
    exception of the first failed chunk in chunk order is re-raised, the
    same at any FOU_THREADS, and no later horizon is drawn.
    """
    env = os.environ.get("FOU_THREADS")
    try:
        workers = int(env) if env else min(os.cpu_count() or 1, MAX_THREADS)
    except ValueError:
        workers = 0  # not an integer: rejected with the out-of-range counts
    if not 1 <= workers <= MAX_THREADS:
        raise ValueError(f"FOU_THREADS must be an integer in [1, {MAX_THREADS}], "
                         f"got {env!r}")
    prepared = [prepare(params, grid) for params, grid in horizons]

    def work(i, params, grid, per_horizon, chunks, results, taken):
        workspace = Workspace()
        for k in taken:  # one shared iterator: next() on it is atomic under the GIL
            seeds = [derive_seed(seed, i, r) for r in chunks[k]]
            try:
                xi = sample_fgn_batch(grid, params.hurst, seeds, workspace)
                results[k], bad = statistic(params, grid, xi, per_horizon)
                if bad:
                    least = "at least " if chunks[k].stop < reps else ""
                    raise NumericsError(f"{least}{bad} of {reps} replications "
                                        f"degenerate at T={params.horizon}")
            except BaseException as exc:  # re-raised by the calling thread
                results[k] = exc
                list(taken)  # takes every chunk left: no worker starts one after a failure

    out = []
    for i, ((params, grid), per_horizon) in enumerate(zip(horizons, prepared)):
        rows = max(1, CHUNK_CELLS // grid.n)
        chunks = [range(r0, min(r0 + rows, reps)) for r0 in range(0, reps, rows)]
        results, taken = [None] * len(chunks), iter(range(len(chunks)))
        # copy_context() here: each worker runs under this thread's error state
        threads = [Thread(target=copy_context().run,
                          args=(work, i, params, grid, per_horizon, chunks, results, taken))
                   for _ in range(min(workers, len(chunks)))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for result in results:
            if isinstance(result, BaseException):
                raise result
        out.append(np.concatenate(results))
    return out


def run(horizons, reps: int, seed: int, method: str) -> list[dict]:
    """One row per horizon of the CHAOS_RATIO or PATHWISE statistic, drawn by
    `replicate` over the (params, grid) pairs of `horizons`, with the
    `samples` array that no report writes.  Both statistics arrive
    normalized, at H = 3/4 too (module docstring), so the rows take the
    samples as they are."""
    if method == CHAOS_RATIO:
        prepare, statistic = _chaos_traces, _chaos_batch
    else:
        prepare, statistic = lambda params, grid: skorohod_correction(params), _pathwise_batch
    draws = replicate(horizons, reps, seed, prepare, statistic)
    return [{"T": params.horizon, "ks_distance": ks_distance(s), "sample_mean": float(s.mean()),
             "sample_var": float(s.var()), "samples": s}
            for (params, _), s in zip(horizons, draws)]
