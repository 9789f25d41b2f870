"""Exact sampling of fractional Gaussian noise and its covariance structure.

The increment covariances double as quadrature weights: W, the n x n
matrix of exact cell-pair covariances, is the Gram matrix of indicator
functions under the fBm inner product, so every weighted inner product
downstream carries no quadrature error from the singular kernel.  W is
Toeplitz, and production reads only its first row, `increment_autocov`;
the dense `gram_weights` is left for the benchmark's per-layer metric and
the test oracles.  `toeplitz_product` is the one product by W, through
the length-2n circulant embedding of its row, so `numpy.fft` is used in
this module only.

Sampling uses circulant embedding of the fGn autocovariance (Davies & Harte
1987; Wood & Chan 1994).  The length-2n embedding is nonnegative definite
for every H in [1/2, 3/4] (Dietrich & Newsam 1997; Craigmile 2003), so the
route is distribution-exact.  Its smallest eigenvalue is 1, 0.774, 0.550
and 0.441 at H = 1/2, 0.6, 0.7 and 3/4 (n = 2; larger n measured up to
2^20 stay above it).  A negative one would still fail loudly: its square
root is an invalid value, a FloatingPointError under the error state of
`cli.main`, which exits 3.  The structured Gaussian
vector is Hermitian, so only its n+1 non-redundant coefficients are built
and one real-output inverse transform (`hfft`) replaces a length-2n complex
FFT.  Streams are derived from 64-bit seeds with a splitmix64 mix so
replications are reproducible independent of scheduling and batching.
One Philox bit generator serves a whole batch; per row it is reset to the
initial state of the stream keyed by that row's seed.  A `Workspace` holds
that generator and the batch's two buffers (the draws and the complex
coefficients), so a caller that draws every batch into one, as each
worker of `montecarlo.replicate` does, allocates nothing path-sized after
its first batch.  `sample_fgn` is a batch of one and
returns the plain n-vector of increments.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .constants import checked_power

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Largest grid of any command but `bounds` and `asymptotics`, enforced by
# `cli.resolve_horizons`; sampling peaks near 0.5 GB at n = 2^20.
MAX_CELLS = 1 << 22


class Grid(NamedTuple):
    """Uniform partition of [0, horizon] into n cells, with nodes
    t_k = k * step (k = 0..n); kernels are sampled at the cell midpoints.

    A plain record: `cli.resolve_horizons` admits every horizon and cell
    count (a finite positive T, 2 <= n <= the command's ceiling, MAX_CELLS
    or `bounds.MAX_BOUND_CELLS`) before it builds a grid.
    """

    horizon: float
    n: int

    @property
    def step(self) -> float:
        return self.horizon / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n + 1)


def _unit_autocov(kmax: int, hurst: float) -> np.ndarray:
    """gamma(0..kmax) on a unit step; dt enters only as the dt^2H scale."""
    k = np.arange(kmax + 1, dtype=float)
    two_h = 2.0 * hurst
    return 0.5 * ((k + 1) ** two_h - 2 * k**two_h + np.abs(k - 1) ** two_h)


def increment_autocov(grid: Grid, hurst: float) -> np.ndarray:
    """gamma(0..n-1): covariance of two fGn increments of the grid k cells
    apart, for the H that `cli.resolve_horizons` admits.  A step^2H that
    overflows raises NumericsError naming step and T."""
    scale = checked_power(grid.step, 2.0 * hurst, "step", T=grid.horizon)
    return scale * _unit_autocov(grid.n - 1, hurst)


def toeplitz_product(row: np.ndarray):
    """y -> W y along the last axis of y for the symmetric Toeplitz W with
    first row `row`, by the length-2n circulant embedding of W: O(n log n)."""
    n = row.size
    spectrum = np.fft.rfft(np.r_[row, 0.0, row[:0:-1]])
    return lambda y: np.fft.irfft(spectrum * np.fft.rfft(y, 2 * n), 2 * n)[..., :n]


def gram_weights(grid: Grid, hurst: float) -> np.ndarray:
    """Exact covariance matrix of the n fGn increments on the grid: the
    symmetric PSD Toeplitz w[i, j] = E[dB_i dB_j], equivalently the fBm inner
    product of the indicator functions of cells i and j: w[|i - j|]."""
    k = np.arange(grid.n)
    return increment_autocov(grid, hurst)[np.abs(k[:, None] - k)]


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, *indices: int) -> int:
    """64-bit stream key for a replication, bit-exact across platforms.

    Folds each index into the state with s = splitmix64(s XOR ((i+1) *
    0x9E3779B97F4A7C15 mod 2^64)).  Used as hash(master_seed, ...) wherever
    independent streams are needed.
    """
    s = master_seed & _MASK64
    for i in indices:
        s = _splitmix64((s ^ (((i + 1) * _GOLDEN) & _MASK64)) & _MASK64)
    return s


@lru_cache(maxsize=32)
def _embedding_sqrt_eigs(n: int, hurst: float) -> tuple:
    """Scaled sqrt-eigenvalue factors of the length-2n circulant embedding
    of the unit-step fGn autocovariance.

    Returns (sqrt(lam_0/m), sqrt(lam_n/m), sqrt(lam_{1..n-1}/(2m))) with
    m = 2n, ready to scale the structured complex Gaussian vector.
    """
    gamma = _unit_autocov(n, hurst)
    c = np.concatenate([gamma[:n], gamma[n : n + 1], gamma[n - 1 : 0 : -1]])
    lam = np.fft.fft(c).real
    m = 2 * n
    return (np.sqrt(lam[0] / m), np.sqrt(lam[n] / m), np.sqrt(lam[1:n] / (2 * m)))


class Workspace:
    """One worker thread's sampler state for `sample_fgn_batch`, built when
    the worker starts: a Philox bit generator, its Generator and the
    zero-counter state template, and two flat buffers (draws, complex
    coefficients) that grow on demand and are never shrunk."""

    def __init__(self) -> None:
        self.bits = np.random.Philox(key=0)
        self.rng = np.random.Generator(self.bits)
        self.fresh = self.bits.state  # zero counter, empty buffer
        self._draws, self._coeffs = np.empty(0), np.empty(0, dtype=complex)

    def buffers(self, rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """C-contiguous views rows x 2n (float) and rows x (n+1) (complex),
        with arbitrary contents."""
        if self._draws.size < rows * 2 * n:
            self._draws = np.empty(rows * 2 * n)
        if self._coeffs.size < rows * (n + 1):
            self._coeffs = np.empty(rows * (n + 1), dtype=complex)
        return (self._draws[:rows * 2 * n].reshape(rows, 2 * n),
                self._coeffs[:rows * (n + 1)].reshape(rows, n + 1))


def sample_fgn_batch(grid: Grid, hurst: float, seeds,
                     workspace: Workspace | None = None) -> np.ndarray:
    """Exact fGn draws, one row per seed; row r depends only on seeds[r].

    Each stream contributes 2n standard normals laid out as
    [V0, Vn, Re_1..Re_{n-1}, Im_1..Im_{n-1}].  They fill the n+1
    non-redundant coefficients z_0..z_n of a Hermitian vector, whose
    length-2n FFT is real; a half-spectrum transform (`hfft`) computes it
    from those coefficients.  The embedding is built on a unit step and
    scaled by step^H (self-similarity), so its eigenvalues depend on n and
    H alone; it is nonnegative for the H that `cli.resolve_horizons`
    admits (module docstring).  The transform overwrites the spent draws,
    so the result is a non-contiguous view: the first n columns of a
    rows x 2n buffer.

    That buffer belongs to `workspace`.  Without one, a fresh workspace is
    built and the caller owns the result.  With one, the result stays valid
    only until the workspace is used again.
    """
    n = grid.n
    f0, fn, fmid = _embedding_sqrt_eigs(n, hurst)
    ws = workspace if workspace is not None else Workspace()
    draws, zc = ws.buffers(len(seeds), n)
    bits, rng, fresh = ws.bits, ws.rng, ws.fresh
    for r, s in enumerate(seeds):
        fresh["state"]["key"][0] = s & _MASK64  # now the state of Philox(key=s)
        bits.state = fresh
        rng.standard_normal(out=draws[r])
    # zc holds conj(z): hfft(z) is the unscaled irfft of conj(z), and
    # filling the conjugate directly spares hfft its complex copy.
    re, im = zc.real, zc.imag
    np.multiply(f0, draws[:, 0], out=re[:, 0])
    np.multiply(fn, draws[:, 1], out=re[:, n])
    np.multiply(fmid, draws[:, 2 : n + 1], out=re[:, 1:n])
    np.multiply(-fmid, draws[:, n + 1 :], out=im[:, 1:n])
    im[:, 0] = im[:, n] = 0.0  # z_0 and z_n are real
    xi = np.fft.irfft(zc, n=2 * n, axis=1, norm="forward", out=draws)[:, :n]  # out=: numpy 2
    return np.multiply(xi, grid.step**hurst, out=xi)


def sample_fgn(grid: Grid, hurst: float, seed: int) -> np.ndarray:
    """One exact fGn path, xi[k] = B^H(t_{k+1}) - B^H(t_k): row 0 of a batch
    of one, copied so that it does not pin the 2n buffer."""
    return sample_fgn_batch(grid, hurst, [seed])[0].copy()
