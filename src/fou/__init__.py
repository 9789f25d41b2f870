"""Fractional Ornstein-Uhlenbeck drift estimation toolkit.

Simulation of fOU paths driven by exactly-sampled fractional Gaussian
noise, the least-squares drift estimator in pathwise and second-chaos
form, the computable Kolmogorov-distance bound terms, and a Monte Carlo
harness for empirical convergence rates.

The package namespace re-exports nothing; import the layer modules
(`fou.cli`, `fou.montecarlo`, `fou.bounds`, `fou.hilbert`, `fou.process`,
`fou.fgn`, `fou.constants`, `fou.errors`) directly.  The dense reference
implementations that the tests check these against are not part of the
package.
"""

__version__ = "0.1.0"
