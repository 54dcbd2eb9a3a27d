"""Spectra and eigenfunctions of two elliptic potentials.

The package solves a pair of one-dimensional Schroedinger problems
whose substitution x = sn^2(u) turns them into Heun equations.  Series
solutions (plain power series and hypergeometric-kernel series) yield
their levels as eigenvalues of finite tridiagonal sections of one
recurrence, exact for a terminating series and converged in the order
for an infinite one; an independent finite-difference and shooting
oracle cross-checks every result.
"""

__version__ = "0.1.0"
