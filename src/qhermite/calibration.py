"""Constants of the rule that chooses the ambient dimension of the transform.

The sufficient condition M >= c0 * N^(9/4) / eps^(13/4) carries an unspecified
constant; taken literally at c0 = 1 it demands M ~ 5e8 already for N = 8,
eps = 0.01, far beyond desk scale and far beyond what the discretization
actually needs (the low-energy subspace is numerically converged to ~1e-13 by
M ~ a few thousand).  The rule therefore uses C0 = 1e-5.  C1 sizes the
high-energy cutoff N_high = ceil(C1 * N / eps).
"""

__all__ = ["C0", "C1"]

C0 = 1e-5   # multiplier of N^(9/4)/eps^(13/4); the paper's literal constant is 1
C1 = 4.0    # N_high = ceil(C1 * N / eps)
