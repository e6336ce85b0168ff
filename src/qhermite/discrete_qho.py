"""Discretized harmonic oscillator: operators, eigen-oracle, and commutator lab.

The position operator xbar is diagonal with entries x_j; the momentum operator
pbar = F^-1 xbar F is never materialized in the fast path (applying it costs
two centered DFTs).  Dense forms exist only under explicit size budgets as
ground-truth oracles.

The commutator laboratory measures projected nested-commutator tails
||Pi_N sum_t [A,B]_t / t! Pi_N||.  Those values cancel across tens of decimal
orders (the full-space intermediates reach ~1e50 while the projected results
sit below 1e-40 already at M=128), so a float64 dense nesting returns pure
rounding noise.  Because the nesting operator is diagonal in its own
representation, [diag(d), B]_t has the exact Hadamard form (d_j - d_k)^t B_jk,
which lets the lab evaluate projected entries term by term in multiprecision
(mpmath) with closed-form circulant symbols for pbar^2 and {xbar, pbar}.  The
projector uses the discrete Hermite states (the spec'd state-form realization,
exact to arbitrary precision via the recurrence), which agrees with the
eigenvector form to well below the quantities measured.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .spectral_core import (
    GridSpec,
    InvalidSpecError,
    centered_dft,
    centered_dft_matrix,
    hermite_function_rows,
)

__all__ = [
    "DiscreteQHO",
    "EigenDecomposition",
    "DiscreteHermiteBasis",
    "EnergyProjector",
    "build",
    "apply_position_sq",
    "apply_momentum_sq",
    "apply_hamiltonian",
    "dense_hamiltonian",
    "dense_momentum_sq",
    "dense_diagonalize",
    "hermite_basis",
    "loewdin_orthonormalize",
    "defect_delta",
    "commutator_tail_norm",
    "dense_tail_reference",
    "export_tail_reports",
    "continuum_matrix_element",
    "discrete_matrix_element",
    "leakage_norm",
    "poisson_tail",
]

DENSE_EIG_CAP = 4096
DENSE_DELTA_CAP = 512
TAIL_M_CAP = 256
TAIL_T_CAP = 40


@dataclass(frozen=True)
class DiscreteQHO:
    """Grid plus the diagonal of xbar; pbar is implicit via DFT conjugation."""

    spec: GridSpec
    x: np.ndarray = field(repr=False)

    @property
    def M(self) -> int:
        return self.spec.M

    def operator_norm_x(self) -> float:
        """||xbar|| = ||pbar|| = sqrt(pi*M/2), attained at label -M/2."""
        return float(np.abs(self.x).max())


def build(spec: GridSpec) -> DiscreteQHO:
    if spec.M < 8:
        raise InvalidSpecError("discrete QHO needs M even and >= 8")
    return DiscreteQHO(spec=spec, x=spec.points())


def apply_position_sq(qho: DiscreteQHO, state: np.ndarray) -> np.ndarray:
    return qho.x * qho.x * np.asarray(state, dtype=complex)


def apply_momentum_sq(qho: DiscreteQHO, state: np.ndarray) -> np.ndarray:
    """pbar^2 v = F^-1 diag(x^2) F v."""
    w = centered_dft(state, qho.spec)
    w = qho.x * qho.x * w
    return centered_dft(w, qho.spec, inverse=True)


def apply_hamiltonian(qho: DiscreteQHO, state: np.ndarray) -> np.ndarray:
    """Hbar v = (xbar^2 + pbar^2) v / 2 using two DFTs per application."""
    v = np.asarray(state, dtype=complex)
    if v.shape[-1] != qho.M:
        raise ValueError(f"dimension mismatch: {v.shape[-1]} vs M={qho.M}")
    return 0.5 * (apply_position_sq(qho, v) + apply_momentum_sq(qho, v))


def _p2_symbol_ld(M: int) -> np.ndarray:
    """Circulant symbol of pbar^2 in 80-bit floats: (pbar^2)_{jk} = c[(k-j) mod M].

    c_0 = (2*pi/M^2) * sum l^2 over the signed label range; for d != 0 the
    closed form is c_d = (pi/M) (-1)^d / sin^2(pi d / M).  Extended precision
    keeps the dense oracle within one float64 ulp of the operator the FFT
    fast path realizes, which the evolution error meters depend on.
    """
    pi = np.longdouble(np.pi)
    Ml = np.longdouble(M)
    c = np.empty(M, dtype=np.longdouble)
    half = M // 2
    c[0] = 2.0 * pi / Ml**2 * (np.longdouble((half - 1) * half * (M - 1)) / 3.0
                               + np.longdouble(half) * half)
    d = np.arange(1, M, dtype=np.longdouble)
    c[1:] = (pi / Ml) * (-1.0) ** np.arange(1, M) / np.sin(pi * d / Ml) ** 2
    return c


def _p2_symbol(M: int) -> np.ndarray:
    return _p2_symbol_ld(M).astype(np.float64)


def dense_momentum_sq(spec: GridSpec) -> np.ndarray:
    """Dense pbar^2 from the circulant symbol (oracle; M <= 4096)."""
    if spec.M > DENSE_EIG_CAP:
        raise ValueError(f"dense budget exceeded: M={spec.M}")
    c = _p2_symbol(spec.M)
    j = np.arange(spec.M)
    return c[(j[None, :] - j[:, None]) % spec.M]


def dense_hamiltonian(qho: DiscreteQHO) -> np.ndarray:
    if qho.M > DENSE_EIG_CAP:
        raise ValueError(f"dense budget exceeded: M={qho.M}")
    return 0.5 * (np.diag(qho.x * qho.x) + dense_momentum_sq(qho.spec))


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors of Hbar."""

    energies: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)  # column n is |e_n>

    @property
    def dim(self) -> int:
        return len(self.energies)


def dense_diagonalize(qho: DiscreteQHO, refine: int = 64) -> EigenDecomposition:
    """Ground-truth eigendecomposition of the dense Hbar (M <= 4096).

    The lowest `refine` eigenvalues are recomputed as Rayleigh quotients
    against the extended-precision circulant Hamiltonian: LAPACK returns them
    with absolute error ~eps*||H||, which at M=1024 already exceeds the true
    distance to n + 1/2 (and would dominate every projected-error meter).
    """
    M = qho.M
    H = dense_hamiltonian(qho)
    energies, vectors = np.linalg.eigh(H)
    k = min(refine, M)
    c = _p2_symbol_ld(M)
    j = np.arange(M)
    labels = np.arange(-M // 2, M // 2, dtype=np.longdouble)
    x2_ld = labels * labels * (2 * np.longdouble(np.pi) / M)
    Hld = 0.5 * (c[(j[None, :] - j[:, None]) % M] + np.diag(x2_ld))
    refined = energies.copy()
    for n in range(k):
        v = vectors[:, n].astype(np.clongdouble)
        refined[n] = float(np.real(np.vdot(v, Hld @ v) / np.vdot(v, v)))
    return EigenDecomposition(energies=refined, vectors=vectors)


@dataclass(frozen=True)
class DiscreteHermiteBasis:
    """States |psibar_n> = (2*pi/M)^(1/4) sum_j psi_n(x_j)|j>, not re-normalized."""

    spec: GridSpec
    n_max: int
    states: np.ndarray = field(repr=False)  # row n is psibar_n

    def state(self, n: int) -> np.ndarray:
        return self.states[n]

    def gram(self) -> np.ndarray:
        return self.states @ self.states.T


def hermite_basis(spec: GridSpec, n_max: int) -> DiscreteHermiteBasis:
    if n_max >= spec.M:
        raise ValueError(f"n_max={n_max} must be < M={spec.M}")
    rows = hermite_function_rows(n_max, spec.points()) * np.sqrt(spec.h)
    return DiscreteHermiteBasis(spec=spec, n_max=n_max, states=rows)


def loewdin_orthonormalize(states: np.ndarray) -> np.ndarray:
    """Symmetric (minimal-disturbance) orthonormalization of the row vectors."""
    g = states @ states.conj().T
    evals, evecs = np.linalg.eigh(g)
    inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
    return inv_sqrt @ states


@dataclass(frozen=True)
class EnergyProjector:
    """Rank-N projector onto the low-energy subspace; columns orthonormal."""

    cutoff: int
    columns: np.ndarray = field(repr=False)  # M x N

    @classmethod
    def from_eigen(cls, eig: EigenDecomposition, N: int) -> "EnergyProjector":
        return cls(cutoff=N, columns=eig.vectors[:, :N].copy())

    @classmethod
    def from_hermite(cls, basis: DiscreteHermiteBasis, N: int) -> "EnergyProjector":
        # the Gram defect is tiny, so Loewdin is a near-identity correction
        rows = loewdin_orthonormalize(basis.states[:N].astype(complex))
        return cls(cutoff=N, columns=rows.T)

    def project(self, state: np.ndarray) -> np.ndarray:
        return self.columns @ (self.columns.conj().T @ state)

    def matrix(self) -> np.ndarray:
        return self.columns @ self.columns.conj().T


def continuum_matrix_element(a_pow: int, b_pow: int, k: int, l: int) -> complex:
    """<k| x^a p^b |l> for the continuum operators that the grid represents.

    Computed exactly via truncated ladder matrices (the truncation exceeds
    max(k, l) + a + b, and each factor shifts levels by at most one).  Note
    the momentum sign: with the centered transform kernel exp(+2*pi*i*j*k/M),
    the conjugated operator F^-1 xbar F realizes the continuum -p_hat, so the
    ladder form used here is p = i(a - a^dagger)/sqrt(2).  Only odd powers of
    p see the difference; the Hamiltonian and every evolution factor use p^2.
    """
    K = max(k, l) + a_pow + b_pow + 2
    lower = np.diag(np.sqrt(np.arange(1, K)), 1)  # annihilation
    raise_ = lower.T
    X = (raise_ + lower) / np.sqrt(2.0)
    P = 1j * (lower - raise_) / np.sqrt(2.0)
    op = np.linalg.matrix_power(X, a_pow) @ np.linalg.matrix_power(P.astype(complex), b_pow)
    return complex(op[k, l])


def discrete_matrix_element(qho: DiscreteQHO, basis: DiscreteHermiteBasis,
                            a_pow: int, b_pow: int, k: int, l: int) -> complex:
    """<psibar_k| xbar^a pbar^b |psibar_l> via FFT application."""
    v = basis.state(l).astype(complex)
    if b_pow:
        w = centered_dft(v, qho.spec)
        w = (qho.x**b_pow) * w
        v = centered_dft(w, qho.spec, inverse=True)
    if a_pow:
        v = (qho.x**a_pow) * v
    return complex(np.vdot(basis.state(k).astype(complex), v))


def leakage_norm(qho: DiscreteQHO, eig: EigenDecomposition, a_pow: int, N: int, n_prime: int) -> float:
    """||(I - Pi_N') xbar^a Pi_N|| via SVD of the residual columns."""
    cols = (qho.x**a_pow)[:, None] * eig.vectors[:, :N]
    low = eig.vectors[:, :n_prime]
    resid = cols - low @ (low.conj().T @ cols)
    return float(np.linalg.svd(resid, compute_uv=False)[0])


def poisson_tail(a: float, start: int | None = None) -> float:
    """sum_{k >= start} a^k / k! with start defaulting to ceil(3a)."""
    k0 = int(math.ceil(3 * a)) if start is None else start
    term = a**k0 / math.factorial(k0)
    total = 0.0
    k = k0
    while term > 1e-30 * (total + term) and k < k0 + 10000:
        total += term
        k += 1
        term *= a / k
    return total


# ---------------------------------------------------------------------------
# Defect operator Delta
# ---------------------------------------------------------------------------

_DELTA_CANDIDATES = {
    "-4i": 4j,    # Delta = [x2,[x2,p2]] - 4i x2, the paper's defining line
    "-8i": 8j,    # the variant the paper's proof expands
    "+8": -8.0,   # continuum algebra: [x2,[x2,p2]] = -8 x2, so subtract -8 x2
    "-8": 8.0,
}


@dataclass(frozen=True)
class DefectDelta:
    """Resolved discretization-error operator and the candidate bookkeeping."""

    matrix: np.ndarray = field(repr=False)
    coefficient: complex              # Delta = [x2,[x2,p2]] - coefficient * x2
    label: str
    candidate_projected_norms: dict
    norm: float                       # spectral norm of the chosen Delta
    projected_norm: float             # ||Pi_N' Delta Pi_N'|| for the chosen one


def defect_delta(qho: DiscreteQHO, n_prime: int = 8) -> DefectDelta:
    """Nested-commutator defect with the x2 coefficient resolved numerically.

    Builds C = [xbar^2, [xbar^2, pbar^2]] densely (a double Hadamard scaling
    of pbar^2 since xbar^2 is diagonal), then picks the candidate constant
    from {-4i, -8i, +8, -8} minimizing the projected norm ||Pi_N' Delta Pi_N'||.
    Continuum algebra gives [x^2,[x^2,p^2]] = -8 x^2 so the "+8" candidate is
    the one that vanishes in the continuum; the projected sweep confirms it.
    """
    M = qho.M
    if M > DENSE_DELTA_CAP:
        raise ValueError(f"defect budget exceeded: M={M} > {DENSE_DELTA_CAP}")
    x2 = qho.x * qho.x
    P2 = dense_momentum_sq(qho.spec)
    d = x2[:, None] - x2[None, :]
    C = (d * d) * P2  # [diag(x2), [diag(x2), P2]] exactly
    basis = hermite_basis(qho.spec, n_prime - 1)
    U = basis.states.T / np.linalg.norm(basis.states, axis=1)
    proj_norms = {}
    for label, coeff in _DELTA_CANDIDATES.items():
        delta_proj = U.T @ C @ U - coeff * (U.T @ (x2[:, None] * U))
        proj_norms[label] = float(np.linalg.svd(delta_proj, compute_uv=False)[0])
    best = min(proj_norms, key=proj_norms.get)
    coeff = _DELTA_CANDIDATES[best]
    delta = C.astype(complex) - coeff * np.diag(x2)
    nrm = float(np.linalg.svd(delta, compute_uv=False)[0])
    return DefectDelta(matrix=delta, coefficient=coeff, label=best,
                       candidate_projected_norms=proj_norms, norm=nrm,
                       projected_norm=proj_norms[best])


# ---------------------------------------------------------------------------
# Multiprecision commutator tail lab
# ---------------------------------------------------------------------------

TAIL_FAMILIES = ("x2_p2", "p2_x2", "p2_anti")


@dataclass(frozen=True)
class TailReport:
    family: str
    M: int
    N: int
    t_max: int
    tail_norm: float
    term_norms: dict          # t -> spectral norm of the projected t-th term
    dps: int


def export_tail_reports(reports, path) -> None:
    """Write commutator-lab sweeps as CSV rows (family, M, N, t, term_norm, tail_norm)."""
    with open(path, "w") as fh:
        fh.write("family,M,N,t,term_norm,tail_norm\n")
        for rep in reports:
            for t in sorted(rep.term_norms):
                fh.write(f"{rep.family},{rep.M},{rep.N},{t},"
                         f"{rep.term_norms[t]!r},{rep.tail_norm!r}\n")


def _mp_hermite_columns(M: int, N: int):
    """Normalized discrete Hermite states at current mp precision."""
    h = mp.sqrt(2 * mp.pi / M)
    sqh = mp.sqrt(h)
    xs = [j * h for j in range(-M // 2, M // 2)]
    quarter = mp.power(mp.pi, mp.mpf(-1) / 4)
    rows = [[quarter * mp.e ** (-x * x / 2) * sqh for x in xs]]
    if N >= 2:
        rows.append([mp.sqrt(2) * x * v for x, v in zip(xs, rows[0])])
    for n in range(1, N - 1):
        c1, c2 = mp.sqrt(mp.mpf(2) / (n + 1)), mp.sqrt(mp.mpf(n) / (n + 1))
        rows.append([c1 * x * a - c2 * b for x, a, b in zip(xs, rows[n], rows[n - 1])])
    out = []
    for r in rows[:N]:
        nrm = mp.sqrt(mp.fsum(v * v for v in r))
        out.append([v / nrm for v in r])
    return out


def _mp_centered_dft_columns(cols, M: int):
    """Centered DFT of each column, via a precomputed root-of-unity table."""
    roots = [mp.e ** (2 * mp.pi * mp.mpc(0, 1) * r / M) for r in range(M)]
    out = []
    inv_sqrt = 1 / mp.sqrt(M)
    for col in cols:
        res = []
        for jj in range(-M // 2, M // 2):
            acc = mp.fsum(col[i] * roots[((i - M // 2) * jj) % M] for i in range(M))
            res.append(acc * inv_sqrt)
        out.append(res)
    return out


def _mp_p2_symbol(M: int):
    c = [mp.mpf(0)] * M
    half = M // 2
    c[0] = 2 * mp.pi / M**2 * (mp.mpf((half - 1) * half * (M - 1)) / 3 + half * half)
    for d in range(1, M):
        c[d] = (mp.pi / M) * (-1) ** d / mp.sin(mp.pi * mp.mpf(d) / M) ** 2
    return c


def _mp_p1_symbol(M: int):
    """Symbol of F xbar F^-1: entries c1[(j-k) mod M]."""
    h = mp.sqrt(2 * mp.pi / M)
    c = [mp.mpc(-h / 2)] + [mp.mpc(0)] * (M - 1)
    for d in range(1, M):
        w = mp.e ** (2 * mp.pi * mp.mpc(0, 1) * d / M)
        c[d] = h * ((-1) ** d) / (w - 1)
    return c


def _tail_dps(M: int, t_max: int) -> int:
    """Working precision: intermediate magnitude plus the value's own scale.

    The largest surviving contribution behaves like d^t/t! damped by the
    Gaussian weight exp(-d/2); the projected result itself shrinks roughly
    like exp(-c*M), so the digit budget grows linearly in M.
    """
    return 60 + int(0.55 * M) + max(0, 2 * (t_max - 30))


def commutator_tail_norm(qho: DiscreteQHO, N: int, t_max: int,
                         family: str = "x2_p2", dps: int | None = None,
                         c1: float = 1.0, c2: float = 1.0) -> TailReport:
    """|| Pi_N sum_t [c1*A, c2*B]_t / t! Pi_N || for the three operator families.

    family "x2_p2":  A = xbar^2, B = pbar^2,        sum from t = 3
    family "p2_x2":  A = pbar^2, B = xbar^2,        sum from t = 3
    family "p2_anti": A = pbar^2, B = {xbar, pbar}, sum from t = 2

    The tail bound is stated for any constants with |c1|, |c2| <= 1; they
    enter exactly as [c1*A, c2*B]_t = c1^t c2 [A, B]_t.  Evaluated in the
    representation where A is diagonal, where the t-fold nesting is the exact
    entrywise factor (d_j - d_k)^t; projected entries are accumulated in
    multiprecision (see module docstring).  Per-term projected norms are
    returned alongside the tail.
    """
    M = qho.M
    if M > TAIL_M_CAP:
        raise ValueError(f"tail budget exceeded: M={M} > {TAIL_M_CAP}")
    if t_max > TAIL_T_CAP:
        raise ValueError(f"tail budget exceeded: t_max={t_max} > {TAIL_T_CAP}")
    if family not in TAIL_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if max(abs(c1), abs(c2)) > 1.0:
        raise ValueError("coefficient constants must satisfy |c1|, |c2| <= 1")
    t0 = 2 if family == "p2_anti" else 3
    if t_max < t0:
        return TailReport(family, M, N, t_max, 0.0, {}, 0)

    used_dps = _tail_dps(M, t_max) if dps is None else dps
    with mp.workdps(used_dps):
        h2 = 2 * mp.pi / M
        # c1 scales the nesting operator, so it rides on the Hadamard factor
        delta = [mp.mpf(c1) * (j * j) * h2 for j in range(-M // 2, M // 2)]
        cols = _mp_hermite_columns(M, N)
        if family == "x2_p2":
            u = [[mp.mpc(v) for v in c] for c in cols]
            sym = _mp_p2_symbol(M)

            def entry(jj, kk):
                return sym[(kk - jj) % M]
        else:
            u = _mp_centered_dft_columns(cols, M)
            if family == "p2_x2":
                sym = _mp_p2_symbol(M)

                def entry(jj, kk):
                    return sym[(kk - jj) % M]
            else:
                sym1 = _mp_p1_symbol(M)
                h = mp.sqrt(h2)
                xs = [jj * h for jj in range(-M // 2, M // 2)]

                def entry(jj, kk):
                    return (xs[jj] + xs[kk]) * sym1[(jj - kk) % M]

        nt = t_max - t0 + 1
        T = [[[mp.mpc(0)] * N for _ in range(N)] for _ in range(nt)]
        fact0 = mp.factorial(t0)
        uconj = [[mp.conj(v) for v in col] for col in u]
        for j in range(M):
            row = [[mp.mpc(0)] * N for _ in range(nt)]
            for k in range(M):
                w = entry(j, k)
                if w == 0:
                    continue
                d = delta[j] - delta[k]
                base = [mp.mpf(c2) * w * u[b][k] for b in range(N)]
                term = d**t0 / fact0
                for ti in range(nt):
                    rt = row[ti]
                    for b in range(N):
                        rt[b] += term * base[b]
                    term = term * d / (t0 + ti + 1)
            for ti in range(nt):
                rt = row[ti]
                Tt = T[ti]
                for a in range(N):
                    ua = uconj[a][j]
                    for b in range(N):
                        Tt[a][b] += ua * rt[b]

        term_norms = {}
        tail = np.zeros((N, N), dtype=complex)
        # float64 is ample for the projected values; Kahan-compensate the sum.
        comp = np.zeros_like(tail)
        for ti in range(nt):
            arr = np.array([[complex(T[ti][a][b]) for b in range(N)] for a in range(N)])
            term_norms[t0 + ti] = float(np.linalg.svd(arr, compute_uv=False)[0])
            y = arr - comp
            s = tail + y
            comp = (s - tail) - y
            tail = s
    tail_norm = float(np.linalg.svd(tail, compute_uv=False)[0])
    return TailReport(family, M, N, t_max, tail_norm, term_norms, used_dps)


def dense_tail_reference(qho: DiscreteQHO, N: int, t_max: int,
                         family: str = "x2_p2") -> float:
    """Float64 dense reference for the projected tail, small scales only.

    Iterative nesting with the 1/t rescaling folded into each step.  Valid
    only while the unprojected intermediates stay small enough for float64
    (roughly M <= 32 with t_max <= 8); the production path is the
    multiprecision Hadamard evaluation above.
    """
    M = qho.M
    if M > 64:
        raise ValueError("dense reference only supported for M <= 64")
    t0 = 2 if family == "p2_anti" else 3
    x2 = np.diag(qho.x * qho.x).astype(complex)
    P2 = dense_momentum_sq(qho.spec).astype(complex)
    F = centered_dft_matrix(M)
    pbar = F.conj().T @ np.diag(qho.x).astype(complex) @ F
    anti = np.diag(qho.x) @ pbar + pbar @ np.diag(qho.x)
    if family == "x2_p2":
        A, B = x2, P2
    elif family == "p2_x2":
        A, B = P2, x2
    else:
        A, B = P2, anti
    basis = hermite_basis(qho.spec, N - 1)
    U = (basis.states.T / np.linalg.norm(basis.states, axis=1)).astype(complex)
    # R_t = [A,B]_t / t!, built by R_t = [A, R_{t-1}] / t
    R = B.copy()
    tail = np.zeros((N, N), dtype=complex)
    comp = np.zeros_like(tail)
    for t in range(1, t_max + 1):
        R = (A @ R - R @ A) / t
        if t < t0:
            continue
        term = U.conj().T @ R @ U
        y = term - comp
        s = tail + y
        comp = (s - tail) - y
        tail = s
    return float(np.linalg.svd(tail, compute_uv=False)[0])
