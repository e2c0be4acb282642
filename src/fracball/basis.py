"""Weighted Jacobi basis on the unit ball and the radial Galerkin operators.

The basis in effective dimension d is

    phi_n(r) = (1 - r^2)^s P_n^{(s, d/2-1)}(2 r^2 - 1),   n = 0 .. K-1,

extended by zero outside [0, 1).  The fractional Laplacian maps phi_n to
mu_n P_n^{(s, d/2-1)}(2 r^2 - 1) inside the ball, which makes the Dirichlet
stiffness matrix diagonal in this basis by Jacobi orthogonality.  This module
holds the closed forms, and galerkin_rule, the one quadrature for the
integrals of a radial function against phi_m phi_n; the Newton solve and the
potential of the linearization both use it.  Its panels are graded toward
r = 1 and toward the kinks of the integrand, and each panel of width h gets
min(max(12, K + 4), ceil(1.6 K sqrt(h)) + 12) Gauss nodes: phi_m phi_n
oscillates with local frequency about K / sqrt(1 - r), so a panel of width h
near r = 1 holds about K sqrt(h) of its waves, and a fixed order on every
panel would spend K + 4 nodes where a dozen resolve the integrand.
nonlocal_quadrature checks the closed forms against the singular-kernel
oracle where a sector is built.

The mass matrix B is a closed form in the same Jacobi family (mass_matrix).
A potential-free radial eigenproblem A x = lambda B x has the diagonal A =
diag(a), so solve_radial_eigs solves it as the symmetric eigenproblem of
C = diag(a)^{-1/2} B diag(a)^{-1/2}, eigenvalues only, with no Cholesky
factor of B; a pair with a potential (the linearization's blocks) is solved
as a generalized pencil, through the Cholesky factor of B.  Both are NumPy
eigensolves.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MassNotPD, PotentialUnbounded
from .params import harmonic_multiplicity, sphere_area
from .quadrature import kink_panels, panel_rule
from .roots import scan_roots


@dataclass(frozen=True)
class RadialBasisSpec:
    """Effective dimension d, fractional order s, and truncation K."""

    d: int
    s: float
    K: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"effective dimension must be >= 1, got {self.d}")
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if self.K < 2:
            raise ValueError(f"truncation K must be >= 2, got {self.K}")

    @property
    def alpha(self):
        return self.s

    @property
    def beta(self):
        return self.d / 2.0 - 1.0


def sector_spec(params, ell, K):
    """The RadialBasisSpec of the angular sector ell of params: effective
    dimension N + 2*ell.  ell is validated for N by harmonic_multiplicity."""
    harmonic_multiplicity(params.N, ell)
    return RadialBasisSpec(params.N + 2 * ell, params.s, K)


def jacobi_all(K, a, b, x):
    """Values of P_0^{(a,b)} .. P_{K-1}^{(a,b)} at x via the three-term recurrence.

    Returns an array of shape (K, len(x)).  Each step is
    P_n = (c2 P_{n-1} - c3 P_{n-2}) / c1 with c2 = (h-1) (h (h-2) x + a^2 - b^2).
    c2 depends on x and n only, so rows 2 .. K-1 are first filled with it for
    every n at once; each step then multiplies its row by P_{n-1} in place.
    Each element still goes through the step's operations in the order
    written above.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    P = np.empty((K, x.size))
    P[0] = 1.0
    if K > 1:
        P[1] = 0.5 * (a + b + 2.0) * x + 0.5 * (a - b)
    n = np.arange(2, K)
    h = 2.0 * n + a + b
    c1 = 2.0 * n * (n + a + b) * (h - 2.0)
    c3 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * h
    np.multiply((h * (h - 2.0))[:, None], x, out=P[2:])
    P[2:] += a * a
    P[2:] -= b * b
    P[2:] *= (h - 1.0)[:, None]
    tmp = np.empty(x.size)
    rows = list(P)
    for prev2, prev, row, c1n, c3n in zip(rows, rows[1:], rows[2:],
                                          c1.tolist(), c3.tolist()):
        np.multiply(row, prev, out=row)
        np.multiply(c3n, prev2, out=tmp)
        np.subtract(row, tmp, out=row)
        np.divide(row, c1n, out=row)
    return P


def jacobi_moments(K, a, b, x, w):
    """Sums sum_i w_i P_n^{(a,b)}(x_i) for n = 0 .. K-1, shape (K,).

    jacobi_all's recurrence, with its coefficients divided through by c1,
    streamed over the nodes: it keeps two rows of len(x) values and never
    forms the K x len(x) matrix.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = np.asarray(w, dtype=float)
    out = np.empty(K)
    cur = np.ones(x.size)
    out[0] = w.sum()
    if K > 1:
        prev, cur = cur, 0.5 * (a + b + 2.0) * x + 0.5 * (a - b)
        out[1] = w @ cur
    for n in range(2, K):
        h = 2.0 * n + a + b
        c1 = 2.0 * n * (n + a + b) * (h - 2.0)
        c3 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * h
        nxt = (h - 1.0) * h * (h - 2.0) / c1 * x
        nxt += (h - 1.0) * (a * a - b * b) / c1
        nxt *= cur
        nxt -= c3 / c1 * prev
        prev, cur = cur, nxt
        out[n] = w @ cur
    return out


def jacobi_deriv_all(K, a, b, x):
    """Derivatives d/dx P_n^{(a,b)}(x) for n = 0 .. K-1, shape (K, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    D = np.empty((K, x.size))
    D[0] = 0.0
    if K > 1:
        n = np.arange(1, K, dtype=float)
        np.multiply(0.5 * (n + a + b + 1.0)[:, None],
                    jacobi_all(K - 1, a + 1.0, b + 1.0, x), out=D[1:])
    return D


def _lgamma(x):
    """log Gamma at each entry of the 1-D array x."""
    return np.fromiter(map(math.lgamma, x.tolist()), float, x.size)


def jacobi_at_one(K, a):
    """P_n^{(a,b)}(1) = binom(n+a, n), independent of b."""
    n = np.arange(K, dtype=float)
    return np.exp(_lgamma(n + a + 1.0) - math.lgamma(a + 1.0) - _lgamma(n + 1.0))


def boundary_weight(s, r):
    """(1 - r^2)^s on [0, 1) and 0 from r = 1 on, at the array r: phi_0,
    and the factor every phi_n carries."""
    return np.where(r < 1.0, np.abs(1.0 - r**2) ** s, 0.0)


def basis_matrix(spec, r):
    """phi_n(r) for all n < K, shape (K, len(r)); zero outside [0, 1)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    t = 2.0 * r**2 - 1.0
    P = jacobi_all(spec.K, spec.alpha, spec.beta, t)
    P *= boundary_weight(spec.s, r)
    return P


def dyda_factor(spec):
    """mu_n with (-Delta)^s phi_n = mu_n P_n(2r^2-1) in the ball (all n < K)."""
    d, s = spec.d, spec.s
    n = np.arange(spec.K, dtype=float)
    return np.exp(
        2.0 * s * np.log(2.0)
        + _lgamma(s + n + 1.0)
        + _lgamma((d + 2.0 * s) / 2.0 + n)
        - _lgamma(n + 1.0)
        - _lgamma(d / 2.0 + n)
    )


def jacobi_norm_radial(spec):
    """g_n = int_0^1 (1-r^2)^s P_n^2 r^{d-1} dr (Jacobi orthogonality weight)."""
    d, s = spec.d, spec.s
    n = np.arange(spec.K, dtype=float)
    return 0.5 * np.exp(
        _lgamma(n + s + 1.0)
        + _lgamma(n + d / 2.0)
        - _lgamma(n + s + d / 2.0)
        - _lgamma(n + 1.0)
    ) / (2.0 * n + s + d / 2.0)


def stiffness_diagonal(spec):
    """The diagonal a of the potential-free stiffness A0:
    a_n = |S^{d-1}| mu_n g_n."""
    return sphere_area(spec.d) * (dyda_factor(spec) * jacobi_norm_radial(spec))


def stiffness_matrix(spec):
    """Potential-free stiffness A0 with A0_mn = E_s(phi_m, phi_n).

    The angular measure |S^{d-1}| is folded in, matching mass_matrix, so the
    generalized eigenvalues are measure-convention independent.  Diagonal in
    this basis: A0 = diag(stiffness_diagonal(spec)).
    """
    return np.diag(stiffness_diagonal(spec))


def mass_matrix(spec):
    """B_mn = int_{R^d} phi_m phi_n dx = |S^{d-1}| int_0^1 phi_m phi_n r^{d-1} dr.

    In closed form.  With t = 2r^2 - 1, beta = d/2 - 1 and P_n =
    P_n^{(s,beta)}, B_mn = scale int (1-t)^{2s} (1+t)^beta P_m P_n dt with
    scale = |S^{d-1}| 2^{-(a+1)}, a = 2s + beta + 1.  Each P_n expands in
    the P_k^{(2s,beta)}, orthogonal for that weight, with the connection
    coefficients (DLMF 18.18.14; Askey, Orthogonal Polynomials and Special
    Functions, 1975, Lecture 7), zero for k > n,

        c_nk = (beta+1)_n / (a+1)_n * (a+2k) / a * (a)_k (n+beta+s+1)_k
               / ((beta+1)_k (n+a+1)_k) * (-s)_{n-k} / (n-k)!,

    so B = G G^T with G_nk = c_nk sqrt(scale h_k), h_k the norms of the
    P_k^{(2s,beta)}.  c_n0 is a cumulative product of its ratio in n, c_nk
    one of its ratio in k, and scale h_k one of its ratio in k from
    scale h_0 = |S^{d-1}| Gamma(2s+1) Gamma(beta+1) / (2 Gamma(a+1)).  G G^T
    is exactly symmetric.
    """
    s, b, K = spec.s, spec.beta, spec.K
    a = 2.0 * s + b + 1.0
    n = np.arange(K, dtype=float)
    j = n[:-1]
    C = np.empty((K, K))
    C[0, 0] = 1.0
    np.cumprod((j + b + 1.0) / (j + a + 1.0) * (j - s) / (j + 1.0), out=C[1:, 0])
    m, k = n[:, None], j[None, :]
    np.cumprod((a + 2.0 * k + 2.0) / (a + 2.0 * k) * (a + k) * (m + b + s + 1.0 + k)
               / ((b + 1.0 + k) * (m + a + 1.0 + k)) * (m - k) / (m - k - 1.0 - s),
               axis=1, out=C[:, 1:])
    C[:, 1:] *= C[:, :1]
    h = np.empty(K)
    h[0] = (0.5 * sphere_area(spec.d) * math.gamma(2.0 * s + 1.0) * math.gamma(b + 1.0)
            / math.gamma(a + 1.0))
    np.cumprod((a + 2.0 * j) / (a + 2.0 * j + 2.0) * (j + 2.0 * s + 1.0) * (j + b + 1.0)
               / ((j + a) * (j + 1.0)), out=h[1:])
    h[1:] *= h[0]
    G = C * np.sqrt(h)
    return G @ G.T


def galerkin_rule(K, breaks):
    """The composite Gauss rule (r, w) on [0, 1] for the Galerkin integrals
    int G(r) phi_m phi_n r^{d-1} dr at truncation K (r^{d-1} not folded in).

    Panels are kink_rule's: geometrically graded toward r = 1 and toward
    every interior break (kinks of G, e.g. roots of a solution inside
    |.|^{p-2}), 18 levels at ratio 0.3.  A panel of width h gets
    min(max(12, K + 4), ceil(1.6 K sqrt(h)) + 12) Gauss-Legendre nodes, the
    sqrt(h) because phi_m phi_n oscillates K / sqrt(1 - r) times per unit
    length near r = 1, so about K sqrt(h) times on such a panel.  The
    Newton solve's load and Jacobian and the linearization's potential
    matrix all integrate on it, so at ell = 0 |S^{N-1}| times that matrix is
    the converged Newton Jacobian up to rounding.
    """
    # phi_m phi_n oscillates like cos(2K arccos(2r^2 - 1)).  The cap: it is
    # a polynomial of degree about 4K in r, which K + 4 nodes resolve on the
    # widest panels (an order that does not follow K lets spurious negative
    # eigenvalues of L appear as K grows).  The 12: near a break |u|^{p-2}
    # looks the same on every panel of the grading, so a fixed order
    # resolves it there.  The 1.6 keeps the potential matrix as close to a
    # rule with twice the nodes as K + 4 on every panel does.
    lo, hi = kink_panels(breaks, 18, 0.3)
    n = np.ceil(1.6 * K * np.sqrt(hi - lo)).astype(int) + 12
    return panel_rule(lo, hi, np.minimum(n, max(12, K + 4)))


def radial_weighted_integrals(spec, fn, breaks=()):
    """Matrix int_0^1 fn(r) phi_m phi_n r^{d-1} dr on galerkin_rule(K, breaks)."""
    r, w = galerkin_rule(spec.K, breaks)
    V = np.asarray(fn(r), dtype=float)
    if not np.all(np.isfinite(V)):
        raise PotentialUnbounded("potential evaluated to a non-finite value")
    phi = basis_matrix(spec, r)
    wt = w * V * r ** (spec.d - 1)
    return (phi * wt[None, :]) @ phi.T


@dataclass
class RadialOperatorPair:
    """Stiffness/mass pair of the radial eigenproblem A x = lambda B x.

    diagonal is A's closed-form diagonal (stiffness_diagonal) when A has no
    potential term, and None otherwise; solve_radial_eigs solves a pair with
    it in scaled form.
    """

    spec: RadialBasisSpec
    A: np.ndarray
    B: np.ndarray
    diagonal: np.ndarray | None = None

    def __post_init__(self):
        scale = np.abs(self.A).max()
        if scale > 0 and np.abs(self.A - self.A.T).max() > 1e-10 * scale:
            raise ValueError("stiffness matrix is not symmetric")


def assemble_radial_operator(spec, potential=None, potential_breaks=()):
    """Assemble (A, B) for E_s minus an optional radial potential term.
    Without a potential the pair records A's closed-form diagonal."""
    B = mass_matrix(spec)
    if potential is None:
        a = stiffness_diagonal(spec)
        return RadialOperatorPair(spec, np.diag(a), B, diagonal=a)
    A = stiffness_matrix(spec) - sphere_area(spec.d) * radial_weighted_integrals(
        spec, potential, breaks=potential_breaks)
    return RadialOperatorPair(spec, A, B)


@dataclass
class RadialEigenResult:
    """Ascending eigenvalues and per-eigenvalue convergence estimates
    (against the K-2 truncation).  eigenvectors, the B-orthonormal
    coefficient columns, are computed by the zero-argument vectors on first
    access."""

    spec: RadialBasisSpec
    eigenvalues: np.ndarray
    convergence: np.ndarray
    vectors: object

    @functools.cached_property
    def eigenvectors(self):
        return self.vectors()


def _centre_positive(spec, X):
    """The coefficient columns of X, each negated where its profile is
    negative at r = 0: u(0) = sum_n c_n P_n(-1), P_n^{(s,beta)}(-1) =
    (-1)^n binom(n + beta, n).  Where |u(0)| is within the rounding of that
    sum, K eps sum_n |c_n P_n(-1)|, the column's first coefficient of
    largest magnitude is made positive instead.  Fixes the sign LAPACK
    leaves open."""
    at_centre = jacobi_at_one(spec.K, spec.beta) * (-1.0) ** np.arange(spec.K)
    u0 = at_centre @ X
    tied = np.abs(u0) <= spec.K * np.finfo(float).eps * (np.abs(at_centre) @ np.abs(X))
    lead = X[np.abs(X).argmax(axis=0), np.arange(X.shape[1])]
    return X * np.where(np.where(tied, lead, u0) < 0.0, -1.0, 1.0)


def _cholesky_eigh(pair):
    """(lambda, x, C): the eigenpairs of A x = lambda B x, ascending and
    B-orthonormal, as the eigenpairs (lambda, y) of the symmetric
    C = L^{-1} A L^{-T}, x = L^{-T} y, for the Cholesky factor L of B.
    L^{-1} is lower triangular, so C's leading k x k block is the C of the
    leading k x k pencil.

    Raises MassNotPD when B cannot be factorized.
    """
    try:
        Li = np.linalg.inv(np.linalg.cholesky(pair.B))
    except np.linalg.LinAlgError as exc:
        raise MassNotPD(f"mass matrix factorization failed: {exc}") from exc
    C = Li @ pair.A @ Li.T
    lam, y = np.linalg.eigh(C)
    return lam, _centre_positive(pair.spec, Li.T @ y), C


def solve_radial_eigs(pair):
    """Solve A x = lambda B x: ascending eigenvalues, B-orthonormal
    eigenvectors with each profile positive at r = 0 (_centre_positive), and
    convergence estimates |lambda_n(K) - lambda_n(K-2)| against the K-2
    truncation.

    A pair with a potential is solved through C = L^{-1} A L^{-T} for the
    Cholesky factor L of B (_cholesky_eigh), and its K-2 problem by the
    eigenvalues of C's leading (K-2) block.  A potential-free pair is
    solved in scaled form: with D = diag(a)^{-1/2}, its eigenvalues are
    1 / mu for the eigenvalues mu of the symmetric C = D B D, eigenvalues
    only, and C's leading (K-2) block is exactly the K-2 problem's C, since
    the scaling is elementwise.  No factor of B is formed, so no rounding of
    one enters: an estimate can be exactly 0.  The eigenvectors,
    x = D y / sqrt(mu) for C's eigenvectors y, are computed only when read.
    Raises MassNotPD when B cannot be factorized or an eigenvalue of C is
    not positive.
    """
    K = pair.spec.K
    conv = np.full(K, np.inf)
    if pair.diagonal is None:
        lam, vec, C = _cholesky_eigh(pair)
        if K > 2:
            conv[: K - 2] = np.abs(lam[: K - 2] - np.linalg.eigvalsh(C[: K - 2, : K - 2]))
        return RadialEigenResult(pair.spec, lam, conv, lambda: vec)
    D = 1.0 / np.sqrt(pair.diagonal)
    C = D[:, None] * pair.B * D[None, :]
    mu = np.linalg.eigvalsh(C)
    if not mu[0] > 0.0:
        raise MassNotPD(f"mass matrix is not positive definite: eigenvalue "
                        f"{mu[0]:.3e} of its scaled form")
    lam = 1.0 / mu[::-1]
    if K > 2:
        conv[: K - 2] = np.abs(lam[: K - 2] - 1.0 / np.linalg.eigvalsh(
            C[: K - 2, : K - 2])[::-1])

    def vectors():
        mu, y = np.linalg.eigh(C)
        return _centre_positive(pair.spec, (D[:, None] * (y / np.sqrt(mu)))[:, ::-1])

    return RadialEigenResult(pair.spec, lam, conv, vectors)


# points per block when a RadialProfile is evaluated: bounds its K x block
# Jacobi matrices, as kernels._CHUNK bounds the kernel's temporaries, and
# keeps them in cache
_PROFILE_BLOCK = 8192


def _in_blocks(fn, r):
    """fn on the 1-D points r, _PROFILE_BLOCK points at a time.

    Every value is computed as fn on all of r computes it: the recurrence is
    elementwise and each point's sum sum_n c_n P_n(t) is one gemv row.
    OpenBLAS's gemv sums rows in groups of four, the last len % 4 rows in
    another order and a gemv of two or three rows in a third; the blocks
    are multiples of four, and a remainder of fewer than four points joins
    the block before it, so each point keeps its order.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.size < _PROFILE_BLOCK + 4:
        return fn(r)
    out = np.empty(r.shape)
    starts = list(range(0, r.size - 3, _PROFILE_BLOCK)) + [r.size]
    for lo, hi in zip(starts[:-1], starts[1:]):
        out[lo:hi] = fn(r[lo:hi])
    return out


# an array of a multiple of this many points has every point in one of
# OpenBLAS's four-row gemv groups, under one BLAS thread or two (which split
# the rows in halves)
_GEMV_ALIGN = 8


def values_inside(fn, r, inside):
    """fn(r) at the points of the 1-D array r where the boolean mask inside
    holds, each value as fn on all of r computes it, and 0 at the others.

    When len(r) is a multiple of _GEMV_ALIGN, fn sees only the inside
    points, padded with copies of the first to a multiple of _GEMV_ALIGN so
    that each stays in a four-row group (_in_blocks); otherwise fn sees all
    of r.
    """
    if r.size % _GEMV_ALIGN:
        return np.where(inside, fn(r), 0.0)
    k = np.count_nonzero(inside)
    if not k:
        return np.zeros(r.shape)
    pts = np.empty(k - k % -_GEMV_ALIGN)
    np.compress(inside, r, out=pts[:k])
    pts[k:] = pts[0]
    vals = fn(pts)
    out = np.zeros(r.shape)
    out[inside] = vals[:k]
    return out


class RadialProfile:
    """Radial function u(r) = (1-r^2)^s * sum_n c_n P_n(2r^2-1), zero outside.

    Exposes stable factored evaluation of u, u', the boundary ratio
    psi0(1) = lim u / (1-r)^s = 2^s * sum c_n P_n(1), and the polynomial
    factor used for nodal counting.
    """

    def __init__(self, spec, coeffs):
        self.spec = spec
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (spec.K,):
            raise ValueError("coefficient vector length must equal K")

    def poly_part(self, r):
        """q(r) with u = (1-r^2)^s q; defined on all of [0, 1]."""
        return _in_blocks(self._poly_part, r)

    def _poly_part(self, r):
        t = 2.0 * r ** 2 - 1.0
        P = jacobi_all(self.spec.K, self.spec.alpha, self.spec.beta, t)
        return self.coeffs @ P

    @functools.cached_property
    def _recurrence(self):
        """poly_at's constants: P_1's two coefficients, a * a, b * b, and
        (h - 1, h (h - 2), c1, c3) for each n = 2 .. K-1."""
        K, a, b = self.spec.K, self.spec.alpha, self.spec.beta
        steps = []
        for n in range(2, K):
            h = 2.0 * n + a + b
            steps.append((h - 1.0, h * (h - 2.0),
                          2.0 * n * (n + a + b) * (h - 2.0),
                          2.0 * (n + a - 1.0) * (n + b - 1.0) * h))
        return 0.5 * (a + b + 2.0), 0.5 * (a - b), a * a, b * b, steps

    def poly_at(self, x):
        """q(x) at one float radius, bit for bit float(poly_part(x)[0]).

        The root finder's evaluator: jacobi_all's recurrence in Python
        floats, without NumPy's per-operation cost on 1-element arrays, into
        the (K, 1) column jacobi_all returns, so the sum is the same BLAS
        call.  Its constants are computed once per profile, each as
        jacobi_all computes it.  x * x, not x ** 2: the scalar power differs
        from NumPy's array square in the last bit for some x.
        """
        K = self.spec.K
        p1, p0, aa, bb, steps = self._recurrence
        t = 2.0 * (x * x) - 1.0
        P = [1.0]
        if K > 1:
            P.append(p1 * t + p0)
        for hm1, hh2, c1, c3 in steps:
            P.append((hm1 * (hh2 * t + aa - bb) * P[-1] - c3 * P[-2]) / c1)
        return float((self.coeffs @ np.array(P).reshape(K, 1))[0])

    def __call__(self, r):
        return _in_blocks(self._values, r)

    def _values(self, r):
        return boundary_weight(self.spec.s, r) * self._poly_part(r)

    def derivative(self, r):
        """u'(r) on [0, 1) via the factored form
        (1-r^2)^{s-1} [ (1-r^2) q'(r) - 2 s r q(r) ]."""
        return _in_blocks(self._derivative, r)

    def _derivative(self, r):
        t = 2.0 * r**2 - 1.0
        P = jacobi_all(self.spec.K, self.spec.alpha, self.spec.beta, t)
        D = jacobi_deriv_all(self.spec.K, self.spec.alpha, self.spec.beta, t)
        q = self.coeffs @ P
        dq = (self.coeffs @ D) * 4.0 * r
        omr2 = 1.0 - r**2
        inner = omr2 * dq - 2.0 * self.spec.s * r * q
        with np.errstate(divide="ignore"):
            out = np.where(r < 1.0, np.abs(omr2) ** (self.spec.s - 1.0), 0.0)
        return out * inner

    def boundary_ratio(self):
        """psi0(1) = 2^s sum_n c_n P_n(1) (exact in the basis)."""
        return float(2.0**self.spec.s * (self.coeffs @ jacobi_at_one(self.spec.K, self.spec.s)))

    def sign_change_radii(self):
        """Radii in (0, 1) where the polynomial factor changes sign, found by
        a scan of 2048 cells and Brent's method."""
        return RootScan(self.spec)(self)


class RootScan:
    """RadialProfile.sign_change_radii for the profiles of one spec, with
    the scan's (K, 2049) Jacobi table built once: a Newton solve scans the
    roots of every iterate it refreshes its rule at."""

    def __init__(self, spec):
        self.grid = np.linspace(0.0, 1.0, 2049)
        self.table = jacobi_all(spec.K, spec.alpha, spec.beta,
                                2.0 * self.grid**2 - 1.0)

    def __call__(self, prof):
        """The sign-change radii of prof's polynomial factor.  Its values on
        the grid are prof.coeffs @ table, the product poly_part forms, so
        they are poly_part's bit for bit; Brent refines on prof.poly_at."""
        return scan_roots(prof.coeffs @ self.table, prof.poly_at, self.grid)
