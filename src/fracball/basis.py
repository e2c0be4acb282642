"""Weighted Jacobi basis on the unit ball and the radial Galerkin operators.

The basis in effective dimension d is

    phi_n(r) = (1 - r^2)^s P_n^{(s, d/2-1)}(2 r^2 - 1),   n = 0 .. K-1,

extended by zero outside [0, 1).  The fractional Laplacian maps phi_n to
mu_n P_n^{(s, d/2-1)}(2 r^2 - 1) inside the ball, which makes the Dirichlet
stiffness matrix diagonal in this basis by Jacobi orthogonality.  The
closed-form coefficients are treated as untrusted input: assembly can be
cross-checked entry by entry against the singular-kernel quadrature oracle.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import gammaln, roots_jacobi

from .errors import MassNotPD, OracleMismatch, PotentialUnbounded
from .quadrature import kink_rule


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


def jacobi_all(K, a, b, x):
    """Values of P_0^{(a,b)} .. P_{K-1}^{(a,b)} at x via the three-term recurrence.

    Returns an array of shape (K, len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    P = np.empty((K, x.size))
    P[0] = 1.0
    if K > 1:
        P[1] = 0.5 * (a + b + 2.0) * x + 0.5 * (a - b)
    for n in range(2, K):
        h = 2.0 * n + a + b
        c1 = 2.0 * n * (n + a + b) * (h - 2.0)
        c2 = (h - 1.0) * (h * (h - 2.0) * x + a * a - b * b)
        c3 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * h
        P[n] = (c2 * P[n - 1] - c3 * P[n - 2]) / c1
    return P


def jacobi_deriv_all(K, a, b, x):
    """Derivatives d/dx P_n^{(a,b)}(x) for n = 0 .. K-1, shape (K, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    D = np.zeros((K, x.size))
    if K > 1:
        shifted = jacobi_all(K - 1, a + 1.0, b + 1.0, x)
        n = np.arange(1, K, dtype=float)
        D[1:] = 0.5 * (n + a + b + 1.0)[:, None] * shifted
    return D


def jacobi_at_one(K, a):
    """P_n^{(a,b)}(1) = binom(n+a, n), independent of b."""
    n = np.arange(K, dtype=float)
    return np.exp(gammaln(n + a + 1.0) - gammaln(a + 1.0) - gammaln(n + 1.0))


def basis_matrix(spec, r):
    """phi_n(r) for all n < K, shape (K, len(r)); zero outside [0, 1)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    inside = r < 1.0
    t = 2.0 * r**2 - 1.0
    P = jacobi_all(spec.K, spec.alpha, spec.beta, t)
    w = np.where(inside, np.abs(1.0 - r**2) ** spec.s, 0.0)
    return P * w[None, :]


def dyda_factor(spec):
    """mu_n with (-Delta)^s phi_n = mu_n P_n(2r^2-1) in the ball (all n < K)."""
    d, s = spec.d, spec.s
    n = np.arange(spec.K, dtype=float)
    return np.exp(
        2.0 * s * np.log(2.0)
        + gammaln(s + n + 1.0)
        + gammaln((d + 2.0 * s) / 2.0 + n)
        - gammaln(n + 1.0)
        - gammaln(d / 2.0 + n)
    )


def jacobi_norm_radial(spec):
    """g_n = int_0^1 (1-r^2)^s P_n^2 r^{d-1} dr (Jacobi orthogonality weight)."""
    d, s = spec.d, spec.s
    n = np.arange(spec.K, dtype=float)
    return 0.5 * np.exp(
        gammaln(n + s + 1.0)
        + gammaln(n + d / 2.0)
        - gammaln(n + s + d / 2.0)
        - gammaln(n + 1.0)
    ) / (2.0 * n + s + d / 2.0)


def stiffness_matrix(spec):
    """Potential-free stiffness A0 with A0_mn = E_s(phi_m, phi_n).

    The angular measure |S^{d-1}| is folded in, matching mass_matrix, so the
    generalized eigenvalues are measure-convention independent.  Diagonal in
    this basis: A0_nn = |S^{d-1}| mu_n g_n.
    """
    from .params import sphere_area

    return sphere_area(spec.d) * np.diag(dyda_factor(spec) * jacobi_norm_radial(spec))


def mass_matrix(spec):
    """B_mn = int_{R^d} phi_m phi_n dx = |S^{d-1}| int_0^1 phi_m phi_n r^{d-1} dr.

    Exact by Gauss-Jacobi in t = 2r^2 - 1.
    """
    from .params import sphere_area

    d, s = spec.d, spec.s
    nq = spec.K + 2
    t, w = roots_jacobi(nq, 2.0 * s, d / 2.0 - 1.0)
    P = jacobi_all(spec.K, s, d / 2.0 - 1.0, t)
    scale = sphere_area(d) * 2.0 ** (-(2.0 * s + d / 2.0 + 1.0))
    return scale * (P * w[None, :]) @ P.T


def radial_weighted_integrals(spec, fn, breaks=()):
    """Matrix int_0^1 fn(r) phi_m phi_n r^{d-1} dr with panels split at breaks.

    Panels are geometrically graded toward r = 1 and toward every interior
    break (kinks of fn, e.g. roots of a solution inside |.|^{p-2}).
    """
    r, w = kink_rule(breaks, 14, 20, 0.3)
    V = np.asarray(fn(r), dtype=float)
    if not np.all(np.isfinite(V)):
        raise PotentialUnbounded("potential evaluated to a non-finite value")
    phi = basis_matrix(spec, r)
    wt = w * V * r ** (spec.d - 1)
    return (phi * wt[None, :]) @ phi.T


@dataclass
class RadialOperatorPair:
    """Stiffness/mass pair for the generalized radial eigenproblem."""

    spec: RadialBasisSpec
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        scale = np.abs(self.A).max()
        if scale > 0 and np.abs(self.A - self.A.T).max() > 1e-10 * scale:
            raise ValueError("stiffness matrix is not symmetric")


def assemble_radial_operator(spec, potential=None, potential_breaks=(),
                             oracle_budget=None):
    """Assemble (A, B) for E_s minus an optional radial potential term.

    With oracle_budget set, the leading min(4, K)^2 block of the
    potential-free stiffness is cross-checked against the singular-kernel
    quadrature oracle at assembly time; disagreement beyond combined
    tolerances raises OracleMismatch.
    """
    A = stiffness_matrix(spec)
    B = mass_matrix(spec)
    if oracle_budget is not None:
        stiffness_oracle_gate(spec, A, oracle_budget)
    if potential is not None:
        from .params import sphere_area

        A = A - sphere_area(spec.d) * radial_weighted_integrals(
            spec, potential, breaks=potential_breaks
        )
    return RadialOperatorPair(spec, A, B)


def stiffness_oracle_gate(spec, A, budget):
    """Check the leading min(4, K)^2 block of the potential-free stiffness A
    against the singular-kernel oracle; raise OracleMismatch on a mismatch
    or a non-finite estimate."""
    from .nonlocal_quadrature import stiffness_entry_oracle

    m = min(4, spec.K)
    scale = np.abs(A[:m, :m]).max()
    for i in range(m):
        for j in range(i, m):
            est = stiffness_entry_oracle(spec.d, spec.s, i, j, budget=budget)
            tol = max(10.0 * est.error, 1e-4 * scale)
            if not est.finite or abs(est.value - A[i, j]) > tol:
                raise OracleMismatch(
                    f"stiffness entry ({i},{j}) for d={spec.d}, s={spec.s}: "
                    f"closed form {A[i, j]:.8e} vs oracle {est.value:.8e} "
                    f"+- {est.error:.1e}"
                )


@dataclass
class RadialEigenResult:
    """Ascending eigenvalues, B-orthonormal coefficient columns, and
    per-eigenvalue convergence estimates (against the K-2 truncation)."""

    spec: RadialBasisSpec
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    convergence: np.ndarray


def generalized_eigh(pair):
    """Eigenpairs of A x = lambda B x, ascending and B-orthonormal.

    Raises MassNotPD when B cannot be factorized.
    """
    try:
        return scipy.linalg.eigh(pair.A, pair.B)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise MassNotPD(f"mass matrix factorization failed: {exc}") from exc


def solve_radial_eigs(pair):
    """Solve A x = lambda B x; eigenpairs ascending and B-orthonormal, with
    convergence estimates against the K-2 truncation."""
    lam, vec = generalized_eigh(pair)
    K = pair.spec.K
    conv = np.full(K, np.inf)
    if K > 2:
        sub = scipy.linalg.eigh(pair.A[: K - 2, : K - 2], pair.B[: K - 2, : K - 2],
                                eigvals_only=True)
        conv[: K - 2] = np.abs(lam[: K - 2] - sub)
    return RadialEigenResult(pair.spec, lam, vec, conv)


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
        t = 2.0 * np.atleast_1d(np.asarray(r, dtype=float)) ** 2 - 1.0
        P = jacobi_all(self.spec.K, self.spec.alpha, self.spec.beta, t)
        return self.coeffs @ P

    def poly_at(self, x):
        """q(x) at one float radius, bit for bit float(poly_part(x)[0]).

        The root finder's evaluator: jacobi_all's recurrence in Python
        floats, without NumPy's per-operation cost on 1-element arrays, into
        the (K, 1) column jacobi_all returns, so the sum is the same BLAS
        call.  x * x, not x ** 2: the scalar power differs from NumPy's
        array square in the last bit for some x.
        """
        K, a, b = self.spec.K, self.spec.alpha, self.spec.beta
        t = 2.0 * (x * x) - 1.0
        P = [1.0]
        if K > 1:
            P.append(0.5 * (a + b + 2.0) * t + 0.5 * (a - b))
        for n in range(2, K):
            h = 2.0 * n + a + b
            c1 = 2.0 * n * (n + a + b) * (h - 2.0)
            c2 = (h - 1.0) * (h * (h - 2.0) * t + a * a - b * b)
            c3 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * h
            P.append((c2 * P[n - 1] - c3 * P[n - 2]) / c1)
        return float((self.coeffs @ np.array(P).reshape(K, 1))[0])

    def __call__(self, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.where(r < 1.0, np.abs(1.0 - r**2) ** self.spec.s, 0.0)
        return out * self.poly_part(r)

    def derivative(self, r):
        """u'(r) on [0, 1) via the factored form
        (1-r^2)^{s-1} [ (1-r^2) q'(r) - 2 s r q(r) ]."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
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
        a scan of 2048 cells and bisection."""
        r = np.linspace(0.0, 1.0, 2049)
        q = self.poly_part(r)
        sign = np.sign(q)
        idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        roots = []
        from scipy.optimize import brentq

        for i in idx:
            roots.append(brentq(self.poly_at, r[i], r[i + 1]))
        return roots

    def nodal_count(self):
        """Number of sign changes of the profile on (0, 1)."""
        return len(self.sign_change_radii())
