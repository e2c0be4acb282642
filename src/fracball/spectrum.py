"""Spectrum of the fractional Dirichlet Laplacian on the unit ball.

Eigenfunctions factor into a solid harmonic of degree ell times a radial
profile, and the radial profile solves the radial eigenproblem in effective
dimension d = N + 2*ell.  Assembling the full spectrum therefore means
solving one radial problem per angular degree and merging the labelled
eigenvalues with their spherical-harmonic multiplicities.  The second
eigenvalue is the smaller of lambda_{N+2,0} (antisymmetric, ell = 1) and
lambda_{N,1} (radial with one sign change); their ordering is what
verify_conjecture examines.

A potential-free sector depends on (d, s, K) alone, and the same sector
recurs across N (N = 1, ell = 1 is N = 3, ell = 0) and between commands, so
its eigenvalues are solved once per process and memoised.  Its stiffness is
the closed-form diagonal a, so basis.solve_radial_eigs takes its eigenvalues
from the symmetric diag(a)^{-1/2} B diag(a)^{-1/2}, without a Cholesky
factor of B and without eigenvectors.  The convergence estimate of an
eigenvalue is its difference from the K-2 truncation's, which can be
exactly 0.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .basis import (RadialBasisSpec, assemble_radial_operator, sector_spec,
                    solve_radial_eigs)
from .errors import TruncationUnsafe
from .nonlocal_quadrature import stiffness_oracle_gate
from .params import harmonic_multiplicity
from .truncation import angular_sectors


@dataclass(frozen=True)
class SpectrumEntry:
    """One labelled eigenvalue lambda_{N+2*ell, n} of the ball problem."""

    ell: int
    n: int
    lam: float
    multiplicity: int
    convergence: float
    coincident: bool


@dataclass
class SpectrumLabeled:
    """Merged, ascending eigenvalue list with truncation bookkeeping."""

    entries: list
    ell_max: int
    truncation_safe: bool
    sentinel_lam: float

    def below(self, threshold):
        """Total multiplicity of eigenvalues strictly below threshold."""
        return sum(e.multiplicity for e in self.entries if e.lam < threshold)


@dataclass(frozen=True)
class RadialSector:
    """Ascending eigenvalues of one potential-free radial sector and their
    convergence estimates (against the K-2 truncation), as read-only arrays."""

    spec: RadialBasisSpec
    eigenvalues: np.ndarray
    convergence: np.ndarray


@functools.lru_cache(maxsize=1024)
def solve_sector(spec):
    """The RadialSector of spec, solved once per process.

    Keyed on the exact spec (s is not rounded), and holding values only:
    the operator pair is dropped and no eigenvectors are computed, so the
    memo stays small.
    """
    res = solve_radial_eigs(assemble_radial_operator(spec))
    for arr in (res.eigenvalues, res.convergence):
        arr.flags.writeable = False
    return RadialSector(spec, res.eigenvalues, res.convergence)


def radial_family(params, ell, K, oracle_budget=None):
    """Radial eigenproblem for angular degree ell (effective d = N + 2*ell).

    With oracle_budget set, the stiffness gate runs on every call, memoised
    sector or not, and a failing gate raises OracleMismatch.
    """
    spec = sector_spec(params, ell, K)
    stiffness_oracle_gate(spec, oracle_budget)
    return solve_sector(spec)


def assemble_full_spectrum(params, ell_max, n_max, K, oracle_budget=None, jobs=1):
    """Solve all angular sectors up to ell_max and merge.

    The truncation-safety flag is true when the smallest eigenvalue of the
    next angular sector beyond ell_max exceeds every reported eigenvalue, so
    (by monotonicity of the first radial eigenvalue in the effective
    dimension) no low eigenvalue can hide above the truncation.  With no
    sentinel (truncation.angular_sectors: N = 1, ell_max >= 1) it is true.
    """
    ells, sentinel_ell = angular_sectors(params.N, ell_max)

    def solve(ell):
        return ell, radial_family(params, ell, K, oracle_budget=oracle_budget)

    todo = list(ells) + ([] if sentinel_ell is None else [sentinel_ell])
    if jobs > 1:
        # imported here: concurrent.futures brings logging, a few ms that a
        # process without --jobs need not pay
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = dict(pool.map(solve, todo))
    else:
        results = dict(solve(ell) for ell in todo)

    # (ell, n, lam, convergence), stably sorted by lam
    rows = sorted(((ell, n, float(results[ell].eigenvalues[n]),
                    float(results[ell].convergence[n]))
                   for ell in ells for n in range(min(n_max + 1, K))),
                  key=lambda row: row[2])

    def coincident(i):
        """An accidental near-coincidence with a neighbour of another
        sector, flagged instead of merged."""
        ell, _, lam, conv = rows[i]
        return any(0 <= k < len(rows) and rows[k][0] != ell
                   and abs(rows[k][2] - lam) <= conv + rows[k][3]
                   for k in (i - 1, i + 1))

    entries = [SpectrumEntry(ell, n, lam, harmonic_multiplicity(params.N, ell),
                             conv, coincident(i))
               for i, (ell, n, lam, conv) in enumerate(rows)]
    sentinel_lam = (float("inf") if sentinel_ell is None
                    else float(results[sentinel_ell].eigenvalues[0]))
    safe = sentinel_lam > max(e.lam for e in entries)
    return SpectrumLabeled(entries, ells[-1], safe, sentinel_lam)


def second_eigenvalue(params, K):
    """(lambda_2, label, gap) with gap = lambda_{N,1} - lambda_{N+2,0}.

    Reports which of the two candidates wins; it does not assume the
    antisymmetric one does.  Raises TruncationUnsafe when the convergence
    estimates exceed half the gap.
    """
    rep = verify_conjecture(params, K)
    gap = rep.gap
    if rep.error_bar > abs(gap) / 2.0:
        raise TruncationUnsafe(
            f"convergence estimate {rep.error_bar:.2e} exceeds half the gap "
            f"{gap:.2e}; raise K"
        )
    if rep.lam_antisymmetric <= rep.lam_radial_excited:
        return rep.lam_antisymmetric, (1, 0), gap
    return rep.lam_radial_excited, (0, 1), gap


@dataclass
class ConjectureReport:
    """Outcome of the second-eigenvalue ordering check for one (N, s)."""

    lam_antisymmetric: float  # lambda_{N+2,0}
    lam_radial_excited: float  # lambda_{N,1}
    gap: float
    error_bar: float
    verdict: str  # 'yes' | 'no' | 'inconclusive'
    second_eigenspace_antisymmetric: bool
    multiplicity: int


def verify_conjecture(params, K, oracle_budget=None):
    """Check lambda_{N+2,0} < lambda_{N,1} with convergence error bars.

    Verdict 'yes' only when the ordering holds with margin exceeding the
    combined error bars; an undersized margin yields 'inconclusive', never
    'yes'.  When the verdict is 'yes' the second eigenspace is spanned by
    x_j * phi(|x|), which is antisymmetric under x -> -x.
    """
    res0 = radial_family(params, 0, K, oracle_budget=oracle_budget)
    res1 = radial_family(params, 1, K, oracle_budget=oracle_budget)
    lam_anti = float(res1.eigenvalues[0])
    lam_rad = float(res0.eigenvalues[1])
    gap = lam_rad - lam_anti
    bar = float(res1.convergence[0] + res0.convergence[1])
    if gap > bar:
        verdict = "yes"
    elif gap < -bar:
        verdict = "no"
    else:
        verdict = "inconclusive"
    return ConjectureReport(
        lam_antisymmetric=lam_anti,
        lam_radial_excited=lam_rad,
        gap=gap,
        error_bar=bar,
        verdict=verdict,
        second_eigenspace_antisymmetric=(verdict == "yes"),
        multiplicity=harmonic_multiplicity(params.N, 1),
    )
