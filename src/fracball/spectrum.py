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
its eigenvalues are solved once per process and memoised.
"""

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .basis import (RadialBasisSpec, assemble_radial_operator,
                    solve_radial_eigs, stiffness_matrix, stiffness_oracle_gate)
from .errors import TruncationUnsafe
from .params import ProblemParams, harmonic_multiplicity
from .truncation import angular_sectors


@dataclass(frozen=True)
class SpectrumEntry:
    """One labelled eigenvalue lambda_{N+2*ell, n} of the ball problem."""

    ell: int
    n: int
    lam: float
    multiplicity: int
    convergence: float
    coincident: bool = False


@dataclass
class SpectrumLabeled:
    """Merged, ascending eigenvalue list with truncation bookkeeping."""

    params: ProblemParams
    entries: list
    ell_max: int
    n_max: int
    K: int
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
    the operator pair and eigenvectors are dropped, so the memo stays small.
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
    harmonic_multiplicity(params.N, ell)  # validates ell for this N
    spec = RadialBasisSpec(params.N + 2 * ell, params.s, K)
    if oracle_budget is not None:
        stiffness_oracle_gate(spec, stiffness_matrix(spec), oracle_budget)
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
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = dict(pool.map(solve, todo))
    else:
        results = dict(solve(ell) for ell in todo)

    entries = []
    for ell in ells:
        res = results[ell]
        mult = harmonic_multiplicity(params.N, ell)
        for n in range(min(n_max + 1, K)):
            entries.append(SpectrumEntry(ell, n, float(res.eigenvalues[n]), mult,
                                         float(res.convergence[n])))
    entries.sort(key=lambda e: e.lam)

    # flag accidental near-coincidences across sectors instead of merging them
    flagged = []
    for i, e in enumerate(entries):
        near = False
        for k in (i - 1, i + 1):
            if 0 <= k < len(entries) and entries[k].ell != e.ell:
                tol = e.convergence + entries[k].convergence
                if abs(entries[k].lam - e.lam) <= tol:
                    near = True
        flagged.append(SpectrumEntry(e.ell, e.n, e.lam, e.multiplicity,
                                     e.convergence, coincident=near))

    sentinel_lam = (float("inf") if sentinel_ell is None
                    else float(results[sentinel_ell].eigenvalues[0]))
    safe = sentinel_lam > max(e.lam for e in flagged)
    return SpectrumLabeled(params, flagged, ells[-1], n_max, K, safe,
                           sentinel_lam)


def second_eigenvalue(params, K, oracle_budget=None):
    """(lambda_2, label, gap) with gap = lambda_{N,1} - lambda_{N+2,0}.

    Reports which of the two candidates wins; it does not assume the
    antisymmetric one does.  Raises TruncationUnsafe when the convergence
    estimates exceed half the gap.
    """
    rep = verify_conjecture(params, K, oracle_budget=oracle_budget)
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

    params: ProblemParams
    K: int
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
        params=params,
        K=K,
        lam_antisymmetric=lam_anti,
        lam_radial_excited=lam_rad,
        gap=gap,
        error_bar=bar,
        verdict=verdict,
        second_eigenspace_antisymmetric=(verdict == "yes"),
        multiplicity=harmonic_multiplicity(params.N, 1),
    )
