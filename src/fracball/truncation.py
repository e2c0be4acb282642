"""Truncation policy: the radial basis size K and the angular cut ell_max.

Every command and criterion takes its starting values, caps and refinement
rules from here.
"""

import numpy as np

from .errors import TruncationUnsafe

K_START = 24  # basis size unless configured (trunc.K)
ELL_START = 3  # angular cut unless configured (trunc.ell-max)
TAIL_TOL = 1e-4  # resolved: last coefficients below TAIL_TOL of the largest
K_CAP = 192
ELL_CAP = 8  # largest ell_max the Morse-index escalation tries


def coefficient_tail(coeffs):
    """Largest |c_n| among the last four coefficients, relative to max |c_n|:
    the truncation indicator of a Jacobi expansion."""
    a = np.abs(np.asarray(coeffs, dtype=float))
    return float(a[-4:].max() / a.max())


def next_K(coeffs):
    """Doubled basis size (at most K_CAP) while the coefficient tail is above
    TAIL_TOL, else None; TruncationUnsafe if it is still above at K_CAP."""
    tail = coefficient_tail(coeffs)
    if not tail > TAIL_TOL:
        return None
    if len(coeffs) >= K_CAP:
        raise TruncationUnsafe(
            f"coefficient tail {tail:.2e} above {TAIL_TOL:g} at the "
            f"cap K={K_CAP}")
    return min(2 * len(coeffs), K_CAP)


def coarse_K(K):
    """Basis size of the coarser re-solve behind a truncation estimate, or
    None below 8."""
    K_c = K - max(6, K // 4)
    return K_c if K_c >= 8 else None


def escalate_ell(count):
    """count(ell_max), raising ell_max from ELL_START up to ELL_CAP while it
    raises TruncationUnsafe."""
    ell_max = ELL_START
    while True:
        try:
            return count(ell_max)
        except TruncationUnsafe:
            if ell_max >= ELL_CAP:
                raise
            ell_max += 1


def angular_sectors(N, ell_max):
    """(sectors to solve, sentinel sector beyond the cut, or None).

    For N = 1 the parity classes ell = 0, 1 are exhaustive, so once both
    are solved there is no sentinel.
    """
    if N == 1 and ell_max >= 1:
        return range(2), None
    return range(ell_max + 1), ell_max + 1
