import pytest

from fracball.params import ProblemParams, harmonic_multiplicity
from fracball.spectrum import (assemble_full_spectrum, second_eigenvalue,
                               verify_conjecture)


@pytest.fixture(scope="module")
def spectrum_n3():
    return assemble_full_spectrum(ProblemParams(3, 0.5), ell_max=3, n_max=4, K=20)


def test_entries_sorted_with_multiplicities(spectrum_n3):
    lams = [e.lam for e in spectrum_n3.entries]
    assert lams == sorted(lams)
    for e in spectrum_n3.entries:
        assert e.multiplicity == harmonic_multiplicity(3, e.ell)


def test_ground_state_radial_and_simple(spectrum_n3):
    first = spectrum_n3.entries[0]
    assert first.ell == 0 and first.n == 0 and first.multiplicity == 1


def test_below_counts_multiplicity(spectrum_n3):
    lam_21 = next(e.lam for e in spectrum_n3.entries if (e.ell, e.n) == (0, 1))
    # Strictly below lambda_{3,1}: the ground state (1) plus the ell = 1
    # triple (3) plus the ell = 2 quintuple (5).
    assert spectrum_n3.below(lam_21) == 9


def test_second_eigenvalue_is_antisymmetric_sector():
    lam2, label, gap = second_eigenvalue(ProblemParams(2, 0.5), 20)
    assert label == (1, 0)
    assert gap > 0.0
    full = assemble_full_spectrum(ProblemParams(2, 0.5), 2, 3, 20)
    assert lam2 == pytest.approx(full.entries[1].lam, rel=1e-12)


@pytest.mark.parametrize("N,s", [(1, 0.25), (2, 0.5), (4, 0.75), (6, 0.1)])
def test_conjecture_verdict_yes(N, s):
    rep = verify_conjecture(ProblemParams(N, s), 24)
    assert rep.verdict == "yes"
    assert rep.gap > rep.error_bar
    assert rep.second_eigenspace_antisymmetric
    assert rep.multiplicity == harmonic_multiplicity(N, 1)


def test_one_dimensional_parity_decomposition_exhaustive():
    spec = assemble_full_spectrum(ProblemParams(1, 0.5), ell_max=3, n_max=3, K=20)
    assert spec.ell_max == 1  # parity classes only
    assert spec.truncation_safe
    assert all(e.multiplicity == 1 for e in spec.entries)


def test_parallel_assembly_matches_serial():
    serial = assemble_full_spectrum(ProblemParams(3, 0.6), 3, 3, 16, jobs=1)
    parallel = assemble_full_spectrum(ProblemParams(3, 0.6), 3, 3, 16, jobs=4)
    assert [(e.ell, e.n, e.lam) for e in serial.entries] == \
        [(e.ell, e.n, e.lam) for e in parallel.entries]


def test_sentinel_truncation_flag():
    # With a generous n_max the top reported eigenvalues exceed the first
    # eigenvalue of the sector beyond ell_max, so the merge is flagged.
    spec = assemble_full_spectrum(ProblemParams(2, 0.5), ell_max=1, n_max=8, K=16)
    assert not spec.truncation_safe
    assert spec.sentinel_lam < max(e.lam for e in spec.entries)
