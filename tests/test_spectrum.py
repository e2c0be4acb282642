from collections import Counter

import pytest

from fracball import cli, spectrum
from fracball.config import CampaignConfig
from fracball.params import ProblemParams, harmonic_multiplicity
from fracball.report import render_json
from fracball.spectrum import (assemble_full_spectrum, radial_family,
                               second_eigenvalue, solve_sector,
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
    solve_sector.cache_clear()  # else the pool only reads the memo
    parallel = assemble_full_spectrum(ProblemParams(3, 0.6), 3, 3, 16, jobs=4)
    assert [(e.ell, e.n, e.lam) for e in serial.entries] == \
        [(e.ell, e.n, e.lam) for e in parallel.entries]


def test_sentinel_truncation_flag():
    # With a generous n_max the top reported eigenvalues exceed the first
    # eigenvalue of the sector beyond ell_max, so the merge is flagged.  At
    # N = 1 and ell_max = 0 that sector is the odd parity class.
    for N, ell_max, n_max, K in [(2, 1, 8, 16), (1, 0, 2, 24)]:
        spec = assemble_full_spectrum(ProblemParams(N, 0.5), ell_max=ell_max,
                                      n_max=n_max, K=K)
        assert not spec.truncation_safe
        assert spec.sentinel_lam < max(e.lam for e in spec.entries)


@pytest.fixture
def assembled(monkeypatch):
    """Counts the potential-free assemblies by spec."""
    counts = Counter()
    assemble = spectrum.assemble_radial_operator

    def counted(spec):
        counts[spec] += 1
        return assemble(spec)

    monkeypatch.setattr(spectrum, "assemble_radial_operator", counted)
    return counts


def test_sector_shared_across_dimension_split(assembled):
    # N = 1, ell = 1 and N = 3, ell = 0 are the same radial problem, d = 3
    a = radial_family(ProblemParams(1, 0.3), 1, 16)
    b = radial_family(ProblemParams(3, 0.3), 0, 16)
    assert sum(assembled.values()) == 1
    assert a is b


def test_eigs_point_solves_each_sector_once(assembled):
    params = ProblemParams(2, 0.5)
    assemble_full_spectrum(params, 2, 3, 20)
    second_eigenvalue(params, 20)
    # sectors ell = 0, 1, 2 and the sentinel ell = 3
    assert sorted(spec.d for spec in assembled) == [2, 4, 6, 8]
    assert set(assembled.values()) == {1}


def test_sector_arrays_read_only():
    res = radial_family(ProblemParams(2, 0.5), 0, 12)
    for arr in (res.eigenvalues, res.convergence):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_eigs_and_conjecture_records_same_cold_and_warm():
    cfg = CampaignConfig(grid_N=[1, 2, 3], grid_s=[0.3, 0.75], trunc_K=16,
                         trunc_ell_max=2)

    commands = (cli.cmd_eigs, cli.cmd_conjecture)
    cold = []
    for command in commands:
        solve_sector.cache_clear()
        cold.append(render_json(command(cfg)[0]))
    solve_sector.cache_clear()
    for _ in range(2):  # the second pass solves nothing
        misses = solve_sector.cache_info().misses
        warm = [render_json(command(cfg)[0]) for command in commands]
        assert warm == cold
    assert solve_sector.cache_info().misses == misses
