"""Self-tests of the benchmark's own checks and generators.

    python3 -m pytest bench/test_checks.py

Each check must accept a correct output and reject a deliberately corrupted
one; each generator must give the same corpus for the same seed.
"""

import math
import random

import numpy as np
import pytest

import checks
import corpus
import workloads

# pair_toward_small: v has 2 loops, w has 3, one edge from w to v.  At
# beta = ln 3 the psi state of {w} is m = (1/2, 1/2).
A = np.array([[2, 1], [0, 3]])
LN3 = math.log(3)
PSI = np.array([0.5, 0.5])


@pytest.mark.parametrize("tol", [checks.EXACT, checks.PRINTED])
def test_mass_off_by_1e_6_is_rejected(tol):
    assert checks.measure_failures(A, LN3, PSI, True, tol) == []
    assert checks.measure_failures(A, LN3, PSI + [1e-6, 0.0], True, tol)


def test_psi_breaking_eigen_identity_is_rejected():
    moved = PSI + [1e-4, -1e-4]
    assert abs(moved.sum() - 1.0) < 1e-12
    # still subinvariant, so only the psi identity can catch it
    assert checks.measure_failures(A, LN3, moved, False, checks.EXACT) == []
    assert "A m = e^beta m fails" in checks.measure_failures(A, LN3, moved, True, checks.EXACT)


def test_non_subinvariant_and_negative_measures_are_rejected():
    assert checks.measure_failures(A, 1.0, PSI, False, checks.EXACT)
    assert checks.measure_failures(A, LN3, [1.5, -0.5], False, checks.EXACT)


def test_critical_list_with_an_entry_dropped_is_rejected():
    shape = checks.structure(A)
    expected = checks.critical_values(shape)
    assert expected == pytest.approx([math.log(2), LN3])
    assert checks.critical_list_failures(list(expected), expected) == []
    for k in range(len(expected)):
        assert checks.critical_list_failures(expected[:k] + expected[k + 1:], expected)


def test_radius_off_by_1e_6_is_rejected():
    block = np.array([[0, 1], [2, 0]])
    assert checks.radius_failures(math.sqrt(2), block) == []
    assert checks.radius_failures(math.sqrt(2) * (1 + 1e-6), block)


def test_expected_simplex_matches_the_worked_example():
    shape = checks.structure(A)
    assert checks.expected_simplex(shape, 0.5) == ("Empty", 0)
    assert checks.expected_simplex(shape, math.log(2)) == ("Critical", 1)
    assert checks.expected_simplex(shape, LN3) == ("Critical", 2)
    assert checks.expected_simplex(shape, 1.5) == ("Subcritical", 2)


def test_states_printout_is_parsed_and_checked():
    text = (
        "beta = 1.09861229\ncase: Critical\nH_beta = {}\nK_beta = {v,w}\n"
        "extreme states (1):\n"
        "  psi{w}  type=Infinite factors=yes  m[v]=0.5  m[w]=0.5\n"
    )
    index = {"v": 0, "w": 1}
    assert checks.states_failures(text, A, index, LN3, ("Critical", 1)) == []
    assert checks.states_failures(text.replace("m[w]=0.5", "m[w]=0.500001"),
                                  A, index, LN3, ("Critical", 1))
    assert checks.states_failures(text, A, index, LN3, ("Critical", 2))


def test_chain_closed_form_matches_eigvals():
    text, shape = corpus.chain(random.Random(7), 50)
    M, _ = corpus.matrix(text)
    measured = checks.structure(M)
    assert measured.sizes == shape.sizes
    assert measured.ln_radius == pytest.approx(shape.ln_radius, abs=1e-12)
    assert len(checks.critical_values(shape)) == corpus.CHAIN_RECORDS
    assert checks.critical_values(measured) == pytest.approx(checks.critical_values(shape))


def test_giant_has_one_cyclic_component():
    M, _ = corpus.matrix(corpus.giant(200, random.Random(3)))
    shape = checks.structure(M)
    cyclic = [size for size, ln in zip(shape.sizes, shape.ln_radius) if ln is not None]
    assert cyclic == [160]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first = make(11, tmp_path).generate(2)[0]
    assert make(11, tmp_path).generate(2)[0] == first
    assert make(12, tmp_path).generate(2)[0] != first
    assert make(11, tmp_path).generate(3)[0] != first
