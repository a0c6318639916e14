"""Checks of the benchmark's reference module against the paper's witness
values and the Bayesian identity.  Run with

    python3 -m pytest bench/test_reference.py
"""

import math
from fractions import Fraction

import numpy as np

import reference as ref


def test_paper_witness_quantum_point():
    r = ref.quantum_rates(math.pi / 3, math.pi / 4)
    assert round(float(ref.accardi(r)), 6) == 1.183013
    assert round(float(ref.boost(r)), 6) == 0.138071


def test_quantum_rates_are_born_rule_cosines():
    rng = np.random.default_rng(7)
    phi, alpha = rng.random((2, 1000)) * math.pi
    r = ref.quantum_rates(phi, alpha)
    np.testing.assert_allclose(r.p_r, np.cos(phi / 2) ** 2, atol=1e-15)
    np.testing.assert_allclose(r.p_x_r, np.cos(alpha / 2) ** 2, atol=1e-15)
    np.testing.assert_allclose(r.p_x_n, np.sin(alpha / 2) ** 2, atol=1e-15)
    np.testing.assert_allclose(r.p_x, np.cos((phi - alpha) / 2) ** 2, atol=1e-15)
    np.testing.assert_allclose(
        ref.interference_gap(r), np.sin(phi) * np.sin(alpha) / 2, atol=1e-15
    )


def test_classical_accardi_is_the_prior():
    rng = np.random.default_rng(11)
    p, q_r, q_n = rng.random((3, 1000))
    keep = np.abs(q_r - q_n) > 1e-3
    r = ref.classical_rates(p[keep], q_r[keep], q_n[keep])
    a = ref.accardi(r)
    assert np.all(np.abs(a - p[keep]) <= ref.tolerance(a, ref.accardi_denominator(r)))
    np.testing.assert_allclose(ref.interference_gap(r), 0.0, atol=1e-15)


def test_counts_are_exact():
    # p = 2/5, q_r = 3/4, q_n = 1/5 and N_X from total probability: A = p
    c = ref.from_counts(100, 40, 30, 12, 42)
    assert c.accardi == Fraction(2, 5)
    assert c.boost == Fraction(11, 14)  # P(R|X) = 5/7
    assert ref.from_counts(100, 40, 20, 30, 50).accardi is None
    assert ref.from_counts(100, 40, 0, 0, 5).boost is None
