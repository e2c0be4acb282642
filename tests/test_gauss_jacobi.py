"""quadrature.gauss_jacobi against a 40-digit mpmath rule, and against
scipy's roots_legendre and roots_jacobi, which the package no longer
imports: the Legendre rule bit for bit, the others as a second float rule
measured against the same reference."""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from fracball.quadrature import gauss_jacobi

EPS = np.finfo(float).eps


def _mp_rule(n, a, b, x0):
    """The rule to 40 digits: two Newton steps on P_n^{(a,b)} from the float
    nodes x0 in 40-digit arithmetic, and the closed-form weights
    2^{a+b+1} Gamma(n+a+1) Gamma(n+b+1) / (Gamma(n+a+b+1) n!
    (1 - x^2) P_n'(x)^2), P_n' from P_{n-1} and P_n."""
    with mp.workdps(40):
        a, b = mp.mpf(a), mp.mpf(b)
        steps = []
        for k in range(2, n + 1):
            h = 2 * k + a + b
            c1 = 2 * k * (k + a + b) * (h - 2)
            steps.append(((h - 1) * h * (h - 2) / c1, (h - 1) * (a * a - b * b) / c1,
                          2 * (k + a - 1) * (k + b - 1) * h / c1))
        h = 2 * n + a + b
        c = (2 ** (a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
             / (mp.gamma(n + a + b + 1) * mp.factorial(n)))

        def value_and_slope(x):
            p0, p1 = mp.mpf(1), ((a + b + 2) * x + (a - b)) / 2
            for A, B, C in steps:
                p0, p1 = p1, (A * x + B) * p1 - C * p0
            slope = ((n * ((a - b) - h * x) * p1 + 2 * (n + a) * (n + b) * p0)
                     / (h * (1 - x) * (1 + x)))
            return p1, slope

        nodes, weights = [], []
        for x in map(mp.mpf, x0.tolist()):
            for _ in range(2):
                p, dp = value_and_slope(x)
                x -= p / dp
            nodes.append(x)
            weights.append(c / ((1 - x) * (1 + x) * dp ** 2))
        return nodes, weights


def _node_error(x, ref):
    return max(float(abs(u - v)) for u, v in zip(x.tolist(), ref))


def _weight_error(w, ref):
    return max(float(abs(u / v - 1)) for u, v in zip(w.tolist(), ref))


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.0, -0.7), (1.4, 0.5), (0.1, 5.0)])
@pytest.mark.parametrize("n", [12, 40, 98, 196])
def test_gauss_jacobi_matches_a_40_digit_rule(n, a, b):
    x, w = gauss_jacobi(n, a, b)
    ref_x, ref_w = _mp_rule(n, a, b, x)
    sx, sw = roots_jacobi(n, a, b)
    assert np.all(np.diff(x) > 0.0)
    # measured at most 1.8 eps from the reference node over n = 5 .. 196 and
    # twelve (a, b), as scipy's nodes are
    assert _node_error(x, ref_x) <= 4.0 * EPS
    assert _node_error(sx, ref_x) <= 4.0 * EPS
    # a weight takes p_n' at the eigenvalue, not at the stepped node: near
    # +-1, p_n''/p_n' is about n^2 and the step up to about n eps, so the
    # weights carry about n^3 eps, as scipy's do: on this grid at most
    # 0.41 n^3 eps (scipy's 0.45); over the wider sweep 0.81 (scipy's 1.26)
    assert _weight_error(w, ref_w) <= n**3 * EPS
    assert _weight_error(sw, ref_w) <= 2.0 * n**3 * EPS


def test_legendre_rule_is_scipys_bit_for_bit():
    # every node at every order, every weight at even orders; at odd orders
    # scipy takes p_{n-1} at the middle node from a power series
    for n in range(1, 201):
        x, w = gauss_jacobi(n, 0.0, 0.0)
        sx, sw = roots_legendre(n)
        assert np.array_equal(x, sx), n
        if n % 2 == 0:
            assert np.array_equal(w, sw), n
        else:
            assert np.allclose(w, sw, rtol=n**3 * EPS, atol=0.0), n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gauss_jacobi_low_orders_are_exact(n):
    # x^k (1 + x)^b against its exact moment, k < 2n
    a, b = 0.3, -0.4
    x, w = gauss_jacobi(n, a, b)
    for k in range(2 * n):
        with mp.workdps(30):
            exact = float(mp.quad(lambda t: t**k * (1 - t) ** a * (1 + t) ** b, [-1, 0, 1]))
        assert float(np.dot(w, x**k)) == pytest.approx(exact, rel=1e-14, abs=1e-14)


def test_legendre_rule_is_symmetric():
    x, w = gauss_jacobi(41, 0.0, 0.0)
    assert np.array_equal(x, -x[::-1]) and x[20] == 0.0
    assert np.array_equal(w, w[::-1])
    assert w.sum() == pytest.approx(2.0, rel=1e-15)
