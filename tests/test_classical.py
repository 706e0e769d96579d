from math import gcd

import pytest
from hypothesis import given, strategies as st

from hpseries.classical import (
    ClassicalError,
    ClassicalParams,
    QuadraturePolicy,
    bessel_j,
    bessel_j_with_bound,
    classical_poincare_coefficient_by_quadrature,
    delta_coefficients,
    kloosterman,
    nonvanishing_range_scan,
    normalized_coefficient,
    petersson_coefficient,
)


def test_params_validation():
    with pytest.raises(ClassicalError):
        ClassicalParams(m=0, n=1, k=12, q=1)
    with pytest.raises(ClassicalError):
        ClassicalParams(m=1, n=1, k=11, q=1)  # odd weight
    with pytest.raises(ClassicalError):
        ClassicalParams(m=1, n=1, k=2, q=1)   # below 4


# -- Kloosterman sums ----------------------------------------------------------

def test_kloosterman_examples():
    assert kloosterman(3, 7, 1) == 1.0
    assert kloosterman(1, 1, 2) == pytest.approx(1.0, abs=1e-12)
    assert kloosterman(1, 1, 3) == pytest.approx(-1.0, abs=1e-12)


def test_kloosterman_vanishes_for_eight_dividing_c():
    # S(1,2;c) = 0 whenever 8 | c: x^2 = 2 has no odd solution mod 8
    for c in (8, 16, 24, 32, 40):
        assert abs(kloosterman(1, 2, c)) < 1e-10


@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 120))
def test_kloosterman_symmetry(m, n, c):
    assert kloosterman(m, n, c) == pytest.approx(kloosterman(n, m, c),
                                                 abs=1e-9)


@given(st.integers(1, 12), st.integers(1, 12),
       st.sampled_from([(3, 4), (3, 5), (4, 5), (5, 7), (8, 9), (7, 13)]))
def test_kloosterman_multiplicativity(m, n, c_pair):
    c1, c2 = c_pair
    assert gcd(c1, c2) == 1
    c2_inv_sq = pow(c2, -2, c1)
    c1_inv_sq = pow(c1, -2, c2)
    lhs = kloosterman(m, n, c1 * c2)
    rhs = kloosterman(m * c2_inv_sq % c1, n, c1) * \
        kloosterman(m * c1_inv_sq % c2, n, c2)
    assert lhs == pytest.approx(rhs, abs=1e-8)


@given(st.integers(1, 20), st.integers(1, 20), st.integers(1, 200))
def test_kloosterman_trivial_bound(m, n, c):
    phi = sum(1 for x in range(1, c + 1) if gcd(x, c) == 1)
    assert abs(kloosterman(m, n, c)) <= phi + 1e-9


# -- Bessel J --------------------------------------------------------------------

def test_bessel_zero_argument():
    for order in (3, 5, 11, 23):
        assert bessel_j(order, 0.0) == 0.0


def test_bessel_self_validating_remainder():
    value, remainder = bessel_j_with_bound(11, 1.0)
    assert remainder < 1e-15
    assert value == pytest.approx(1.1980067463031372e-11, rel=1e-12)


@given(st.integers(4, 30), st.floats(0.5, 200.0))
def test_bessel_recurrence_identity(order, x):
    lhs = bessel_j(order - 1, x) + bessel_j(order + 1, x)
    rhs = 2 * order / x * bessel_j(order, x)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_bessel_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for order, x in [(11, 12.566), (23, 17.7715), (15, 49.9), (11, 55.0),
                     (39, 37.7), (3, 900.0)]:
        want = float(mp.besselj(order, x))
        assert bessel_j(order, x) == pytest.approx(want, abs=1e-12)


def test_bessel_domain_checks():
    with pytest.raises(ClassicalError):
        bessel_j(2, 1.0)
    with pytest.raises(ClassicalError):
        bessel_j(5, -1.0)
    with pytest.raises(ClassicalError):
        bessel_j(5, 1001.0)


# -- Petersson formula vs quadrature ---------------------------------------------

@pytest.mark.parametrize("m,n,k,q", [
    (1, 1, 12, 1), (1, 2, 12, 1), (2, 1, 12, 2), (2, 3, 16, 2),
    (3, 3, 16, 1), (1, 3, 12, 1),
])
def test_oracle_agreement(m, n, k, q):
    params = ClassicalParams(m=m, n=n, k=k, q=q)
    pet = petersson_coefficient(params, 1000)
    quad = classical_poincare_coefficient_by_quadrature(params)
    assert abs(pet.value - quad) < 1e-6
    assert pet.tail_bound >= 0


def test_tau_ratio_anchor():
    p1 = petersson_coefficient(ClassicalParams(1, 1, 12, 1), 1000).value
    p2 = petersson_coefficient(ClassicalParams(1, 2, 12, 1), 1000).value
    p3 = petersson_coefficient(ClassicalParams(1, 3, 12, 1), 1000).value
    assert p2 / p1 == pytest.approx(-24.0, abs=1e-4)
    assert p3 / p1 == pytest.approx(252.0, abs=1e-3)


def test_weight_orthogonality_trend():
    """The delta-normalized coefficient decays once the Bessel order passes
    the fixed argument 4 pi sqrt(2); strictly decreasing on {16,...,28}."""
    vals = [abs(normalized_coefficient(ClassicalParams(1, 2, k, 1), 600).value)
            for k in (16, 20, 24, 28)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 5e-3


def test_level_orthogonality_trend():
    vals = [abs(normalized_coefficient(ClassicalParams(1, 2, 12, q),
                                       1300).value)
            for q in (2, 3, 5, 13)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-9


def test_delta_dominance_large_weight():
    params = ClassicalParams(1, 1, 40, 1)
    val = classical_poincare_coefficient_by_quadrature(params)
    assert abs(val - 1.0) < 1e-6


def test_identity_only_at_huge_level():
    policy = QuadraturePolicy(grid_n=32, y=1.2, c_max=30, d_window=6.0)
    same = classical_poincare_coefficient_by_quadrature(
        ClassicalParams(2, 2, 12, 37), policy)
    diff = classical_poincare_coefficient_by_quadrature(
        ClassicalParams(2, 3, 12, 37), policy)
    assert same == pytest.approx(1.0, abs=1e-10)
    assert diff == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("y", [1.0, 0.0, -1.0])
def test_quadrature_auto_rejects_low_fiber(y):
    with pytest.raises(ClassicalError, match="y > 1"):
        QuadraturePolicy.auto(ClassicalParams(1, 2, 12, 1), y=y)


def test_petersson_requires_cmax_at_least_q():
    with pytest.raises(ClassicalError):
        petersson_coefficient(ClassicalParams(1, 1, 12, 5), 3)


# -- Ramanujan tau oracle ----------------------------------------------------------

def test_tau_values():
    taus = delta_coefficients(30)
    assert taus[0] == 1
    assert taus[1] == -24
    assert taus[2] == 252
    assert taus[5] == taus[1] * taus[2]  # multiplicativity at 6 = 2*3
    for p in (2, 3, 5):
        assert taus[p * p - 1] == taus[p - 1] ** 2 - p ** 11


def test_tau_bounds_checked():
    with pytest.raises(ClassicalError):
        delta_coefficients(0)
    with pytest.raises(ClassicalError):
        delta_coefficients(10_001)


# -- non-vanishing scan -------------------------------------------------------------

def test_scan_small_weights_all_certified():
    scan = nonvanishing_range_scan(12, 10, 400)
    assert [m for m, _ in scan] == list(range(1, 11))
    assert all(cert for _, cert in scan)
    taus = delta_coefficients(10)
    assert all(t != 0 for t in taus)  # P_m ~ tau(m) Delta: consistent


def test_scan_empty():
    assert nonvanishing_range_scan(12, 0, 100) == []


def test_scan_fixed_index_across_weights():
    for k in (12, 16, 24, 32, 40):
        scan = nonvanishing_range_scan(k, 1, 300)
        assert scan[0] == (1, True)
