import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, pi
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hpseries import classical as cla
from hpseries.classical import (
    ClassicalError,
    ClassicalParams,
    QuadraturePolicy,
    TWO_PI,
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
    # non-integers, bool included: the shared Kloosterman and Bessel rows
    # are keyed by these values
    for bad in (dict(m=1.5), dict(k=12.0), dict(q=2.0), dict(m=True),
                dict(n=np.int64(2)), dict(q="1")):
        with pytest.raises(ClassicalError, match="must be an int"):
            ClassicalParams(**{**dict(m=1, n=1, k=12, q=1), **bad})


_PARAMS = ClassicalParams(1, 2, 12, 1)


@pytest.mark.parametrize("call,args", [
    pytest.param(kloosterman, (1, 2, 5.5), id="kloosterman-c-float"),
    pytest.param(kloosterman, (1.5, 2, 7), id="kloosterman-m-float"),
    pytest.param(kloosterman, (1, 2, True), id="kloosterman-c-bool"),
    pytest.param(petersson_coefficient, (_PARAMS, 10.5), id="cmax-float"),
    pytest.param(petersson_coefficient, (_PARAMS, True), id="cmax-bool"),
    pytest.param(bessel_j, (3.0, 5.0), id="bessel-order-float"),
    pytest.param(bessel_j_with_bound, (3.0, 5.0), id="bessel-bound-float"),
    pytest.param(delta_coefficients, (3.0,), id="tau-nmax-float"),
    pytest.param(nonvanishing_range_scan, (12, 2.0, 100), id="scan-float"),
])
def test_integer_arguments_take_ints_only(call, args):
    with pytest.raises(ClassicalError, match="must be an int"):
        call(*args)


_PARAMS_TUPLE = (1, 2, 12, 1)


@pytest.mark.parametrize("call,args,match", [
    *(pytest.param(f, (3, x), "x must be a real number", id=f"{name}-{i}")
      for f, name in ((bessel_j, "bessel"),
                      (bessel_j_with_bound, "bessel-bound"))
      for i, x in (("str", "5"), ("none", None), ("complex", 5j),
                   ("bool", True))),
    pytest.param(QuadraturePolicy, (10.0, 64, "2"), "y must be a real",
                 id="policy-y-str"),
    pytest.param(QuadraturePolicy, ("10", 64, 1.1), "radius must be a real",
                 id="policy-radius-str"),
    pytest.param(QuadraturePolicy.auto, (_PARAMS, "1e-8"), "tol must be",
                 id="auto-tol-str"),
    pytest.param(QuadraturePolicy.auto, (_PARAMS, 1e-8, None), "y must be",
                 id="auto-y-none"),
    *(pytest.param(f, (_PARAMS_TUPLE, *rest), "params must be "
                   "ClassicalParams", id=f"{name}-tuple")
      for f, name, rest in (
          (petersson_coefficient, "petersson", (50,)),
          (normalized_coefficient, "normalized", (50,)),
          (QuadraturePolicy.auto, "auto", ()),
          (classical_poincare_coefficient_by_quadrature, "quadrature", ()),
          (classical_poincare_coefficient_by_quadrature, "quadrature-policy",
           (QuadraturePolicy(radius=10.0),)))),
    *(pytest.param(nonvanishing_range_scan, (k, 3, 50), "k must be an int",
                   id=f"scan-k-{name}")
      for name, k in (("str", "12"), ("none", None))),
])
def test_real_and_params_arguments_are_type_checked(call, args, match):
    """Library callers passing a non-real number or a tuple for params get
    ClassicalError, not a bare TypeError or AttributeError."""
    with pytest.raises(ClassicalError, match=match):
        call(*args)


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


def test_bessel_with_bound_domain():
    """The bounded series has bessel_j's domain: order >= 3 and
    0 <= x <= 1000 (a negative x once gave J_3(-2.5) a wrong value with a
    negative remainder)."""
    for order, x in [(2, 1.0), (0, 0.5), (3, -2.5), (11, -1e-9),
                     (11, 1000.5), (3, math.nan)]:
        with pytest.raises(ClassicalError):
            bessel_j_with_bound(order, x)
    for order, x in [(3, 0.0), (3, 50.0), (11, 50.5)]:
        value, remainder = bessel_j_with_bound(order, x)
        assert value == bessel_j(order, x) and 0.0 <= remainder <= 1e-13


@pytest.mark.parametrize("order,x", [(3, 50.5), (11, 55.0), (30, 100.0),
                                     (4, 200.0), (3, 500.0), (3, 1000.0),
                                     (500, 1000.0)])
def test_bessel_remainder_proved_past_50(order, x):
    """Past x = 50 the series still stops with a small remainder, and the
    value lies within that remainder plus its rounding of J_order(x)."""
    mp = pytest.importorskip("mpmath")
    value, remainder = bessel_j_with_bound(order, x)
    assert 0.0 <= remainder <= 1e-13
    with mp.workdps(50):
        err = abs(mp.mpf(value) - mp.besselj(order, x))
    assert err <= remainder + 2.0 ** -52 * abs(value)
    assert bessel_j(order, x) == value


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
    # the first row, c = 37, has c y = 44.4 > 40: no row is walked
    policy = QuadraturePolicy(radius=40.0, grid_n=32, y=1.2)
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


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_quadrature_policy_rejects_bad_radius(radius):
    with pytest.raises(ClassicalError, match="radius must be finite"):
        QuadraturePolicy(radius=radius)


@pytest.mark.parametrize("grid_n", [64.0, True], ids=["float", "bool"])
def test_quadrature_policy_rejects_non_int_grid(grid_n):
    with pytest.raises(ClassicalError, match="grid_n must be an int"):
        QuadraturePolicy(radius=40.0, grid_n=grid_n)
    with pytest.raises(ClassicalError, match="grid_n must be an int"):
        QuadraturePolicy.auto(ClassicalParams(1, 2, 12, 1), grid_n=grid_n)


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_quadrature_auto_rejects_bad_tol(tol):
    with pytest.raises(ClassicalError, match="tol must be finite"):
        QuadraturePolicy.auto(ClassicalParams(1, 2, 12, 1), tol=tol)


@pytest.mark.parametrize("m,n,k,q", [
    (3, 3, 12, 1), (1, 1, 12, 1), (2, 3, 16, 2), (1, 1, 40, 1),
    (2, 2, 12, 37),
])
def test_quadrature_auto_radius_meets_its_bound(m, n, k, q):
    """The cut mass bound, unfolded by e^{2 pi n y}, is below tol / 2."""
    tol = 1e-8
    policy = QuadraturePolicy.auto(ClassicalParams(m, n, k, q), tol=tol)
    log_bound = cla._disc_tail_log_bound(policy.radius, k, q, policy.y)
    assert log_bound + TWO_PI * n * policy.y <= math.log(tol / 2)


# the criterion-1 grid
_CRIT1 = [ClassicalParams(m, n, k, q) for m in (1, 2, 3) for n in (1, 2, 3)
          for k in (12, 16) for q in (1, 2)]


def test_quadrature_auto_radius_is_one_search_per_n_k_q():
    """The radius search never reads m: the 36 criterion-1 policies make
    one search per (n, k, q), 12 in all, and each radius has the bits of
    an uncached search."""
    search = cla._auto_radius
    search.cache_clear()
    policies = [QuadraturePolicy.auto(p) for p in _CRIT1]
    info = search.cache_info()
    assert (info.misses, info.hits, info.currsize) == (12, 24, 12)
    assert info.maxsize == cla._MEMO_ENTRIES
    for p, policy in zip(_CRIT1, policies):
        fresh = search.__wrapped__(p.n, p.k, p.q, 1.1, 64, 1e-8)
        assert policy.radius.hex() == fresh.hex(), p
    search.cache_clear()


def test_petersson_requires_cmax_at_least_q():
    with pytest.raises(ClassicalError):
        petersson_coefficient(ClassicalParams(1, 1, 12, 5), 3)


def _exact_tail(params, c_max):
    """The tail bound in exact rationals, from the doubles pi,
    4 pi sqrt(mn) and (n/m)^{(k-1)/2}, as a float."""
    m, n, k, q = params.m, params.n, params.k, params.q
    arg = Fraction(4 * pi * math.sqrt(m * n))
    return float(2 * Fraction(pi) * Fraction((n / m) ** ((k - 1) / 2))
                 * (arg / 2) ** (k - 1) / math.factorial(k - 1)
                 * Fraction(c_max) ** (2 - k) / ((k - 2) * q))


@pytest.mark.parametrize("k", [172, 200, 264, 400])
def test_petersson_large_weight_tail_in_logs(k):
    """From k = 172 on (k - 1)! is past the doubles: the value keeps the
    bits of the reference loop and the tail bound is within 1e-9 of the
    exact rational bound, relatively, or the least subnormal where that
    bound rounds to 0.  At k = 264 the
    total of p_{1,264,1}(1) is subnormal, so its gap is the least
    subnormal, whose quarter underflows to 0."""
    sums, values = {}, {}
    for m, n, c_max in ((1, 1, 1), (1, 1, 50), (30, 30, 1), (30, 30, 50),
                        (2, 3, 50)):
        params = ClassicalParams(m, n, k, 1)
        res = petersson_coefficient(params, c_max)
        want = _reference_petersson(params, c_max, sums, values)
        assert res.value.hex() == want.hex()
        assert math.isclose(res.tail_bound,
                            max(_exact_tail(params, c_max), math.ulp(0.0)),
                            rel_tol=1e-9)


def test_petersson_tail_in_logs_where_its_product_fails():
    """k = 100, c_max = 10^4: c_max^{-98} underflows to 0, so the product
    formula gave NaN at n/m = 1000, where 2 pi scale (arg/2)^99 is past
    the doubles, and 0 at n/m = 100; a bound that is itself past the
    doubles is inf."""
    for n in (1000, 100):
        params = ClassicalParams(1, n, 100, 10_000)
        res = petersson_coefficient(params, 10_000)
        assert math.isclose(res.tail_bound, _exact_tail(params, 10_000),
                            rel_tol=1e-9)
    # (arg/2)^149 = (200 pi)^149 is past the doubles, and so is the bound
    res = petersson_coefficient(ClassicalParams(1, 10_000, 150, 2), 2)
    assert res.tail_bound == math.inf


def test_prefactor_past_the_doubles_is_refused():
    with pytest.raises(ClassicalError, match="overflows a double"):
        petersson_coefficient(ClassicalParams(1, 100, 400, 1), 50)


def test_tail_bound_below_the_doubles_is_the_least_subnormal():
    """A tail bound whose log is below the doubles (here about -1410)
    is the least positive double, so it never reads as an exact sum; a
    bound with a double value keeps the bits of its log formula."""
    res = normalized_coefficient(ClassicalParams(100, 1, 400, 1), 50)
    assert res.tail_bound == math.ulp(0.0) > 0.0
    assert res.value == pytest.approx(3.3e-147, rel=0.1)
    for params, c_max in ((ClassicalParams(1, 1, 124, 1), 50),  # subnormal
                          (ClassicalParams(2, 3, 12, 1), 1000)):
        got = petersson_coefficient(params, c_max).tail_bound
        assert 0.0 < got < math.inf
        assert got.hex() == _reference_tail(params, c_max).hex()


def test_normalized_coefficient_forms_no_prefactor():
    """(1000/1)^{399/2} and (1/100)^{-399/2} are past the doubles, but the
    normalized coefficient is delta + 2 pi i^{-k} times the Kloosterman-
    Bessel sum itself, with the bits of the direct sum of its terms."""
    for (m, n), c_max in (((1, 1000), 5), ((100, 1), 50)):
        res = normalized_coefficient(ClassicalParams(m, n, 400, 1), c_max)
        total = 0.0
        for c in range(1, c_max + 1):
            total += kloosterman(m, n, c) / c \
                * bessel_j(399, 4 * pi * math.sqrt(m * n) / c)
        assert res.value == 2 * pi * total
        assert math.isfinite(res.tail_bound)
    assert normalized_coefficient(ClassicalParams(1, 1000, 400, 1),
                                  5).value == pytest.approx(0.3061, abs=1e-4)


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
    # an empty scan would certify nothing, so it is refused
    for m_max in (0, -3):
        with pytest.raises(ClassicalError, match="m_max must be >= 1"):
            nonvanishing_range_scan(12, m_max, 100)


def test_scan_fixed_index_across_weights():
    for k in (12, 16, 24, 32, 40):
        scan = nonvanishing_range_scan(k, 1, 300)
        assert scan[0] == (1, True)


# -- fast paths against the reference loops, bit for bit -----------------------
#
# The three functions below are the reference implementations the fast paths
# replaced: the term-by-term Fraction series, the per-x pow() Kloosterman
# loop and the per-term quadrature grid.  The fast paths must return the
# same doubles, so these tests compare bits (float.hex / tobytes), not
# approximate values.

def _reference_bessel_series(order, x):
    x2_4 = Fraction(x) * Fraction(x) / 4
    prefix = Fraction(x) ** order / 2 ** order
    term = Fraction(1, math.factorial(order))
    total = term
    tol = Fraction(1, 10 ** 16)
    j = 0
    while True:
        j += 1
        term = -term * x2_4 / (j * (j + order))
        total += term
        ratio = x2_4 / ((j + 1) * (j + 1 + order))
        if ratio < Fraction(1, 2) and prefix * abs(term) * ratio < tol:
            break
        if j > 600:
            break
    next_term = abs(term) * ratio
    remainder = next_term / (1 - ratio) if ratio < 1 else next_term * 10
    return float(prefix * total), float(prefix * remainder)


def _reference_kloosterman(m, n, c):
    if c == 1:
        return 1.0
    total = 0.0
    for x in range(1, c):
        if gcd(x, c) == 1:
            xbar = pow(x, -1, c)
            total += math.cos(TWO_PI * ((m * x + n * xbar) % c) / c)
    return total


def _reference_eval_series_grid(m, k, q, policy):
    """Per point and per row: the d of the chord |c x + d| <= rho_c of the
    disc |cz + d| <= radius (widened as the walk widens it), one term per
    coprime d, added left to right."""
    n_grid = policy.grid_n
    y = policy.y
    radius = policy.radius
    xs = np.arange(n_grid) / n_grid
    z = xs + 1j * y
    vals = np.exp(2j * pi * m * z)
    for c in range(q, int(radius / y) + 1, q):
        b = c * y
        if b > radius:
            break
        halfw = math.sqrt(max(radius * radius - b * b, 0.0)) \
            + cla._ROW_MARGIN * radius
        inv = np.array([pow(d, -1, c) if gcd(d, c) == 1 else -1
                        for d in range(c)]) if c > 1 else np.zeros(1, dtype=int)
        for i, x in enumerate(xs):
            lo = math.ceil(-c * x - halfw)
            hi = math.floor(-c * x + halfw)
            d = np.arange(lo, hi + 1)
            a = inv[d % c] if c > 1 else np.zeros(len(d), dtype=int)
            live = a >= 0
            d = d[live]
            a = a[live]
            w = c * z[i] + d
            t = w ** (-k) * np.exp(2j * pi * (m * a / c)) \
                * np.exp(-2j * pi * m / (c * w))
            row_sum = 0j
            for term in t.tolist():
                row_sum += term
            vals[i] += row_sum
    return vals


def _hex_pair(pair):
    assert all(type(v) is float for v in pair)
    return tuple(v.hex() for v in pair)


def _bessel_cases():
    rng = random.Random(20111)
    c_sample = sorted({1, 2, 3, 7, 12, 100, 999, 1000,
                       *rng.sample(range(1, 1001), 12)})
    for order in range(3, 28):
        for mn in (1, 2, 3, 4, 6, 9):
            for c in c_sample:
                yield order, 4 * pi * math.sqrt(mn) / c
        # 60 and 120 lie past x = 50
        yield from ((order, x) for x in (0.0, 50.0, 7, 60.0, 120.0))
        yield from ((order, rng.uniform(0.0, 50.0)) for _ in range(8))


def test_bessel_series_matches_fraction_series_bits():
    cases = list(_bessel_cases())
    assert len(cases) == 25 * (6 * 20 + 5 + 8)
    for order, x in cases:
        assert _hex_pair(cla._bessel_series_rational(order, x)) == \
            _hex_pair(_reference_bessel_series(order, x)), (order, x)


_KLOOSTERMAN_MODULI = [*range(1, 201), 211, 997, 1009, 7919, 9973,
                       2 ** 13, 3 ** 8, 5 ** 5, 7 ** 4, 2 * 3 ** 7, 10_000]


def test_unit_inverses():
    for c in _KLOOSTERMAN_MODULI:
        units, inverses = cla._unit_inverses(c)
        # the narrowest signed dtype holding c - 1, read-only
        assert units.dtype == inverses.dtype == \
            (np.int8 if c <= 128 else np.int16)
        assert not units.flags.writeable and not inverses.flags.writeable
        assert units.tolist() == [x for x in range(c) if gcd(x, c) == 1]
        # widened first: an int16 product overflows
        wide = units.astype(np.int64) * inverses.astype(np.int64)
        assert (wide % c == 1 % c).all()


def test_unit_inverse_tables_are_shared_and_read_only():
    cla._modulus_tables.cache_clear()
    units, inverses, _ = cla._tables_for(97)
    assert cla._tables_for(97)[0] is units  # one table per modulus
    with pytest.raises(ValueError):
        units[0] = 5
    with pytest.raises(ValueError):
        inverses[:] = 0
    assert kloosterman(1, 2, 97).hex() == \
        _reference_kloosterman(1, 2, 97).hex()
    assert cla._modulus_tables.cache_info().currsize == 1
    cla._modulus_tables.cache_clear()


def test_unit_inverses_above_the_cap_are_not_stored():
    c = 320_009  # a prime, so its table has c - 1 units
    assert c > cla._TABLE_CMAX
    before = cla._modulus_tables.cache_info()
    units, inverses, cosines = cla._tables_for(c)
    assert units.dtype == np.int32 and cosines is None
    assert np.array_equal(units, np.arange(1, c))
    wide = units.astype(np.int64) * inverses.astype(np.int64)
    assert (wide % c == 1).all()
    assert cla._modulus_tables.cache_info() == before


def test_memos_are_bounded_and_reevaluate_to_the_same_bits(monkeypatch):
    """Filled past maxsize, each memo of the explicit formula keeps
    maxsize values: the least recently used one is evicted, and evaluated
    again it has the bits of its first evaluation."""
    size = cla._MEMO_ENTRIES
    for memo, name, keys in (
            (cla._kloosterman_cached, "kloosterman",
             [(1, n, 97) for n in range(size + 1)]),
            (cla._bessel_cached, "bessel_j",
             [(3, j / size) for j in range(size + 1)])):
        calls = []

        def counting(*args, _original=getattr(cla, name)):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(cla, name, counting)
        memo.cache_clear()
        first = [memo(*key) for key in keys]
        info = memo.cache_info()
        assert info.maxsize == size
        assert (info.misses, info.currsize) == (size + 1, size)
        again = memo(*keys[0])  # evicted by the last key
        assert again.hex() == first[0].hex()
        assert memo(*keys[-1]).hex() == first[-1].hex()  # still stored
        assert calls == [*keys, keys[0]]
        assert memo.cache_info().currsize == size
        memo.cache_clear()


def test_cosine_tables_are_shared_read_only_and_exact():
    cla._modulus_tables.cache_clear()
    for c in (1, 2, 97, 360, 1000, cla._TABLE_CMAX):
        table = cla._tables_for(c)[2]
        assert cla._tables_for(c)[2] is table  # one table per modulus
        assert table.dtype == np.float64 and len(table) == c
        assert not table.flags.writeable
        assert [v.hex() for v in table.tolist()] == \
            [math.cos(TWO_PI * r / c).hex() for r in range(c)]
    with pytest.raises(ValueError):
        table[0] = 0.0
    # kloosterman and the quadrature rows store the tables up to the cap,
    # and none above it
    cap = cla._TABLE_CMAX
    for call in (lambda c: kloosterman(1, 2, c),
                 lambda c: cla._eval_series_grid(  # the one row c = q
                     1, 12, c, QuadraturePolicy(radius=1.1 * c + 40.0,
                                                grid_n=8, y=1.1))):
        cla._modulus_tables.cache_clear()
        call(cap + 1)
        assert cla._modulus_tables.cache_info().currsize == 0
        call(cap)
        assert cla._modulus_tables.cache_info().currsize == 1
    cla._modulus_tables.cache_clear()


def test_kloosterman_matches_pow_loop_bits():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for c in _KLOOSTERMAN_MODULI:
                got = kloosterman(m, n, c)
                assert type(got) is float
                assert got.hex() == _reference_kloosterman(m, n, c).hex(), \
                    (m, n, c)


@pytest.mark.parametrize("m,n,c", [
    (250, 1001, 200), (7919, 7919, 997), (10_000, 3, 10_000),  # m, n >= c
    (-1, 2, 97), (-5, -7, 360), (3, -10 ** 12, 1009),          # negative
    (10 ** 18, 1, 9973), (1, 10 ** 18, 10_000),                 # > int64 / c
    (10 ** 18, -10 ** 18, 8192), (2 ** 63 + 5, 3, 1000),
])
def test_kloosterman_wide_arguments_bits(m, n, c):
    assert kloosterman(m, n, c).hex() == _reference_kloosterman(m, n, c).hex()


# the criterion-1 grid at its auto policies: grid 64, up to 43 rows
_CRIT1_AUTO = [
    pytest.param(p.m, p.k, p.q, QuadraturePolicy.auto(p),
                 id=f"auto-{p.m}-{p.n}-{p.k}-{p.q}")
    for p in _CRIT1]


@pytest.mark.parametrize("m,k,q,policy", [
    (1, 12, 1, QuadraturePolicy(radius=15.0, grid_n=16, y=1.1)),  # c <= 13
    (2, 16, 3, QuadraturePolicy(radius=36.0, grid_n=8, y=1.2)),   # c <= 30
    (3, 12, 1, QuadraturePolicy(radius=20.0, grid_n=4, y=1.1)),   # c <= 18
    *_CRIT1_AUTO,
])
def test_series_grid_matches_per_term_grid_bits(m, k, q, policy):
    """The points 0 <= x <= 1/2 have the bits of the per-term sum; each
    point of the other half is exactly the conjugate of its mirror, and
    within rounding of its own per-term sum."""
    got = cla._eval_series_grid(m, k, q, policy)
    want = _reference_eval_series_grid(m, k, q, policy)
    n_grid = policy.grid_n
    half = n_grid // 2
    assert got.shape == want.shape == (n_grid,)
    assert got[:half + 1].tobytes() == want[:half + 1].tobytes()
    mirror = n_grid - np.arange(half + 1, n_grid)
    assert got[half + 1:].tobytes() == np.conj(got[mirror]).tobytes()
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_kloosterman_cache_miss_is_one_sum():
    """petersson_coefficient orders (m, n) before the lookup, so S(1, 2; c)
    and S(2, 1; c) share one entry and every miss evaluates one sum."""
    cla._kloosterman_cached.cache_clear()
    for m, n in ((1, 2), (2, 1)):
        petersson_coefficient(ClassicalParams(m, n, 12, 1), 50)
    info = cla._kloosterman_cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (50, 50, 50)
    cla._kloosterman_cached.cache_clear()


def _reference_petersson(params, c_max, sums, values):
    """The explicit formula as one loop over every c <= c_max; sums and
    values memoize S(m, n; c) and J_{k-1}(x), whose bits the `kloosterman`
    and `bessel_j` tests pin."""
    m, n, k, q = params.m, params.n, params.k, params.q
    arg = 4 * pi * math.sqrt(m * n)
    total = 0.0
    for c in range(q, c_max + 1, q):
        key = (min(m, n), max(m, n), c)
        if key not in sums:
            sums[key] = kloosterman(*key)
        if sums[key] != 0.0:
            x = arg / c
            if (k - 1, x) not in values:
                values[k - 1, x] = bessel_j(k - 1, x)
            total += sums[key] / c * values[k - 1, x]
    delta = 1.0 if m == n else 0.0
    scale = (n / m) ** ((k - 1) / 2)
    return delta + 2 * pi * (-1) ** (k // 2) * scale * total


def _reference_tail(params, c_max):
    """The tail bound's log formula: log 2 pi, the log of the prefactor,
    the log of the first Bessel term at x = arg / c_max and
    log(c_max / ((k - 2) q)), added in that order."""
    m, n, k, q = params.m, params.n, params.k, params.q
    x = 4 * pi * math.sqrt(m * n) / c_max
    return math.exp(math.log(2 * pi) + (k - 1) / 2 * math.log(n / m)
                    + ((k - 1) * math.log(x / 2) - math.lgamma(k))
                    + math.log(c_max / ((k - 2) * q)))


def _product_tail(params, c_max):
    """The tail bound's product formula, finite for the weights k <= 171."""
    m, n, k, q = params.m, params.n, params.k, params.q
    arg = 4 * pi * math.sqrt(m * n)
    scale = (n / m) ** ((k - 1) / 2)
    return (2 * pi * scale * (arg / 2) ** (k - 1) / math.factorial(k - 1)
            * c_max ** (2 - k) / ((k - 2) * q))


def _gap_below(t):
    """The gap from |t| down to the next double, t a nonzero normal."""
    mantissa, exponent = math.frexp(abs(t))  # 1/2 <= mantissa < 1
    return math.ldexp(0.5 if mantissa == 0.5 else 1.0, exponent - 53)


def _stop_modulus(params, c_max, sums, values):
    """The first c <= c_max at which petersson_coefficient's sum stops, from
    the running totals of the reference loop: total != 0, x_c < 2 and
    4 (x_c/2)^{k-1}/(k-1)! below the gap from |total| down to the next
    double, the bound in exact rationals; c_max + 1 if the sum never
    stops."""
    m, n, k, q = params.m, params.n, params.k, params.q
    arg = 4 * pi * math.sqrt(m * n)
    total = 0.0
    for c in range(q, c_max + 1, q):
        x = arg / c
        if total and x < 2.0 and (4 * (Fraction(x) / 2) ** (k - 1)
                                  / math.factorial(k - 1)
                                  < _gap_below(total)):
            return c
        s = sums[min(m, n), max(m, n), c]
        if s != 0.0:
            total += s / c * values[k - 1, x]
    return c_max + 1


def test_petersson_evaluates_each_bessel_value_once(monkeypatch):
    """Over the criterion-1 grid, bessel_j runs once per distinct
    (order, x) = (k - 1, 4 pi sqrt(mn) / c) with S(m, n; c) != 0 that the
    sum reaches before it stops, the stop fires in every configuration,
    and every coefficient has the bits of the loop to c_max."""
    c_max = 1000
    grid = [ClassicalParams(m, n, k, q) for m in (1, 2, 3) for n in (1, 2, 3)
            for k in (12, 16) for q in (1, 2)]
    sums, values = {}, {}
    want = [_reference_petersson(p, c_max, sums, values) for p in grid]
    stops = [_stop_modulus(p, c_max, sums, values) for p in grid]
    assert max(stops) == 204  # (m, n, k, q) = (3, 3, 12, 1)
    needed = {(p.k - 1, 4 * pi * math.sqrt(p.m * p.n) / c)
              for p, stop in zip(grid, stops) for c in range(p.q, stop, p.q)
              if sums[min(p.m, p.n), max(p.m, p.n), c] != 0.0}
    calls = []

    def counting(order, x):
        calls.append((order, x))
        return bessel_j(order, x)

    monkeypatch.setattr(cla, "bessel_j", counting)
    cla._bessel_cached.cache_clear()
    got = [petersson_coefficient(p, c_max).value for p in grid]
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert sorted(calls) == sorted(needed)
    assert len(calls) <= 687  # 11,974 to c_max; 26,900 per (m, n, k, q)
    assert cla._bessel_cached.cache_info().currsize == len(needed)
    cla._bessel_cached.cache_clear()


def test_stopped_petersson_sum_has_the_bits_of_the_full_loop(monkeypatch):
    """The value has the bits of the loop to c_max, the tail bound those
    of its log formula, within 1e-13 relative of its product formula, and
    the sum reads exactly the moduli before the stop of `_stop_modulus`.
    The grid holds p_{1,12,8}(2), whose sums S(1, 2; c), 8 | c, vanish and
    leave only their rounding in the total, and k = 4, where the
    first-term bound stays above the gap for every c <= 1000: neither
    stops."""
    reads = []
    cached = cla._kloosterman_cached

    def recording(lo, hi, c):
        reads.append(c)
        return cached(lo, hi, c)

    monkeypatch.setattr(cla, "_kloosterman_cached", recording)
    indices = (1, 2, 3, 5, 10, 30)
    grid = [ClassicalParams(m, n, k, q) for k in (4, 6, 12, 16, 24, 48)
            for q in (1, 2, 3, 8) for m in indices for n in indices]
    sums, values = {}, {}
    never = []
    for p in grid:
        for c_max in (p.q, 50, 500, 1000):
            reads.clear()
            got = petersson_coefficient(p, c_max)
            want = _reference_petersson(p, c_max, sums, values)
            assert got.value.hex() == want.hex(), (p, c_max)
            assert got.tail_bound.hex() == _reference_tail(p, c_max).hex(), \
                (p, c_max)
            assert math.isclose(got.tail_bound, _product_tail(p, c_max),
                                rel_tol=1e-13), (p, c_max)
            stop = _stop_modulus(p, c_max, sums, values)
            assert reads == list(range(p.q, stop, p.q)), (p, c_max)
            if c_max == 1000 and stop > c_max:
                never.append(p)
    assert ClassicalParams(1, 2, 12, 8) in never
    assert abs(petersson_coefficient(ClassicalParams(1, 2, 12, 8),
                                     1000).value) < 1e-20
    assert ClassicalParams(1, 1, 4, 1) in never
    assert all(p.k <= 16 for p in never)  # k = 24 and 48 always stop


# -- refusing work that cannot finish ----------------------------------------------

def test_petersson_refuses_cmax_past_kloosterman_cap(monkeypatch):
    calls = []

    def counting(m, n, c):
        calls.append(c)
        return kloosterman(m, n, c)

    monkeypatch.setattr(cla, "kloosterman", counting)
    cla._kloosterman_cached.cache_clear()
    with pytest.raises(ClassicalError, match="capped at c <= 10000"):
        petersson_coefficient(ClassicalParams(1, 2, 12, 1), 10_001)
    assert calls == []
    # the cap itself stays legal (one c = 10000 at this level)
    petersson_coefficient(ClassicalParams(1, 2, 12, 10_000), 10_000)
    assert calls == [10_000]
    cla._kloosterman_cached.cache_clear()


def test_quadrature_auto_refuses_unbounded_work():
    for params in (ClassicalParams(1, 1, 4, 1), ClassicalParams(1, 30, 12, 1),
                   ClassicalParams(1, 200, 12, 1)):  # e^{2 pi n y} > 1e308
        with pytest.raises(ClassicalError, match="lattice terms"):
            QuadraturePolicy.auto(params)
    # the largest criterion-1 configuration stays well inside the limit:
    # count the window sites its disc walks, and check the site estimate
    # behind the refusal radius against that count
    q, policy = 1, QuadraturePolicy.auto(ClassicalParams(3, 3, 12, 1))
    y, radius = policy.y, policy.radius
    xs = np.arange(policy.grid_n) / policy.grid_n
    cs, rho = cla._disc_rows(radius, q, y)
    halfw = rho + cla._ROW_MARGIN * radius
    walked = sum(int((np.floor(-c * xs + h) - np.ceil(-c * xs - h) + 1).sum())
                 for c, h in zip(cs, halfw))
    assert walked < cla._QUADRATURE_MAX_TERMS / 10
    assert walked <= policy.grid_n * (pi * radius ** 2 / 2 + radius) / (q * y)
    cap = cla._radius_cap(q, y, policy.grid_n)
    assert policy.grid_n * (pi * cap ** 2 / 2 + cap) / (q * y) \
        == pytest.approx(cla._QUADRATURE_MAX_TERMS)


# -- the disc tail bound of the quadrature ----------------------------------------

def _brute_cut_mass(radius, k, q, y, x):
    """Sum of |cz + d|^{-k} over the sites (c, d), q | c, c > 0, outside
    the disc |cz + d| <= radius, in the box c y <= 3 radius,
    |c x + d| <= 3 radius, coprime or not."""
    total = 0.0
    for c in range(q, int(3 * radius / y) + 1, q):
        d = np.arange(math.floor(-c * x - 3 * radius),
                      math.ceil(-c * x + 3 * radius) + 1)
        w2 = (c * x + d) ** 2.0 + (c * y) ** 2
        total += float((w2[w2 > radius * radius] ** (-0.5 * k)).sum())
    return total


_X_ON_GRID = [i / 64 for i in (0, 1, 5, 16, 32, 47, 63)]
_X_OFF_GRID = [0.0371, 0.2468, 0.5 + 1e-7, 0.7501, 0.99]


@pytest.mark.parametrize("k,q,y,radius", [
    (12, 1, 1.1, 47.9),   # the (3, 3, 12, 1) radius: 43 walked rows
    (12, 1, 1.1, 6.0),
    (12, 2, 1.2, 10.0),
    (12, 37, 1.1, 50.0),  # one walked row, c = 37
    (12, 37, 1.2, 90.0),
    (40, 1, 1.1, 3.0),
    (40, 2, 1.5, 5.0),
    (40, 37, 1.1, 50.0),
    (40, 37, 1.1, 30.0),  # no walked row: only the rows past the disc
])
def test_disc_tail_bound_dominates_brute_force(k, q, y, radius):
    bound = math.exp(cla._disc_tail_log_bound(radius, k, q, y))
    for x in _X_ON_GRID + _X_OFF_GRID:
        brute = _brute_cut_mass(radius, k, q, y, x)
        assert 0.0 < brute <= bound, (x, brute, bound)


# -- tooling ------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def test_run_classical_oracles_script_smoke(tmp_path):
    out = tmp_path / "oracles.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_classical_oracles.py"),
         "--mn-max", "1", "--ks", "12", "--qs", "1", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[1] == "m,n,k,q,value,tail_bound,method"
    assert [line.split(",")[-1] for line in lines[2:]] == \
        ["petersson", "quadrature"]
    assert "worst |petersson - quadrature| = " in proc.stdout
