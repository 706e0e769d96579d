import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hpseries.qfield import (
    EUCLIDEAN_D,
    DualIndex,
    QFieldError,
    codifferent_gen,
    complete_pair,
    embed,
    fundamental_unit,
    ideal_from_gen,
    ideal_from_gens,
    is_totally_positive,
    is_unimodular_pair,
    make_field,
    norm,
    trace,
    trace_one_totally_positive,
)

fields = st.sampled_from(EUCLIDEAN_D).map(make_field)
small_coords = st.integers(-50, 50)
big_coords = st.integers(-1000, 1000)


def elements(coords=small_coords):
    return st.tuples(fields, coords, coords).map(
        lambda t: t[0].element(t[1], t[2]))


# -- construction -------------------------------------------------------------

def test_make_field_d5():
    f = make_field(5)
    assert f.disc == 5 and f.omega_is_half and f.euclidean
    w1, w2 = embed(f.omega)
    assert abs(w1 - (1 + math.sqrt(5)) / 2) < 1e-14
    assert abs(w2 - (1 - math.sqrt(5)) / 2) < 1e-14


def test_make_field_d2():
    f = make_field(2)
    assert f.disc == 8 and not f.omega_is_half and f.euclidean
    assert embed(f.omega)[0] == pytest.approx(math.sqrt(2), abs=1e-14)


@pytest.mark.parametrize("bad", [12, 1, 0, -5, 50, 4])
def test_make_field_rejects_non_squarefree(bad):
    with pytest.raises(QFieldError):
        make_field(bad)


def test_make_field_strict_mode():
    with pytest.raises(QFieldError):
        make_field(11)  # squarefree but outside the Euclidean set
    f = make_field(11, strict=False)
    assert not f.euclidean


# -- embeddings, trace, norm ---------------------------------------------------

def test_embed_identity(field5):
    assert embed(field5.one) == (1.0, 1.0)


def test_embed_one_plus_sqrt2():
    f = make_field(2)
    x = f.element(1, 1)
    e1, e2 = embed(x)
    assert e1 == pytest.approx(2.414213562373095, abs=1e-14)
    assert e2 == pytest.approx(-0.414213562373095, abs=1e-14)


def test_trace_norm_examples(field5):
    w = field5.omega
    assert trace(w) == 1 and norm(w) == -1
    assert trace(field5.zero) == 0 and norm(field5.zero) == 0
    f2 = make_field(2)
    x = f2.element(1, 1)
    assert trace(x) == 2 and norm(x) == -1


@given(elements(), elements())
def test_trace_additive_norm_multiplicative(x, y):
    if x.field != y.field:
        y = x.field.element(y.a, y.b)
    assert trace(x + y) == trace(x) + trace(y)
    assert norm(x * y) == norm(x) * norm(y)


@given(elements(big_coords))
def test_embed_agrees_with_trace_norm(x):
    e1, e2 = embed(x)
    scale = max(1.0, abs(e1) + abs(e2))
    assert abs(float(trace(x)) - (e1 + e2)) < 1e-9 * scale
    assert abs(float(norm(x)) - e1 * e2) < 1e-9 * scale * scale


@given(elements(big_coords))
def test_totally_positive_matches_embeddings(x):
    e1, e2 = embed(x)
    if min(abs(e1), abs(e2)) > 1e-6:  # stay away from the float boundary
        assert is_totally_positive(x) == (e1 > 0 and e2 > 0)


def test_totally_positive_examples(field5):
    assert is_totally_positive(field5.element(2, 1))
    assert not is_totally_positive(field5.omega)
    assert not is_totally_positive(field5.zero)


# -- codifferent and dual indices ---------------------------------------------

def test_codifferent_d5(field5):
    g = codifferent_gen(field5)
    assert trace(g) == 0
    assert trace(g * field5.omega) == 1
    assert trace(g * field5.zero) == 0


def test_codifferent_d2():
    f = make_field(2)
    g = codifferent_gen(f)
    assert g.a == 0 and g.b == Fraction(1, 4)  # 1/(2 sqrt 2) = w/4
    assert trace(g * f.sqrt_d_elem()) == 1


@given(fields, small_coords, small_coords, small_coords, small_coords)
def test_dual_pairing_integrality(f, p, q, r, s):
    beta = f.element(p, q)
    lam = f.element(r, s)
    if beta.is_zero():
        beta = f.one
    nu = DualIndex.from_numerator(f, beta)
    assert trace(nu.elem * lam).denominator == 1
    # stored frequency matches recomputation
    assert nu.freq == (int(trace(nu.elem)), int(trace(nu.elem * f.omega)))


def test_trace_one_set_d5(field5):
    found = trace_one_totally_positive(field5, 20)
    assert [n.numerator.int_coords() for n in found] == [(-1, 1), (0, 1)]
    assert [n.freq for n in found] == [(1, 0), (1, 1)]


def _trace_one_by_full_scan(field, height_bound):
    """Every nonzero numerator in the height box through DualIndex, kept
    when the Fraction trace is 1 and the Fraction element is totally
    positive."""
    out = []
    for p in range(-height_bound, height_bound + 1):
        for q in range(-height_bound, height_bound + 1):
            beta = field.element(p, q)
            if beta.is_zero():
                continue
            nu = DualIndex.from_numerator(field, beta)
            if nu.freq[0] == 1 and nu.is_totally_positive():
                out.append(nu)
    out.sort(key=lambda n: n.numerator.int_coords())
    return out


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_trace_one_matches_full_scan(d):
    f = make_field(d)
    for height in (0, 1, 3, 8, 20):
        found = trace_one_totally_positive(f, height)
        expected = _trace_one_by_full_scan(f, height)
        assert [(n.numerator.int_coords(), n.freq, n.elem.a, n.elem.b)
                for n in found] == \
            [(n.numerator.int_coords(), n.freq, n.elem.a, n.elem.b)
             for n in expected], height


# -- ideals --------------------------------------------------------------------

def test_ideal_examples(field5):
    two = ideal_from_gen(field5.element(2, 0))
    assert two.norm == 4
    assert two.contains(field5.element(0, 2))
    assert not two.contains(field5.omega)
    unit = ideal_from_gen(field5.one)
    assert unit.norm == 1
    assert unit.contains(field5.element(7, -3))
    sqrt5 = ideal_from_gen(field5.element(-1, 2))
    assert sqrt5.norm == 5  # |N(2w - 1)| computed exactly


def test_ideal_rejects_zero_gen(field5):
    with pytest.raises(QFieldError):
        ideal_from_gen(field5.zero)


@given(fields, small_coords, small_coords, small_coords, small_coords)
def test_ideal_contains_multiples_of_generators(f, p, q, r, s):
    g = f.element(p, q)
    if g.is_zero():
        g = f.element(1, 1)
    ideal = ideal_from_gen(g)
    x = f.element(r, s)
    for basis_elem in ideal.basis():
        assert ideal.contains(x * basis_elem)
    assert ideal.norm == abs(norm(g))  # principal ideal


@given(fields, st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-9, 9), st.integers(-9, 9))
def test_ideal_membership_vs_rational_solve(f, p, q, r, s):
    """Independent oracle: x in I iff the 2x2 system over the basis has an
    integer solution."""
    g = f.element(p, q)
    if g.is_zero():
        g = f.element(2, 1)
    ideal = ideal_from_gen(g)
    x = f.element(r, s)
    b1, b2 = ideal.basis()
    a11, a21 = b1.a, b1.b
    a12, a22 = b2.a, b2.b
    det = a11 * a22 - a12 * a21
    c1 = (x.a * a22 - x.b * a12) / det
    c2 = (x.b * a11 - x.a * a21) / det
    expected = c1.denominator == 1 and c2.denominator == 1
    assert ideal.contains(x) == expected


# -- unimodular pairs and completion -------------------------------------------

def _minor_gcd_unimodular(f, gamma, delta):
    """Independent unimodularity oracle: the Z-span of {g, gw, d, dw} is
    the full lattice iff the gcd of all 2x2 minors is 1."""
    from hpseries.qfield import _mul_int
    vs = []
    for e in (gamma, delta):
        pq = e.int_coords()
        if pq != (0, 0):
            vs.append(pq)
            vs.append(_mul_int(f, pq, (0, 1)))
    g = 0
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            g = math.gcd(g, vs[i][0] * vs[j][1] - vs[i][1] * vs[j][0])
    return g == 1


def test_unimodular_examples(field5):
    assert is_unimodular_pair(field5.zero, field5.one)
    assert not is_unimodular_pair(field5.element(2, 0), field5.element(0, 2))
    assert is_unimodular_pair(field5.element(2, 0), field5.omega)
    with pytest.raises(QFieldError):
        is_unimodular_pair(field5.zero, field5.zero)


@given(fields, st.integers(-15, 15), st.integers(-15, 15),
       st.integers(-15, 15), st.integers(-15, 15))
def test_unimodular_matches_minor_gcd(f, p, q, r, s):
    gamma, delta = f.element(p, q), f.element(r, s)
    if gamma.is_zero() and delta.is_zero():
        return
    assert is_unimodular_pair(gamma, delta) == \
        _minor_gcd_unimodular(f, gamma, delta)


def test_complete_pair_examples(field5):
    a, b = complete_pair(field5.zero, field5.one)
    assert (a, b) == (field5.one, field5.zero)
    a, b = complete_pair(field5.one, field5.zero)
    assert a * field5.zero - b * field5.one == field5.one
    a, b = complete_pair(field5.element(2, 0), field5.omega)
    assert a * field5.omega - b * field5.element(2, 0) == field5.one


def test_complete_pair_rejects_non_unimodular(field5):
    with pytest.raises(QFieldError):
        complete_pair(field5.element(2, 0), field5.element(0, 2))


def test_complete_pair_rejects_non_euclidean():
    f = make_field(11, strict=False)
    with pytest.raises(QFieldError):
        complete_pair(f.zero, f.one)


@given(fields, st.integers(-12, 12), st.integers(-12, 12),
       st.integers(-12, 12), st.integers(-12, 12))
def test_complete_pair_determinant(f, p, q, r, s):
    gamma, delta = f.element(p, q), f.element(r, s)
    if gamma.is_zero() and delta.is_zero():
        return
    if not is_unimodular_pair(gamma, delta):
        return
    a, b = complete_pair(gamma, delta)
    assert a * delta - b * gamma == f.one
    assert a.is_integral() and b.is_integral()


def test_complete_pair_exhaustive_small_heights():
    """Exhaustive over coordinate height <= 6 for each Euclidean field
    (the height <= 20 run for d = 5 lives in the acceptance suite)."""
    height = 6
    for d in EUCLIDEAN_D:
        f = make_field(d)
        checked = 0
        for p in range(-height, height + 1):
            for q in range(-height, height + 1):
                for r in range(-height, height + 1):
                    for s in range(-height, height + 1):
                        if (p, q) == (0, 0) and (r, s) == (0, 0):
                            continue
                        gamma, delta = f.element(p, q), f.element(r, s)
                        if not _minor_gcd_unimodular(f, gamma, delta):
                            continue
                        a, b = complete_pair(gamma, delta)
                        assert a * delta - b * gamma == f.one
                        checked += 1
        assert checked > 0


# -- units ----------------------------------------------------------------------

@pytest.mark.parametrize("d,coords,unit_norm", [
    (2, (1, 1), -1),
    (3, (2, 1), 1),
    (5, (0, 1), -1),
    (6, (5, 2), 1),
    (7, (8, 3), 1),
    (13, (1, 1), -1),
])
def test_fundamental_units(d, coords, unit_norm):
    f = make_field(d)
    eps = fundamental_unit(f)
    assert eps.int_coords() == coords
    assert norm(eps) == unit_norm
    assert embed(eps)[0] > 1.0


def test_ideal_from_gens_two_generators(field5):
    # (2, omega) generate the unit ideal
    ideal = ideal_from_gens(field5, [field5.element(2, 0), field5.omega])
    assert ideal.norm == 1
