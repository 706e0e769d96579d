import math
import operator
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hpseries import hpoincare, qfield
from hpseries.qfield import (
    EUCLIDEAN_D,
    DualIndex,
    FieldElement,
    QFieldError,
    codifferent_gen,
    complete_pair,
    fundamental_unit,
    ideal_from_gen,
    ideal_from_gens,
    is_totally_positive,
    is_unimodular_pair,
    make_field,
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
    w1, w2 = f.omega.embeddings()
    assert abs(w1 - (1 + math.sqrt(5)) / 2) < 1e-14
    assert abs(w2 - (1 - math.sqrt(5)) / 2) < 1e-14


def test_make_field_d2():
    f = make_field(2)
    assert f.disc == 8 and not f.omega_is_half and f.euclidean
    assert f.omega.embeddings()[0] == pytest.approx(math.sqrt(2), abs=1e-14)


@pytest.mark.parametrize("bad", [12, 1, 0, -5, 50, 4])
def test_make_field_rejects_non_squarefree(bad):
    with pytest.raises(QFieldError):
        make_field(bad)


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_field_constants_exact(d):
    f = make_field(d)
    w, wbar = f.omega, f.omega.conjugate()
    assert w + wbar == f.omega_trace
    assert w * wbar == f.omega_norm
    assert w * w == f.omega_sq_const + f.omega_sq_lin * w


def test_make_field_strict_mode():
    with pytest.raises(QFieldError):
        make_field(11)  # squarefree but outside the Euclidean set
    f = make_field(11, strict=False)
    assert not f.euclidean


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
@pytest.mark.parametrize("swap", [False, True])
def test_arithmetic_rejects_unsupported_operand(field5, op, swap):
    args = (1.5, field5.one) if swap else (field5.one, 1.5)
    with pytest.raises(TypeError, match="unsupported operand"):
        op(*args)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
@pytest.mark.parametrize("left", [3, Fraction(-2, 7)])
def test_arithmetic_with_rational_on_the_left(field5, op, left):
    x = field5.element(Fraction(1, 3), 2)
    assert op(left, x) == op(field5.element(left), x)


# -- embeddings, trace, norm ---------------------------------------------------

def test_embed_identity(field5):
    assert field5.one.embeddings() == (1.0, 1.0)


def test_embed_one_plus_sqrt2():
    f = make_field(2)
    x = f.element(1, 1)
    e1, e2 = x.embeddings()
    assert e1 == pytest.approx(2.414213562373095, abs=1e-14)
    assert e2 == pytest.approx(-0.414213562373095, abs=1e-14)


def test_trace_norm_examples(field5):
    w = field5.omega
    assert w.trace() == 1 and w.norm() == -1
    assert field5.zero.trace() == 0 and field5.zero.norm() == 0
    f2 = make_field(2)
    x = f2.element(1, 1)
    assert x.trace() == 2 and x.norm() == -1


@given(elements(), elements())
def test_trace_additive_norm_multiplicative(x, y):
    if x.field != y.field:
        y = x.field.element(y.a, y.b)
    assert (x + y).trace() == x.trace() + y.trace()
    assert (x * y).norm() == x.norm() * y.norm()


@given(elements(big_coords))
def test_embed_agrees_with_trace_norm(x):
    e1, e2 = x.embeddings()
    scale = max(1.0, abs(e1) + abs(e2))
    assert abs(float(x.trace()) - (e1 + e2)) < 1e-9 * scale
    assert abs(float(x.norm()) - e1 * e2) < 1e-9 * scale * scale


@given(elements(big_coords))
def test_totally_positive_matches_embeddings(x):
    e1, e2 = x.embeddings()
    if min(abs(e1), abs(e2)) > 1e-6:  # stay away from the float boundary
        assert is_totally_positive(x) == (e1 > 0 and e2 > 0)


def test_totally_positive_examples(field5):
    assert is_totally_positive(field5.element(2, 1))
    assert not is_totally_positive(field5.omega)
    assert not is_totally_positive(field5.zero)


# -- codifferent and dual indices ---------------------------------------------

def test_codifferent_d5(field5):
    g = codifferent_gen(field5)
    assert g.trace() == 0
    assert (g * field5.omega).trace() == 1
    assert (g * field5.zero).trace() == 0


def test_codifferent_d2():
    f = make_field(2)
    g = codifferent_gen(f)
    assert g.a == 0 and g.b == Fraction(1, 4)  # 1/(2 sqrt 2) = w/4
    assert (g * f.sqrt_d_elem()).trace() == 1


@given(fields, small_coords, small_coords, small_coords, small_coords)
def test_dual_pairing_integrality(f, p, q, r, s):
    beta = f.element(p, q)
    lam = f.element(r, s)
    if beta.is_zero():
        beta = f.one
    nu = DualIndex.from_numerator(f, beta)
    assert (nu.elem * lam).trace().denominator == 1
    # stored frequency matches recomputation
    assert nu.freq == (int(nu.elem.trace()),
                       int((nu.elem * f.omega).trace()))


def _dual_by_fraction(field, beta):
    """Fraction route: nu = beta * sqrt(D)/D, freq = (tr nu, tr(nu w)),
    with the integrality of both traces checked."""
    sqrt_d = field.sqrt_d_elem()
    denom = Fraction(field.disc)
    sroot = sqrt_d if field.omega_is_half else 2 * sqrt_d
    nu = beta * FieldElement(field, sroot.a / denom, sroot.b / denom)
    r = nu.trace()
    s = (nu * field.omega).trace()
    assert r.denominator == 1 and s.denominator == 1
    return nu, (int(r), int(s))


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_dual_index_matches_fraction_route(d):
    f = make_field(d)
    for p in range(-20, 21):
        for q in range(-20, 21):
            beta = f.element(p, q)
            nu = DualIndex.from_numerator(f, beta)
            elem, freq = _dual_by_fraction(f, beta)
            assert (nu.numerator, nu.elem, nu.freq) == (beta, elem, freq)


def test_dual_index_rejects_non_integral(field5):
    with pytest.raises(QFieldError, match="must be integral"):
        DualIndex.from_numerator(field5, field5.element(Fraction(1, 2), 1))


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
    assert ideal.norm == abs(g.norm())  # principal ideal


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
    c1 = Fraction(x.a * a22 - x.b * a12, det)
    c2 = Fraction(x.b * a11 - x.a * a21, det)
    expected = c1.denominator == 1 and c2.denominator == 1
    assert ideal.contains(x) == expected


# -- unimodular pairs and completion -------------------------------------------

def _minor_gcd_unimodular(f, gamma, delta):
    """Independent unimodularity oracle: the Z-span of {g, gw, d, dw} is
    the full lattice iff the gcd of all 2x2 minors is 1."""
    from hpseries.qfield import _mul
    vs = []
    for e in (gamma, delta):
        pq = e.int_coords()
        if pq != (0, 0):
            vs.append(pq)
            vs.append(_mul(f, pq, (0, 1)))
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


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_complete_pair_examples(d):
    """The edge rows (0, u) and (u, 0) for u in {1, +-eps, +-1/eps}: the
    first has b = 0 (the N(gamma) = 0 branch of the division for b), the
    second a = 0 and b = -1/u."""
    f = make_field(d)
    eps = fundamental_unit(f)
    for u in (f.one, eps, -eps, eps.inverse(), -eps.inverse()):
        a, b = complete_pair(f.zero, u)
        assert (a, b) == (u.inverse(), f.zero)
        a, b = complete_pair(u, f.zero)
        assert (a, b) == (f.zero, -u.inverse())
        assert a * f.zero - b * u == f.one
    gamma, delta = f.element(2, 0), f.element(1, 2)
    a, b = complete_pair(gamma, delta)
    assert a * delta - b * gamma == f.one
    if d == 5:
        a, b = complete_pair(f.element(2, 0), f.omega)
        assert a * f.omega - b * f.element(2, 0) == f.one


@pytest.mark.parametrize("call", [complete_pair, is_unimodular_pair])
def test_pair_functions_reject_mixed_fields_and_non_elements(call):
    """Both refuse elements of two fields, as FieldElement arithmetic does,
    instead of reading the coordinates in gamma's field, and raise
    QFieldError, not AttributeError, on a non-element."""
    f5, f2 = make_field(5), make_field(2)
    with pytest.raises(QFieldError, match="elements of different fields"):
        call(f5.element(2, 0), f2.element(0, 1))
    with pytest.raises(QFieldError, match="elements of different fields"):
        call(f2.one, f5.zero)
    for gamma, delta in ((f5.one, 3), (0, f5.one), (f5.one, 1.5)):
        with pytest.raises(QFieldError):
            call(gamma, delta)
    # equal fields built twice are one field
    assert call(make_field(5).element(2, 0), f5.omega)


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


def _completion_by_pair_core(f, gamma, delta):
    """The completion composed from the pair core: a = (1/g)*x by
    _unit_inverse_int and _mul on the gcd's (g, x), and
    b = (a*delta - 1)*conj(gamma)/N(gamma) by floor division (0 for
    gamma = 0); None off the unimodular pairs."""
    g, x = qfield._ext_gcd_int(f, delta, gamma)
    gi = qfield._unit_inverse_int(f, g)
    if gi is None:
        return None
    a = qfield._mul(f, gi, x)
    ad, n = qfield._mul(f, a, delta), qfield._norm(f, gamma)
    e = qfield._mul(f, (ad[0] - 1, ad[1]), qfield._conj(f, gamma))
    b = (e[0] // n, e[1] // n) if n else (0, 0)
    return a, b


@pytest.mark.parametrize("height", [20, 10**12])
@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_complete_pair_matches_pair_core_composition(d, height):
    """2,000 unimodular pairs per field at coordinate height 20 and 10^12
    (Python bigints), plus the rows (0, u) and (u, 0) for the units
    u = +-eps^k, |k| <= 40: complete_pair returns the pair-core
    composition's coordinates as exact ints, in elements equal and
    hash-equal to f.element(...) and as frozen."""
    f = make_field(d)
    rng = random.Random(30 * d + height % 997)
    pairs = []
    while len(pairs) < 2000:
        gamma, delta = ((rng.randint(-height, height),
                         rng.randint(-height, height)) for _ in range(2))
        if _completion_by_pair_core(f, gamma, delta) is not None:
            pairs.append((gamma, delta))
    eps = fundamental_unit(f)
    for k in range(-40, 41):
        for u in (eps ** k, -eps ** k):
            pairs += [((0, 0), u.int_coords()), (u.int_coords(), (0, 0))]
    for gamma, delta in pairs:
        expected = _completion_by_pair_core(f, gamma, delta)
        ab = complete_pair(f.element(*gamma), f.element(*delta))
        assert tuple(x.int_coords() for x in ab) == expected, (gamma, delta)
        for x, coords in zip(ab, expected):
            assert type(x.a) is int and type(x.b) is int
            assert x.field is f
            assert x == f.element(*coords)
            assert hash(x) == hash(f.element(*coords))
    with pytest.raises(FrozenInstanceError):
        ab[0].a = 0
    with pytest.raises(FrozenInstanceError):
        ab[1].field = f


def test_complete_pair_error_messages_and_order(monkeypatch):
    """Each error keeps its message, and a pair with several faults
    reports the first in this order: two fields (or a non-element), a
    non-Euclidean field, a non-integral coordinate (delta's before
    gamma's), then a pair that is not unimodular, both entries zero
    included."""
    f5, f2 = make_field(5), make_field(2)
    f11 = make_field(11, strict=False)
    half = Fraction(1, 2)
    cases = [
        (f11.element(half), f5.zero, "elements of different fields"),
        (f5.element(half), f2.element(half), "elements of different fields"),
        (f11.element(half), f11.zero,
         "d=11 is not in the supported Euclidean set"),
        (f11.zero, f11.zero, "d=11 is not in the supported Euclidean set"),
        (f5.element(0, half), f5.element(half),
         r"\(1/2 \+ 0\*w \| d=5\) is not integral"),
        (f5.element(0, half), f5.zero,
         r"\(0 \+ 1/2\*w \| d=5\) is not integral"),
        (f5.zero, f5.zero, "pair is not unimodular"),
        (f5.element(2, 0), f5.element(0, 2), "pair is not unimodular"),
    ]
    for gamma, delta, message in cases:
        with pytest.raises(QFieldError, match=f"^{message}$"):
            complete_pair(gamma, delta)
    # a wrong a (off by 1, not by a multiple of gamma) leaves a*delta - 1
    # off the ideal gamma*O_F: the floor division is inexact and the
    # determinant check fires, for gamma = 0 too
    pairs = [((2, 0), (1, 0)), ((3, 1), (1, 1)), ((0, 0), (1, 0)),
             ((7, -3), (2, 5))]
    for gamma, delta in pairs:
        assert complete_pair(f5.element(*gamma), f5.element(*delta))
    exact = qfield._complete_int

    def off_by_one(f, gamma, delta):
        a0, a1 = exact(f, gamma, delta)
        return a0 + 1, a1

    monkeypatch.setattr(qfield, "_complete_int", off_by_one)
    for gamma, delta in pairs:
        with pytest.raises(QFieldError,
                           match="^completion determinant check failed$"):
            complete_pair(f5.element(*gamma), f5.element(*delta))


def _ext_gcd_by_steps(f, a, b, hits):
    """The step-by-step extended gcd: each Euclidean step rounds
    a*conj(b)/N(b) to the nearest coordinates and, when that leaves
    |N(r)| >= |N(b)|, searches q + (dp, dq) for dp, dq in (0, -1, 1),
    the first strictly smallest |N(r)| winning.  hits[0] counts the
    searches."""
    from hpseries.qfield import _conj, _mul, _norm

    def sub(u, v):
        return (u[0] - v[0], u[1] - v[1])

    def rdiv(n, m):
        if m < 0:
            n, m = -n, -m
        return (2 * n + m) // (2 * m)

    def step(a, b):
        nb = _norm(f, b)
        num = _mul(f, a, _conj(f, b))
        q0 = (rdiv(num[0], nb), rdiv(num[1], nb))
        r0 = sub(a, _mul(f, q0, b))
        if abs(_norm(f, r0)) < abs(nb):
            return q0, r0
        hits[0] += 1
        best = None
        for dp in (0, -1, 1):
            for dq in (0, -1, 1):
                q = (q0[0] + dp, q0[1] + dq)
                r = sub(a, _mul(f, q, b))
                nr = abs(_norm(f, r))
                if best is None or nr < best[0]:
                    best = (nr, q, r)
        nr, q, r = best
        if nr >= abs(nb):
            raise QFieldError(f"Euclidean division failed in d={f.d}: "
                              f"|N(r)|={nr} >= |N(b)|={abs(nb)}")
        return q, r

    x0, y0, x1, y1 = (1, 0), (0, 0), (0, 0), (1, 0)
    while b != (0, 0):
        q, r = step(a, b)
        a, b = b, r
        x0, x1 = x1, sub(x0, _mul(f, q, x1))
        y0, y1 = y1, sub(y0, _mul(f, q, y1))
    return a, x0, y0


def _coordinate_pairs(rng, count, height=20):
    for _ in range(count):
        yield (tuple(rng.randint(-height, height) for _ in range(2)),
               tuple(rng.randint(-height, height) for _ in range(2)))


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_ext_gcd_matches_step_oracle(d):
    """Same (g, x), so the same quotients, on pairs of height <= 20,
    unimodular or not; for d = 6, 7 the sample takes the correction
    search.  On every unimodular pair complete_pair returns exactly the
    oracle's completion (x/g, -y/g), which pins the bits of b, and of the
    y that _ext_gcd_int no longer tracks."""
    f = make_field(d)
    rng = random.Random(1000 + d)
    hits = [0]
    unimodular = 0
    for a, b in _coordinate_pairs(rng, 3000):
        g, x, y = _ext_gcd_by_steps(f, a, b, hits)
        assert qfield._ext_gcd_int(f, a, b) == (g, x), (a, b)
        if abs(qfield._norm(f, g)) != 1:
            continue
        unimodular += 1
        gi = f.element(*g).inverse().int_coords()
        top, bottom = complete_pair(f.element(*b), f.element(*a))
        assert (top.int_coords(), bottom.int_coords()) == \
            (qfield._mul(f, gi, x), qfield._mul(f, gi, (-y[0], -y[1]))), \
            (a, b)
    assert 0 < unimodular < 3000
    if d in (6, 7):
        assert hits[0] > 0


def test_ext_gcd_failure_matches_step_oracle():
    """Q(sqrt 10) is not Euclidean: the division fails with the same
    message at the same step."""
    f = make_field(10, strict=False)
    rng = random.Random(10)
    failed = 0
    for a, b in _coordinate_pairs(rng, 500):
        try:
            expected = _ext_gcd_by_steps(f, a, b, [0])
        except QFieldError as err:
            failed += 1
            with pytest.raises(QFieldError) as got:
                qfield._ext_gcd_int(f, a, b)
            assert str(got.value) == str(err)
        else:
            assert qfield._ext_gcd_int(f, a, b) == expected[:2]
    assert failed > 0


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_phase_table_matches_step_oracle(d, monkeypatch):
    f = make_field(d)
    nu_emb = (0.7, 0.3)
    classes = [(3, 1), (2, 5), (7, -3), (4, 0)]
    hnfs = [qfield._ideal_hnf(f, [pq]) for pq in classes]
    new = [hpoincare._phase_table(f, pq, hnf, nu_emb)
           for pq, hnf in zip(classes, hnfs)]
    # the table completes through qfield._complete_int, which looks the
    # gcd up in qfield and reads (g, x)
    monkeypatch.setattr(qfield, "_ext_gcd_int",
                        lambda f, a, b: _ext_gcd_by_steps(f, a, b, [0])[:2])
    for pq, hnf, table in zip(classes, hnfs, new):
        expected = hpoincare._phase_table(f, pq, hnf, nu_emb)
        assert table.tobytes() == expected.tobytes(), pq


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
    assert eps.norm() == unit_norm
    assert eps.embeddings()[0] > 1.0


def test_ideal_from_gens_two_generators(field5):
    # (2, omega) generate the unit ideal
    ideal = ideal_from_gens(field5, [field5.element(2, 0), field5.omega])
    assert ideal.norm == 1


# -- coordinate normal form ------------------------------------------------------
# An integral coordinate is stored as a Python int (never a bool, a numpy
# integer or an integral Fraction), any other one as a Fraction with
# denominator > 1.  Observable behaviour is that of the same element with
# Fraction coordinates.

rationals = st.one_of(small_coords,
                      st.fractions(-50, 50, max_denominator=12))
raw_coords = st.one_of(rationals, st.booleans(), small_coords.map(np.int64))
raw_pairs = st.tuples(raw_coords, raw_coords)


def _assert_normal(x):
    for c in (x.a, x.b):
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), \
            (type(c), c)


def _exact(v):
    """v as a Fraction of Python ints (Fraction(numpy.int64(3)) would keep
    the numpy integer as its numerator)."""
    return Fraction(int(v)) if isinstance(v, np.integer) else Fraction(v)


def _fraction_built(f, a, b):
    """The element with coordinates _exact(a), _exact(b), built around the
    constructor so that they stay Fractions."""
    ref = object.__new__(FieldElement)
    for name, value in (("field", f), ("a", _exact(a)), ("b", _exact(b))):
        object.__setattr__(ref, name, value)
    return ref


def _assert_as_fraction_built(x, a, b):
    """x has normal coordinates, and ==, hash and repr agree with the
    Fraction-built element with exact coordinates (a, b)."""
    _assert_normal(x)
    ref = _fraction_built(x.field, a, b)
    assert x == ref and ref == x
    assert hash(x) == hash(ref)
    assert repr(x) == repr(ref)


def _fraction_inverse(f, x):
    n = qfield._norm(f, x)
    c = qfield._conj(f, x)
    return (c[0] / n, c[1] / n)


@pytest.mark.parametrize("d", EUCLIDEAN_D)
@given(a=raw_coords, b=raw_coords)
def test_element_stores_normal_coordinates(d, a, b):
    _assert_as_fraction_built(make_field(d).element(a, b), a, b)


@pytest.mark.parametrize("d", EUCLIDEAN_D)
@given(x=raw_pairs, y=raw_pairs, r=rationals, n=st.integers(-4, 4))
def test_arithmetic_keeps_normal_coordinates(d, x, y, r, n):
    """+ - * / ** (negative powers too), conjugate and inverse against the
    pair core run on Fraction coordinates."""
    f = make_field(d)
    X, Y = f.element(*x), f.element(*y)
    xf, yf = tuple(map(_exact, x)), tuple(map(_exact, y))
    assert (X == Y) == (xf == yf)
    cases = [
        (X + Y, (xf[0] + yf[0], xf[1] + yf[1])),
        (X - Y, (xf[0] - yf[0], xf[1] - yf[1])),
        (X * Y, qfield._mul(f, xf, yf)),
        (-X, (-xf[0], -xf[1])),
        (X.conjugate(), qfield._conj(f, xf)),
        (X + r, (xf[0] + r, xf[1])),
        (r - X, (r - xf[0], -xf[1])),
        (r * X, (r * xf[0], r * xf[1])),
    ]
    if r:
        cases.append((X / r, (xf[0] / Fraction(r), xf[1] / Fraction(r))))
    if not Y.is_zero():
        cases.append((X / Y, qfield._mul(f, xf, _fraction_inverse(f, yf))))
    if not X.is_zero():
        inv = _fraction_inverse(f, xf)
        assert X * X.inverse() == 1
        cases += [(X.inverse(), inv), (r / X, (r * inv[0], r * inv[1]))]
    if n >= 0 or not X.is_zero():
        power, base = (Fraction(1), Fraction(0)), xf if n >= 0 else inv
        for _ in range(abs(n)):
            power = qfield._mul(f, power, base)
        cases.append((X ** n, power))
    for got, (a, b) in cases:
        _assert_as_fraction_built(got, a, b)


@pytest.mark.parametrize("d", EUCLIDEAN_D)
@given(p=small_coords, q=small_coords, r=st.integers(-9, 9),
       s=st.integers(-9, 9))
def test_library_paths_keep_normal_coordinates(d, p, q, r, s):
    """codifferent_gen, DualIndex.elem, fundamental_unit, IdealHNF.basis
    and complete_pair, fed elements built from numpy integers: integral
    results carry Python ints, so none reaches _ext_gcd_int."""
    f = make_field(d)
    gen = codifferent_gen(f)
    _assert_normal(gen)
    assert all(type(c) is int for c in fundamental_unit(f).int_coords())
    gamma = f.element(np.int64(p), np.int64(q))
    assert all(type(c) is int for c in gamma.int_coords())
    beta = gamma if not gamma.is_zero() else f.one
    nu = DualIndex.from_numerator(f, beta)
    _assert_normal(nu.elem)
    assert nu.elem == beta * gen
    for e in ideal_from_gen(beta).basis():
        assert all(type(c) is int for c in e.int_coords())
    # (gamma, 1 + gamma*t) generates O_F for every t
    delta = f.one + gamma * f.element(np.int64(r), np.int64(s))
    a, b = complete_pair(gamma, delta)
    assert all(type(c) is int for c in a.int_coords() + b.int_coords())
    assert a * delta - b * gamma == 1
