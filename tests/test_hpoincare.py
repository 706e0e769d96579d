import cmath
import math
import random

import pytest

from hpseries.hpoincare import (
    CosetRep,
    EvaluationError,
    GammaInfConvention,
    PoincareSpec,
    TruncationLimitExceeded,
    TruncationPolicy,
    Weight,
    automorphy_factor,
    enumerate_cosets,
    evaluate,
    evaluate_grid,
    modularity_defect,
    tail_bound,
    term,
)
from hpseries.qfield import (
    EUCLIDEAN_D,
    DualIndex,
    complete_pair,
    ideal_from_gen,
    make_field,
    trace_one_totally_positive,
)

Z0 = (0.13 + 1.15j, -0.21 + 1.05j)


@pytest.fixture(scope="module")
def spec8(field5, nu5, unit_ideal5):
    return PoincareSpec(field=field5, weight=Weight(8, 8), nu=nu5,
                        level=unit_ideal5)


@pytest.fixture(scope="module")
def policy_small():
    return TruncationPolicy(gamma_height_max=6.0, term_cutoff=1e-10)


def exp_tr(nu, z):
    n1, n2 = nu.embeddings()
    return cmath.exp(2j * math.pi * (n1 * z[0] + n2 * z[1]))


# -- validation ----------------------------------------------------------------

def test_weight_validation():
    with pytest.raises(EvaluationError):
        Weight(2, 4)
    with pytest.raises(EvaluationError):
        Weight(3, 4)  # odd sum
    assert Weight(3, 5).parallel is False
    assert Weight(6, 6).parallel


def test_spec_rejects_non_totally_positive(field5, unit_ideal5):
    bad = DualIndex.from_numerator(field5, field5.element(1, 0))  # 1/sqrt5
    assert not bad.is_totally_positive()
    with pytest.raises(EvaluationError):
        PoincareSpec(field=field5, weight=Weight(4, 4), nu=bad,
                     level=unit_ideal5)


def test_spec_rejects_nonparallel_with_norm_minus_one_unit(field5, nu5,
                                                           unit_ideal5):
    # d=5 has a norm -1 fundamental unit: UnitExtended demands parallel
    with pytest.raises(EvaluationError):
        PoincareSpec(field=field5, weight=Weight(4, 6), nu=nu5,
                     level=unit_ideal5)
    # fine over d=3 (norm +1 unit)
    f3 = make_field(3)
    nu3 = DualIndex.from_numerator(f3, f3.element(1, 1))
    assert nu3.is_totally_positive()
    PoincareSpec(field=f3, weight=Weight(4, 6), nu=nu3,
                 level=ideal_from_gen(f3.one))


def test_evaluate_rejects_low_im(spec8, policy_small):
    with pytest.raises(EvaluationError):
        evaluate(spec8, (0.1 + 1e-5j, 0.2 + 1.0j), policy_small)


# -- automorphy factor and single terms ----------------------------------------

def test_automorphy_identity_row(field5, spec8):
    rep = CosetRep(gamma=field5.zero, delta=field5.one, a=field5.one,
                   b=field5.zero)
    for z in [Z0, (2.5 + 0.3j, -1.0 + 2.0j)]:
        assert automorphy_factor(rep, z, Weight(4, 4)) == 1.0
        assert automorphy_factor(rep, z, Weight(12, 8)) == 1.0


def test_automorphy_inversion_row_at_i(field5):
    rep = CosetRep(gamma=field5.one, delta=field5.zero, a=field5.zero,
                   b=-field5.one)
    z = (1j, 1j)
    assert automorphy_factor(rep, z, Weight(4, 4)) == pytest.approx(1.0)


def test_automorphy_against_mpmath(field5):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    gamma, delta = field5.element(2, 0), field5.omega
    a, b = complete_pair(gamma, delta)
    rep = CosetRep(gamma=gamma, delta=delta, a=a, b=b)
    z = (0.17 + 1.0j, -0.4 + 2.0j)
    got = automorphy_factor(rep, z, Weight(4, 4))
    w1 = (1 + mp.sqrt(5)) / 2
    w2 = (1 - mp.sqrt(5)) / 2
    g1, g2 = 2, 2
    d1, d2 = w1, w2
    want = (g1 * mp.mpc(z[0]) + d1) ** 4 * (g2 * mp.mpc(z[1]) + d2) ** 4
    assert abs(got - complex(want)) < 1e-12 * abs(got)


def test_term_identity_is_pure_exponential(field5, nu5, spec8):
    rep = CosetRep(gamma=field5.zero, delta=field5.one, a=field5.one,
                   b=field5.zero)
    for z in [Z0, (0.9 + 3.0j, 0.1 + 1.7j)]:
        assert term(rep, z, spec8) == pytest.approx(exp_tr(nu5, z), abs=1e-15)


def test_term_magnitude_bound(spec8, policy_small):
    # parallel weight, N(y) > 1: |term| <= N(y)^{-k} for every gamma != 0 row
    z = Z0
    ny = z[0].imag * z[1].imag
    assert ny > 1
    reps = enumerate_cosets(spec8, z, policy_small)
    assert len(reps) > 10
    for rep in reps[1:]:
        assert abs(term(rep, z, spec8)) <= ny ** (-8) * (1 + 1e-12)


def test_term_completion_invariance(field5, spec8):
    gamma, delta = field5.element(2, 0), field5.omega
    a, b = complete_pair(gamma, delta)
    base = term(CosetRep(gamma=gamma, delta=delta, a=a, b=b), Z0, spec8)
    for coords in [(1, 0), (0, 1), (-2, 3), (5, -1)]:
        lam = field5.element(*coords)
        shifted = CosetRep(gamma=gamma, delta=delta, a=a + lam * gamma,
                           b=b + lam * delta)
        assert term(shifted, Z0, spec8) == pytest.approx(base, abs=1e-14)


def test_minus_identity_pairing(field5, spec8):
    # terms for (gamma, delta) and (-gamma, -delta) agree when k1+k2 is even
    gamma, delta = field5.element(2, 0), field5.omega
    a, b = complete_pair(gamma, delta)
    t_plus = term(CosetRep(gamma=gamma, delta=delta, a=a, b=b), Z0, spec8)
    a2, b2 = complete_pair(-gamma, -delta)
    t_minus = term(CosetRep(gamma=-gamma, delta=-delta, a=a2, b=b2), Z0, spec8)
    assert t_plus == pytest.approx(t_minus, abs=1e-15)


# -- coset enumeration -----------------------------------------------------------

def test_enumeration_huge_level_keeps_identity_only(field5, nu5):
    level = ideal_from_gen(field5.element(1000, 0))
    spec = PoincareSpec(field=field5, weight=Weight(4, 4), nu=nu5, level=level)
    policy = TruncationPolicy(gamma_height_max=12.0, term_cutoff=1e-10)
    reps = enumerate_cosets(spec, Z0, policy)
    assert len(reps) == 1
    assert reps[0].gamma.is_zero()


def test_enumeration_tiny_box_keeps_identity_only(spec8):
    policy = TruncationPolicy(gamma_height_max=0.5, term_cutoff=1e-10)
    reps = enumerate_cosets(spec8, Z0, policy)
    assert len(reps) == 1


def test_enumeration_level_two_membership(field5, nu5):
    level = ideal_from_gen(field5.element(2, 0))
    spec = PoincareSpec(field=field5, weight=Weight(4, 4), nu=nu5, level=level)
    policy = TruncationPolicy(gamma_height_max=7.0, term_cutoff=1e-8)
    reps = enumerate_cosets(spec, Z0, policy)
    assert len(reps) > 1
    for rep in reps[1:]:
        p, q = rep.gamma.int_coords()
        assert p % 2 == 0 and q % 2 == 0  # (2) membership, by hand


def test_enumeration_rows_are_valid(field5, spec8, policy_small):
    for rep in enumerate_cosets(spec8, Z0, policy_small)[1:]:
        assert spec8.level.contains(rep.gamma)
        # CosetRep.__post_init__ already verified the determinant


def test_enumeration_deterministic_order(spec8, policy_small):
    reps1 = enumerate_cosets(spec8, Z0, policy_small)
    reps2 = enumerate_cosets(spec8, Z0, policy_small)
    assert [(r.gamma, r.delta) for r in reps1] == \
        [(r.gamma, r.delta) for r in reps2]


def test_max_terms_failure_carries_count(spec8):
    policy = TruncationPolicy(gamma_height_max=6.0, term_cutoff=1e-10,
                              max_terms=10)
    with pytest.raises(TruncationLimitExceeded) as err:
        evaluate(spec8, Z0, policy)
    assert err.value.terms > 10


# -- evaluation -------------------------------------------------------------------

@pytest.mark.parametrize("level_gen", (1, 2))
@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_evaluate_matches_explicit_coset_sum(d, level_gen, policy_small):
    f = make_field(d)
    spec = PoincareSpec(field=f, weight=Weight(8, 8),
                        nu=trace_one_totally_positive(f, 8)[-1],
                        level=ideal_from_gen(f.element(level_gen, 0)))
    res = evaluate(spec, Z0, policy_small)
    reps = enumerate_cosets(spec, Z0, policy_small)
    direct = sum(term(M, Z0, spec) for M in reps)
    assert res.value == pytest.approx(direct, abs=1e-14)
    assert res.terms_used == len(reps)


def test_evaluate_matches_coset_sum_level_two(field5, nu5):
    level = ideal_from_gen(field5.element(2, 0))
    spec = PoincareSpec(field=field5, weight=Weight(4, 4), nu=nu5, level=level)
    policy = TruncationPolicy(gamma_height_max=6.0, term_cutoff=1e-8)
    res = evaluate(spec, Z0, policy)
    direct = sum(term(M, Z0, spec) for M in enumerate_cosets(spec, Z0, policy))
    assert res.value == pytest.approx(direct, abs=1e-13)


def test_evaluate_translations_only_matches_coset_sum(field5, nu5,
                                                      unit_ideal5):
    spec = PoincareSpec(field=field5, weight=Weight(8, 8), nu=nu5,
                        level=unit_ideal5,
                        convention=GammaInfConvention.TRANSLATIONS_ONLY)
    policy = TruncationPolicy(gamma_height_max=5.0, term_cutoff=1e-9,
                              unit_cap=4)
    res = evaluate(spec, Z0, policy)
    reps = enumerate_cosets(spec, Z0, policy)
    direct = sum(term(M, Z0, spec) for M in reps)
    assert res.value == pytest.approx(direct, abs=1e-13)
    assert res.terms_used == len(reps)


def test_pointwise_weight_limit(field5, nu5, unit_ideal5):
    """P(z) -> e^{2 pi i tr(nu z)} as the parallel weight grows."""
    z = Z0
    target = exp_tr(nu5, z)
    policy = TruncationPolicy(gamma_height_max=8.0, term_cutoff=1e-12)
    devs = []
    for k in (6, 10, 14, 18):
        spec = PoincareSpec(field=field5, weight=Weight(k, k), nu=nu5,
                            level=unit_ideal5)
        devs.append(abs(evaluate(spec, z, policy).value - target))
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_pointwise_level_limit(field5, nu5):
    """Same limit as the level norm grows at fixed weight: eventually only
    the identity class survives the box."""
    z = Z0
    target = exp_tr(nu5, z)
    policy = TruncationPolicy(gamma_height_max=8.0, term_cutoff=1e-10)
    devs = []
    for g in (1, 2, 5, 30):
        spec = PoincareSpec(field=field5, weight=Weight(4, 4), nu=nu5,
                            level=ideal_from_gen(field5.element(g, 0)))
        devs.append(abs(evaluate(spec, z, policy).value - target))
    assert devs[-1] < devs[0]
    assert devs[-1] < 1e-12  # identity class alone at huge norm


def test_cutoff_halving_within_tail(spec8):
    coarse = TruncationPolicy(gamma_height_max=8.0, term_cutoff=1e-8)
    fine = TruncationPolicy(gamma_height_max=8.0, term_cutoff=5e-9)
    r1 = evaluate(spec8, Z0, coarse)
    r2 = evaluate(spec8, Z0, fine)
    assert abs(r2.value - r1.value) <= max(r1.tail_estimate, 1e-15)


def test_evaluate_deterministic(spec8, policy_small):
    r1 = evaluate(spec8, Z0, policy_small)
    r2 = evaluate(spec8, Z0, policy_small)
    assert r1.value == r2.value and r1.tail_estimate == r2.tail_estimate


def test_periodicity(field5, spec8, policy_small):
    base = evaluate(spec8, Z0, policy_small)
    for coords in [(1, 0), (0, 1), (2, 1)]:
        lam = field5.element(*coords)
        l1, l2 = lam.embeddings()
        shifted = evaluate(spec8, (Z0[0] + l1, Z0[1] + l2), policy_small)
        assert shifted.value == pytest.approx(base.value, abs=1e-12)


def test_largest_dropped_below_cutoff(spec8):
    policy = TruncationPolicy(gamma_height_max=10.0, term_cutoff=1e-8)
    res = evaluate(spec8, Z0, policy)
    assert res.largest_dropped <= policy.term_cutoff


def test_evaluate_grid_matches_pointwise(field5, nu5, unit_ideal5,
                                         policy_small):
    xs = [(Z0[0].real, Z0[1].real), (0.41, -0.07), (0.0, 0.0)]
    y = (Z0[0].imag, Z0[1].imag)
    for convention in GammaInfConvention:  # both identity-class row sets
        spec = PoincareSpec(field=field5, weight=Weight(8, 8), nu=nu5,
                            level=unit_ideal5, convention=convention)
        vals, tails = evaluate_grid(spec, xs, y, policy_small)[:2]
        for x, v in zip(xs, vals):
            r = evaluate(spec, (complex(x[0], y[0]), complex(x[1], y[1])),
                         policy_small)
            # evaluate is the one-point grid: same terms, same per-point order
            assert v == pytest.approx(r.value, abs=1e-14), convention
        assert (tails >= 0).all()


# -- tail bound --------------------------------------------------------------------

def test_tail_bound_zero_when_no_classes(field5, nu5):
    level = ideal_from_gen(field5.element(1000, 0))
    spec = PoincareSpec(field=field5, weight=Weight(4, 4), nu=nu5, level=level)
    policy = TruncationPolicy(gamma_height_max=10.0, term_cutoff=1e-10)
    assert tail_bound(spec, Z0, policy) == 0.0


def test_tail_bound_monotone_under_box_doubling(spec8):
    for h in (5.0, 7.0):
        small = TruncationPolicy(gamma_height_max=h, term_cutoff=1e-10)
        big = TruncationPolicy(gamma_height_max=2 * h, term_cutoff=1e-10)
        assert tail_bound(spec8, Z0, big) <= tail_bound(spec8, Z0, small)


def test_tail_bound_calibration(field5, nu5, unit_ideal5):
    """The coarse-policy bound should dominate the actual refinement step
    in at least 95% of randomized spot checks."""
    rng = random.Random(20240817)
    coarse = TruncationPolicy(gamma_height_max=6.0, term_cutoff=1e-8)
    fine = TruncationPolicy(gamma_height_max=12.0, term_cutoff=1e-12)
    hits = 0
    trials = 20
    for _ in range(trials):
        k = rng.choice([6, 8, 10])
        z = (rng.uniform(-0.5, 0.5) + 1j * rng.uniform(1.05, 1.4),
             rng.uniform(-0.5, 0.5) + 1j * rng.uniform(1.0, 1.3))
        spec = PoincareSpec(field=field5, weight=Weight(k, k), nu=nu5,
                            level=unit_ideal5)
        r_coarse = evaluate(spec, z, coarse)
        r_fine = evaluate(spec, z, fine)
        if r_coarse.tail_estimate >= abs(r_fine.value - r_coarse.value):
            hits += 1
    assert hits >= math.ceil(0.95 * trials)


# -- modularity ---------------------------------------------------------------------

def _matrix(field, rows):
    return tuple(tuple(field.element(*c) for c in row) for row in rows)


def test_modularity_defect_identity(field5, nu5):
    level = ideal_from_gen(field5.element(2, 0))
    spec = PoincareSpec(field=field5, weight=Weight(8, 8), nu=nu5, level=level)
    policy = TruncationPolicy(gamma_height_max=6.0, term_cutoff=1e-10)
    m = _matrix(field5, [[(1, 0), (0, 0)], [(0, 0), (1, 0)]])
    assert modularity_defect(spec, Z0, m, policy) == 0.0


def test_modularity_defect_translations(field5, nu5):
    level = ideal_from_gen(field5.element(2, 0))
    spec = PoincareSpec(field=field5, weight=Weight(8, 8), nu=nu5, level=level)
    policy = TruncationPolicy(gamma_height_max=7.0, term_cutoff=1e-11)
    for lam in [(1, 0), (0, 1), (1, 1)]:
        m = _matrix(field5, [[(1, 0), lam], [(0, 0), (1, 0)]])
        assert modularity_defect(spec, Z0, m, policy) < 1e-10


def test_modularity_defect_rejects_bad_matrix(field5, nu5):
    level = ideal_from_gen(field5.element(2, 0))
    spec = PoincareSpec(field=field5, weight=Weight(8, 8), nu=nu5, level=level)
    policy = TruncationPolicy(gamma_height_max=6.0, term_cutoff=1e-10)
    bad_det = _matrix(field5, [[(2, 0), (0, 0)], [(0, 0), (1, 0)]])
    with pytest.raises(EvaluationError):
        modularity_defect(spec, Z0, bad_det, policy)
    bad_level = _matrix(field5, [[(1, 0), (0, 0)], [(1, 0), (1, 0)]])
    with pytest.raises(EvaluationError):
        modularity_defect(spec, Z0, bad_level, policy)
