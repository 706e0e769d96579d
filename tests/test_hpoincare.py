import cmath
import math
import random

import numpy as np
import pytest

from hpseries.hpoincare import (
    CosetRep,
    EvaluationError,
    PoincareSpec,
    Tail,
    TruncationLimitExceeded,
    TruncationPolicy,
    Weight,
    automorphy_factor,
    enumerate_cosets,
    evaluate,
    evaluate_grid,
    is_canonical_gamma,
    modularity_defect,
    term,
)
from hpseries.hpoincare import (
    _DELTA_BOX_MARGIN,
    _beyond_box_mass,
    _class_window,
    _classes_with_skip_info,
    _corner_bound,
    _cutoff_window,
    _gamma_box,
    _q_ranges,
    _residue_index,
    _strip_sites,
    enumerate_gamma_classes,
)
from hpseries.qfield import (
    EUCLIDEAN_D,
    DualIndex,
    _embed,
    _unit_inverse_int,
    complete_pair,
    fundamental_unit,
    ideal_from_gen,
    is_unimodular_pair,
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
    for k1, k2 in ((6.5, 5.5), (6.0, 6.0), (6, 6.0), (True, 5), (6, "6")):
        with pytest.raises(EvaluationError, match="must be ints"):
            Weight(k1, k2)


@pytest.mark.parametrize("max_terms", [math.nan, math.inf, True, 1000.0],
                         ids=["nan", "inf", "bool", "float"])
def test_policy_rejects_non_int_max_terms(max_terms):
    """NaN and inf would switch the term budget off, True would act as a
    budget of 1."""
    with pytest.raises(EvaluationError, match="max_terms must be an int"):
        TruncationPolicy(max_terms=max_terms)


def test_spec_rejects_non_totally_positive(field5, unit_ideal5):
    bad = DualIndex.from_numerator(field5, field5.element(1, 0))  # 1/sqrt5
    assert not bad.is_totally_positive()
    with pytest.raises(EvaluationError):
        PoincareSpec(field=field5, weight=Weight(4, 4), nu=bad,
                     level=unit_ideal5)


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_spec_rejects_nonparallel_with_norm_minus_one_unit(d):
    # a norm -1 fundamental unit (d = 2, 5, 13) demands parallel weight;
    # a norm +1 one (d = 3, 6, 7) accepts any weight
    f = make_field(d)
    kwargs = dict(field=f, weight=Weight(4, 6),
                  nu=trace_one_totally_positive(f, 8)[-1],
                  level=ideal_from_gen(f.one))
    if fundamental_unit(f).norm() == -1:
        assert d in (2, 5, 13)
        with pytest.raises(EvaluationError):
            PoincareSpec(**kwargs)
    else:
        assert d in (3, 6, 7)
        PoincareSpec(**kwargs)


@pytest.mark.parametrize("z", [(0.1 + 1e-5j, 0.2 + 1.0j),
                               (complex(0.1, math.nan), 0.2 + 1.0j),
                               (0.1 + 1.1j, complex(0.2, math.inf)),
                               (complex(math.nan, 1.1), 0.2 + 1.0j),
                               (0.1 + 1.1j, complex(-math.inf, 1.0))],
                         ids=["low-im", "nan-im", "inf-im", "nan-re",
                              "inf-re"])
def test_evaluate_rejects_low_im(spec8, policy_small, z):
    """Im(z) below the guard, NaN or inf, and NaN or inf real parts."""
    with pytest.raises(EvaluationError):
        evaluate(spec8, z, policy_small)


@pytest.mark.parametrize("xs", ([], [[]], [0.1, 0.2], [(0.1, 0.2, 0.3)],
                                [[(0.1, 0.2)]], [(0.1, 0.2), (0.3,)],
                                [("a", "b")], [(0.1, 0.2), (math.nan, 0.3)],
                                [(0.1, math.inf)], [(-math.inf, 0.2)]))
def test_evaluate_grid_rejects_malformed_points(spec8, policy_small, xs):
    with pytest.raises(EvaluationError):
        evaluate_grid(spec8, xs, (1.1, 1.0), policy_small)


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


def test_identity_terms_alone_can_exceed_max_terms(spec8):
    # every gamma class is skipped, so no chunk has terms: the budget is
    # still charged one identity term per point
    xs, y = [(0.1 * i, 0.05 * i) for i in range(5)], (1.1, 1.0)
    policy = TruncationPolicy(gamma_height_max=3.0, term_cutoff=0.5,
                              max_terms=2)
    assert _classes_with_skip_info(spec8, y, policy)[0] == []
    with pytest.raises(TruncationLimitExceeded) as err:
        evaluate_grid(spec8, xs, y, policy)
    assert err.value.terms == 5
    policy = TruncationPolicy(gamma_height_max=3.0, term_cutoff=0.5,
                              max_terms=5)
    assert evaluate_grid(spec8, xs, y, policy)[2] == 5


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


def test_reflection_through_explicit_cosets(symmetry_spec):
    """sum_M term(M, -x + iy) = conj sum_M term(M, x + iy) over the explicit
    coset representatives, at a point x off every sampling grid: the
    identity behind filling half of a sampling grid by conjugation."""
    spec = symmetry_spec
    policy = TruncationPolicy(gamma_height_max=5.0, term_cutoff=1e-9)
    x, y = (0.2718, -0.1414), (1.15, 1.05)
    z = (complex(x[0], y[0]), complex(x[1], y[1]))
    zm = (complex(-x[0], y[0]), complex(-x[1], y[1]))
    reps = enumerate_cosets(spec, z, policy)
    reps_m = enumerate_cosets(spec, zm, policy)
    assert len(reps_m) == len(reps) > 1
    direct = sum(term(M, z, spec) for M in reps)
    mirrored = sum(term(M, zm, spec) for M in reps_m)
    assert abs(direct.imag) > 1e-3 * abs(direct)  # conj is not a no-op
    assert abs(mirrored - direct.conjugate()) <= 1e-12 * abs(direct)


def _full_box_rows(spec, z, policy):
    """(gamma, delta) of every unimodular site of the full delta box of
    each kept class: the rows a box-only window would sum at z."""
    f = spec.field
    w1e, w2e = f.omega_embeddings()
    x, y = (z[0].real, z[1].real), (z[0].imag, z[1].imag)
    rows = []
    for cl in enumerate_gamma_classes(spec, y, policy):
        g1, g2 = cl.emb
        wd = cl.wd
        gamma = f.element(*cl.pq)
        c1, c2 = -g1 * x[0], -g2 * x[1]
        qlo = math.ceil(((c1 - wd[0]) - (c2 + wd[1])) / f.sqrt_disc)
        qhi = math.floor(((c1 + wd[0]) - (c2 - wd[1])) / f.sqrt_disc)
        for qd in range(qlo, qhi + 1):
            plo = math.ceil(max(c1 - wd[0] - qd * w1e, c2 - wd[1] - qd * w2e))
            phi = math.floor(min(c1 + wd[0] - qd * w1e,
                                 c2 + wd[1] - qd * w2e))
            for pd in range(plo, phi + 1):
                delta = f.element(pd, qd)
                if is_unimodular_pair(gamma, delta):
                    rows.append((gamma, delta))
    return rows


def _row_bound(spec, gamma, delta, z):
    """prod_j |gamma_j z_j + delta_j|^{-k_j}, the bound on |term|."""
    (g1, g2), (d1, d2) = gamma.embeddings(), delta.embeddings()
    return (abs(g1 * z[0] + d1) ** -spec.weight.k1
            * abs(g2 * z[1] + d2) ** -spec.weight.k2)


# (d, weight, level generator, (height, cutoff)); in the last case the cut
# sites outweigh the other tail parts together, so the tail holds only if
# it counts them
_WINDOW_CASES = ([(d, (8, 8), g, (6.0, 1e-10)) for d in EUCLIDEAN_D
                  for g in (1, 2)]
                 + [(3, (5, 7), 1, (6.0, 1e-10)), (5, (6, 6), 1, (16.0, 1e-11))])


@pytest.mark.parametrize("d,k,level_gen,truncation", _WINDOW_CASES,
                         ids=[f"d{d}-k{k[0]},{k[1]}-level{g}-H{t[0]:g}"
                              for d, k, g, t in _WINDOW_CASES])
def test_cutoff_window_against_full_box(d, k, level_gen, truncation):
    """The cutoff window keeps exactly the box sites whose term bound is at
    least the cutoff, and the tail covers what the rest of the box adds."""
    f = make_field(d)
    spec = PoincareSpec(field=f, weight=Weight(*k),
                        nu=trace_one_totally_positive(f, 8)[-1],
                        level=ideal_from_gen(f.element(level_gen, 0)))
    policy = TruncationPolicy(gamma_height_max=truncation[0],
                              term_cutoff=truncation[1])
    z = (0.2718 + 1.15j, -0.1414 + 1.05j)  # off every sampling grid
    cutoff = policy.term_cutoff
    reps = enumerate_cosets(spec, z, policy)
    kept = {(M.gamma, M.delta) for M in reps}
    for M in reps[1:]:
        assert _row_bound(spec, M.gamma, M.delta, z) >= cutoff
    box = _full_box_rows(spec, z, policy)
    assert kept - {(f.zero, f.one)} <= set(box)
    cut = [row for row in box if row not in kept]
    assert cut  # the window is narrower than the box
    cut_bounds = [_row_bound(spec, g, dl, z) for g, dl in cut]
    assert max(cut_bounds) < cutoff
    full = term(reps[0], z, spec) + sum(
        term(CosetRep(gamma=g, delta=dl, a=a, b=b), z, spec)
        for g, dl in box for a, b in [complete_pair(g, dl)])
    res = evaluate(spec, z, policy)
    assert res.terms_used == len(reps)
    assert abs(res.value - full) <= sum(cut_bounds) <= res.tail_estimate


def _lattice_sites(f, cl, x, half):
    """(p, q, u1, u2) of every delta = p + q w with |u_j| <= half_j,
    u_j = gamma_j x_j + delta_j, by a row loop over q: a brute force
    independent of the strip walk."""
    w1e, w2e = f.omega_embeddings()
    g1, g2 = cl.emb
    c1, c2 = -g1 * x[0], -g2 * x[1]
    qlo = math.ceil(((c1 - half[0]) - (c2 + half[1])) / f.sqrt_disc)
    qhi = math.floor(((c1 + half[0]) - (c2 - half[1])) / f.sqrt_disc)
    ps, qs = [], []
    for q in range(qlo, qhi + 1):
        plo = math.ceil(max(c1 - half[0] - q * w1e, c2 - half[1] - q * w2e))
        phi = math.floor(min(c1 + half[0] - q * w1e,
                             c2 + half[1] - q * w2e))
        ps.append(np.arange(plo, phi + 1))
        qs.append(np.full(max(phi - plo + 1, 0), q))
    p, q = np.concatenate(ps), np.concatenate(qs)
    return p, q, g1 * x[0] + (p + q * w1e), g2 * x[1] + (p + q * w2e)


def _site_bounds(v1, v2, b, k):
    """f_1(v_1) f_2(v_2), f_j(t) = (t^2 + b_j^2)^{-k_j/2}, per site."""
    return ((v1 ** 2 + b[0] ** 2) ** (-k[0] / 2)
            * (v2 ** 2 + b[1] ** 2) ** (-k[1] / 2))


def _site_keys(p, q):
    return np.asarray(p, dtype=np.int64) * (1 << 32) + q


# at weight (4, 4), H 40, the rigorous tail parts (walked cut sites and
# corner bounds) outweigh the heuristic ones, so the tail holds only if it
# counts the corner bound
_STRIP_CASES = _WINDOW_CASES + [(5, (4, 4), 1, (40.0, 1e-9))]


def _skipped_classes(spec, y, policy, fine_cutoff):
    """The classes `policy` skips wholesale, in class order: those kept at
    fine_cutoff, which must skip none, that `policy` does not keep."""
    fine = TruncationPolicy(gamma_height_max=policy.gamma_height_max,
                            term_cutoff=fine_cutoff)
    every, _unvisited, none_skipped, _beyond = _classes_with_skip_info(
        spec, y, fine)
    assert none_skipped == 0.0
    kept = {cl.pq for cl in enumerate_gamma_classes(spec, y, policy)}
    return [cl for cl in every if cl.pq not in kept]


@pytest.mark.parametrize("d,k,level_gen,truncation", _STRIP_CASES,
                         ids=[f"d{d}-k{k[0]},{k[1]}-level{g}-H{t[0]:g}"
                              for d, k, g, t in _STRIP_CASES])
def test_strips_and_corner_bound_against_brute_force(d, k, level_gen,
                                                     truncation):
    """Every kept box site lies in the strips |u_j| <= rho_j, the walk
    leaves out only box sites outside both strips, and in a box three times
    wider than the delta box the corner bound covers the corner sites and
    the two strip-end bounds the strip sites outside the delta box.  Each
    part of the `Tail` record equals its rebuild (walked cut sites, the
    corner and strip-end bounds, skipped classes, beyond-box classes), its
    total is the tail estimate, and it covers every unsummed site of the
    wider box."""
    f = make_field(d)
    spec = PoincareSpec(field=f, weight=Weight(*k),
                        nu=trace_one_totally_positive(f, 8)[-1],
                        level=ideal_from_gen(f.element(level_gen, 0)))
    cutoff = truncation[1]
    policy = TruncationPolicy(gamma_height_max=truncation[0],
                              term_cutoff=cutoff)
    z = (0.2718 + 1.15j, -0.1414 + 1.05j)  # off every sampling grid
    x, y = (z[0].real, z[1].real), (z[0].imag, z[1].imag)
    cut_mass = unvisited = unsummed = 0.0
    checked = 0
    for cl in enumerate_gamma_classes(spec, y, policy):
        # the class record carries the geometry the engine walks
        b = (abs(cl.emb[0]) * y[0], abs(cl.emb[1]) * y[1])
        wd, rho = cl.wd, cl.rho
        assert cl.b == b
        assert (wd, rho) == _class_window(*b, *k, cutoff)
        p, q, u1, u2 = _lattice_sites(f, cl, x, wd)
        keep, logs = _cutoff_window(u1, u2, b, spec.weight, cutoff)
        in_strips = (np.abs(u1) <= rho[0]) | (np.abs(u2) <= rho[1])
        assert in_strips[keep].all()
        c1, c2, qlo, qhi = _q_ranges(cl, np.array([x[0]]),
                                     np.array([x[1]]), f.sqrt_disc)
        _pt, pd, qd = _strip_sites(c1, c2, qlo, qhi, wd, rho,
                                   f.omega_embeddings())[:3]
        walked = set(zip(pd.tolist(), qd.tolist()))
        box = list(zip(p.tolist(), q.tolist()))
        # box sites only, each once, in box order
        assert list(zip(pd.tolist(), qd.tolist())) == \
            [site for site in box if site in walked]
        skipped = np.array([site not in walked for site in box])
        assert not in_strips[skipped].any()
        cut_mass += np.exp(-0.5 * logs[~skipped & ~keep]).sum()
        wp, wq, v1, v2 = _lattice_sites(f, cl, x, (3 * wd[0], 3 * wd[1]))
        wide = _site_bounds(v1, v2, b, k)
        corner = (np.abs(v1) > rho[0]) & (np.abs(v2) > rho[1])
        mass = _corner_bound(*b, *k, rho)
        assert wide[corner].sum() <= mass
        assert wide[corner].max() <= cutoff * (1 + 1e-12)
        # the strip ends: strip sites outside the delta box, each bound
        # also checked over its whole region |u_j| >= a_j of the wider box
        a1, a2 = wd[0] - _DELTA_BOX_MARGIN, wd[1] - _DELTA_BOX_MARGIN
        end1 = _corner_bound(*b, *k, (0.0, a2))
        end2 = _corner_bound(*b, *k, (a1, 0.0))
        wide_keys = _site_keys(wp, wq)
        ends = ~corner & ~np.isin(wide_keys, _site_keys(p, q))
        assert ends.any()
        assert wide[ends].sum() <= end1 + end2
        assert wide[np.abs(v2) >= a2].sum() <= end1
        assert wide[np.abs(v1) >= a1].sum() <= end2
        unvisited += mass + end1 + end2
        unsummed += wide[~np.isin(wide_keys, _site_keys(p[keep], q[keep]))
                         ].sum()
        checked += 1
    assert checked
    skip_mass = 0.0
    for cl in _skipped_classes(spec, y, policy, 1e-30):
        skip_mass += _corner_bound(*cl.b, *k, (0.0, 0.0))
    tail = evaluate_grid(spec, [x], y, policy)[1]
    assert isinstance(tail, Tail) and tail.cut.shape == (1,)
    # the engine sums the cut bounds per point by bincount, in walk order
    assert tail.cut[0] == pytest.approx(cut_mass, rel=1e-12, abs=0.0)
    assert tail.unvisited == unvisited
    assert tail.skipped == skip_mass
    assert tail.beyond == _beyond_box_mass(spec, y, policy)
    estimate = evaluate(spec, z, policy).tail_estimate
    assert tail.total()[0] == estimate
    assert unsummed <= estimate


def _two_formula_window(b1, b2, k1, k2, cutoff):
    """The class window as two formulas: the delta box from the radii r_j
    with r_j^{k_j} b_{3-j}^{k_{3-j}} = 1 / cutoff, half-width
    sqrt(r_j^2 - b_j^2) + margin, None if r_j <= b_j for either j; and the
    strip radii from the exponent E clamped at 0."""
    r1 = (b2 ** (-k2) / cutoff) ** (1.0 / k1)
    r2 = (b1 ** (-k1) / cutoff) ** (1.0 / k2)
    if r1 <= b1 or r2 <= b2:
        return None
    wd = (math.sqrt(r1 * r1 - b1 * b1) + _DELTA_BOX_MARGIN,
          math.sqrt(r2 * r2 - b2 * b2) + _DELTA_BOX_MARGIN)
    e = max(-2.0 * math.log(cutoff) - k1 * math.log(b1 * b1)
            - k2 * math.log(b2 * b2), 0.0)
    return wd, (b1 * math.sqrt(math.expm1(e / (2 * k1))),
                b2 * math.sqrt(math.expm1(e / (2 * k2))))


# (d, weights, height, cutoff): the certificates in all six fields, and the
# weight sweep over Q(sqrt 5)
_WINDOW_RUNS = [(d, (8,), 8.0, 1e-11) for d in EUCLIDEAN_D] \
    + [(5, (6, 10, 14, 18), 12.0, 3e-12)]


@pytest.mark.parametrize("d,ks,height,cutoff", _WINDOW_RUNS,
                         ids=[f"d{d}-H{h:g}" for d, _k, h, _c in _WINDOW_RUNS])
def test_class_window_against_two_formulas(d, ks, height, cutoff):
    """On every canonical class of the height box at y = (1.1, 1.0),
    `_class_window` skips the classes the two-formula window skips, has
    its strip radii bit for bit, and its box half-widths within 1e-12
    relative."""
    f = make_field(d)
    eps_inv = _unit_inverse_int(f, fundamental_unit(f).int_coords())
    y = (1.1, 1.0)
    kept = skipped = 0
    for pq in _gamma_box(f, height):
        if not is_canonical_gamma(f, pq, eps_inv):
            continue
        e1, e2 = _embed(f, pq)
        b = (abs(e1) * y[0], abs(e2) * y[1])
        for k in ks:
            got = _class_window(*b, k, k, cutoff)
            want = _two_formula_window(*b, k, k, cutoff)
            assert (got is None) == (want is None), (pq, k)
            if got is None:
                skipped += 1
                continue
            kept += 1
            assert got[1] == want[1], (pq, k)
            for w_got, w_want in zip(got[0], want[0]):
                assert w_got == pytest.approx(w_want, rel=1e-12, abs=0.0)
    assert kept and skipped


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_skipped_class_charge_against_brute_force(d):
    """A class the cutoff skips is charged `_corner_bound` at radius 0,
    which lies above the brute-force sum of its site bounds over a box
    three times wider than the delta box the class has at a cutoff low
    enough to keep it; its largest term alone would fall below that sum.
    The record's `skipped` part is these charges, added in class order."""
    f = make_field(d)
    k = (8, 8)
    spec = PoincareSpec(field=f, weight=Weight(*k),
                        nu=trace_one_totally_positive(f, 8)[-1],
                        level=ideal_from_gen(f.one))
    x, y = (0.2718, -0.1414), (1.15, 1.05)
    coarse = TruncationPolicy(gamma_height_max=6.0, term_cutoff=1e-8)
    skipped = _skipped_classes(spec, y, coarse, 1e-15)
    assert skipped
    skip_mass = 0.0
    for cl in skipped:
        charge = _corner_bound(*cl.b, *k, (0.0, 0.0))
        _p, _q, v1, v2 = _lattice_sites(f, cl, x, (3 * cl.wd[0],
                                                   3 * cl.wd[1]))
        brute = _site_bounds(v1, v2, cl.b, k).sum()
        largest_term = cl.b[0] ** -k[0] * cl.b[1] ** -k[1]
        assert largest_term < coarse.term_cutoff
        assert largest_term < brute <= charge
        skip_mass += charge
    tail = evaluate_grid(spec, [x], y, coarse)[1]
    assert tail.skipped == skip_mass
    z = (complex(x[0], y[0]), complex(x[1], y[1]))
    assert tail.total()[0] == evaluate(spec, z, coarse).tail_estimate


def test_tail_total_adds_parts_in_field_order():
    """cut + unvisited + skipped + beyond, left to right: adding 1.0 drops
    the cut part and keeps the beyond part; the reverse order would keep
    the cut part instead."""
    tail = Tail(cut=np.array([1e-17, 2.0]), unvisited=1.0, skipped=-1.0,
                beyond=3e-17)
    assert tail.total().tolist() == [3e-17, 2.0]


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


def test_evaluate_grid_matches_pointwise(spec8, policy_small):
    xs = [(Z0[0].real, Z0[1].real), (0.41, -0.07), (0.0, 0.0)]
    y = (Z0[0].imag, Z0[1].imag)
    vals, tail, _terms = evaluate_grid(spec8, xs, y, policy_small)
    for x, v in zip(xs, vals):
        r = evaluate(spec8, (complex(x[0], y[0]), complex(x[1], y[1])),
                     policy_small)
        # evaluate is the one-point grid: same terms, same per-point order
        assert v == pytest.approx(r.value, abs=1e-14)
    assert (tail.total() >= 0).all()


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_residue_index_matches_mod_formula(d):
    """For every kept class at H = 12, k = (6, 6), the floor-division
    residue index equals the % formula on random p and q, negatives
    included."""
    f = make_field(d)
    spec = PoincareSpec(field=f, weight=Weight(6, 6),
                        nu=trace_one_totally_positive(f, 8)[-1],
                        level=ideal_from_gen(f.one))
    policy = TruncationPolicy(gamma_height_max=12.0, term_cutoff=3e-12)
    rng = np.random.default_rng(d)
    p = rng.integers(-10 ** 6, 10 ** 6, 2000)
    q = rng.integers(-10 ** 6, 10 ** 6, 2000)
    hnfs = {}
    for cl in enumerate_gamma_classes(spec, (1.1, 1.0), policy):
        A, B, C = hnfs[cl.pq] = cl.hnf
        j = q % C
        want = ((p - ((q - j) // C) * B) % A) * C + j
        assert (_residue_index(cl.hnf, p, q) == want).all(), cl.hnf
    assert any(C > 1 for _A, _B, C in hnfs.values())
    if d == 5:
        assert hnfs[(2, 0)] == (2, 0, 2) and hnfs[(-2, 4)] == (10, 4, 2)


# -- tail bound --------------------------------------------------------------------

def test_tail_charges_beyond_box_when_no_classes(field5, nu5):
    """A box that holds no class of the level ideal leaves every class of
    it beyond the box: no walked, unvisited or skipped mass, but the
    beyond-box part is still charged."""
    level = ideal_from_gen(field5.element(1000, 0))
    spec = PoincareSpec(field=field5, weight=Weight(4, 4), nu=nu5, level=level)
    policy = TruncationPolicy(gamma_height_max=10.0, term_cutoff=1e-10)
    y = (Z0[0].imag, Z0[1].imag)
    tail = evaluate_grid(spec, [(Z0[0].real, Z0[1].real)], y, policy)[1]
    assert tail.cut.tolist() == [0.0]
    assert tail.unvisited == tail.skipped == 0.0
    assert tail.beyond == _beyond_box_mass(spec, y, policy) > 0.0
    assert evaluate(spec, Z0, policy).tail_estimate == tail.beyond


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_empty_box_bar_covers_the_classes_beyond(d):
    """At level (p) the box of height p - 1 holds no class: the truncated
    sum is the identity term alone, yet the value moves once the box of
    height 4p holds the classes of the ideal.  The reported bar is the
    beyond-box part alone, and it covers that move."""
    f = make_field(d)
    x, y = (0.1, 0.2), (1.1, 1.0)
    z = (complex(x[0], y[0]), complex(x[1], y[1]))
    for p in (7, 11):
        spec = PoincareSpec(field=f, weight=Weight(4, 4),
                            nu=trace_one_totally_positive(f, 8)[-1],
                            level=ideal_from_gen(f.element(p, 0)))
        empty, full = (TruncationPolicy(gamma_height_max=h,
                                        term_cutoff=1e-12)
                       for h in (p - 1.0, 4.0 * p))
        assert enumerate_gamma_classes(spec, y, empty) == []
        _values, tail, terms = evaluate_grid(spec, [x], y, empty)
        assert terms == 1
        assert tail.cut.tolist() == [0.0]
        assert tail.unvisited == tail.skipped == 0.0 < tail.beyond
        moved = abs(evaluate(spec, z, full).value
                    - evaluate(spec, z, empty).value)
        assert moved > 0.0
        assert tail.total()[0] >= moved, (p, moved, tail.beyond)


_SKIP_RULE_CASES = [(d, k) for d in EUCLIDEAN_D for k in ((4, 4), (12, 12))] \
    + [(d, k) for d in (3, 6, 7) for k in ((5, 7), (10, 6))]


@pytest.mark.parametrize("d,k", _SKIP_RULE_CASES,
                         ids=[f"d{d}-k{k[0]},{k[1]}"
                              for d, k in _SKIP_RULE_CASES])
def test_class_skipped_iff_largest_term_below_cutoff(d, k):
    """`_classes_with_skip_info` keeps a canonical class of the box iff its
    largest term prod_j b_j^{-k_j}, b_j = |gamma_j| y_j, reaches the
    cutoff; each skipped class is charged `_corner_bound` at (0, 0)."""
    f = make_field(d)
    eps_inv = fundamental_unit(f).inverse().int_coords()
    spec = PoincareSpec(field=f, weight=Weight(*k),
                        nu=trace_one_totally_positive(f, 8)[-1],
                        level=ideal_from_gen(f.one))
    decided = set()
    for y in ((1.1, 1.0), (2.3, 0.7)):
        for cutoff in (1e-8, 1e-12):
            policy = TruncationPolicy(gamma_height_max=12.0,
                                      term_cutoff=cutoff)
            kept, _unvisited, skipped, _beyond = _classes_with_skip_info(
                spec, y, policy)
            want_kept, want_skipped = [], 0.0
            for pq in sorted(_gamma_box(f, 12.0)):
                if not is_canonical_gamma(f, pq, eps_inv):
                    continue
                g = f.element(*pq).embeddings()
                b = (abs(g[0]) * y[0], abs(g[1]) * y[1])
                if b[0] ** (-k[0]) * b[1] ** (-k[1]) < cutoff:
                    want_skipped += _corner_bound(*b, *k, (0.0, 0.0))
                    decided.add("skipped")
                else:
                    want_kept.append(pq)
                    decided.add("kept")
            assert [cl.pq for cl in kept] == want_kept
            assert skipped == want_skipped
    assert decided == {"kept", "skipped"}


def test_tail_bound_monotone_under_box_doubling(spec8):
    for h in (5.0, 7.0):
        small = TruncationPolicy(gamma_height_max=h, term_cutoff=1e-10)
        big = TruncationPolicy(gamma_height_max=2 * h, term_cutoff=1e-10)
        assert evaluate(spec8, Z0, big).tail_estimate \
            <= evaluate(spec8, Z0, small).tail_estimate


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
