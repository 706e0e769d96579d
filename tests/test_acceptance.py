"""Acceptance gate: one test (or tight group) per criterion, each printing
a PASS/FAIL line (run with -s to see them inline).

Criteria 3 and 4 contain two numerically false clauses; they are kept as
strict xfail tests so the defect stays visible without hiding regressions
elsewhere.  The analysis lives in the repository notes:

* the weight window {12,16,20,24} straddles the Bessel-order transition at
  4 pi sqrt(2) ~ 17.77, so the delta-normalized |p_{1,k,1}(2)| rises from
  1.5063 (k=12) to 1.5585 (k=16) before collapsing, and at k = 24 it is
  0.0459, not yet below 1e-2 (it passes from k = 28 on);
* p_{1,12,8}(2) vanishes identically (S(1,2;c) = 0 for every c = 0 mod 8
  because x^2 = 2 has no solution mod 8), so the level sequence cannot
  strictly decrease from q = 8 to q = 13.
"""

import time

import numpy as np
import pytest

from hpseries.classical import (
    ClassicalParams,
    classical_poincare_coefficient_by_quadrature,
    delta_coefficients,
    normalized_coefficient,
    petersson_coefficient,
)
from hpseries.experiments import (
    Verdict,
    certify_nonvanishing,
    sweep_level,
    sweep_to_csv,
    sweep_weight,
)
from hpseries.fourier import (
    SamplingDomain,
    SyntheticEvaluand,
    extract_many,
)
from hpseries.hpoincare import (
    PoincareSpec,
    TruncationPolicy,
    Weight,
    modularity_defect,
)
from hpseries.qfield import (
    complete_pair,
    ideal_from_gen,
    trace_one_totally_positive,
)

DEFECT_Z = (0.3 + 1.2j, -0.1 + 1.1j)


def report(criterion: str, ok: bool, detail: str):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


# -- shared heavy artifacts ----------------------------------------------------

@pytest.fixture(scope="module")
def crit5_policy():
    return TruncationPolicy(gamma_height_max=12.0, term_cutoff=3e-12)


@pytest.fixture(scope="module")
def dom_primary(field5):
    return SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=32)


@pytest.fixture(scope="module")
def dom_secondary(field5):
    return SamplingDomain(field=field5, y1=1.3, y2=0.9, grid_n=32)


@pytest.fixture(scope="module")
def crit5_report(field5, nu5, mu5, unit_ideal5, dom_primary, crit5_policy):
    t0 = time.monotonic()
    rep = sweep_weight(field5, nu5, mu5, unit_ideal5, [6, 10, 14, 18],
                       dom_primary, crit5_policy)
    rep_seconds = time.monotonic() - t0
    return rep, rep_seconds


@pytest.fixture(scope="module")
def crit5_report_y2(field5, nu5, mu5, unit_ideal5, dom_secondary,
                    crit5_policy):
    return sweep_weight(field5, nu5, mu5, unit_ideal5, [6, 10, 14, 18],
                        dom_secondary, crit5_policy)


CRIT6_POLICY = TruncationPolicy(gamma_height_max=12.0, term_cutoff=1e-9)


@pytest.fixture(scope="module")
def crit6_report(field5, nu5, mu5, dom_primary):
    levels = [ideal_from_gen(field5.element(g, 0)) for g in (2, 3, 4, 7)]
    return sweep_level(field5, nu5, mu5, Weight(4, 4), levels, dom_primary,
                       CRIT6_POLICY)


# -- criterion 1: classical oracle equivalence -----------------------------------

CRIT1_GRID = [(m, n, k, q) for m in (1, 2, 3) for n in (1, 2, 3)
              for k in (12, 16) for q in (1, 2)]


@pytest.fixture(scope="module")
def crit1_results():
    t0 = time.monotonic()
    rows = []
    for m, n, k, q in CRIT1_GRID:
        params = ClassicalParams(m=m, n=n, k=k, q=q)
        pet = petersson_coefficient(params, 1000)
        quad = classical_poincare_coefficient_by_quadrature(
            params, policy=None)
        rows.append((m, n, k, q, pet.value, quad))
    return rows, time.monotonic() - t0


def test_criterion_1_oracle_equivalence(crit1_results):
    rows, seconds = crit1_results
    worst = max(abs(pet - quad) for *_cfg, pet, quad in rows)
    ok = worst < 1e-6 and seconds < 120.0
    report("1", ok, f"worst |petersson - quadrature| = {worst:.3e} over "
                    f"{len(rows)} configs in {seconds:.1f}s (< 1e-6, < 120s)")
    assert worst < 1e-6
    assert seconds < 120.0


def test_criterion_2_tau_anchor():
    t0 = time.monotonic()
    p1 = petersson_coefficient(ClassicalParams(1, 1, 12, 1), 1000).value
    p2 = petersson_coefficient(ClassicalParams(1, 2, 12, 1), 1000).value
    p3 = petersson_coefficient(ClassicalParams(1, 3, 12, 1), 1000).value
    taus = delta_coefficients(3)
    seconds = time.monotonic() - t0
    err2 = abs(p2 / p1 - taus[1])
    err3 = abs(p3 / p1 - taus[2])
    ok = err2 < 1e-4 and err3 < 1e-3 and seconds < 30.0
    report("2", ok, f"p(2)/p(1) = {p2 / p1:.8f} (tau(2) = {taus[1]}, "
                    f"err {err2:.1e} < 1e-4); p(3)/p(1) = {p3 / p1:.6f} "
                    f"(tau(3) = {taus[2]}, err {err3:.1e} < 1e-3); "
                    f"{seconds:.1f}s < 30s")
    assert err2 < 1e-4
    assert err3 < 1e-3
    assert seconds < 30.0


# -- criterion 3: weight orthogonality surrogate (classical) ---------------------

@pytest.fixture(scope="module")
def crit3_values():
    ks = (12, 16, 20, 24)
    vals = [abs(normalized_coefficient(ClassicalParams(1, 2, k, 1),
                                       1000).value) for k in ks]
    p1_dev = abs(normalized_coefficient(ClassicalParams(1, 1, 24, 1),
                                        1000).value - 1.0)
    return ks, vals, p1_dev


@pytest.mark.xfail(strict=True, reason=
                   "spec defect: |p_{1,k,1}(2)| rises 1.5063 -> 1.5585 from "
                   "k=12 to k=16 (Bessel order still below the argument "
                   "4*pi*sqrt(2) = 17.77); see notes")
def test_criterion_3_strict_decrease(crit3_values):
    ks, vals, _ = crit3_values
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    report("3a", decreasing,
           "|p_{1,k,1}(2)| over k=" + str(list(ks)) + " = "
           + ", ".join(f"{v:.4e}" for v in vals)
           + " (strict decrease asserted)")
    assert decreasing


@pytest.mark.xfail(strict=True, reason=
                   "spec defect: |p_{1,24,1}(2)| = 4.59e-2 > 1e-2; the "
                   "threshold is met from k = 28 on; see notes")
def test_criterion_3_endpoint_small(crit3_values):
    _ks, vals, _ = crit3_values
    report("3b", vals[-1] < 1e-2,
           f"|p_{{1,24,1}}(2)| = {vals[-1]:.4e} (< 1e-2 asserted)")
    assert vals[-1] < 1e-2


def test_criterion_3_identity_endpoint(crit3_values):
    _ks, _vals, p1_dev = crit3_values
    ok = p1_dev < 1e-2
    report("3c", ok, f"|p_{{1,24,1}}(1) - 1| = {p1_dev:.4e} < 1e-2")
    assert ok


# -- criterion 4: level orthogonality surrogate (classical) ----------------------

@pytest.fixture(scope="module")
def crit4_values():
    qs = (2, 3, 5, 8, 13)
    vals = [abs(normalized_coefficient(ClassicalParams(1, 2, 12, q),
                                       1300).value) for q in qs]
    return qs, vals


@pytest.mark.xfail(strict=True, reason=
                   "spec defect: p_{1,12,8}(2) = 0 exactly (S(1,2;c) "
                   "vanishes for all c = 0 mod 8), so the q=8 -> q=13 step "
                   "cannot decrease; see notes")
def test_criterion_4_strict_decrease(crit4_values):
    qs, vals = crit4_values
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    report("4a", decreasing,
           "|p_{1,12,q}(2)| over q=" + str(list(qs)) + " = "
           + ", ".join(f"{v:.4e}" for v in vals)
           + " (strict decrease asserted)")
    assert decreasing


def test_criterion_4_endpoint_small(crit4_values):
    _qs, vals = crit4_values
    ok = vals[-1] < 1e-2
    report("4b", ok, f"|p_{{1,12,13}}(2)| = {vals[-1]:.3e} < 1e-2")
    assert ok


# -- criterion 5: Hilbert weight sweep --------------------------------------------

def test_criterion_5_weight_sweep(crit5_report):
    rep, seconds = crit5_report
    rows = rep.ok_rows()
    assert [r.param for r in rows] == [6, 10, 14, 18]
    dev_nu = [abs(r.p_nu.value - 1) for r in rows]
    dev_mu = [abs(r.p_mu.value) for r in rows]
    last = rows[-1]
    errors = [last.p_nu.quad_error, last.p_nu.trunc_error,
              last.p_mu.quad_error, last.p_mu.trunc_error]
    ok = (dev_nu[-1] <= dev_nu[0] and dev_mu[-1] <= dev_mu[0]
          and dev_nu[-1] < 0.05 and dev_mu[-1] < 0.05
          and all(e < 1e-3 for e in errors) and seconds < 600.0)
    report("5", ok,
           f"|p(nu)-1|: {dev_nu[0]:.3e} -> {dev_nu[-1]:.3e}; "
           f"|p(mu)|: {dev_mu[0]:.3e} -> {dev_mu[-1]:.3e} "
           f"(both < 0.05 at k=18); errors at k=18 "
           + ", ".join(f"{e:.1e}" for e in errors)
           + f" (< 1e-3 each); {seconds:.1f}s < 600s")
    assert dev_nu[-1] <= dev_nu[0] and dev_mu[-1] <= dev_mu[0]
    assert dev_nu[-1] < 0.05 and dev_mu[-1] < 0.05
    assert all(e < 1e-3 for e in errors)
    assert seconds < 600.0


def test_criterion_5_coefficients_real(crit5_report):
    """The coefficients are real; with the sampled grid conjugate-symmetric
    by construction, Im p is a rounding check."""
    rep, _seconds = crit5_report
    for row in rep.ok_rows():
        for est in (row.p_nu, row.p_mu):
            assert abs(est.value.imag) < 1e-13, (row.param, est.value)


# -- criterion 6: Hilbert level sweep ----------------------------------------------

def test_criterion_6_level_sweep(crit6_report):
    rows = crit6_report.ok_rows()
    assert [r.param for r in rows] == [4, 9, 16, 49]
    dev_nu = [abs(r.p_nu.value - 1) for r in rows]
    dev_mu = [abs(r.p_mu.value) for r in rows]
    ok = (dev_nu[-1] <= dev_nu[0] and dev_mu[-1] <= dev_mu[0]
          and dev_nu[-1] < 0.05 and dev_mu[-1] < 0.05)
    report("6", ok,
           f"|p(nu)-1| over N(I)=4..49: {dev_nu[0]:.3e} -> {dev_nu[-1]:.3e}; "
           f"|p(mu)|: {dev_mu[0]:.3e} -> {dev_mu[-1]:.3e} (both < 0.05 at "
           f"N(I)=49)")
    assert dev_nu[-1] <= dev_nu[0] and dev_mu[-1] <= dev_mu[0]
    assert dev_nu[-1] < 0.05 and dev_mu[-1] < 0.05


# -- criterion 7: non-vanishing certificates ----------------------------------------

def test_criterion_7_certificates(field5, dom_primary):
    trace_one = trace_one_totally_positive(field5, 8)
    assert len(trace_one) == 2
    outcomes = []
    policy12 = TruncationPolicy(gamma_height_max=10.0, term_cutoff=1e-11)
    policy4 = TruncationPolicy(gamma_height_max=12.0, term_cutoff=1e-10)
    level7 = ideal_from_gen(field5.element(7, 0))
    for nu in trace_one:
        spec = PoincareSpec(field=field5, weight=Weight(12, 12), nu=nu,
                            level=ideal_from_gen(field5.one))
        cert = certify_nonvanishing(spec, dom_primary, policy12,
                                    safety_factor=10.0)
        outcomes.append((nu, (12, 12), 1, cert))
        spec = PoincareSpec(field=field5, weight=Weight(4, 4), nu=nu,
                            level=level7)
        cert = certify_nonvanishing(spec, dom_primary, policy4,
                                    safety_factor=10.0)
        outcomes.append((nu, (4, 4), 49, cert))
    ok = all(c.verdict is Verdict.NONZERO_CERTIFIED for *_x, c in outcomes)
    detail = "; ".join(
        f"nu={nu.numerator.int_coords()} k={k} N(I)={n}: "
        f"|p(nu)|={abs(c.coefficient.value):.4f} vs 10*err="
        f"{10 * c.total_error:.1e} -> {c.verdict.value}"
        for nu, k, n, c in outcomes)
    report("7", ok, detail)
    assert ok


# -- criterion 8: internal consistency ------------------------------------------------

def test_criterion_8_y_independence(crit5_report, crit5_report_y2):
    rep1, _ = crit5_report
    rep2 = crit5_report_y2
    worst = 0.0
    for r1, r2 in zip(rep1.ok_rows(), rep2.ok_rows()):
        worst = max(worst, abs(r1.p_nu.value - r2.p_nu.value),
                    abs(r1.p_mu.value - r2.p_mu.value))
    ok = worst < 1e-6
    report("8a", ok, f"y-independence across k=6..18, both coefficients, "
                     f"y=(1.1,1.0) vs (1.3,0.9): worst diff {worst:.3e} "
                     f"< 1e-6")
    assert ok


def test_criterion_8_modularity_defect(field5, nu5):
    level2 = ideal_from_gen(field5.element(2, 0))
    spec = PoincareSpec(field=field5, weight=Weight(12, 12), nu=nu5,
                        level=level2)
    policy = TruncationPolicy(gamma_height_max=10.0, term_cutoff=1e-14)
    matrices = {
        "T_1": [[(1, 0), (1, 0)], [(0, 0), (1, 0)]],
        "T_w": [[(1, 0), (0, 1)], [(0, 0), (1, 0)]],
        "T_{2+w}": [[(1, 0), (2, 1)], [(0, 0), (1, 0)]],
    }
    defects = {}
    for name, rows in matrices.items():
        m = tuple(tuple(field5.element(*c) for c in row) for row in rows)
        defects[name] = modularity_defect(spec, DEFECT_Z, m, policy)
    ok = all(d < 1e-4 for d in defects.values())
    report("8b", ok, "defects at z=(0.3+1.2i, -0.1+1.1i), level (2): "
           + ", ".join(f"{n}={d:.2e}" for n, d in defects.items())
           + " (< 1e-4 each)")
    assert ok
    # diagnostic, not gated: a gamma != 0 matrix shows the intrinsic
    # orbit-section defect of the one-representative convention
    v = tuple(tuple(field5.element(*c) for c in row)
              for row in [[(1, 0), (0, 0)], [(2, 0), (1, 0)]])
    # a finer truncation at both z and Mz, whose Im(Mz) is smaller
    fine = TruncationPolicy(gamma_height_max=40.0, term_cutoff=1e-16)
    d = modularity_defect(spec, DEFECT_Z, v, fine)
    print(f"  [diagnostic] gamma!=0 matrix [[1,0],[2,1]] defect = {d:.3e} "
          f"(intrinsic to one-rep-per-unit-orbit; not gated)")


def test_criterion_8_synthetic_recovery(field5, nu5, mu5):
    dom = SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=32)
    coeffs = [(nu5, 0.37 - 1.25j), (mu5, -2.0 + 0.5j)]
    ests = extract_many(SyntheticEvaluand(coeffs), [nu5, mu5], dom)
    worst = max(abs(est.value - c) for (_m, c), est in zip(coeffs, ests))
    ok = worst < 1e-12
    report("8c", ok, f"synthetic Fourier recovery worst error {worst:.3e} "
                     f"< 1e-12")
    assert ok


def test_criterion_8_qfield_exhaustive(field5):
    """complete_pair succeeds with exact determinant 1 on every unimodular
    pair of coordinate height <= 20 (2.8 million candidate pairs)."""
    t0 = time.monotonic()
    h = 20
    rng = np.arange(-h, h + 1, dtype=np.int64)
    p, q, r, s = [a.ravel() for a in np.meshgrid(rng, rng, rng, rng,
                                                 indexing="ij")]
    # gamma = (p, q), gamma*w = (q, p+q) over d = 5; same for delta
    minors = [
        p * (p + q) - q * q,          # det(g, gw)
        p * s - q * r,                # det(g, d)
        p * (r + s) - q * s,          # det(g, dw)
        q * s - (p + q) * r,          # det(gw, d)
        q * (r + s) - (p + q) * s,    # det(gw, dw)
        r * (r + s) - s * s,          # det(d, dw)
    ]
    g = np.zeros_like(p)
    for m in minors:
        g = np.gcd(g, np.abs(m))
    unimodular = (g == 1)
    idx = np.nonzero(unimodular)[0]
    checked = 0
    for i in idx:
        gamma = field5.element(int(p[i]), int(q[i]))
        delta = field5.element(int(r[i]), int(s[i]))
        a, b = complete_pair(gamma, delta)  # raises on any failure
        checked += 1
    seconds = time.monotonic() - t0
    ok = checked == len(idx) and checked > 1_000_000
    report("8d", ok, f"complete_pair exact on {checked} unimodular pairs "
                     f"(height <= {h}) in {seconds:.0f}s")
    assert ok


# -- criterion 9: determinism -----------------------------------------------------

def test_criterion_9_determinism(field5, nu5, mu5, unit_ideal5, dom_primary,
                                 crit5_policy, crit5_report, crit6_report,
                                 crit1_results):
    rep5, _ = crit5_report
    rep5_again = sweep_weight(field5, nu5, mu5, unit_ideal5,
                              [6, 10, 14, 18], dom_primary, crit5_policy)
    csv5_match = sweep_to_csv(rep5) == sweep_to_csv(rep5_again)

    levels = [ideal_from_gen(field5.element(g, 0)) for g in (2, 3, 4, 7)]
    rep6_again = sweep_level(field5, nu5, mu5, Weight(4, 4), levels,
                             dom_primary, CRIT6_POLICY)
    csv6_match = sweep_to_csv(crit6_report) == sweep_to_csv(rep6_again)

    rows1, _ = crit1_results
    classical_match = True
    for m, n, k, q, pet, quad in rows1[:6]:
        params = ClassicalParams(m=m, n=n, k=k, q=q)
        pet2 = petersson_coefficient(params, 1000).value
        quad2 = classical_poincare_coefficient_by_quadrature(params)
        if repr(pet2) != repr(pet) or repr(quad2) != repr(quad):
            classical_match = False
    ok = csv5_match and csv6_match and classical_match
    report("9", ok, f"re-run CSV bit-identity: weight sweep {csv5_match}, "
                    f"level sweep {csv6_match}, classical pairs "
                    f"{classical_match}")
    assert ok
