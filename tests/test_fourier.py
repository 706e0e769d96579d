import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hpseries.fourier import (
    AliasingError,
    PoincareEvaluand,
    SamplingDomain,
    SyntheticEvaluand,
    _min_tp_trace_outside,
    extract_coefficient,
    extract_many,
    y_independence_check,
)
from hpseries.hpoincare import (
    PoincareSpec,
    TruncationPolicy,
    Weight,
    evaluate_grid,
)
from hpseries.qfield import EUCLIDEAN_D, DualIndex, codifferent_gen, make_field


@pytest.fixture(scope="module")
def dom16(field5):
    return SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=16)


@pytest.fixture(scope="module")
def dual_pool(field5):
    """Small totally positive dual indices inside the grid-16 Nyquist box,
    with tr(mu y) modest so the e^{2 pi tr(mu y)} unfolding keeps double-
    precision recovery below 1e-12."""
    out = []
    for p in range(-4, 5):
        for q in range(-4, 5):
            if (p, q) == (0, 0):
                continue
            nu = DualIndex.from_numerator(field5, field5.element(p, q))
            if not nu.is_totally_positive() or max(map(abs, nu.freq)) > 4:
                continue
            m1, m2 = nu.embeddings()
            if m1 * 1.1 + m2 * 1.0 <= 2.2:
                out.append(nu)
    assert len(out) >= 5
    return out


def test_domain_validation(field5):
    with pytest.raises(ValueError):
        SamplingDomain(field=field5, y1=1.0, y2=1.0, grid_n=16)  # N(y) = 1
    with pytest.raises(ValueError):
        SamplingDomain(field=field5, y1=2.0, y2=1.0, grid_n=15)  # odd
    with pytest.raises(ValueError):
        SamplingDomain(field=field5, y1=2.0, y2=1.0, grid_n=2)   # too small
    for grid_n in (16.0, True):  # no bare TypeError later on
        with pytest.raises(ValueError, match="grid_n must be an int"):
            SamplingDomain(field=field5, y1=2.0, y2=1.0, grid_n=grid_n)


def test_single_frequency_identity(nu5, dom16):
    syn = SyntheticEvaluand([(nu5, 1.0)])
    est = extract_coefficient(syn, nu5, dom16)
    assert abs(est.value - 1.0) < 1e-12


def test_single_frequency_orthogonality(nu5, mu5, dom16):
    syn = SyntheticEvaluand([(nu5, 1.0)])
    est = extract_coefficient(syn, mu5, dom16)
    assert abs(est.value) < 1e-12


@given(coeffs=st.lists(st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                          allow_infinity=False),
                       min_size=1, max_size=5),
       rnd=st.randoms(use_true_random=False))
def test_exact_recovery_of_synthetic_sums(field5, dual_pool, coeffs, rnd):
    dom = SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=16)
    picks = rnd.sample(dual_pool, min(len(coeffs), len(dual_pool)))
    terms = list(zip(picks, coeffs))
    syn = SyntheticEvaluand(terms)
    ests = extract_many(syn, [mu for mu, _ in terms], dom)
    for (mu, c), est in zip(terms, ests):
        assert abs(est.value - c) < 1e-12


def test_linearity(nu5, mu5, dom16):
    f = SyntheticEvaluand([(nu5, 1.5 - 0.5j)])
    g = SyntheticEvaluand([(nu5, -0.25 + 2.0j), (mu5, 1.0)])
    combo = SyntheticEvaluand([(nu5, 1.5 - 0.5j), (nu5, -0.25 + 2.0j),
                               (mu5, 1.0)])
    for target in (nu5, mu5):
        vf = extract_coefficient(f, target, dom16).value
        vg = extract_coefficient(g, target, dom16).value
        vc = extract_coefficient(combo, target, dom16).value
        assert abs(vc - (vf + vg)) < 1e-12


def test_grid_doubling_stability(field5, nu5):
    syn = SyntheticEvaluand([(nu5, 2.0 + 1.0j)])
    v16 = extract_coefficient(
        syn, nu5, SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=16))
    v32 = extract_coefficient(
        syn, nu5, SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=32))
    assert abs(v16.value - v32.value) < 1e-12


def test_extract_many_matches_singles_bitwise(nu5, mu5, dom16):
    syn = SyntheticEvaluand([(nu5, 0.3 + 0.1j), (mu5, -1.0 + 0.4j)])
    batch = extract_many(syn, [nu5, mu5], dom16)
    single_nu = extract_coefficient(syn, nu5, dom16)
    single_mu = extract_coefficient(syn, mu5, dom16)
    assert batch[0].value == single_nu.value
    assert batch[1].value == single_mu.value


def test_extract_many_empty(dom16, nu5):
    assert extract_many(SyntheticEvaluand([(nu5, 1.0)]), [], dom16) == []


def test_trace_one_batch_is_finite_and_near_real(field5, nu5, mu5,
                                                 unit_ideal5):
    """Both trace-1 indices from one shared sampling pass of the truncated
    series; values land (conjugate-symmetrically) on the real axis."""
    spec = PoincareSpec(field=field5, weight=Weight(10, 10), nu=nu5,
                        level=unit_ideal5)
    ev = PoincareEvaluand(spec, TruncationPolicy(gamma_height_max=9.0,
                                                 term_cutoff=1e-11))
    dom = SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=32)
    ests = extract_many(ev, [nu5, mu5], dom)
    for est in ests:
        assert math.isfinite(est.value.real) and math.isfinite(est.value.imag)
        assert abs(est.value.imag) < 1e-10 * (1 + abs(est.value))


def test_sample_grid_matches_full_grid(symmetry_spec):
    """The half-grid sample with its conjugate-filled mirror half against
    the lattice sum evaluated at every grid point.  Per-point bits depend
    on where a point sits in the batch, so the comparison is by tolerance."""
    spec = symmetry_spec
    policy = TruncationPolicy(gamma_height_max=8.0, term_cutoff=1e-11)
    dom = SamplingDomain(field=spec.field, y1=1.1, y2=1.0, grid_n=16)
    values, tails = PoincareEvaluand(spec, policy).sample_grid(dom)
    full_values, full_tail, _terms = evaluate_grid(
        spec, dom.lattice_points(), dom.y, policy)
    full_tails = full_tail.total()
    assert values.shape == full_values.shape == (16 * 16,)
    assert np.abs(values - full_values).max() \
        <= 1e-12 * np.abs(full_values).max()
    assert (np.abs(tails - full_tails) <= 1e-12 * full_tails).all()


def test_aliasing_guard_out_of_box_target(field5, nu5, dom16):
    far = DualIndex.from_numerator(field5, field5.element(0, 9))
    syn = SyntheticEvaluand([(nu5, 1.0)])
    with pytest.raises(AliasingError):
        extract_coefficient(syn, far, dom16)


def test_aliasing_guard_undeclarable_content(field5, nu5):
    # grid 4: Nyquist box |r|,|s| < 2; content at freq (2,2) = 2*nu is
    # nowhere near negligible relative to the target at freq (1,1)
    dom4 = SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=4)
    two_nu = DualIndex.from_numerator(field5, field5.element(0, 2))
    syn = SyntheticEvaluand([(nu5, 1.0), (two_nu, 1.0)])
    with pytest.raises(AliasingError):
        extract_coefficient(syn, nu5, dom4)


def test_aliasing_guard_poincare_coarse_grid(field5, nu5, mu5, unit_ideal5):
    # grid 4: the series' totally positive spectrum just outside the Nyquist
    # box is far from negligible against the trace-1 targets
    spec = PoincareSpec(field=field5, weight=Weight(8, 8), nu=nu5,
                        level=unit_ideal5)
    ev = PoincareEvaluand(spec, TruncationPolicy(gamma_height_max=8.0,
                                                 term_cutoff=1e-11))
    dom4 = SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=4)
    with pytest.raises(AliasingError):
        extract_many(ev, [nu5, mu5], dom4)


def test_aliasing_guard_gates_every_target(field5, nu5, unit_ideal5):
    """The gate weighs the aliased content against the target of largest
    trace: mu = 3 w/sqrt 5 (tr(mu y) = 3.217) is refused at grid 24 alone,
    and so with nu beside it, in either order."""
    spec = PoincareSpec(field=field5, weight=Weight(8, 8), nu=nu5,
                        level=unit_ideal5)
    ev = PoincareEvaluand(spec, TruncationPolicy(gamma_height_max=3.0,
                                                 term_cutoff=1e-4))
    dom24 = SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=24)
    mu = DualIndex.from_numerator(field5, field5.element(0, 3))
    extract_many(ev, [nu5], dom24)
    for mus in ([mu], [nu5, mu], [mu, nu5]):
        with pytest.raises(AliasingError, match="not negligible"):
            extract_many(ev, mus, dom24)


def test_out_of_box_target_refused_before_sampling(field5, nu5, unit_ideal5):
    """A target outside the Nyquist box is refused before the lattice sum
    runs, also after a target inside it."""
    spec = PoincareSpec(field=field5, weight=Weight(6, 6), nu=nu5,
                        level=unit_ideal5)

    class Unsampled(PoincareEvaluand):
        def sample_grid(self, domain):
            raise AssertionError("sampled")

    ev = Unsampled(spec, TruncationPolicy(gamma_height_max=12.0,
                                          term_cutoff=3e-12))
    dom32 = SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=32)
    far = DualIndex.from_numerator(field5, field5.element(0, 16))
    with pytest.raises(AliasingError, match="outside the Nyquist box"):
        extract_many(ev, [nu5, far], dom32)


def _fraction_gate_oracle(field, domain, shells):
    """The alias gate as an exact-rational scan: solve the trace pairing
    for each frequency (r, s) by Cramer's rule in Fractions, build the
    DualIndex, test total positivity on its Fraction coordinates.  The
    pairing constants do not depend on (r, s) and are computed once."""
    g = codifferent_gen(field)
    e10 = (field.element(1, 0) * g).trace()
    e1w = (field.element(1, 0) * g * field.omega).trace()
    ew0 = (field.element(0, 1) * g).trace()
    eww = (field.element(0, 1) * g * field.omega).trace()
    det = e10 * eww - e1w * ew0
    half = domain.grid_n // 2
    best = math.inf
    ymin = min(domain.y1, domain.y2)
    for r in range(1, shells + 1):
        if ymin * r >= best:
            break
        for s in range(-shells, shells + 1):
            if abs(r) < half and abs(s) < half:
                continue
            p = Fraction(r * eww - s * ew0, 1) / det
            q = Fraction(s * e10 - r * e1w, 1) / det
            if p.denominator != 1 or q.denominator != 1:
                continue
            beta = field.element(int(p), int(q))
            if beta.is_zero():
                continue
            mu = DualIndex.from_numerator(field, beta)
            if not mu.is_totally_positive():
                continue
            m1, m2 = mu.embeddings()
            best = min(best, m1 * domain.y1 + m2 * domain.y2)
    return best


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_alias_gate_matches_fraction_oracle(d):
    field = make_field(d)
    for grid_n in (4, 8, 16, 32, 64):
        for y1, y2 in ((1.1, 1.0), (1.5, 0.9), (3.0, 0.5), (1.01, 1.0)):
            dom = SamplingDomain(field=field, y1=y1, y2=y2, grid_n=grid_n)
            shells = 3 * grid_n
            assert _min_tp_trace_outside(field, dom, shells) == \
                _fraction_gate_oracle(field, dom, shells), (grid_n, y1, y2)


def test_y_independence_synthetic(field5, nu5):
    syn = SyntheticEvaluand([(nu5, 1.0 - 2.0j)])
    d1 = SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=16)
    d2 = SamplingDomain(field=field5, y1=1.4, y2=0.8, grid_n=16)
    assert y_independence_check(syn, nu5, d1, d2) < 1e-11


def test_y_independence_truncated_series(field5, nu5, unit_ideal5):
    spec = PoincareSpec(field=field5, weight=Weight(10, 10), nu=nu5,
                        level=unit_ideal5)
    policy = TruncationPolicy(gamma_height_max=10.0, term_cutoff=1e-12)
    ev = PoincareEvaluand(spec, policy)
    d1 = SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=32)
    d2 = SamplingDomain(field=field5, y1=1.3, y2=0.9, grid_n=32)
    e1 = extract_coefficient(ev, nu5, d1)
    e2 = extract_coefficient(ev, nu5, d2)
    diff = abs(e1.value - e2.value)
    assert diff < e1.total_error + e2.total_error
    assert diff < 1e-6


class _AntiHolomorphic:
    """Negative control: e^{2 pi i tr(nu conj(z))} is x-periodic but its
    y-dependence is inverted, so extraction must depend on the fiber."""

    def __init__(self, nu):
        self.nu = nu

    def sample_grid(self, domain):
        xs = domain.lattice_points()
        n1, n2 = self.nu.embeddings()
        zbar1 = xs[:, 0] - 1j * domain.y1
        zbar2 = xs[:, 1] - 1j * domain.y2
        vals = np.exp(2j * math.pi * (n1 * zbar1 + n2 * zbar2))
        return vals, np.zeros(len(xs))

    def min_alias_trace(self, domain):
        return math.inf


def test_y_independence_negative_control(field5, nu5):
    bad = _AntiHolomorphic(nu5)
    d1 = SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=16)
    d2 = SamplingDomain(field=field5, y1=1.3, y2=0.9, grid_n=16)
    assert y_independence_check(bad, nu5, d1, d2) > 1.0


def test_quad_error_estimate_present(field5, nu5, unit_ideal5):
    spec = PoincareSpec(field=field5, weight=Weight(12, 12), nu=nu5,
                        level=unit_ideal5)
    ev = PoincareEvaluand(spec, TruncationPolicy(gamma_height_max=8.0,
                                                 term_cutoff=1e-11))
    dom = SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=32)
    est = extract_coefficient(ev, nu5, dom)
    assert est.quad_error >= 0 and est.trunc_error >= 0
    assert abs(est.value - 1.0) < 1e-3
