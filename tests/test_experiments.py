import json

import pytest

from hpseries.experiments import (
    SweepAxis,
    TrendThresholds,
    Verdict,
    certificate_to_json,
    certify_nonvanishing,
    sweep_level,
    sweep_to_csv,
    sweep_to_json,
    sweep_weight,
)
from hpseries.fourier import PoincareEvaluand, SamplingDomain, extract_coefficient
from hpseries.hpoincare import PoincareSpec, TruncationPolicy, Weight
from hpseries.qfield import (
    EUCLIDEAN_D,
    ideal_from_gen,
    make_field,
    trace_one_totally_positive,
)


@pytest.fixture(scope="module")
def dom(field5):
    return SamplingDomain(field=field5, y1=1.1, y2=1.0, grid_n=32)


@pytest.fixture(scope="module")
def policy():
    return TruncationPolicy(gamma_height_max=9.0, term_cutoff=1e-11)


def test_weight_sweep_rows_and_trend(field5, nu5, mu5, unit_ideal5, dom,
                                     policy):
    report = sweep_weight(field5, nu5, mu5, unit_ideal5, [10, 14, 18],
                          dom, policy)
    assert report.axis is SweepAxis.WEIGHT
    assert [r.param for r in report.rows] == [10, 14, 18]
    nu_ok, mu_ok = report.endpoint_improvement()
    assert nu_ok and mu_ok
    dev_nu, dev_mu = report.final_deviations()
    assert dev_nu < TrendThresholds().final_deviation
    assert dev_mu < TrendThresholds().final_deviation


def test_weight_sweep_requires_ascending(field5, nu5, mu5, unit_ideal5, dom,
                                         policy):
    with pytest.raises(ValueError):
        sweep_weight(field5, nu5, mu5, unit_ideal5, [14, 10], dom, policy)


def test_sweep_refuses_empty_spec_list(field5, nu5, mu5, unit_ideal5, dom,
                                      policy):
    with pytest.raises(ValueError):
        sweep_weight(field5, nu5, mu5, unit_ideal5, [], dom, policy)
    with pytest.raises(ValueError):
        sweep_level(field5, nu5, mu5, Weight(4, 4), [], dom, policy)


def test_trend_needs_a_successful_row(field5, nu5, mu5, unit_ideal5, dom):
    """A report whose rows all failed has no trend to judge; one
    successful row is its own first and last row."""
    starved = TruncationPolicy(gamma_height_max=9.0, term_cutoff=1e-11,
                               max_terms=10)
    report = sweep_weight(field5, nu5, mu5, unit_ideal5, [10, 14], dom,
                          starved)
    assert [r.failed for r in report.rows] == [True, True]
    with pytest.raises(ValueError):
        report.endpoint_improvement()
    with pytest.raises(ValueError):
        report.final_deviations()
    one = sweep_weight(field5, nu5, mu5, unit_ideal5, [10], dom,
                       TruncationPolicy(gamma_height_max=9.0,
                                        term_cutoff=1e-11))
    assert not one.rows[0].failed
    assert one.endpoint_improvement() == (True, True)
    assert one.final_deviations() == (abs(one.rows[0].p_nu.value - 1),
                                      abs(one.rows[0].p_mu.value))


def test_sweep_with_nu_equals_mu_gives_identical_columns(
        field5, nu5, unit_ideal5, dom, policy):
    report = sweep_weight(field5, nu5, nu5, unit_ideal5, [10], dom, policy)
    row = report.rows[0]
    assert row.p_nu.value == row.p_mu.value


def test_single_row_matches_direct_extraction(field5, nu5, mu5, unit_ideal5,
                                              dom, policy):
    report = sweep_weight(field5, nu5, mu5, unit_ideal5, [12], dom, policy)
    spec = PoincareSpec(field=field5, weight=Weight(12, 12), nu=nu5,
                        level=unit_ideal5)
    direct = extract_coefficient(PoincareEvaluand(spec, policy), nu5, dom)
    assert report.rows[0].p_nu.value == direct.value


def test_level_sweep(field5, nu5, mu5, dom, policy):
    levels = [ideal_from_gen(field5.element(g, 0)) for g in (3, 2)]
    report = sweep_level(field5, nu5, mu5, Weight(4, 4), levels, dom, policy)
    assert [r.param for r in report.rows] == [4, 9]  # sorted by norm
    nu_ok, mu_ok = report.endpoint_improvement()
    assert nu_ok and mu_ok


def test_level_sweep_unit_ideal_is_full_group(field5, nu5, mu5, unit_ideal5,
                                              dom, policy):
    report = sweep_level(field5, nu5, mu5, Weight(6, 6), [unit_ideal5],
                         dom, policy)
    spec = PoincareSpec(field=field5, weight=Weight(6, 6), nu=nu5,
                        level=unit_ideal5)
    direct = extract_coefficient(PoincareEvaluand(spec, policy), nu5, dom)
    assert report.rows[0].p_nu.value == direct.value


def test_certificate_verdict_logic(field5, nu5, unit_ideal5, dom):
    spec = PoincareSpec(field=field5, weight=Weight(12, 12), nu=nu5,
                        level=unit_ideal5)
    good = certify_nonvanishing(
        spec, dom, TruncationPolicy(gamma_height_max=9.0, term_cutoff=1e-11))
    assert good.verdict is Verdict.NONZERO_CERTIFIED
    assert abs(good.coefficient.value - 1.0) < 1e-2
    # degenerate policy: a huge cutoff guts the series and swells the
    # reported error until the verdict is inconclusive
    bad = certify_nonvanishing(
        spec, dom, TruncationPolicy(gamma_height_max=9.0, term_cutoff=0.5),
        safety_factor=1e12)
    assert bad.verdict is Verdict.INCONCLUSIVE


def test_finite_index_set_certified_at_large_weight(field5, unit_ideal5, dom,
                                                    policy):
    """Both trace-1 totally positive indices certified at the same weight
    (the finite-set form of the non-vanishing statement)."""
    from hpseries.qfield import trace_one_totally_positive

    for nu in trace_one_totally_positive(field5, 8):
        spec = PoincareSpec(field=field5, weight=Weight(18, 18), nu=nu,
                            level=unit_ideal5)
        cert = certify_nonvanishing(spec, dom, policy, safety_factor=10.0)
        assert cert.verdict is Verdict.NONZERO_CERTIFIED
        assert abs(cert.coefficient.value - 1.0) < 1e-3


def test_certificate_pure_function_of_inputs(field5, nu5, unit_ideal5, dom,
                                             policy):
    spec = PoincareSpec(field=field5, weight=Weight(12, 12), nu=nu5,
                        level=unit_ideal5)
    c1 = certify_nonvanishing(spec, dom, policy)
    c2 = certify_nonvanishing(spec, dom, policy)
    assert c1.coefficient.value == c2.coefficient.value
    assert c1.total_error == c2.total_error
    assert c1.verdict == c2.verdict


def test_reports_reproducible_bit_for_bit(field5, nu5, mu5, unit_ideal5, dom,
                                          policy):
    r1 = sweep_weight(field5, nu5, mu5, unit_ideal5, [10, 14], dom, policy)
    r2 = sweep_weight(field5, nu5, mu5, unit_ideal5, [10, 14], dom, policy)
    assert sweep_to_csv(r1) == sweep_to_csv(r2)
    assert sweep_to_json(r1) == sweep_to_json(r2)


def test_csv_schema(field5, nu5, mu5, unit_ideal5, dom, policy):
    report = sweep_weight(field5, nu5, mu5, unit_ideal5, [10], dom, policy,)
    csv = sweep_to_csv(report, ["d=5"])
    lines = csv.strip().split("\n")
    assert lines[0] == "# d=5"
    assert lines[1] == ("axis,param,re_p_nu,im_p_nu,err_p_nu,"
                        "re_p_mu,im_p_mu,err_p_mu")
    fields = lines[2].split(",")
    assert fields[0] == "weight" and fields[1] == "10"
    assert len(fields) == 8


def test_json_embeds_spec_snapshot(field5, nu5, mu5, unit_ideal5, dom,
                                   policy):
    report = sweep_weight(field5, nu5, mu5, unit_ideal5, [10], dom, policy)
    doc = json.loads(sweep_to_json(report, {"d": "5"}))
    assert doc["spec"]["d"] == 5
    assert doc["config"] == {"d": "5"}
    assert doc["rows"][0]["param"] == 10


def test_json_payloads_name_the_convention(field5, nu5, mu5, unit_ideal5,
                                           dom, policy):
    # the payload digests cover this key, although the engine has one
    # Gamma_inf convention and no option selects it
    report = sweep_weight(field5, nu5, mu5, unit_ideal5, [10], dom, policy)
    cert = certify_nonvanishing(
        PoincareSpec(field=field5, weight=Weight(12, 12), nu=nu5,
                     level=unit_ideal5), dom, policy)
    for text in (sweep_to_json(report), certificate_to_json(cert)):
        assert json.loads(text)["spec"]["convention"] == "unit_extended"


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_error_bar_covers_tighter_cutoff(d):
    """The certificate configuration (k = (8,8), grid 32, H 8): the
    coefficient moves from cutoff 1e-11 to 1e-12 by no more than the
    quad_error + trunc_error reported at 1e-11."""
    f = make_field(d)
    spec = PoincareSpec(field=f, weight=Weight(8, 8),
                        nu=trace_one_totally_positive(f, 8)[-1],
                        level=ideal_from_gen(f.one))
    domain = SamplingDomain(field=f, y1=1.1, y2=1.0, grid_n=32)
    coarse, fine = (
        certify_nonvanishing(spec, domain, TruncationPolicy(
            gamma_height_max=8.0, term_cutoff=cutoff))
        for cutoff in (1e-11, 1e-12))
    moved = abs(fine.coefficient.value - coarse.coefficient.value)
    assert moved <= coarse.total_error
