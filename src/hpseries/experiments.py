"""Sweeps and certificates realizing the orthogonality limits numerically.

Weight sweeps hold the level fixed and grow a parallel weight; level sweeps
hold the weight fixed and grow the level norm; in both the extracted
coefficients at the series index nu and at a second index mu should drift
toward the Kronecker delta.  The limits come with no rates, so assertions
are endpoint improvement plus a configurable deviation threshold at the
largest parameter.

Certificates report that the extracted nu-th coefficient is larger than a
safety factor times the combined (heuristic) error estimate; this is
numerical evidence for non-vanishing of the series, not a rigorous proof.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

from .fourier import (
    CoefficientEstimate,
    PoincareEvaluand,
    SamplingDomain,
    extract_many,
)
from .hpoincare import (
    PoincareSpec,
    TruncationLimitExceeded,
    TruncationPolicy,
    Weight,
)
from .qfield import DualIndex, IdealHNF, RealQuadraticField


class SweepAxis(enum.Enum):
    WEIGHT = "weight"
    LEVEL = "level"


class Verdict(enum.Enum):
    NONZERO_CERTIFIED = "NonzeroCertified"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class TrendThresholds:
    """Empirical finite-sample surrogates for the qualitative limits."""

    final_deviation: float = 0.05

    def __post_init__(self):
        # NaN fails every comparison, so a NaN threshold fails every sweep
        if not (math.isfinite(self.final_deviation)
                and self.final_deviation > 0):
            raise ValueError(f"final deviation must be finite and positive, "
                             f"got {self.final_deviation}")


@dataclass(frozen=True)
class SweepRow:
    param: int
    p_nu: CoefficientEstimate | None
    p_mu: CoefficientEstimate | None

    @property
    def failed(self) -> bool:
        """The lattice sum ran out of term budget: no estimates."""
        return self.p_nu is None


@dataclass(frozen=True)
class SweepReport:
    axis: SweepAxis
    rows: tuple[SweepRow, ...]
    spec_snapshot: dict

    def ok_rows(self) -> list[SweepRow]:
        return [r for r in self.rows if not r.failed]

    def _first_and_last_ok(self) -> tuple[SweepRow, SweepRow]:
        rows = self.ok_rows()
        if not rows:
            raise ValueError("no row of the sweep succeeded")
        return rows[0], rows[-1]

    def endpoint_improvement(self) -> tuple[bool, bool]:
        """(nu-column improved, mu-column improved) from the first to the
        last successful row; ValueError if no row succeeded."""
        first, last = self._first_and_last_ok()
        return (abs(last.p_nu.value - 1) <= abs(first.p_nu.value - 1),
                abs(last.p_mu.value) <= abs(first.p_mu.value))

    def final_deviations(self) -> tuple[float, float]:
        """Deviations from the delta at the last successful row; ValueError
        if no row succeeded."""
        last = self._first_and_last_ok()[1]
        return (abs(last.p_nu.value - 1), abs(last.p_mu.value))


@dataclass(frozen=True)
class Certificate:
    spec_snapshot: dict
    coefficient: CoefficientEstimate
    verdict: Verdict
    safety_factor: float

    @property
    def total_error(self) -> float:
        return self.coefficient.total_error


# spec_snapshot keys that vary along each axis (reported per row instead)
_ROW_KEYS = {SweepAxis.WEIGHT: ("weight",),
             SweepAxis.LEVEL: ("level_hnf", "level_norm")}


def sweep(axis: SweepAxis, specs: list[tuple[int, PoincareSpec]],
          mu: DualIndex, domain: SamplingDomain,
          policy: TruncationPolicy) -> SweepReport:
    """One row per (param, spec), in the given order: the coefficients at
    the spec's own index nu and at mu.  A row whose lattice sum runs out of
    term budget is kept as a failed row.  An empty spec list is refused:
    the report would have no row to judge."""
    if not specs:
        raise ValueError("a sweep needs at least one spec")
    rows = []
    for param, spec in specs:
        try:
            est_nu, est_mu = extract_many(PoincareEvaluand(spec, policy),
                                          [spec.nu, mu], domain)
            rows.append(SweepRow(param=param, p_nu=est_nu, p_mu=est_mu))
        except TruncationLimitExceeded:
            rows.append(SweepRow(param=param, p_nu=None, p_mu=None))
    snapshot = {k: v for k, v in specs[0][1].snapshot().items()
                if k not in _ROW_KEYS[axis]}
    return SweepReport(axis=axis, rows=tuple(rows), spec_snapshot=snapshot)


def sweep_weight(field: RealQuadraticField, nu: DualIndex, mu: DualIndex,
                 level: IdealHNF, k_list: list[int], domain: SamplingDomain,
                 policy: TruncationPolicy) -> SweepReport:
    """One row per parallel weight k, ascending."""
    if sorted(k_list) != list(k_list):
        raise ValueError("k_list must be ascending")
    return sweep(SweepAxis.WEIGHT,
                 [(k, PoincareSpec(field=field, weight=Weight(k, k), nu=nu,
                                   level=level))
                  for k in k_list], mu, domain, policy)


def sweep_level(field: RealQuadraticField, nu: DualIndex, mu: DualIndex,
                weight: Weight, level_list: list[IdealHNF],
                domain: SamplingDomain, policy: TruncationPolicy
                ) -> SweepReport:
    """One row per level ideal, ascending norm; param is N(I)."""
    levels = sorted(level_list, key=lambda ideal: ideal.norm)
    return sweep(SweepAxis.LEVEL,
                 [(level.norm, PoincareSpec(field=field, weight=weight, nu=nu,
                                            level=level))
                  for level in levels], mu, domain, policy)


def check_safety_factor(safety_factor: float) -> float:
    """safety_factor if it is finite and at least 1, else ValueError: below
    1, |p| > safety_factor * error would certify a coefficient smaller than
    its own error bar (and a NaN factor is not valid JSON)."""
    if not (math.isfinite(safety_factor) and safety_factor >= 1):
        raise ValueError(f"safety factor must be finite and at least 1, "
                         f"got {safety_factor}")
    return safety_factor


def certify_nonvanishing(spec: PoincareSpec, domain: SamplingDomain,
                         policy: TruncationPolicy,
                         safety_factor: float = 10.0) -> Certificate:
    """Heuristic non-vanishing certificate from the nu-th coefficient.

    NonzeroCertified means |p(nu)| exceeds safety_factor times the summed
    quadrature and truncation estimates; the estimates are not rigorous
    bounds, so the verdict is labeled evidence, not proof.  safety_factor
    must pass `check_safety_factor`.
    """
    check_safety_factor(safety_factor)
    evaluand = PoincareEvaluand(spec, policy)
    est = extract_many(evaluand, [spec.nu], domain)[0]
    verdict = (Verdict.NONZERO_CERTIFIED
               if abs(est.value) > safety_factor * est.total_error
               else Verdict.INCONCLUSIVE)
    return Certificate(spec_snapshot=spec.snapshot(), coefficient=est,
                       verdict=verdict, safety_factor=safety_factor)


# -- serialization -----------------------------------------------------------

CSV_HEADER = "axis,param,re_p_nu,im_p_nu,err_p_nu,re_p_mu,im_p_mu,err_p_mu"


def sweep_to_csv(report: SweepReport, config_lines: list[str] | None = None) -> str:
    lines = [f"# {line}" for line in (config_lines or [])]
    lines.append(CSV_HEADER)
    for row in report.rows:
        if row.failed:
            lines.append(f"{report.axis.value},{row.param},"
                         "nan,nan,nan,nan,nan,nan")
            continue
        lines.append(
            f"{report.axis.value},{row.param},"
            f"{row.p_nu.value.real!r},{row.p_nu.value.imag!r},"
            f"{row.p_nu.total_error!r},"
            f"{row.p_mu.value.real!r},{row.p_mu.value.imag!r},"
            f"{row.p_mu.total_error!r}")
    return "\n".join(lines) + "\n"


def _estimate_json(est: CoefficientEstimate) -> dict:
    """The JSON record of one coefficient estimate: value and error parts."""
    return {"re": est.value.real, "im": est.value.imag,
            "quad_error": est.quad_error, "trunc_error": est.trunc_error}


def sweep_to_json(report: SweepReport, config: dict | None = None) -> str:
    doc = {
        "axis": report.axis.value,
        "spec": report.spec_snapshot,
        "config": config or {},
        "rows": [
            {
                "param": row.param,
                "failed": row.failed,
                "p_nu": None if row.failed else _estimate_json(row.p_nu),
                "p_mu": None if row.failed else _estimate_json(row.p_mu),
            }
            for row in report.rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def certificate_to_json(cert: Certificate, config: dict | None = None) -> str:
    doc = {
        "spec": cert.spec_snapshot,
        "config": config or {},
        "coefficient": _estimate_json(cert.coefficient),
        "total_error": cert.total_error,
        "safety_factor": cert.safety_factor,
        "verdict": cert.verdict.value,
        "note": "heuristic certificate: error components are estimates, "
                "not rigorous bounds",
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
