"""Fourier coefficient extraction on the torus R^2 / O_F.

Coefficients of an O_F-periodic evaluand are recovered by an equispaced
trapezoid rule in lattice coordinates (u, v) in [0,1)^2, where
x = u*1 + v*w; this is a plain 2-D DFT, exact for band-limited data and
exponentially convergent for the exponentially decaying spectra that occur
when N(y) > 1.  The volume normalization is absorbed by the lattice
coordinates.  The only integral taken is over x with the fiber y fixed;
coefficients of a holomorphic periodic evaluand are y-independent, which is
used as a consistency check rather than assumed.

The e^{+2 pi tr(mu y)} unfolding factor is applied once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .hpoincare import PoincareSpec, TruncationPolicy, evaluate_grid
from .qfield import DualIndex, RealQuadraticField, _dual_from_freq_int, _embed

TWO_PI = 2.0 * math.pi

# aliased frequencies must be at least this much smaller (in e^{-2 pi tr(m y)}
# weight) than the extraction target
_ALIAS_REL_WEIGHT = 1e-16


class AliasingError(ValueError):
    """Evaluand declares frequency content beyond the Nyquist box."""


@dataclass(frozen=True)
class SamplingDomain:
    """Fiber y (N(y) > 1) and grid resolution per lattice direction."""

    field: RealQuadraticField
    y1: float
    y2: float
    grid_n: int

    def __post_init__(self):
        if self.y1 <= 0 or self.y2 <= 0 or self.y1 * self.y2 <= 1.0:
            raise ValueError("need y1, y2 > 0 with N(y) = y1*y2 > 1")
        if self.grid_n < 4 or self.grid_n % 2:
            raise ValueError("grid_n must be even and >= 4")

    @property
    def y(self) -> tuple[float, float]:
        return (self.y1, self.y2)

    def lattice_points(self, n: int | None = None) -> np.ndarray:
        """Embeddings of x(u, v) = (u/n) + (v/n) w, row-major over (u, v)."""
        n = n or self.grid_n
        u, v = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        return np.stack(_embed(self.field, (u.ravel() / n, v.ravel() / n)),
                        axis=1)


@dataclass(frozen=True)
class CoefficientEstimate:
    mu: DualIndex
    value: complex
    quad_error: float
    trunc_error: float

    @property
    def total_error(self) -> float:
        return self.quad_error + self.trunc_error


class Evaluand(Protocol):
    """Periodic function of x at fixed y, with declared error/spectrum data."""

    def sample_grid(self, domain: SamplingDomain) -> tuple[np.ndarray, np.ndarray]:
        """(values, per-sample truncation estimates) over domain.lattice_points()."""
        ...

    def min_alias_trace(self, domain: SamplingDomain) -> float:
        """min tr(m y) over declared frequencies m outside the open Nyquist
        box: inf if none."""
        ...


class PoincareEvaluand:
    """Truncated Poincare series as an extraction target."""

    def __init__(self, spec: PoincareSpec, policy: TruncationPolicy):
        self.spec = spec
        self.policy = policy

    def sample_grid(self, domain: SamplingDomain):
        xs = domain.lattice_points()
        return evaluate_grid(self.spec, xs, domain.y, self.policy)[:2]

    def min_alias_trace(self, domain: SamplingDomain) -> float:
        """The spectrum of a (truncated) cusp form sits on totally positive
        dual indices; scan the shells just outside the Nyquist box."""
        return _min_tp_trace_outside(self.spec.field, domain,
                                     shells=3 * domain.grid_n)


class SyntheticEvaluand:
    """Finite Fourier sum sum_m c_m e^{2 pi i tr(m z)} with known spectrum."""

    def __init__(self, terms: Sequence[tuple[DualIndex, complex]]):
        self.terms = list(terms)

    def sample_grid(self, domain: SamplingDomain):
        xs = domain.lattice_points()
        z1 = xs[:, 0] + 1j * domain.y1
        z2 = xs[:, 1] + 1j * domain.y2
        vals = np.zeros(len(xs), dtype=np.complex128)
        for mu, c in self.terms:
            m1, m2 = mu.embeddings()
            vals += c * np.exp(2j * math.pi * (m1 * z1 + m2 * z2))
        return vals, np.zeros(len(xs))

    def min_alias_trace(self, domain: SamplingDomain) -> float:
        n = domain.grid_n
        out = math.inf
        for mu, _c in self.terms:
            r, s = mu.freq
            if abs(r) >= n // 2 or abs(s) >= n // 2:
                m1, m2 = mu.embeddings()
                out = min(out, m1 * domain.y1 + m2 * domain.y2)
        return out


def _min_tp_trace_outside(field: RealQuadraticField, domain: SamplingDomain,
                          shells: int) -> float:
    """min tr(m y) over totally positive dual m with frequency (r, s),
    1 <= r <= shells and |s| <= shells, outside the open Nyquist box
    |r|, |s| < grid_n/2.

    Decided in integers on the whole (r, s) grid at once: m has numerator
    beta = (s - t r) + r w (t = tr(w), n = N(w)), and m is totally positive
    iff r > 0 and N(beta) = s^2 - t r s + n r^2 < 0.  tr(m y) is then taken
    in floats from m's exact coordinates, as DualIndex.embeddings does.
    """
    half = domain.grid_n // 2
    r, s = np.meshgrid(np.arange(1, shells + 1), np.arange(-shells, shells + 1),
                       indexing="ij")
    _beta, (a, b), positive = _dual_from_freq_int(field, r, s)
    keep = positive & ((r >= half) | (np.abs(s) >= half))
    m1, m2 = _embed(field, (a[keep] / field.disc, b[keep] / field.disc))
    tr = m1 * domain.y1 + m2 * domain.y2
    return float(np.min(tr, initial=math.inf))


def _dft_readout(samples: np.ndarray, n: int, freq: tuple[int, int],
                 stride: int = 1) -> complex:
    """(1/m^2) sum_{u,v} f[u,v] e^{-2 pi i (r u + s v)/m} over the
    stride-subsampled m = n/stride grid."""
    r, s = freq
    m = n // stride
    f = samples.reshape(n, n)[::stride, ::stride]
    u = np.arange(m)
    eu = np.exp(-2j * math.pi * r * u / m)
    ev = np.exp(-2j * math.pi * s * u / m)
    return complex(eu @ f @ ev) / (m * m)


def extract_many(evaluand, mus: Sequence[DualIndex],
                 domain: SamplingDomain) -> list[CoefficientEstimate]:
    """One shared sampling pass, one DFT readout per frequency.

    value(mu) = e^{2 pi tr(mu y)} (1/n^2) sum_{u,v} f(x(u,v) + iy)
                e^{-2 pi i (r u + s v)/n}.
    quad_error compares the full grid against its half-resolution subgrid;
    trunc_error propagates the evaluand's own tail estimates.
    """
    if not mus:
        return []
    alias_tr = evaluand.min_alias_trace(domain)
    n = domain.grid_n
    if alias_tr != math.inf:
        target_tr = min(
            m.embeddings()[0] * domain.y1 + m.embeddings()[1] * domain.y2
            for m in mus)
        if math.exp(-TWO_PI * alias_tr) > _ALIAS_REL_WEIGHT * math.exp(
                -TWO_PI * target_tr):
            raise AliasingError(
                f"frequency content at tr(m y) = {alias_tr:.3f} is not "
                f"negligible beyond the Nyquist box of grid_n = {n}")
    samples, tails = evaluand.sample_grid(domain)
    mean_tail = float(np.mean(tails))
    out = []
    for mu in mus:
        r, s = mu.freq
        if abs(r) >= n // 2 or abs(s) >= n // 2:
            raise AliasingError(f"target frequency {mu.freq} outside the "
                                f"Nyquist box of grid_n = {n}")
        m1, m2 = mu.embeddings()
        unfold = math.exp(TWO_PI * (m1 * domain.y1 + m2 * domain.y2))
        full = _dft_readout(samples, n, (r, s))
        value = unfold * full
        if n >= 8 and abs(r) < n // 4 and abs(s) < n // 4:
            half = _dft_readout(samples, n, (r, s), stride=2)
            quad_err = abs(unfold * (full - half))
        else:
            quad_err = abs(value) * 1e-3  # no resolvable subgrid: coarse tag
        out.append(CoefficientEstimate(mu=mu, value=value,
                                       quad_error=quad_err,
                                       trunc_error=unfold * mean_tail))
    return out


def extract_coefficient(evaluand, mu: DualIndex,
                        domain: SamplingDomain) -> CoefficientEstimate:
    return extract_many(evaluand, [mu], domain)[0]


def y_independence_check(evaluand, mu: DualIndex, domain1: SamplingDomain,
                         domain2: SamplingDomain) -> float:
    """|value(domain1) - value(domain2)|: rounding-level for holomorphic
    periodic evaluands, large for non-holomorphic contamination."""
    v1 = extract_coefficient(evaluand, mu, domain1).value
    v2 = extract_coefficient(evaluand, mu, domain2).value
    return abs(v1 - v2)
