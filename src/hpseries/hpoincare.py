"""Truncated evaluation of weight-k Poincare series on H^2 over a real
quadratic field.

A coset of the stabilizer of infinity in the level subgroup is a unimodular
bottom row (gamma, delta) with gamma in the level ideal.  Under the default
UnitExtended convention the stabilizer includes the unit-diagonal matrices,
so exactly one representative per unit orbit (gamma, delta) ~ (u*gamma,
u*delta) is summed, chosen by an exact window on the embedding ratio of
gamma; the gamma = 0 class is then the single identity term
e^{2 pi i tr(nu z)}.  TranslationsOnly (the literal translations-only
stabilizer) is available behind a flag: it sums all unit multiples up to a
cap and is kept for comparison runs, not production (its gamma = 0 class
alone contributes one term per unit).  Under both conventions the gamma = 0
class is one compensated sum over its rows (0, u), vectorised over all
points: the single row u = 1, or the rows u = +-eps^m with |m| <= cap plus
a remainder bound for the rows beyond the cap.

Terms are evaluated as

    term = e^{2 pi i tr(nu a/gamma)} * prod_j w_j^{-k_j}
           * e^{-2 pi i sum_j nu_j / (gamma_j w_j)},   w_j = gamma_j z_j + delta_j

using M z = a/gamma - 1/(gamma (gamma z + delta)), so only the residue of
the completion a = delta^{-1} mod gamma is needed; residue phases are
precomputed exactly per class.  delta boxes are sized from the closed-form
term modulus so that every excluded term is below the policy cutoff.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .qfield import (
    DualIndex,
    FieldElement,
    IdealHNF,
    RealQuadraticField,
    _conj,
    _embed,
    _ext_gcd_int,
    _ideal_hnf,
    _mul,
    _norm,
    _unit_inverse_int,
    complete_pair,
    fundamental_unit,
    is_unimodular_pair,
)

TWO_PI = 2.0 * math.pi
_SHELL_FRAC = 0.75  # classes with height above this fraction of the box
                    # feed the tail estimate
_DELTA_BOX_MARGIN = 1.0  # added to each delta-box half-width
_MIN_IM = 1e-3  # quality guard: smallest Im(z_j) accepted
_CHUNK_ELEMENTS = 2_000_000  # lattice sites per evaluate_grid chunk: bounds
                             # the size of its temporary arrays


class EvaluationError(ValueError):
    """Invalid evaluation input (precondition violation)."""


class TruncationLimitExceeded(RuntimeError):
    """max_terms hit before the enumeration finished."""

    def __init__(self, terms: int, message: str = ""):
        self.terms = terms
        super().__init__(message or f"term budget exhausted after {terms} terms")


class GammaInfConvention(enum.Enum):
    UNIT_EXTENDED = "unit_extended"
    TRANSLATIONS_ONLY = "translations_only"


@dataclass(frozen=True)
class Weight:
    k1: int
    k2: int

    def __post_init__(self):
        if self.k1 <= 2 or self.k2 <= 2:
            raise EvaluationError("weight components must exceed 2")
        if (self.k1 + self.k2) % 2:
            raise EvaluationError("k1 + k2 must be even")

    @property
    def parallel(self) -> bool:
        return self.k1 == self.k2

    def as_tuple(self) -> tuple[int, int]:
        return (self.k1, self.k2)


@dataclass(frozen=True)
class PoincareSpec:
    field: RealQuadraticField
    weight: Weight
    nu: DualIndex
    level: IdealHNF
    convention: GammaInfConvention = GammaInfConvention.UNIT_EXTENDED

    def __post_init__(self):
        if not self.nu.is_totally_positive():
            raise EvaluationError("nu must be totally positive")
        if self.nu.field != self.field or self.level.field != self.field:
            raise EvaluationError("spec components from different fields")
        if self.convention is GammaInfConvention.UNIT_EXTENDED:
            eps = fundamental_unit(self.field)
            if eps.norm() == -1 and not self.weight.parallel:
                raise EvaluationError(
                    "UnitExtended with a norm -1 fundamental unit requires "
                    "parallel (even) weight")

    def snapshot(self) -> dict:
        return {
            "d": self.field.d,
            "weight": [self.weight.k1, self.weight.k2],
            "nu_numerator": list(self.nu.numerator.int_coords()),
            "nu_freq": list(self.nu.freq),
            "level_hnf": [self.level.m00, self.level.m01, self.level.m11],
            "level_norm": self.level.norm,
            "convention": self.convention.value,
        }


@dataclass(frozen=True)
class TruncationPolicy:
    gamma_height_max: float = 10.0
    term_cutoff: float = 1e-12
    max_terms: int = 50_000_000
    unit_cap: int = 6       # TranslationsOnly only

    def __post_init__(self):
        if min(self.gamma_height_max, self.term_cutoff) <= 0 \
                or self.max_terms <= 0:
            raise EvaluationError("policy fields must be positive")


@dataclass(frozen=True)
class CosetRep:
    gamma: FieldElement
    delta: FieldElement
    a: FieldElement
    b: FieldElement

    def __post_init__(self):
        f = self.gamma.field
        if self.a * self.delta - self.b * self.gamma != f.one:
            raise EvaluationError("a*delta - b*gamma != 1")

    def bottom_row_embeddings(self) -> tuple[tuple[float, float],
                                             tuple[float, float]]:
        return (self.gamma.embeddings(), self.delta.embeddings())


@dataclass(frozen=True)
class EvalResult:
    value: complex
    tail_estimate: float
    terms_used: int
    largest_dropped: float


# -- unit-orbit canonicalization (exact) -----------------------------------

def _sign_emb1_int(f: RealQuadraticField, pq: tuple[int, int]) -> int:
    if pq == (0, 0):
        return 0
    n = _norm(f, pq)
    if n > 0:
        t = 2 * pq[0] + pq[1] * f.omega_trace
        return 1 if t > 0 else -1
    return 1 if pq[1] > 0 else -1


def _ratio_ge_one(f: RealQuadraticField, pq: tuple[int, int]) -> bool:
    # |x_1| >= |x_2|  iff  the w-coordinate of x^2 is >= 0
    return _mul(f, pq, pq)[1] >= 0


def is_canonical_gamma(f: RealQuadraticField, pq: tuple[int, int],
                       eps_inv: tuple[int, int]) -> bool:
    """Exact test: gamma is the unit-orbit representative with embedding
    ratio |g_1/g_2| in [1, eps_1^2) and sigma_1(gamma) > 0."""
    if not _ratio_ge_one(f, pq):
        return False
    if _ratio_ge_one(f, _mul(f, eps_inv, pq)):
        return False
    return _sign_emb1_int(f, pq) > 0


# -- gamma classes ----------------------------------------------------------

class _GammaClass:
    """One bottom-row class: fixed gamma, all valid delta.

    Carries embeddings, the HNF of gamma*O_F for residue reduction, and the
    exact completion phase e^{2 pi i tr(nu a/gamma)} per invertible residue.
    """

    __slots__ = ("pq", "emb", "hnf", "phase_table", "height", "abs_norm")

    def __init__(self, f: RealQuadraticField, pq: tuple[int, int],
                 nu_emb: tuple[float, float]):
        self.pq = pq
        self.emb = _embed(f, pq)
        self.height = max(abs(self.emb[0]), abs(self.emb[1]))
        n = _norm(f, pq)
        self.abs_norm = abs(n)
        self.hnf = A, B, C = _ideal_hnf(f, [pq])
        table = np.zeros((A, C), dtype=np.complex128)
        gconj = _conj(f, pq)
        for j in range(C):
            for i in range(A):
                a_res = _completion_residue(f, pq, (i, j))
                if a_res is None:
                    continue
                # a/gamma = a * conj(gamma) / N(gamma), embeddings in float
                e1, e2 = _embed(f, _mul(f, a_res, gconj))
                theta = TWO_PI * (nu_emb[0] * (e1 / n) + nu_emb[1] * (e2 / n))
                table[i, j] = complex(math.cos(theta), math.sin(theta))
        self.phase_table = table


def _completion_residue(f: RealQuadraticField, gamma: tuple[int, int],
                        delta: tuple[int, int]):
    """a with a*delta = 1 mod gamma*O_F, or None if (gamma, delta) is not
    unimodular.  delta = 0 is fine: the pair is unimodular iff gamma is a
    unit (e.g. the inversion row (1, 0))."""
    g, x, _y = _ext_gcd_int(f, delta, gamma)
    if abs(_norm(f, g)) != 1:
        return None
    return _mul(f, _unit_inverse_int(f, g), x)


def _gamma_box(f: RealQuadraticField, height: float) -> Iterable[tuple[int, int]]:
    w1, w2 = f.omega_embeddings()
    sq_disc = f.sqrt_disc
    qmax = int(math.floor(2 * height / sq_disc))
    for q in range(-qmax, qmax + 1):
        lo = math.ceil(max(-height - q * w1, -height - q * w2))
        hi = math.floor(min(height - q * w1, height - q * w2))
        for p in range(int(lo), int(hi) + 1):
            if (p, q) != (0, 0):
                yield (p, q)


def _classes_with_skip_info(spec: PoincareSpec, y: tuple[float, float],
                            policy: TruncationPolicy):
    """(kept classes, skipped-class mass bound, largest skipped term bound).

    A class whose largest possible term prod (|gamma_j| y_j)^{-k_j} falls
    below the cutoff is dropped wholesale; its bound feeds the tail
    estimate instead of the sum."""
    f = spec.field
    k1, k2 = spec.weight.as_tuple()
    nu_emb = spec.nu.embeddings()
    eps_inv = None
    if spec.convention is GammaInfConvention.UNIT_EXTENDED:
        eps = fundamental_unit(f)
        eps_inv = _unit_inverse_int(f, eps.int_coords())
    kept = []
    skip_mass = 0.0
    largest_skipped = 0.0
    for pq in sorted(_gamma_box(f, policy.gamma_height_max)):
        if not spec.level._contains_int(pq):
            continue
        if eps_inv is not None and not is_canonical_gamma(f, pq, eps_inv):
            continue
        g1, g2 = _embed(f, pq)
        b1, b2 = abs(g1) * y[0], abs(g2) * y[1]
        bound = b1 ** (-k1) * b2 ** (-k2)
        if bound < policy.term_cutoff:
            skip_mass += bound
            largest_skipped = max(largest_skipped, bound)
            continue
        kept.append(_GammaClass(f, pq, nu_emb))
    return kept, skip_mass, largest_skipped


def enumerate_gamma_classes(spec: PoincareSpec, y: tuple[float, float],
                            policy: TruncationPolicy) -> list[_GammaClass]:
    """Nonzero-gamma classes surviving the height box and the per-class
    cutoff test at fiber y, in deterministic coordinate order."""
    return _classes_with_skip_info(spec, y, policy)[0]


def _beyond_box_mass(spec: PoincareSpec, y: tuple[float, float],
                     policy: TruncationPolicy, saw_candidates: bool) -> float:
    """Heuristic mass of the gamma classes outside the height box: the
    first unexplored norm shell is max(H^2/eps_1^2, N(I)), integrated with
    the (|N(gamma)| N(y))^{-k_min} class decay.  Zero when the box saw no
    candidates at all (the enumeration is then cutoff-complete for this
    level at desk scale)."""
    if not saw_candidates:
        return 0.0
    kmin = min(spec.weight.as_tuple())
    eps1 = fundamental_unit(spec.field).embeddings()[0]
    h = policy.gamma_height_max
    floor_norm = max(h * h / (eps1 * eps1), float(spec.level.norm))
    ny = y[0] * y[1]
    return (floor_norm * ny) ** (1 - kmin) / (kmin - 1)


def _unit_rows(f: RealQuadraticField, cap: int):
    """Bottom rows (0, u) of the gamma = 0 class under TranslationsOnly,
    u = +-eps^m with |m| <= cap, sorted; and the first dropped units
    eps^{cap+1}, eps^{-(cap+1)}, one step further along the same walk."""
    eps = fundamental_unit(f).int_coords()
    eps_inv = _unit_inverse_int(f, eps)
    up = un = (1, 0)
    powers = [up]
    for _ in range(cap):
        up = _mul(f, up, eps)
        un = _mul(f, un, eps_inv)
        powers.extend([up, un])
    rows = sorted(v for u in powers for v in (u, (-u[0], -u[1])))
    return rows, (_mul(f, up, eps), _mul(f, un, eps_inv))


# -- delta boxes ------------------------------------------------------------

def _delta_windows(b1: float, b2: float, k1: int, k2: int, cutoff: float):
    """Half-widths (W1, W2) of the per-embedding delta box around
    (-gamma_j x_j).  Every delta outside the box has
    prod |gamma_j z_j + delta_j|^{-k_j} < cutoff."""
    r1 = (b2 ** (-k2) / cutoff) ** (1.0 / k1)
    r2 = (b1 ** (-k1) / cutoff) ** (1.0 / k2)
    if r1 <= b1 or r2 <= b2:
        return None
    wd1 = math.sqrt(r1 * r1 - b1 * b1) + _DELTA_BOX_MARGIN
    wd2 = math.sqrt(r2 * r2 - b2 * b2) + _DELTA_BOX_MARGIN
    return wd1, wd2


def _class_delta_ranges(cl: _GammaClass, x: tuple[float, float],
                        wd: tuple[float, float], sq_disc: float):
    """Integer (q-range, p-ranges) covering the delta box at grid point x."""
    g1, g2 = cl.emb
    c1 = -g1 * x[0]
    c2 = -g2 * x[1]
    wd1, wd2 = wd
    qlo = math.ceil(((c1 - wd1) - (c2 + wd2)) / sq_disc)
    qhi = math.floor(((c1 + wd1) - (c2 - wd2)) / sq_disc)
    return c1, c2, int(qlo), int(qhi)


# -- identity class ----------------------------------------------------------

def _kahan(s: np.ndarray, c: np.ndarray, x: np.ndarray):
    """One compensated-summation step: (sum, compensation) after adding x."""
    yv = x - c
    t = s + yv
    return t, (t - s) - yv


def _unit_row_factors(spec: PoincareSpec, units):
    """(u_1^{-k_1} u_2^{-k_2}, a_1, a_2) for each row (0, u), a = u^{-1}:
    the factors of the gamma = 0 term u_1^{-k_1} u_2^{-k_2}
    e^{2 pi i tr(nu a^2 z)}."""
    f = spec.field
    k1, k2 = spec.weight.as_tuple()
    for u in units:
        u1, u2 = _embed(f, u)
        yield (u1 ** (-k1) * u2 ** (-k2),) + _embed(f, _unit_inverse_int(f, u))


def _identity_sum(spec: PoincareSpec, xs: np.ndarray, y: tuple[float, float],
                  rows: list[tuple[int, int]]) -> np.ndarray:
    """Compensated sum of the gamma = 0 terms over the rows (0, u), at
    every point z = x + iy for x in xs at once."""
    nu1, nu2 = spec.nu.embeddings()
    z1 = xs[:, 0] + 1j * y[0]
    z2 = xs[:, 1] + 1j * y[1]
    ident = comp = np.zeros(len(xs), dtype=np.complex128)
    for scale, ui1, ui2 in _unit_row_factors(spec, rows):
        ident, comp = _kahan(ident, comp, scale * np.exp(
            2j * math.pi * (nu1 * ui1 * ui1 * z1 + nu2 * ui2 * ui2 * z2)))
    return ident


def _unit_remainder(spec: PoincareSpec, y: tuple[float, float],
                    dropped) -> float:
    """TranslationsOnly unit-cap remainder: the term magnitudes of the
    first dropped rows (0, +-u), u = eps^{+-(cap + 1)}."""
    nu1, nu2 = spec.nu.embeddings()
    rem = 0.0
    for scale, ui1, ui2 in _unit_row_factors(spec, dropped):
        rem += 2.0 * abs(scale) * math.exp(
            -TWO_PI * (nu1 * ui1 * ui1 * y[0] + nu2 * ui2 * ui2 * y[1]))
    return rem


# -- lattice sum --------------------------------------------------------------

def _check_y(y: tuple[float, float]):
    if min(y) < _MIN_IM:
        raise EvaluationError(f"Im(z) below the quality guard {_MIN_IM}")


def evaluate_grid(spec: PoincareSpec, xs: Sequence[tuple[float, float]],
                  y: tuple[float, float], policy: TruncationPolicy):
    """(values, tails, terms_used, largest_dropped) of the truncated series
    at the points x + iy for x in xs (embedding pairs): per-point values and
    tail estimates, the total term count and the largest term bound left
    out of the sum.  The only lattice-sum engine; `evaluate` is its
    one-point case.  Deterministic: fixed class and lattice ordering,
    per-point bincount reductions in that order."""
    _check_y(y)
    f = spec.field
    k1, k2 = spec.weight.as_tuple()
    nu1, nu2 = spec.nu.embeddings()
    w1e, w2e = f.omega_embeddings()
    sq_disc = f.sqrt_disc
    xs_arr = np.asarray(xs, dtype=np.float64)
    npts = xs_arr.shape[0]
    shell_mass = np.zeros(npts, dtype=np.float64)
    classes, skip_mass, largest_dropped = _classes_with_skip_info(
        spec, y, policy)
    dropped_sites = 0.0

    # identity class; UnitExtended folds the units into the stabilizer and
    # keeps the row (0, 1) alone
    if spec.convention is GammaInfConvention.UNIT_EXTENDED:
        rows, unit_rem = [(1, 0)], 0.0
    else:
        rows, dropped = _unit_rows(f, policy.unit_cap)
        unit_rem = _unit_remainder(spec, y, dropped)
    values = comp = np.zeros(npts, dtype=np.complex128)  # Kahan per point
    values, comp = _kahan(values, comp, _identity_sum(spec, xs_arr, y, rows))
    terms_used = npts * len(rows)

    shell_height = _SHELL_FRAC * policy.gamma_height_max
    for cl in classes:
        g1, g2 = cl.emb
        b1, b2 = abs(g1) * y[0], abs(g2) * y[1]
        wd = _delta_windows(b1, b2, k1, k2, policy.term_cutoff)
        if wd is None:
            bound = b1 ** (-k1) * b2 ** (-k2)
            skip_mass += bound
            largest_dropped = max(largest_dropped, bound)
            continue
        dropped_sites += (2.0 * (wd[0] + wd[1]) / sq_disc + 4.0) * npts
        A, B, C = cl.hnf
        tab_flat = cl.phase_table.reshape(-1)
        c1 = -g1 * xs_arr[:, 0]
        c2 = -g2 * xs_arr[:, 1]
        qlo = np.ceil(((c1 - wd[0]) - (c2 + wd[1])) / sq_disc).astype(np.int64)
        qhi = np.floor(((c1 + wd[0]) - (c2 - wd[1])) / sq_disc).astype(np.int64)
        per_point = float(np.maximum(qhi - qlo + 1, 0).mean()) \
            * (2 * wd[0] + 1) or 1.0
        chunk = max(1, int(_CHUNK_ELEMENTS / max(per_point, 1.0)))
        is_shell = cl.height >= shell_height
        for start in range(0, npts, chunk):
            stop = min(start + chunk, npts)
            sl = slice(start, stop)
            nq = np.maximum(qhi[sl] - qlo[sl] + 1, 0)
            if nq.sum() == 0:
                continue
            pt_q = np.repeat(np.arange(start, stop), nq)
            offs = np.arange(len(pt_q)) - np.repeat(
                np.cumsum(nq) - nq, nq)
            qd = qlo[pt_q] + offs
            plo = np.ceil(np.maximum(c1[pt_q] - wd[0] - qd * w1e,
                                     c2[pt_q] - wd[1] - qd * w2e)).astype(np.int64)
            phi = np.floor(np.minimum(c1[pt_q] + wd[0] - qd * w1e,
                                      c2[pt_q] + wd[1] - qd * w2e)).astype(np.int64)
            cnt = np.maximum(phi - plo + 1, 0)
            total = int(cnt.sum())
            if total == 0:
                continue
            rep = np.repeat(np.arange(len(cnt)), cnt)
            offs2 = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            pd = plo[rep] + offs2
            qd_f = qd[rep]
            pt = pt_q[rep]
            jj = qd_f % C
            ii = (pd - ((qd_f - jj) // C) * B) % A
            ph = tab_flat[ii * C + jj]
            live = ph != 0
            if not live.any():
                continue
            pt = pt[live]
            ph = ph[live]
            d1, d2 = _embed(f, (pd[live], qd_f[live]))
            wz1 = (g1 * xs_arr[pt, 0] + d1) + 1j * (g1 * y[0])
            wz2 = (g2 * xs_arr[pt, 1] + d2) + 1j * (g2 * y[1])
            t = ph * wz1 ** (-k1) * wz2 ** (-k2) * np.exp(
                -2j * math.pi * (nu1 / (g1 * wz1) + nu2 / (g2 * wz2)))
            terms_used += int(live.sum())
            if terms_used > policy.max_terms:
                raise TruncationLimitExceeded(terms_used)
            sums = (np.bincount(pt, weights=t.real, minlength=npts)
                    + 1j * np.bincount(pt, weights=t.imag, minlength=npts))
            values, comp = _kahan(values, comp, sums)
            if is_shell:
                shell_mass += np.bincount(pt, weights=np.abs(t),
                                          minlength=npts)
    h = policy.gamma_height_max
    geom = (h / (h + 1.0)) ** (2 * (min(k1, k2) - 1))
    beyond = _beyond_box_mass(spec, y, policy,
                              bool(classes) or skip_mass > 0.0)
    tails = shell_mass * geom / (1.0 - geom) \
        + policy.term_cutoff * dropped_sites / npts + skip_mass \
        + beyond + unit_rem
    return values, tails, terms_used, largest_dropped


def evaluate(spec: PoincareSpec, z: tuple[complex, complex],
             policy: TruncationPolicy) -> EvalResult:
    """Compensated sum of the truncated series at a single point: a
    one-point `evaluate_grid`."""
    values, tails, terms_used, largest_dropped = evaluate_grid(
        spec, [(z[0].real, z[1].real)], (z[0].imag, z[1].imag), policy)
    return EvalResult(value=complex(values[0]), tail_estimate=float(tails[0]),
                      terms_used=terms_used, largest_dropped=largest_dropped)


def tail_bound(spec: PoincareSpec, z: tuple[complex, complex],
               policy: TruncationPolicy) -> float:
    """Heuristic bound on the truncated mass: boundary-shell magnitudes
    times a geometric factor, plus cutoff mass for the delta boxes.
    Reported separately from the value, never added to it."""
    return evaluate(spec, z, policy).tail_estimate


# -- explicit coset representatives (reference path) --------------------------

def enumerate_cosets(spec: PoincareSpec, z: tuple[complex, complex],
                     policy: TruncationPolicy) -> list[CosetRep]:
    """Materialized coset representatives for the truncation box at z, in
    deterministic order.  Reference path for tests and small runs; the
    production sum (`evaluate_grid`) shares the class/box construction but
    keeps only residue data."""
    f = spec.field
    y = (z[0].imag, z[1].imag)
    _check_y(y)
    x = (z[0].real, z[1].real)
    k1, k2 = spec.weight.as_tuple()
    sq_disc = f.sqrt_disc
    w1e, w2e = f.omega_embeddings()
    reps: list[CosetRep] = []
    if spec.convention is GammaInfConvention.UNIT_EXTENDED:
        reps.append(CosetRep(gamma=f.zero, delta=f.one, a=f.one, b=f.zero))
    else:
        for u in _unit_rows(f, policy.unit_cap)[0]:
            ui = _unit_inverse_int(f, u)
            reps.append(CosetRep(gamma=f.zero, delta=f.element(*u),
                                 a=f.element(*ui), b=f.zero))
    count = len(reps)
    for cl in enumerate_gamma_classes(spec, y, policy):
        g1, g2 = cl.emb
        b1, b2 = abs(g1) * y[0], abs(g2) * y[1]
        wd = _delta_windows(b1, b2, k1, k2, policy.term_cutoff)
        if wd is None:
            continue
        gamma = f.element(*cl.pq)
        c1, c2, qlo, qhi = _class_delta_ranges(cl, x, wd, sq_disc)
        for qd in range(qlo, qhi + 1):
            plo = math.ceil(max(c1 - wd[0] - qd * w1e, c2 - wd[1] - qd * w2e))
            phi = math.floor(min(c1 + wd[0] - qd * w1e, c2 + wd[1] - qd * w2e))
            for pd in range(int(plo), int(phi) + 1):
                delta = f.element(pd, qd)
                if not is_unimodular_pair(gamma, delta):
                    continue
                a, b = complete_pair(gamma, delta)
                reps.append(CosetRep(gamma=gamma, delta=delta, a=a, b=b))
                count += 1
                if count > policy.max_terms:
                    raise TruncationLimitExceeded(count)
    return reps


# -- per-matrix slash machinery ----------------------------------------------

def automorphy_factor(M: CosetRep, z: tuple[complex, complex],
                      weight: Weight) -> complex:
    """prod_j (gamma_j z_j + delta_j)^{k_j} (determinant 1)."""
    (g1, g2), (d1, d2) = M.bottom_row_embeddings()
    return (g1 * z[0] + d1) ** weight.k1 * (g2 * z[1] + d2) ** weight.k2


def apply_mobius(M: CosetRep, z: tuple[complex, complex]) -> tuple[complex, complex]:
    (g1, g2), (d1, d2) = M.bottom_row_embeddings()
    a1, a2 = M.a.embeddings()
    b1, b2 = M.b.embeddings()
    return ((a1 * z[0] + b1) / (g1 * z[0] + d1),
            (a2 * z[1] + b2) / (g2 * z[1] + d2))


def term(M: CosetRep, z: tuple[complex, complex], spec: PoincareSpec) -> complex:
    """Single series term mu(M,z)^{-k} e^{2 pi i tr(nu (M z))}."""
    mz = apply_mobius(M, z)
    nu1, nu2 = spec.nu.embeddings()
    mu_k = automorphy_factor(M, z, spec.weight)
    return complex(np.exp(2j * math.pi * (nu1 * mz[0] + nu2 * mz[1])) / mu_k)


def modularity_defect(spec: PoincareSpec, z: tuple[complex, complex],
                      M: tuple[tuple[FieldElement, FieldElement],
                               tuple[FieldElement, FieldElement]],
                      policy: TruncationPolicy,
                      policy_at_mz: TruncationPolicy | None = None) -> float:
    """|evaluate(Mz) - mu(M,z)^k evaluate(z)| / max(1, |evaluate(z)|).

    M is a level-subgroup element given as ((a, b), (gamma, delta)).
    """
    (a, b), (gamma, delta) = M
    f = spec.field
    if a * delta - b * gamma != f.one:
        raise EvaluationError("matrix determinant is not 1")
    if not spec.level.contains(gamma) and not gamma.is_zero():
        raise EvaluationError("lower-left entry not in the level ideal")
    rep = CosetRep(gamma=gamma, delta=delta, a=a, b=b)
    mz = apply_mobius(rep, z)
    mu_k = automorphy_factor(rep, z, spec.weight)
    base = evaluate(spec, z, policy)
    shifted = evaluate(spec, mz, policy_at_mz or policy)
    num = abs(shifted.value - mu_k * base.value)
    return num / max(1.0, abs(base.value))
