"""Truncated evaluation of weight-k Poincare series on H^2 over a real
quadratic field.

A coset of the stabilizer of infinity in the level subgroup is a unimodular
bottom row (gamma, delta) with gamma in the level ideal.  The stabilizer
includes the unit-diagonal matrices (the UnitExtended convention, under
which the coefficient limits are the Kronecker delta), so exactly one
representative per unit orbit (gamma, delta) ~ (u*gamma, u*delta) is
summed, chosen by an exact window on the embedding ratio of gamma; the
gamma = 0 class is then the single identity term e^{2 pi i tr(nu z)}.

Terms are evaluated as

    term = e^{2 pi i tr(nu a/gamma)} * prod_j w_j^{-k_j}
           * e^{-2 pi i sum_j nu_j / (gamma_j w_j)},   w_j = gamma_j z_j + delta_j

using M z = a/gamma - 1/(gamma (gamma z + delta)), so only the residue of
the completion a = delta^{-1} mod gamma is needed; residue phases are
precomputed exactly per class.  The policy cutoff is exact: a term is summed
iff its bound prod_j |w_j|^{-k_j} is at least the cutoff, i.e.

    k_1 log(u_1^2 + b_1^2) + k_2 log(u_2^2 + b_2^2) <= -2 log(cutoff),
    u_j = gamma_j x_j + delta_j,  b_j = gamma_j y_j.

Per class, a delta box sized from the same bound only limits the walk.
Inside it only the two strips |u_1| <= rho_1 and |u_2| <= rho_2 that hold
every kept site are walked.  The `Tail` has one part per left-out
region: the walked sites below the cutoff (`cut`), the unvisited sites
(`unvisited`: corners outside both strips, strip ends beyond the box) and
the classes skipped wholesale (`skipped`, both bounded by counting lattice
sites per unit square, `_corner_bound`), and the classes beyond the height
box (`beyond`, `_beyond_box_mass`, the one heuristic part, charged on
every call, also when the box holds no class of the level ideal).

Whether a gamma class is summed is decided in one place by one test, an
empty delta box, in `_classes_with_skip_info`, which also charges the
whole-class tail parts; each kept class carries its geometry on its
`_GammaClass` record: b_j = |gamma_j| y_j, the delta box and the strip
radii.  The lattice loop of `evaluate_grid` only walks sites.

`evaluate_grid` walks one list of items, a kept class and a
`_CHUNK_ELEMENTS` chunk of its points, handed out in list order to the
calling thread and to one helper thread per further CPU of the process's
affinity (`_helper_threads`; none when the call's estimated walk fits in
one chunk).  Each item is walked into one record, and the caller folds
the records in list order, so values, tail and term count have the same
bytes for any thread count.  A chunk peaks at up to 92 bytes per walked
site (70 in the median on the weight sweep): its walked-site arrays are
freed once its kept sites are gathered.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .qfield import (
    DualIndex,
    FieldElement,
    IdealHNF,
    RealQuadraticField,
    _conj,
    _complete_int,
    _embed,
    _ideal_hnf,
    _mul,
    _norm,
    _unit_inverse_int,
    fundamental_unit,
)

TWO_PI = 2.0 * math.pi
_DELTA_BOX_MARGIN = 1.0  # added to each delta-box half-width
_MIN_IM = 1e-3  # quality guard: smallest Im(z_j) accepted
_CHUNK_ELEMENTS = 200_000  # delta-box sites per evaluate_grid item: keeps
                           # its temporary arrays small and cache-resident.
                           # A chunk peaks at up to 92 bytes per walked
                           # site in its thread (6.4 MB for the weight
                           # sweep's largest, 73,119 sites); the records
                           # are folded in list order, so the boundaries
                           # fix the bytes, and past max_terms each thread
                           # walks at most one chunk
_STRIP_MARGIN = 1e-9  # relative widening of the walked cutoff strips, far
                      # above the rounding of the cutoff test
_CORNER_TERMS = 16  # explicit terms of each corner series before its
                    # integral tail


class EvaluationError(ValueError):
    """Invalid evaluation input (precondition violation)."""


class TruncationLimitExceeded(RuntimeError):
    """max_terms hit before the enumeration finished."""

    def __init__(self, terms: int):
        self.terms = terms
        super().__init__(f"term budget exhausted after {terms} terms")


@dataclass(frozen=True)
class Weight:
    k1: int
    k2: int

    def __post_init__(self):
        for k in (self.k1, self.k2):
            if not isinstance(k, int) or isinstance(k, bool):
                raise EvaluationError(
                    f"weight components must be ints, got {k!r}")
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

    def __post_init__(self):
        if not self.nu.is_totally_positive():
            raise EvaluationError("nu must be totally positive")
        if self.nu.field != self.field or self.level.field != self.field:
            raise EvaluationError("spec components from different fields")
        if fundamental_unit(self.field).norm() == -1 \
                and not self.weight.parallel:
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
            # the one Gamma_inf convention; the payload digests cover it
            "convention": "unit_extended",
        }


@dataclass(frozen=True)
class TruncationPolicy:
    gamma_height_max: float = 10.0
    term_cutoff: float = 1e-12
    max_terms: int = 50_000_000

    def __post_init__(self):
        if not isinstance(self.max_terms, int) \
                or isinstance(self.max_terms, bool):
            raise EvaluationError(
                f"max_terms must be an int, got {self.max_terms!r}")
        # NaN passes every <= test: ask for finiteness first
        if not all(map(math.isfinite, (self.gamma_height_max,
                                       self.term_cutoff))) \
                or min(self.gamma_height_max, self.term_cutoff) <= 0 \
                or self.max_terms <= 0:
            raise EvaluationError("policy fields must be finite and positive")


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


@dataclass(frozen=True, eq=False)  # no field-wise == on the cut array
class Tail:
    """The truncation tail of one `evaluate_grid` call by left-out region;
    only `cut`, the summed bounds of the walked cut sites, is per point."""
    cut: np.ndarray
    unvisited: float
    skipped: float
    beyond: float

    def total(self) -> np.ndarray:
        """The tail estimate per point: the parts added in field order."""
        return self.cut + self.unvisited + self.skipped + self.beyond


# -- unit-orbit canonicalization (exact) -----------------------------------

def _sign_emb1_int(f: RealQuadraticField, pq: tuple[int, int]) -> int:
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
    """One kept bottom-row class at a fibre y: fixed gamma, all valid delta.

    Carries the embeddings of gamma, b_j = |gamma_j| y_j, the delta-box
    half-widths `wd` and the cutoff strip radii `rho` (`_class_window`),
    the HNF of gamma*O_F for residue reduction, and the exact completion
    phase e^{2 pi i tr(nu a/gamma)} per invertible residue.
    Built only by `_classes_with_skip_info`, which decides the classes kept.
    """

    __slots__ = ("pq", "emb", "b", "wd", "rho", "hnf", "phase_table")

    def __init__(self, f: RealQuadraticField, pq: tuple[int, int],
                 emb: tuple[float, float], b: tuple[float, float],
                 wd: tuple[float, float], rho: tuple[float, float],
                 nu_emb: tuple[float, float]):
        self.pq, self.emb, self.b, self.wd, self.rho = pq, emb, b, wd, rho
        self.hnf = _ideal_hnf(f, [pq])
        self.phase_table = _phase_table(f, pq, self.hnf, nu_emb)


def _phase_table(f: RealQuadraticField, pq: tuple[int, int],
                 hnf: tuple[int, int, int],
                 nu_emb: tuple[float, float]) -> np.ndarray:
    """e^{2 pi i tr(nu a/gamma)} at index (i, j) of the residue delta =
    i + j w mod gamma*O_F (HNF (A, B, C)), with a the top-left entry from
    `_complete_int`; 0 where (gamma, delta) is not unimodular."""
    A, _B, C = hnf
    n = _norm(f, pq)
    table = np.zeros((A, C), dtype=np.complex128)
    gconj = _conj(f, pq)
    for j in range(C):
        for i in range(A):
            a = _complete_int(f, pq, (i, j))
            if a is None:
                continue
            # a/gamma = a * conj(gamma) / N(gamma), embeddings in float
            e1, e2 = _embed(f, _mul(f, a, gconj))
            theta = TWO_PI * (nu_emb[0] * (e1 / n) + nu_emb[1] * (e2 / n))
            table[i, j] = complex(math.cos(theta), math.sin(theta))
    return table


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
    """(kept classes, unvisited, skipped, beyond): the classes summed and
    the whole-class parts of the `Tail`, each charged in class order.

    The one place that decides whether a gamma class is summed, by one
    test: its window is empty (`_class_window` is None), which holds iff
    its largest possible term prod b_j^{-k_j}, b_j = |gamma_j| y_j, is
    at most the cutoff.  Such a class is dropped wholesale and charged
    `_corner_bound` at (0, 0).  A kept class carries b, its delta box and
    its strip radii, and is charged `_corner_bound` at rho (corners) and
    at (0, a_2) and (a_1, 0) (strip ends), a_j = W_j - _DELTA_BOX_MARGIN a
    full unit inside the box edge, so rounding there cannot drop a site
    from both walk and bound.  The classes beyond the height box are
    charged `_beyond_box_mass` on every call, whether or not the box holds
    a class of the level ideal."""
    f = spec.field
    k1, k2 = spec.weight.as_tuple()
    cutoff = policy.term_cutoff
    nu_emb = spec.nu.embeddings()
    eps_inv = _unit_inverse_int(f, fundamental_unit(f).int_coords())
    kept = []
    unvisited = skipped = 0.0
    for pq in sorted(_gamma_box(f, policy.gamma_height_max)):
        if not spec.level._contains_int(pq):
            continue
        if not is_canonical_gamma(f, pq, eps_inv):
            continue
        emb = _embed(f, pq)
        b1, b2 = abs(emb[0]) * y[0], abs(emb[1]) * y[1]
        window = _class_window(b1, b2, k1, k2, cutoff)
        if window is None:
            skipped += _corner_bound(b1, b2, k1, k2, (0.0, 0.0))
            continue
        wd, rho = window
        a1, a2 = wd[0] - _DELTA_BOX_MARGIN, wd[1] - _DELTA_BOX_MARGIN
        unvisited += _corner_bound(b1, b2, k1, k2, rho) \
            + _corner_bound(b1, b2, k1, k2, (0.0, a2)) \
            + _corner_bound(b1, b2, k1, k2, (a1, 0.0))
        kept.append(_GammaClass(f, pq, emb, (b1, b2), wd, rho, nu_emb))
    return kept, unvisited, skipped, _beyond_box_mass(spec, y, policy)


def enumerate_gamma_classes(spec: PoincareSpec, y: tuple[float, float],
                            policy: TruncationPolicy) -> list[_GammaClass]:
    """Nonzero-gamma classes surviving the height box and the per-class
    cutoff test at fiber y (`_classes_with_skip_info`), in deterministic
    coordinate order."""
    return _classes_with_skip_info(spec, y, policy)[0]


def _beyond_box_mass(spec: PoincareSpec, y: tuple[float, float],
                     policy: TruncationPolicy) -> float:
    """Heuristic mass of the gamma classes outside the height box: the
    first unexplored norm shell is max(H^2/eps_1^2, N(I)), integrated with
    the (|N(gamma)| N(y))^{-k_min} class decay.  Charged also when the box
    holds no class of the level ideal (a large level): the classes of the
    ideal then all lie beyond the box, and the truncated sum, the identity
    term alone, is not exact."""
    kmin = min(spec.weight.as_tuple())
    eps1 = fundamental_unit(spec.field).embeddings()[0]
    h = policy.gamma_height_max
    floor_norm = max(h * h / (eps1 * eps1), float(spec.level.norm))
    ny = y[0] * y[1]
    return (floor_norm * ny) ** (1 - kmin) / (kmin - 1)


# -- delta boxes ------------------------------------------------------------

def _class_window(b1: float, b2: float, k1: int, k2: int, cutoff: float):
    """(wd, rho) of a class with b_j = |gamma_j| y_j, or None when no
    delta reaches the cutoff: the half-widths wd of its delta box around
    (-gamma_j x_j) and the radii rho of its cutoff strips |u_j| <= rho_j,
    u_j = gamma_j x_j + delta_j, from one exponent E = L - m1 - m2, L =
    -2 log(cutoff), m_j = k_j log(b_j^2).  The largest term bound prod_j
    b_j^{-k_j} reaches the cutoff iff E > 0.  A kept site has k_j log(u_j^2
    + b_j^2) <= L - m_{3-j} = m_j + E, so |u_j| <= b_j sqrt(expm1(E/k_j)),
    the box edge.  A site with |u_j| > rho_j for both j, rho_j^2 + b_j^2 =
    b_j^2 e^{E/(2 k_j)}, has sum_j k_j log(u_j^2 + b_j^2) > L: every kept
    site lies in a strip.  The box only bounds the strips `_strip_sites`
    walks; `_cutoff_window` picks the sites summed."""
    e = -2.0 * math.log(cutoff) - k1 * math.log(b1 * b1) \
        - k2 * math.log(b2 * b2)
    if e <= 0.0:
        return None
    wd = (b1 * math.sqrt(math.expm1(e / k1)) + _DELTA_BOX_MARGIN,
          b2 * math.sqrt(math.expm1(e / k2)) + _DELTA_BOX_MARGIN)
    rho = (b1 * math.sqrt(math.expm1(e / (2 * k1))),
           b2 * math.sqrt(math.expm1(e / (2 * k2))))
    return wd, rho


def _q_ranges(cl: _GammaClass, x1, x2, sq_disc: float):
    """(c1, c2, qlo, qhi): the box centres -gamma_j x_j and the q-range of
    the class's delta box at points with real parts x1, x2 (arrays)."""
    wd = cl.wd
    c1 = -cl.emb[0] * x1
    c2 = -cl.emb[1] * x2
    qlo = np.ceil(((c1 - wd[0]) - (c2 + wd[1])) / sq_disc).astype(np.int64)
    qhi = np.floor(((c1 + wd[0]) - (c2 - wd[1])) / sq_disc).astype(np.int64)
    return c1, c2, qlo, qhi


def _corner_bound(b1: float, b2: float, k1: int, k2: int,
                  rho: tuple[float, float]) -> float:
    """A bound on the summed term bounds f_1(u_1) f_2(u_2), f_j(t) =
    (t^2 + b_j^2)^{-k_j/2}, of all lattice sites in the four corners
    |u_1| >= rho_1, |u_2| >= rho_2.  `_classes_with_skip_info` charges
    with it every site the walk does not visit: at the strip radii the
    corner sites outside both strips, inside the delta box or not; at
    (0, a_2) and (a_1, 0), a_j = W_j - _DELTA_BOX_MARGIN, the strip ends
    beyond the box, overlapping the corners; at (0, 0) every site of a
    class skipped wholesale.

    A half-open unit square [s, s+1) x [t, t+1), or (s-1, s] x [t, t+1)
    and the other mirror images, holds at most one site u = (gamma_j x_j +
    delta_j)_j: two would differ by a nonzero delta in O_F with |N(delta)|
    = |delta_1 delta_2| < 1.  Tile the corner u_1 >= rho_1, u_2 >= rho_2
    by the squares with lower-left corner (rho_1 + i, rho_2 + j), i, j >=
    0, and the corners u_j <= -rho_j by their mirror images; f_j decreases
    in |t|, so the site in square (i, j) has bound at most f_1(rho_1 + i)
    f_2(rho_2 + j).  The corner mass is therefore at most S_1 S_2, S_j =
    sum_{i>=0} f_j(rho_j + i), and the four corners (the signs of u_1,
    u_2) at most 4 S_1 S_2.  At rho_j = 0 the squares on both sides hold
    the sites with u_j = 0, so those are covered too.

    S_j is summed explicitly over its first N = _CORNER_TERMS terms.  Each
    later term f_j(rho_j + i), i >= N, is at most the integral of f_j over
    [rho_j + i - 1, rho_j + i], so the rest is at most the integral of f_j
    from a = rho_j + N - 1 to infinity, and that is at most
    (a^2 + b_j^2)^{1 - k_j/2} / (a (k_j - 1)): this right side minus the
    integral tends to 0 as a grows and has derivative
    -(a^2 + b_j^2)^{-k_j/2} b_j^2 / (a^2 (k_j - 1)) < 0 in a, so it is
    positive."""
    i = np.arange(_CORNER_TERMS)
    mass = 4.0
    for b, k, r in ((b1, k1, rho[0]), (b2, k2, rho[1])):
        f = ((r + i) ** 2 + b * b) ** (-0.5 * k)
        a = r + (_CORNER_TERMS - 1)
        mass *= float(f.sum()) + (a * a + b * b) ** (1.0 - 0.5 * k) \
            / (a * (k - 1))
    return mass


def _strip_sites(c1: np.ndarray, c2: np.ndarray, qlo: np.ndarray,
                 qhi: np.ndarray, wd: tuple[float, float],
                 rho: tuple[float, float], omega_emb: tuple[float, float]):
    """(point, p, q, u1, u2) arrays of the delta = p + q w in the box
    |delta_j - c_j| <= W_j of each point (per-point arrays c1, c2 and the
    q-range [qlo, qhi]) that lie in a strip |u_j| <= rho_j, u_j =
    delta_j - c_j, ordered by point, then q, then p.  The one site walk of
    `evaluate_grid` and `enumerate_cosets`: on each box row, the p-intervals
    of the two strips, clipped to the row and merged where they meet.  The
    strips are widened by _STRIP_MARGIN, so every kept site is walked and
    every site left out has |u_1| > rho_1 and |u_2| > rho_2 despite the
    rounding of the interval ends."""
    w1e, w2e = omega_emb
    nq = np.maximum(qhi - qlo + 1, 0)
    pt_q = np.repeat(np.arange(len(nq)), nq)
    qd = np.repeat(qlo - (np.cumsum(nq) - nq), nq) + np.arange(len(pt_q))
    e1, e2 = c1[pt_q], c2[pt_q]
    qw1, qw2 = qd * w1e, qd * w2e
    plo = np.ceil(np.maximum(e1 - wd[0] - qw1, e2 - wd[1] - qw2))
    phi = np.floor(np.minimum(e1 + wd[0] - qw1, e2 + wd[1] - qw2))
    r1, r2 = (r * (1.0 + _STRIP_MARGIN) for r in rho)
    lo1 = np.maximum(np.ceil(e1 - qw1 - r1), plo)
    hi1 = np.minimum(np.floor(e1 - qw1 + r1), phi)
    lo2 = np.maximum(np.ceil(e2 - qw2 - r2), plo)
    hi2 = np.minimum(np.floor(e2 - qw2 + r2), phi)
    # order the two intervals by their start; an empty one (hi < lo) then
    # either merges into nothing or keeps a count of zero
    first = lo2 < lo1
    lo1, lo2 = np.where(first, lo2, lo1), np.where(first, lo1, lo2)
    hi1, hi2 = np.where(first, hi2, hi1), np.where(first, hi1, hi2)
    merge = lo2 <= hi1 + 1
    hi1 = np.where(merge, np.maximum(hi1, hi2), hi1)
    cnt = np.stack([hi1 - lo1, np.where(merge, -1.0, hi2 - lo2)], axis=1)
    cnt = np.maximum(cnt + 1, 0).astype(np.int64).ravel()
    starts = np.stack([lo1, lo2], axis=1).ravel().astype(np.int64)
    pd = np.repeat(starts - (np.cumsum(cnt) - cnt), cnt) + np.arange(cnt.sum())
    per_row = cnt[::2] + cnt[1::2]  # a row's sites are contiguous
    # (p + q w_j) - c_j: the bits of gamma_j x_j + delta_j
    u1 = (pd + np.repeat(qw1, per_row)) - np.repeat(e1, per_row)
    u2 = (pd + np.repeat(qw2, per_row)) - np.repeat(e2, per_row)
    return (np.repeat(pt_q, per_row), pd, np.repeat(qd, per_row), u1, u2)


def _cutoff_window(u1: np.ndarray, u2: np.ndarray, b: tuple[float, float],
                   weight: Weight, cutoff: float):
    """(keep, logs) for delta sites with real parts u_j = gamma_j x_j +
    delta_j of w_j = gamma_j z_j + delta_j, b_j = |gamma_j| y_j:
    logs = sum_j k_j log|w_j|^2, and keep marks the sites whose term bound
    prod_j |w_j|^{-k_j} = e^{-logs/2} is at least the cutoff.  The one
    decision of which sites are summed, shared by `evaluate_grid` and
    `enumerate_cosets`."""
    logs = weight.k1 * np.log(u1 * u1 + b[0] * b[0]) \
        + weight.k2 * np.log(u2 * u2 + b[1] * b[1])
    return logs <= -2.0 * math.log(cutoff), logs


# -- lattice sum --------------------------------------------------------------

def _check_y(y: tuple[float, float]):
    # NaN passes every < test: ask for finiteness first
    if not all(map(math.isfinite, y)):
        raise EvaluationError(f"Im(z) must be finite, got {y}")
    if min(y) < _MIN_IM:
        raise EvaluationError(f"Im(z) below the quality guard {_MIN_IM}")


def _points_array(xs) -> np.ndarray:
    """xs as a finite float (npts, 2) array with npts >= 1, else
    EvaluationError."""
    try:
        arr = np.asarray(xs, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise EvaluationError(f"xs is not an array of points: {err}") from None
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] != 2:
        raise EvaluationError(f"xs must be a non-empty (npts, 2) array of "
                              f"embedding pairs, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise EvaluationError("xs must hold finite real parts")
    return arr


def _helper_threads() -> int:
    """Helper threads an `evaluate_grid` call may start: one fewer than the
    CPUs this process may run on (its CPU affinity)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return cpus - 1


def _class_plan(cl: _GammaClass, x1: np.ndarray, x2: np.ndarray,
                sq_disc: float):
    """(items, sites): the `evaluate_grid` items of class cl, one (slice,
    cl, c1, c2, qlo, qhi) per chunk of whole points, with their box centres
    and q-ranges (`_q_ranges`), and the estimated delta-box sites of the
    class's walk.  The chunks fix the last bits of the values: each chunk
    with terms adds one per-point sum to the value of each of its points."""
    c1, c2, qlo, qhi = _q_ranges(cl, x1, x2, sq_disc)
    per_point = float(np.maximum(qhi - qlo + 1, 0).mean()) \
        * (2 * cl.wd[0] + 1) or 1.0
    chunk = max(1, int(_CHUNK_ELEMENTS / max(per_point, 1.0)))
    sls = [slice(start, start + chunk) for start in range(0, len(c1), chunk)]
    return ([(sl, cl, c1[sl], c2[sl], qlo[sl], qhi[sl]) for sl in sls],
            per_point * len(c1))


def _residue_index(hnf: tuple[int, int, int], p: np.ndarray,
                   q: np.ndarray) -> np.ndarray:
    """i C + j, the flat index into a class's tables of the residue
    i + j w of p + q w mod gamma*O_F (HNF (A, B, C)): j = q mod C and
    i = p - (q // C) B mod A, each mod taken by a floor division, which
    numpy does faster than its int64 %."""
    A, B, C = hnf
    qc = q // C
    i = p - qc * B
    i -= (i // A) * A
    return i * C + (q - qc * C)


def _chunk_record(spec: PoincareSpec, cl: _GammaClass, c1, c2, qlo, qhi,
                  y: tuple[float, float], cutoff: float, held: list):
    """(cut, sums, terms) of one chunk of points of class cl: the
    per-point sum of the bounds of the walked sites below the cutoff (None
    if there are none), the per-point sums of the terms of the kept sites
    that have a completion residue (None without terms) and their count.
    A kept site's residue (`_residue_index`) picks its completion phase,
    and each point's sum is two bincounts, of the real and of the
    imaginary parts of its terms, each added left to right from 0.0.  The
    walked-site arrays die before the terms are built, so only the kept
    sites outlive the walk, but for the q array, which held[0] (one list
    per thread) keeps until the thread's next item replaces it: a live
    block above the freed arrays keeps glibc's malloc from handing their
    pages back to the system at each chunk end, to be faulted in again by
    the next chunk (about 18K instead of 72K minor faults per serial
    weight-sweep pass)."""
    weight = spec.weight
    pt, pd, qd, u1, u2 = _strip_sites(c1, c2, qlo, qhi, cl.wd, cl.rho,
                                      spec.field.omega_embeddings())
    held[0] = qd
    keep, logs = _cutoff_window(u1, u2, cl.b, weight, cutoff)
    cut = np.flatnonzero(~keep)
    cut = np.bincount(pt[cut], weights=np.exp(-0.5 * logs[cut]),
                      minlength=len(c1)) if len(cut) else None
    kept = np.flatnonzero(keep)
    del keep, logs
    residue = _residue_index(cl.hnf, pd[kept], qd[kept])
    del pd, qd
    ph = cl.phase_table.reshape(-1)[residue]
    live = np.flatnonzero(ph)
    kept = kept[live]
    pt, u1, u2, ph = pt[kept], u1[kept], u2[kept], ph[live]
    del residue, kept, live
    if not len(pt):
        return cut, None, 0
    nu1, nu2 = spec.nu.embeddings()
    g1, g2 = cl.emb
    wz1 = u1 + 1j * (g1 * y[0])
    wz2 = u2 + 1j * (g2 * y[1])
    del u1, u2
    # complex * is not bitwise commutative (FMA); numpy runs x * temp as
    # temp * x from 16,384 elements, which an out= rewrite must keep
    t = ph * wz1 ** (-weight.k1) * wz2 ** (-weight.k2) * np.exp(
        -2j * math.pi * (nu1 / (g1 * wz1) + nu2 / (g2 * wz2)))
    n = len(c1)
    sums = (np.bincount(pt, weights=t.real, minlength=n)
            + 1j * np.bincount(pt, weights=t.imag, minlength=n))
    return cut, sums, len(pt)


def _walk_chunks(walk, nitems: int, helpers: int, budget: int) -> list:
    """[walk(i, held) for i in range(nitems)], records (cut, sums, terms),
    the items handed out in order from one counter to the caller and
    `helpers` threads started and joined here, each thread with its own
    held (`_chunk_record`).  No item is taken once the finished ones hold
    more than budget terms, past which the fold has raised: the fold then
    raises before any item not taken (left None), and each thread walks at
    most one chunk past the budget.  An exception in any thread, the
    caller's KeyboardInterrupt included, sets stop, which every thread
    reads before it takes an item, and is raised here once every helper is
    joined."""
    results = [None] * nitems
    lock = threading.Lock()
    stop = threading.Event()
    errors = []
    taken, finished = 0, 0

    def work():
        nonlocal taken, finished
        held = [None]
        while not stop.is_set():
            with lock:
                i = taken
                if i == nitems or finished > budget:
                    return
                taken += 1
            results[i] = walk(i, held)
            with lock:
                finished += results[i][2]

    def helper():
        try:
            work()
        except BaseException as err:  # handed to the caller, raised there
            errors.append(err)
            stop.set()

    threads = []
    try:
        for _ in range(helpers):
            thread = threading.Thread(target=helper, daemon=True)
            thread.start()
            threads.append(thread)
        work()
    except BaseException:
        stop.set()
        raise
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


def evaluate_grid(spec: PoincareSpec, xs: Sequence[tuple[float, float]],
                  y: tuple[float, float], policy: TruncationPolicy):
    """(values, tail, terms_used) of the truncated series at the points
    x + iy for x in xs (embedding pairs): per-point values, the `Tail`
    record and the total count of summed terms.  The only lattice-sum
    engine; `evaluate` is its one-point case.

    Per class, the delta box only bounds the strips |u_j| <= rho_j that
    hold every kept site (both from `_class_window`), and only the strip
    sites inside the box are walked (`_strip_sites`).  A walked site
    is summed iff its bound prod_j |w_j|^{-k_j} is at least the cutoff
    (`_cutoff_window`), and the residue lookup and the term are computed
    for kept sites only.  The bounds of the walked sites below the cutoff
    are added to `tail.cut` per point; |e^{2 pi i tr(nu Mz)}| <= 1, so that
    sum bounds what they would have contributed (sites with no completion
    residue are counted too, which only over-bounds it).  The whole-class
    parts of the tail come from `_classes_with_skip_info`.

    The walk is one list of items, a class and a chunk of its points
    (`_class_plan`), in class order, handed out to the caller's thread and
    to `_helper_threads` helpers started and joined inside the call (none
    when the estimated walk, the delta-box sites of all classes, fits in
    one chunk) and walked into one record each (`_walk_chunks`), so each
    thread walks at most one chunk past max_terms.  A chunk peaks at up to
    92 bytes per walked site.  Deterministic: fixed class and lattice
    ordering, per-point bincount reductions in that order, and the records
    added to the values in list order, so values, every `Tail` part and
    terms_used have the same bytes for any thread count.
    xs must be a non-empty (npts, 2) array (EvaluationError otherwise)."""
    _check_y(y)
    nu1, nu2 = spec.nu.embeddings()
    xs_arr = _points_array(xs)
    npts = xs_arr.shape[0]
    x1, x2 = np.ascontiguousarray(xs_arr.T)
    classes, *whole_class_parts = _classes_with_skip_info(spec, y, policy)
    items, sites = [], 0.0
    for cl in classes:
        class_items, class_sites = _class_plan(cl, x1, x2,
                                               spec.field.sqrt_disc)
        items += class_items
        sites += class_sites
    helpers = min(_helper_threads(), len(items) - 1) \
        if sites > _CHUNK_ELEMENTS else 0
    # item terms past which the fold has raised: it raises at the first
    # chunk with terms that takes the running total, npts included, past
    # max_terms
    budget = max(policy.max_terms - npts, 0)
    records = _walk_chunks(
        lambda i, held: _chunk_record(spec, *items[i][1:], y,
                                      policy.term_cutoff, held),
        len(items), helpers, budget)

    # the gamma = 0 class is the identity row (0, 1) alone: the units sit
    # in the stabilizer.  + 0.0 turns the -0.0 parts of an underflowed term
    # into +0.0, as a sum started from zero would
    values = np.exp(2j * math.pi * (nu1 * (x1 + 1j * y[0])
                                    + nu2 * (x2 + 1j * y[1]))) + 0.0
    cut_mass = np.zeros(npts, dtype=np.float64)
    terms_used = npts
    for (sl, *_), (cut, sums, terms) in zip(items, records):
        if cut is not None:
            cut_mass[sl] += cut
        if not terms:
            continue
        terms_used += terms
        if terms_used > policy.max_terms:
            raise TruncationLimitExceeded(terms_used)
        values[sl] += sums
    return values, Tail(cut_mass, *whole_class_parts), terms_used


def evaluate(spec: PoincareSpec, z: tuple[complex, complex],
             policy: TruncationPolicy) -> EvalResult:
    """The truncated series at a single point: a one-point `evaluate_grid`;
    `tail_estimate` is its `Tail.total()`."""
    values, tail, terms_used = evaluate_grid(
        spec, [(z[0].real, z[1].real)], (z[0].imag, z[1].imag), policy)
    return EvalResult(value=complex(values[0]),
                      tail_estimate=float(tail.total()[0]),
                      terms_used=terms_used)


# -- explicit coset representatives (reference path) --------------------------

def enumerate_cosets(spec: PoincareSpec, z: tuple[complex, complex],
                     policy: TruncationPolicy) -> list[CosetRep]:
    """Materialized coset representatives of the terms `evaluate` sums at
    z, in deterministic order.  Reference path for tests and small runs: it
    walks the same strips of the same delta boxes (`_strip_sites`; the
    corner sites outside both strips are bounded in the tail, not visited)
    and keeps a site by the same `_cutoff_window` decision as
    `evaluate_grid`, so both sum exactly the same rows; it then completes
    each pair exactly instead of reading residue tables (a from
    `_complete_int`, None off the unimodular pairs, and b = (a*delta - 1)/gamma
    by one exact division), and `CosetRep` checks each determinant."""
    f = spec.field
    y = (z[0].imag, z[1].imag)
    _check_y(y)
    x1, x2 = _points_array([(z[0].real, z[1].real)]).T
    reps = [CosetRep(gamma=f.zero, delta=f.one, a=f.one, b=f.zero)]
    count = len(reps)
    for cl in enumerate_gamma_classes(spec, y, policy):
        gamma = f.element(*cl.pq)
        c1, c2, qlo, qhi = _q_ranges(cl, x1, x2, f.sqrt_disc)
        _pt, pd, qd, u1, u2 = _strip_sites(c1, c2, qlo, qhi, cl.wd, cl.rho,
                                           f.omega_embeddings())
        keep = _cutoff_window(u1, u2, cl.b, spec.weight,
                              policy.term_cutoff)[0]
        for p, q in zip(pd[keep].tolist(), qd[keep].tolist()):
            a = _complete_int(f, cl.pq, (p, q))
            if a is None:
                continue
            a, delta = FieldElement(f, *a), f.element(p, q)
            reps.append(CosetRep(gamma=gamma, delta=delta, a=a,
                                 b=(a * delta - 1) / gamma))
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
                      policy: TruncationPolicy) -> float:
    """|evaluate(Mz) - mu(M,z)^k evaluate(z)| / max(1, |evaluate(z)|).

    M is a level-subgroup element given as ((a, b), (gamma, delta)).
    """
    (a, b), (gamma, delta) = M
    f = spec.field
    if a * delta - b * gamma != f.one:
        raise EvaluationError("matrix determinant is not 1")
    if not spec.level.contains(gamma):
        raise EvaluationError("lower-left entry not in the level ideal")
    rep = CosetRep(gamma=gamma, delta=delta, a=a, b=b)
    mz = apply_mobius(rep, z)
    mu_k = automorphy_factor(rep, z, spec.weight)
    base = evaluate(spec, z, policy)
    shifted = evaluate(spec, mz, policy)
    num = abs(shifted.value - mu_k * base.value)
    return num / max(1.0, abs(base.value))
