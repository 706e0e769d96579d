"""Classical (F = Q) Poincare series for Gamma_0(q): the pipeline oracle.

The n-th Fourier coefficient of the m-th Poincare series of even weight
k >= 4 and level q is computed two independent ways:

* the explicit formula

      p_{m,k,q}(n) = delta(m,n)
          + 2 pi i^{-k} (n/m)^{(k-1)/2}
            sum_{c > 0, q | c} S(m,n;c)/c * J_{k-1}(4 pi sqrt(mn) / c)

  with Kloosterman sums summed term by term over the units mod c (one
  stored table set per modulus c <= 1024: units, vectorised inverses and
  cosines cos(2 pi r / c), shared by every (m, n) and by the quadrature
  rows below; above 1024 units and inverses are built per call) and a
  Bessel J that is the ascending series in exact integer arithmetic,
  with a proved remainder, on all of 0 <= x <= 1000.  Each sum
  S(m, n; c) and each value J_{k-1}(x) is kept in one memo keyed by its
  inputs, (min(m, n), max(m, n), c) and (k - 1, x), so (m, n) and
  (n, m), every level q, and every pair with the same double
  x = 4 pi sqrt(mn) / c share them.  The sum over c stops at the first
  modulus past which no term can change its double total (a bound from
  the first term of the Bessel series against the rounding gap of the
  total), so it has the bits of the sum to c_max without evaluating the
  moduli beyond;

* direct coset summation of the series over bottom rows (c, d), c > 0,
  q | c, gcd(c, d) = 1 in the disc |cz + d| <= R (plus the single
  identity row), followed by equispaced quadrature on the circle at a
  fiber y > 1.  The disc is the term cutoff |cz + d|^{-k} >= R^{-k};
  `QuadraturePolicy.auto` picks R from a closed-form bound on the cut
  mass (`_disc_tail_log_bound`), and each row c is walked as one flat
  array for the grid points 0 <= x <= 1/2, one per orbit of x -> -x; the
  other half of the grid is their conjugate.

Their agreement pins the normalization; it is the raw coefficient of
e^{2 pi i n z}.  The orthogonality propositions are cleanest for the
rescaled quantity (m/n)^{(k-1)/2} p_{m,k,q}(n) (the Kronecker-delta-plus-
Kloosterman/Bessel sum with no power prefactor), exposed here as
`normalized_coefficient`; see the README for the convention notes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import pi

import numpy as np

TWO_PI = 2.0 * pi

_KLOOSTERMAN_CMAX = 10_000
_TABLE_CMAX = 1024  # largest modulus whose tables are stored
_MEMO_ENTRIES = 1 << 13  # values kept by each memo (Kloosterman sums,
                         # Bessel values, quadrature radii)
# QuadraturePolicy.auto refuses a run whose disc would walk more than this
# many lattice sites over the grid (`_radius_cap`); the largest
# criterion-1 configuration, (m, n, k, q) = (3, 3, 12, 1), walks about 2.1e5
_QUADRATURE_MAX_TERMS = 10 ** 8
_ROW_TERMS = 16  # explicit terms of each row series before its integral tail
_ROW_MARGIN = 1e-9  # widening of each walked chord, relative to the radius,
                    # far above the rounding of its ends
_RADIUS_STEPS = 4  # Newton steps of QuadraturePolicy.auto on log R
_RADIUS_STEP_UP = 1e-3  # then steps of log R until the bound holds
_SERIES_TOL_INV = 10 ** 16  # the series stops once its tail is < 1e-16
_TAU_NMAX = 10_000
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)  # exp of it is still finite


class ClassicalError(ValueError):
    pass


def _check_type(name: str, value, kind=int, what: str = "an int"):
    """value is of kind, bool excluded: the one type check of this module.
    Integer arguments take a Python int, real ones an int or a float
    (kind (int, float)), and params a `ClassicalParams`."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ClassicalError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ClassicalParams:
    m: int
    n: int
    k: int
    q: int

    def __post_init__(self):
        for name in ("m", "n", "k", "q"):
            _check_type(name, getattr(self, name))
        if self.m < 1 or self.n < 1 or self.q < 1:
            raise ClassicalError("m, n, q must be >= 1")
        if self.k < 4 or self.k % 2:
            raise ClassicalError("k must be even and >= 4")


@dataclass(frozen=True)
class PeterssonResult:
    value: float
    c_max: int
    tail_bound: float


def _check_fiber(y: float):
    _check_type("y", y, (int, float), "a real number")
    if not math.isfinite(y) or y <= 1.0:
        raise ClassicalError("quadrature fiber needs a finite y > 1")


def _check_grid(grid_n: int):
    _check_type("grid_n", grid_n)
    if grid_n < 4 or grid_n % 2:
        raise ClassicalError("grid_n must be even and >= 4")


@dataclass(frozen=True)
class QuadraturePolicy:
    """The circle grid (grid_n points at height y) and the disc
    |cz + d| <= radius of bottom rows that the coset sum keeps."""
    radius: float
    grid_n: int = 64
    y: float = 1.1

    def __post_init__(self):
        _check_fiber(self.y)
        _check_grid(self.grid_n)
        _check_type("radius", self.radius, (int, float), "a real number")
        if not math.isfinite(self.radius) or self.radius <= 0.0:
            raise ClassicalError("quadrature radius must be finite and > 0")

    @classmethod
    def auto(cls, params: ClassicalParams, tol: float = 1e-8,
             y: float = 1.1, grid_n: int = 64) -> QuadraturePolicy:
        """The disc whose cut sites move the coefficient by less than
        tol / 2.

        Every coset term has |term| = |cz + d|^{-k} e^{-2 pi m Im(Mz)}
        <= |cz + d|^{-k}, so at each grid point the terms left out sum to
        at most the cut mass T(x) that `_disc_tail_log_bound` bounds,
        uniformly in x.  The readout averages the grid values against unit
        phases and multiplies by e^{2 pi n y}, so the coefficient moves by
        at most e^{2 pi n y} max_x T(x).  The radius R is chosen with

            log bound(R) <= log(tol / 2) - 2 pi n y;

        the other half of tol is headroom for rounding and for the aliased
        coefficients n + j grid_n, which this bound does not cover.

        The bound falls about like R^{2-k}: the mass of |w|^{-k} outside
        the disc, pi R^{2-k} / (k - 2), over the area q y of one row cell.
        R starts where that estimate meets the target, takes
        _RADIUS_STEPS Newton steps on log R with slope 2 - k, and then
        rises in steps of _RADIUS_STEP_UP until the bound holds, so the
        returned R satisfies it whatever the steps did.  No lattice site
        is visited.  The search reads n, k, q, y, grid_n and tol only, not
        m, so `_auto_radius` keeps its result in a memo keyed by exactly
        those inputs: the policies of p_{m,k,q}(n) for every m share one
        search.

        Raises ClassicalError unless tol is finite and > 0, and when the
        bound is still above target at the radius `_radius_cap` allows
        (k = 4 at n = 1 would need R about 5e5, some 2.6e13 sites).
        """
        _check_type("params", params, ClassicalParams, "ClassicalParams")
        _check_fiber(y)  # before any arithmetic: the bound needs y > 0
        _check_grid(grid_n)  # _radius_cap divides by grid_n
        _check_type("tol", tol, (int, float), "a real number")
        if not math.isfinite(tol) or tol <= 0.0:
            raise ClassicalError("quadrature tol must be finite and > 0")
        radius = _auto_radius(params.n, params.k, params.q, y, grid_n, tol)
        return cls(radius=radius, grid_n=grid_n, y=y)


@lru_cache(maxsize=_MEMO_ENTRIES)
def _auto_radius(n: int, k: int, q: int, y: float, grid_n: int,
                 tol: float) -> float:
    """The radius search of `QuadraturePolicy.auto`, on checked inputs."""
    log_target = math.log(tol / 2.0) - TWO_PI * n * y
    log_cap = math.log(_radius_cap(q, y, grid_n))
    log_r = min((math.log(pi / ((k - 2) * q * y)) - log_target)
                / (k - 2), log_cap)
    for _ in range(_RADIUS_STEPS):
        excess = _disc_tail_log_bound(math.exp(log_r), k, q, y) - log_target
        log_r = min(log_r + excess / (k - 2), log_cap)
    while _disc_tail_log_bound(math.exp(log_r), k, q, y) > log_target:
        if log_r == log_cap:
            raise ClassicalError(
                f"quadrature needs more than {_QUADRATURE_MAX_TERMS:.0e}"
                f" lattice terms: the disc tail bound at radius "
                f"{math.exp(log_cap):.1f} is still above tol / 2")
        log_r = min(log_r + _RADIUS_STEP_UP, log_cap)
    return math.exp(log_r)


def _radius_cap(q: int, y: float, grid_n: int) -> float:
    """The radius whose disc holds about _QUADRATURE_MAX_TERMS walked sites
    over the grid.  Row c = j q walks at most 2 rho_c + 1 sites per grid
    point, and sum_j 2 rho_c q y <= pi R^2 / 2 (a right Riemann sum of the
    decreasing half-chord 2 sqrt(R^2 - b^2) over 0 <= b <= R), so a disc
    walks at most about grid_n (pi R^2 / 2 + R) / (q y) sites; this solves
    that count = _QUADRATURE_MAX_TERMS for R."""
    return (math.sqrt(1.0 + 2.0 * pi * _QUADRATURE_MAX_TERMS * q * y
                      / grid_n) - 1.0) / pi


def _disc_rows(radius: float, q: int, y: float):
    """(c, rho): the rows c = q, 2q, ... with c y <= radius, as an int64
    array, and the half-widths rho_c = sqrt(radius^2 - (c y)^2) of their
    chords, so that a site of row c lies in the disc iff |c x + d| <= rho_c.
    The one source of the walked rows for `_eval_series_grid` and
    `_disc_tail_log_bound`."""
    cs = q * np.arange(1, int(radius / (q * y)) + 2, dtype=np.int64)
    cs = cs[cs * y <= radius]
    b = cs * y
    return cs, np.sqrt(np.maximum(radius * radius - b * b, 0.0))


def _disc_tail_log_bound(radius: float, k: int, q: int, y: float) -> float:
    """log of a bound, uniform in x, on the cut mass T(x): the sum of
    |cz + d|^{-k} over the sites (c, d), c > 0, q | c, d in Z, that
    `_eval_series_grid` does not walk at z = x + iy.  Coprimality is
    dropped, so the bound covers every such site.

    On row c the sites are u = c x + d, one per point of the coset
    c x + Z, and |cz + d|^{-k} = f_c(u) = (u^2 + b_c^2)^{-k/2} with
    b_c = c y; f_c is even and decreases in |u|.

    Walked rows (c y <= R, chord half-width rho_c, `_disc_rows`): the
    walk widens each chord by _ROW_MARGIN R, more than the rounding of
    its ends, so every site left out has |u| > rho_c.  Tile u > rho_c by
    the unit intervals [rho_c + i, rho_c + i + 1), i >= 0.  Each holds
    exactly one site, and its term is at most f_c(rho_c + i), so the side
    u > rho_c has mass at most S_c = sum_{i >= 0} f_c(rho_c + i), and by
    symmetry the row at most 2 S_c.  S_c is summed explicitly over its
    first N = _ROW_TERMS terms.  Each later term f_c(rho_c + i) is at
    most the integral of f_c over [rho_c + i - 1, rho_c + i], so the rest
    is at most the integral of f_c from a = rho_c + N - 1 on, and that is
    at most (a^2 + b_c^2)^{1 - k/2} / (a (k - 1)) by the argument in
    `hpoincare._corner_bound`.

    Rows past the disc (c = j q for j >= j0, b_c > R, none walked): the
    tiles [i, i + 1) and [-i - 1, -i), i >= 0, hold every site of the
    row, one each, so the row is at most 2 sum_{i >= 0} f_c(i)
    <= h(b_c) = 2 (b_c^{-k} + B_k b_c^{1-k}): the first term plus the
    integral from 0, where B_k = int_0^inf (1 + s^2)^{-k/2} ds
    = sqrt(pi) Gamma((k - 1)/2) / (2 Gamma(k/2)).  h decreases in b, so
    the rows j >= j0 sum to at most h(b_0) plus the integral of h(j q y)
    over j >= j0, which is

        h(b_0) + 2 (b_0^{1-k} / (k - 1) + B_k b_0^{2-k} / (k - 2)) / (q y)

    with b_0 = j0 q y.  So the rows with c y > R need no tail of their
    own.

    Every term is scaled by L^k, L = max(R, q y), before it is summed: a
    walked term is then at most 1 (rho_c^2 + b_c^2 = R^2) and
    b_0 / L <= 2, so nothing underflows at large k; log L^{-k} is added
    back at the end."""
    cs, rho = _disc_rows(radius, q, y)
    scale = max(radius, q * y)
    b = cs * y / scale
    u = (rho[:, None] + np.arange(_ROW_TERMS)) / scale
    a = (rho + (_ROW_TERMS - 1)) / scale
    tail = (a * a + b * b) ** (1.0 - 0.5 * k) * scale / (a * (k - 1))
    walked = 2.0 * float(((u * u + b[:, None] ** 2) ** (-0.5 * k)).sum()
                         + tail.sum())
    b0 = (len(cs) + 1) * q * y / scale
    big_b = 0.5 * math.exp(0.5 * math.log(pi) + math.lgamma((k - 1) / 2)
                           - math.lgamma(k / 2))
    past = 2.0 * (b0 ** -k + big_b * scale * b0 ** (1.0 - k)) \
        + 2.0 * (scale * b0 ** (1.0 - k) / (k - 1)
                 + big_b * scale * scale * b0 ** (2.0 - k) / (k - 2)) \
        / (q * y)
    return math.log(walked + past) - k * math.log(scale)


def _unit_inverses(c: int) -> tuple[np.ndarray, np.ndarray]:
    """The units x of Z/c in increasing order and their inverses mod c
    (c = 1 has the single unit 0, its own inverse).

    The inverse is x^(phi(c) - 1) mod c by square-and-multiply in int64;
    every product is below c^2, so that is exact for c < 3e9.  The tables
    are returned in the narrowest signed dtype that holds c - 1 (int8 up
    to c = 128, int16 up to 32768, so int16 for every Kloosterman
    modulus), read-only, because a stored table serves every later call
    with the same c; widen before multiplying."""
    xs = np.arange(c, dtype=np.int64)
    units = xs[np.gcd(xs, c) == 1]
    inverses = np.ones_like(units)
    base = units.copy()
    power = len(units) - 1
    while power:
        if power & 1:
            inverses = inverses * base % c
        base = base * base % c
        power >>= 1
    dtype = np.min_scalar_type(-c)  # signed, and holds -c, so also c - 1
    tables = units.astype(dtype), (inverses % c).astype(dtype)
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _modulus_tables(c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The units and inverses of modulus c and cos(2 pi r / c) for
    r = 0, ..., c - 1, all read-only.  Each cosine is math.cos of the
    argument numpy forms by the IEEE operations of TWO_PI * r / c (np.cos
    may round differently), so entry r has the bits of
    math.cos(TWO_PI * r / c).  `_tables_for` stores only c <= _TABLE_CMAX:
    at most 1.28 MB of int16 units and inverses plus 4.2 MB of cosines,
    whatever order the moduli come in.  A criterion-1 pass stores the
    203 tables c <= 203 (0.17 MB of cosines): its Petersson sums stop by
    c = 204, and its quadrature rows end at c = 43."""
    cosines = np.fromiter(map(math.cos, (TWO_PI * np.arange(c) / c).tolist()),
                          dtype=np.float64, count=c)
    cosines.flags.writeable = False
    return (*_unit_inverses(c), cosines)


def _tables_for(c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(units, inverses, cosines) of modulus c, which every Kloosterman sum
    and quadrature row of modulus c reads: stored up to _TABLE_CMAX, and
    above it built per call, with no cosine table."""
    if c <= _TABLE_CMAX:
        return _modulus_tables(c)
    return (*_unit_inverses(c), None)


def _check_kloosterman_modulus(c: int):
    if c < 1:
        raise ClassicalError("c must be >= 1")
    if c > _KLOOSTERMAN_CMAX:
        raise ClassicalError(f"brute-force Kloosterman capped at c <= "
                             f"{_KLOOSTERMAN_CMAX}")


def kloosterman(m: int, n: int, c: int) -> float:
    """S(m, n; c) = sum over invertible x mod c of e((m x + n xbar)/c).
    Real by conjugate symmetry; returned as the cosine sum.

    The units and inverses of `_tables_for` are widened to int64 here; m
    and n are reduced mod c first, so int64 cannot overflow.  For
    c <= _TABLE_CMAX the cosine of each residue r is gathered from the
    stored table, which holds math.cos(TWO_PI * r / c); above it (a table
    of c doubles per sum would cost more than it saves) the arguments
    2 pi r / c are formed in numpy, in the same IEEE operations, and
    passed to math.cos.  Either way each cosine is the double a Python
    loop over x computes.  np.add.accumulate adds them strictly left to
    right in increasing x (np.sum adds pairwise, and the builtin sum
    compensates from Python 3.12 on), so the last partial sum has the
    bits of the plain loop `total += cos(...)`."""
    for name, value in (("m", m), ("n", n), ("c", c)):
        _check_type(name, value)
    _check_kloosterman_modulus(c)
    units, inverses, table = _tables_for(c)
    residues = ((m % c) * units.astype(np.int64)
                + (n % c) * inverses.astype(np.int64)) % c
    if table is not None:
        cosines = table[residues]
    else:
        cosines = np.fromiter(map(math.cos, (TWO_PI * residues / c).tolist()),
                              dtype=np.float64, count=len(residues))
    return np.add.accumulate(cosines).item(-1)


def _bessel_series_rational(order: int, x: float) -> tuple[float, float]:
    """Ascending series J_order(x) = (x/2)^order sum_j (-1)^j (x^2/4)^j /
    (j! (j+order)!) evaluated in exact rational arithmetic, with a rigorous
    geometric remainder bound.  Exact rationals sidestep the catastrophic
    cancellation the alternating series suffers in doubles once x exceeds
    ~12.

    With x = p/e exactly, x^2/4 = P/E (P = p^2, E = 4 e^2) and the partial
    sum through term j is the integer A over D = E^j j! (j+order)!, so one
    step is A <- A E j (j+order) +- P^j.  The stopping test (ratio < 1/2
    and |prefix term| ratio < 1e-16) is decided by integer
    cross-multiplication, and each result is one correctly rounded int/int
    division.  These are the rationals a term-by-term Fraction sum forms,
    so the doubles are the same bit for bit."""
    p, e = x.as_integer_ratio()
    big_p, big_e = p * p, 4 * e * e
    pre_num, pre_den = p ** order, (2 * e) ** order  # prefix (x/2)^order
    num, den = 1, math.factorial(order)
    power = 1  # P^j: |term_j| = power / den
    j = 0
    # stop once the geometric tail bound (prefix included) is far below the
    # double-precision target; ratio = P / ratio_den
    while True:
        j += 1
        step = big_e * j * (j + order)
        power *= big_p
        num = num * step + (-power if j % 2 else power)
        den *= step
        ratio_den = big_e * (j + 1) * (j + 1 + order)
        if (2 * big_p < ratio_den
                and pre_num * power * big_p * _SERIES_TOL_INV
                < pre_den * den * ratio_den):
            break
    # next term |term_j| ratio over (1 - ratio); the stop test gave ratio < 1/2
    rem_num, rem_den = power * big_p, den * (ratio_den - big_p)
    return (pre_num * num / (pre_den * den),
            pre_num * rem_num / (pre_den * rem_den))


def _check_bessel_domain(order: int, x: float):
    """ClassicalError unless order >= 3 and 0 <= x <= 1000 (bessel_j's)."""
    _check_type("order", order)
    if order < 3:
        raise ClassicalError("order must be >= 3")
    _check_type("x", x, (int, float), "a real number")
    if not 0.0 <= x <= 1000.0:
        raise ClassicalError("x must lie in [0, 1000]")


def bessel_j(order: int, x: float) -> float:
    """J_order(x) for integer order >= 3 and 0 <= x <= 1000.

    The value of `bessel_j_with_bound`, so its error is at most the proved
    series remainder plus the final rounding; a remainder above 1e-13 is
    refused with ClassicalError.
    """
    value, rem = bessel_j_with_bound(order, x)
    if rem > 1e-13:
        raise ClassicalError(f"series remainder {rem} too large")
    return value


def bessel_j_with_bound(order: int, x: float) -> tuple[float, float]:
    """(value, remainder) of the exact-rational ascending series of
    J_order(x) on bessel_j's domain (order >= 3, 0 <= x <= 1000).  The value
    is the correctly rounded partial sum and the remainder bounds the rest
    of the series, so |value - J_order(x)| <= remainder + half an ulp of
    value."""
    _check_bessel_domain(order, x)
    return _bessel_series_rational(order, x)


@lru_cache(maxsize=_MEMO_ENTRIES)
def _kloosterman_cached(m: int, n: int, c: int) -> float:
    """kloosterman(m, n, c), memoized by (m, n, c); callers pass m <= n,
    since S is symmetric in (m, n), so a miss is one sum evaluated."""
    return kloosterman(m, n, c)


@lru_cache(maxsize=_MEMO_ENTRIES)
def _bessel_cached(order: int, x: float) -> float:
    """bessel_j(order, x), memoized by (order, x)."""
    return bessel_j(order, x)


def _log_first_term(k: int, x: float) -> float:
    """log of (x/2)^{k-1} / (k-1)!, the first term of the ascending series
    of J_{k-1}(x), taken in logs so that neither the power nor the
    factorial has to fit in a double (x > 0)."""
    return (k - 1) * math.log(x / 2) - math.lgamma(k)


def petersson_coefficient(params: ClassicalParams,
                          c_max: int) -> PeterssonResult:
    """Partial sum of the explicit formula over c <= c_max plus a tail
    bound from |S(m,n;c)| <= c and J_{k-1}(x) <= (x/2)^{k-1}/(k-1)!.

    The terms are added in increasing c.  S(m, n; c) is read from the
    memo keyed by (min(m, n), max(m, n), c), and J_{k-1}(x_c) from the
    memo keyed by (k - 1, x_c), x_c = 4 pi sqrt(mn) / c the double the
    stop test below forms; each keeps its _MEMO_ENTRIES most recently
    used values.  So (m, n) and (n, m) and every level q share each sum
    and each Bessel value, every weight shares the sums, and pairs with
    equal x_c, such as (mn, c) = (1, 1) and (4, 2), share the Bessel
    values; a stored value has the bits of a fresh evaluation.

    The sum stops at the first c at which no later term can change the
    double `total`, before that modulus's sum or Bessel value is read, so
    the result has the bits of the loop to c_max.  With x_c = 4 pi
    sqrt(mn) / c, the stop needs total != 0, x_c < 2 and

        2 B(c) < g / 2,   B(c) = (x_c/2)^{k-1} / (k-1)!,

    where g is the gap from |total| down to the next double.  Proof: the
    float sum S of phi(c) cosines has |S| <= phi(c) <= c (each partial sum
    of j cosines is at most the double j in size, and rounding keeps that
    bound), so the double S / c is at most 1 in size.  For x < 2 the
    terms of the ascending series decrease in size from the first, so
    every partial sum, and the correctly rounded one `bessel_j` returns,
    lies between 0 and the first term B(c) rounded.  So every term of
    modulus c' >= c is at most the rounded B(c') <= B(c) in size, since B
    decreases in c; the factor 2 covers that rounding and the error of
    computing B in logs (`_log_first_term`).  A term smaller than g / 2
    in size moves total by less than half the gap to either neighbour, so
    in round-to-nearest total + term == total, and the test then holds at
    every later c as well.

    The prefactor (n/m)^{(k-1)/2} raises ClassicalError when it overflows
    a double.  The tail bound (`_tail_bound`) is taken in logs, so no
    factor of it has to fit in a double."""
    return _petersson(params, c_max, raw=True)


def normalized_coefficient(params: ClassicalParams,
                           c_max: int) -> PeterssonResult:
    """(m/n)^{(k-1)/2} * p_{m,k,q}(n): the delta-plus-Kloosterman/Bessel
    sum with no power prefactor, the quantity whose large-k and large-q
    limits are the Kronecker delta in the orthogonality propositions.
    The sum of `petersson_coefficient` times 2 pi i^{-k}, plus delta, so
    no power of n/m is formed, and the tail bound without the prefactor."""
    return _petersson(params, c_max, raw=False)


def _petersson(params: ClassicalParams, c_max: int,
               raw: bool) -> PeterssonResult:
    """The explicit formula with the prefactor (n/m)^{(k-1)/2} (raw) or
    without it: one stopped loop over c and one tail bound for both."""
    _check_type("params", params, ClassicalParams, "ClassicalParams")
    _check_type("c_max", c_max)
    if c_max < params.q:
        raise ClassicalError("c_max must be at least q")
    m, n, k, q = params.m, params.n, params.k, params.q
    _check_kloosterman_modulus(c_max - c_max % q)  # the largest c, up front
    scale, log_scale = 1.0, 0.0
    if raw:
        try:
            scale = (n / m) ** ((k - 1) / 2)
        except OverflowError:
            raise ClassicalError(f"the prefactor ({n}/{m})^(({k}-1)/2) "
                                 f"overflows a double") from None
        log_scale = (k - 1) / 2 * math.log(n / m)
    arg = 4 * pi * math.sqrt(m * n)
    ik = (-1) ** (k // 2)  # i^{-k} for even k
    lo, hi = min(m, n), max(m, n)
    total = 0.0
    for c in range(q, c_max + 1, q):
        x = arg / c
        if total and x < 2.0:
            gap = abs(total) - math.nextafter(abs(total), 0.0)
            if _log_first_term(k, x) + math.log(4.0) < math.log(gap):
                break
        s = _kloosterman_cached(lo, hi, c)
        if s != 0.0:
            total += s / c * _bessel_cached(k - 1, x)
    delta = 1.0 if m == n else 0.0
    value = delta + 2 * pi * ik * scale * total
    tail = _tail_bound(params, c_max, log_scale, arg)
    return PeterssonResult(value=value, c_max=c_max, tail_bound=tail)


def _tail_bound(params: ClassicalParams, c_max: int, log_scale: float,
                arg: float) -> float:
    """2 pi e^{log_scale} times the sum over c > c_max, q | c, of the term
    bound (1/c) c (arg/(2c))^{k-1}/(k-1)!, arg = 4 pi sqrt(mn) and
    log_scale the log of the prefactor (or 0), which is at most

        2 pi e^{log_scale} (x/2)^{k-1}/(k-1)! c_max / ((k-2) q),

    x = arg / c_max, taken in logs so that no factor has to fit in a
    double.  A bound past the doubles is inf, and a bound below them is
    the least positive double, not 0.0: a positive bound never reads as
    an exact sum."""
    k, q = params.k, params.q
    log_tail = (math.log(TWO_PI) + log_scale
                + _log_first_term(k, arg / c_max)
                + math.log(c_max / ((k - 2) * q)))
    if log_tail > _LOG_DOUBLE_MAX:
        return math.inf
    return max(math.exp(log_tail), math.ulp(0.0))


def _eval_series_grid(m: int, k: int, q: int,
                      policy: QuadraturePolicy) -> np.ndarray:
    """P_{m,k,q}(x + iy) on the equispaced circle grid, by direct coset
    summation over the bottom rows (c, d), c > 0, q | c, gcd(c, d) = 1 in
    the disc |cz + d| <= radius, plus the identity row, using
    M z = a/c - 1/(c(cz+d)) with a d = 1 mod c.

    The rows are walked only at x_j = j / grid_n for 0 <= j <= grid_n/2,
    one point per orbit of x -> -x, and index grid_n - j is filled with
    the conjugate of index j: the truncated sum has
    P(-x + iy) = conj P(x + iy) term by term.  The row (c, -d) keeps
    gcd(c, d) and sends a to -a, so its term is the conjugate of the term
    of (c, d) at x; the chord window at -x is the exact negation of the
    window at x (ceil(-t) = -floor(t)); and the sum is 1-periodic, so
    -x_j is x_{grid_n - j}.

    Row c (`_disc_rows`) walks the d with |c x + d| <= rho_c, widened by
    _ROW_MARGIN radius so that rounding drops no site of the chord, for
    those points as one flat array ordered by point, then d.  The
    inverse map (-1 off the units, spread from the shared tables of
    `_tables_for`) and the phase table e(m a / c) over a mod c
    are built once per row and gathered by d; each term is the
    double the per-term expression gives.  Two bincounts, of the real
    and of the imaginary parts, add each point's terms in order, left to
    right from 0.0."""
    n_grid = policy.grid_n
    n_reps = n_grid // 2 + 1
    y = policy.y
    xs = np.arange(n_reps) / n_grid
    z = xs + 1j * y
    vals = np.exp(2j * pi * m * z)
    points = np.arange(n_reps)
    margin = _ROW_MARGIN * policy.radius
    for c, rho in zip(*_disc_rows(policy.radius, q, y)):
        c = int(c)
        halfw = float(rho) + margin
        lo = np.ceil(-c * xs - halfw).astype(np.int64)
        hi = np.floor(-c * xs + halfw).astype(np.int64)
        counts = hi - lo + 1
        point = np.repeat(points, counts)
        d = np.arange(len(point)) \
            + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        units, inverses, _ = _tables_for(c)
        inv = np.full(c, -1, dtype=np.int64)
        inv[units] = inverses
        a = inv[d - (d // c) * c]  # d % c: numpy's int64 % is slower
        live = np.flatnonzero(a >= 0)
        point, d, a = point[live], d[live], a[live]
        phase = np.exp(2j * pi * (m * np.arange(c) / c))
        w = c * z[point] + d
        # complex * is not bitwise commutative (FMA); numpy runs x * temp as
        # temp * x from 16,384 elements, which an out= rewrite must keep
        t = w ** (-k) * phase[a] * np.exp(-2j * pi * m / (c * w))
        row = np.empty(n_reps, dtype=np.complex128)
        row.real = np.bincount(point, weights=t.real, minlength=n_reps)
        row.imag = np.bincount(point, weights=t.imag, minlength=n_reps)
        vals += row
    return np.concatenate((vals, np.conj(vals[-2:0:-1])))


def classical_poincare_coefficient_by_quadrature(
        params: ClassicalParams,
        policy: QuadraturePolicy | None = None) -> float:
    """Independent value of p_{m,k,q}(n): sample the coset sum on the
    circle, one DFT readout, unfold by e^{2 pi n y}.  End-to-end oracle
    for the explicit formula (and for the Hilbert pipeline's structure)."""
    _check_type("params", params, ClassicalParams, "ClassicalParams")
    policy = policy or QuadraturePolicy.auto(params)
    m, n, k, q = params.m, params.n, params.k, params.q
    vals = _eval_series_grid(m, k, q, policy)
    n_grid = policy.grid_n
    phases = np.exp(-2j * pi * n * np.arange(n_grid) / n_grid)
    coeff = (vals @ phases) / n_grid * math.exp(TWO_PI * n * policy.y)
    if abs(coeff.imag) > 1e-6 * max(1.0, abs(coeff.real)):
        raise ClassicalError(f"coefficient has a non-real residue: {coeff}")
    return float(coeff.real)


def delta_coefficients(n_max: int) -> list[int]:
    """tau(1..n_max) from Delta = (E_4^3 - E_6^2)/1728 by exact integer
    convolution of the Eisenstein q-expansions."""
    _check_type("n_max", n_max)
    if n_max < 1 or n_max > _TAU_NMAX:
        raise ClassicalError(f"n_max must be in [1, {_TAU_NMAX}]")
    size = n_max + 1
    sig3 = [0] * size
    sig5 = [0] * size
    for d in range(1, size):
        d3 = d ** 3
        d5 = d ** 5
        for mult in range(d, size, d):
            sig3[mult] += d3
            sig5[mult] += d5
    e4 = [1] + [240 * sig3[i] for i in range(1, size)]
    e6 = [1] + [-504 * sig5[i] for i in range(1, size)]

    def conv(a, b):
        out = [0] * size
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(size - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return out

    e4sq = conv(e4, e4)
    e4cb = conv(e4sq, e4)
    e6sq = conv(e6, e6)
    disc = [(a - b) for a, b in zip(e4cb, e6sq)]
    taus = []
    for i in range(1, size):
        v, r = divmod(disc[i], 1728)
        if r:
            raise ClassicalError("E_4^3 - E_6^2 not divisible by 1728")
        taus.append(v)
    if disc[0] != 0 or taus[0] != 1:
        raise ClassicalError("Delta normalization check failed")
    return taus


def nonvanishing_range_scan(k: int, m_max: int,
                            c_max: int) -> list[tuple[int, bool]]:
    """For each m <= m_max: certificate that |p_{m,k,1}(m)| > 10 * tail.
    Empirical scan; emits (m, certified) pairs.  An empty scan (m_max < 1)
    is refused: it would certify nothing."""
    ClassicalParams(m=1, n=1, k=k, q=1)  # the type and parity rule on k
    _check_type("m_max", m_max)
    if m_max < 1:
        raise ClassicalError("m_max must be >= 1")
    out = []
    for m in range(1, m_max + 1):
        res = petersson_coefficient(ClassicalParams(m=m, n=m, k=k, q=1),
                                    c_max)
        out.append((m, abs(res.value) > 10.0 * res.tail_bound))
    return out


def classical_csv(rows: list[dict]) -> str:
    """CSV with schema m,n,k,q,value,tail_bound,method."""
    lines = ["m,n,k,q,value,tail_bound,method"]
    for r in rows:
        lines.append(f"{r['m']},{r['n']},{r['k']},{r['q']},"
                     f"{r['value']!r},{r['tail_bound']!r},{r['method']}")
    return "\n".join(lines) + "\n"
