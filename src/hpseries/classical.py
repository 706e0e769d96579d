"""Classical (F = Q) Poincare series for Gamma_0(q): the pipeline oracle.

The n-th Fourier coefficient of the m-th Poincare series of even weight
k >= 4 and level q is computed two independent ways:

* the explicit formula

      p_{m,k,q}(n) = delta(m,n)
          + 2 pi i^{-k} (n/m)^{(k-1)/2}
            sum_{c > 0, q | c} S(m,n;c)/c * J_{k-1}(4 pi sqrt(mn) / c)

  with brute-force Kloosterman sums and a self-validating Bessel J;

* direct coset summation of the series over bottom rows (c, d), c > 0,
  q | c, gcd(c, d) = 1 (plus the single identity row), followed by
  equispaced quadrature on the circle at a fiber y > 1.

Their agreement pins the normalization; it is the raw coefficient of
e^{2 pi i n z}.  The orthogonality propositions are cleanest for the
rescaled quantity (m/n)^{(k-1)/2} p_{m,k,q}(n) (the Kronecker-delta-plus-
Kloosterman/Bessel sum with no power prefactor), exposed here as
`normalized_coefficient`; see the README for the convention notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, pi

import numpy as np

TWO_PI = 2.0 * pi

_BESSEL_SERIES_XMAX = 50.0
_KLOOSTERMAN_CMAX = 10_000
_TAU_NMAX = 10_000


class ClassicalError(ValueError):
    pass


@dataclass(frozen=True)
class ClassicalParams:
    m: int
    n: int
    k: int
    q: int

    def __post_init__(self):
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
    if y <= 1.0:
        raise ClassicalError("quadrature fiber needs y > 1")


@dataclass(frozen=True)
class QuadraturePolicy:
    grid_n: int = 64
    y: float = 1.1
    c_max: int = 40
    d_window: float = 8.0  # half-width of the d box in units of c*y

    def __post_init__(self):
        _check_fiber(self.y)
        if self.grid_n < 4 or self.grid_n % 2:
            raise ClassicalError("grid_n must be even and >= 4")

    @classmethod
    def auto(cls, params: ClassicalParams, tol: float = 1e-8,
             y: float = 1.1, grid_n: int = 64) -> QuadraturePolicy:
        """Window and cutoff sized so the coefficient error after the
        e^{2 pi n y} unfolding stays below tol.

        d-tail:  sum_c 2 (W c y)^{1-k}/(k-1) <= 4 (W y q)^{1-k}/(k-1);
        c-tail:  2 y^{1-k} C^{2-k} / ((k-2) q).
        """
        _check_fiber(y)  # before any arithmetic: y^{1-k} needs y > 0
        n, k, q = params.n, params.k, params.q
        unfold = math.exp(TWO_PI * n * y)
        half_tol = tol / 2.0
        w = (8.0 * unfold / ((k - 1) * half_tol)) ** (1.0 / (k - 1)) / (y * q)
        c = (4.0 * y ** (1 - k) * unfold
             / ((k - 2) * q * half_tol)) ** (1.0 / (k - 2))
        c_max = max(int(math.ceil(c)) + q, 2 * q)
        return cls(grid_n=grid_n, y=y, c_max=c_max,
                   d_window=max(w, 4.0))


def kloosterman(m: int, n: int, c: int) -> float:
    """S(m, n; c) = sum over invertible x mod c of e((m x + n xbar)/c),
    by brute force with exact modular inverses.  Real by conjugate
    symmetry; returned as the cosine sum."""
    if c < 1:
        raise ClassicalError("c must be >= 1")
    if c > _KLOOSTERMAN_CMAX:
        raise ClassicalError(f"brute-force Kloosterman capped at c <= "
                             f"{_KLOOSTERMAN_CMAX}")
    if c == 1:
        return 1.0
    total = 0.0
    for x in range(1, c):
        if gcd(x, c) == 1:
            xbar = pow(x, -1, c)
            total += math.cos(TWO_PI * ((m * x + n * xbar) % c) / c)
    return total


def _bessel_series_rational(order: int, x: float) -> tuple[float, float]:
    """Ascending series J_order(x) = (x/2)^order sum_j (-1)^j (x^2/4)^j /
    (j! (j+order)!) evaluated in exact rational arithmetic, with a rigorous
    geometric remainder bound.  Exact rationals sidestep the catastrophic
    cancellation the alternating series suffers in doubles once x exceeds
    ~12."""
    x2_4 = Fraction(x) * Fraction(x) / 4
    prefix = Fraction(x) ** order / 2 ** order
    term = Fraction(1, math.factorial(order))
    total = term
    tol = Fraction(1, 10 ** 16)
    j = 0
    # stop once the geometric tail bound (prefix included) is far below the
    # double-precision target
    while True:
        j += 1
        term = -term * x2_4 / (j * (j + order))
        total += term
        ratio = x2_4 / ((j + 1) * (j + 1 + order))
        if ratio < Fraction(1, 2) and prefix * abs(term) * ratio < tol:
            break
        if j > 600:
            break
    next_term = abs(term) * ratio
    remainder = next_term / (1 - ratio) if ratio < 1 else next_term * 10
    return float(prefix * total), float(prefix * remainder)


def _bessel_backward_recurrence(order: int, x: float) -> float:
    """Miller's algorithm: downward three-term recurrence from a start
    index above max(order, x), normalized by J_0 + 2 sum J_{2j} = 1."""
    if x == 0.0:
        return 0.0
    start = int(max(order, x) + 40 + 10 * math.sqrt(max(order, x)))
    if start % 2:
        start += 1
    jp = 0.0
    jc = 1e-300
    norm = 0.0
    target = 0.0
    for nu in range(start, 0, -1):
        jm = (2.0 * nu / x) * jc - jp
        jp, jc = jc, jm
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            target *= 1e-250
        if nu - 1 == order:
            target = jc
        if (nu - 1) % 2 == 0 and nu - 1 > 0:
            norm += 2.0 * jc
    norm += jc  # J_0 term
    if order == 0:
        target = jc
    return target / norm


def bessel_j(order: int, x: float) -> float:
    """J_order(x) for integer order >= 3, 0 <= x <= 1000, abs error < 1e-12.

    Exact-rational ascending series up to x = 50 (with rigorous remainder),
    backward recurrence beyond.
    """
    if order < 3:
        raise ClassicalError("order must be >= 3")
    if not 0.0 <= x <= 1000.0:
        raise ClassicalError("x must lie in [0, 1000]")
    if x <= _BESSEL_SERIES_XMAX:
        value, rem = _bessel_series_rational(order, x)
        if rem > 1e-13:
            raise ClassicalError(f"series remainder {rem} too large")
        return value
    return _bessel_backward_recurrence(order, x)


def bessel_j_with_bound(order: int, x: float) -> tuple[float, float]:
    """Series value together with its rigorous truncation remainder
    (series range only)."""
    if x > _BESSEL_SERIES_XMAX:
        raise ClassicalError("remainder bound only for the series range")
    return _bessel_series_rational(order, x)


@lru_cache(maxsize=200_000)
def _kloosterman_cached(m: int, n: int, c: int) -> float:
    a, b = min(m, n), max(m, n)  # S is symmetric in (m, n)
    if (a, b) != (m, n):
        return _kloosterman_cached(a, b, c)
    return kloosterman(m, n, c)


def petersson_coefficient(params: ClassicalParams,
                          c_max: int) -> PeterssonResult:
    """Partial sum of the explicit formula over c <= c_max plus a tail
    bound from |S(m,n;c)| <= c and J_{k-1}(x) <= (x/2)^{k-1}/(k-1)!."""
    if c_max < params.q:
        raise ClassicalError("c_max must be at least q")
    m, n, k, q = params.m, params.n, params.k, params.q
    arg = 4 * pi * math.sqrt(m * n)
    ik = (-1) ** (k // 2)  # i^{-k} for even k
    total = 0.0
    for c in range(q, c_max + 1, q):
        s = _kloosterman_cached(m, n, c)
        if s != 0.0:
            total += s / c * bessel_j(k - 1, arg / c)
    delta = 1.0 if m == n else 0.0
    scale = (n / m) ** ((k - 1) / 2)
    value = delta + 2 * pi * ik * scale * total
    # tail: sum_{c > c_max, q|c} (1/c) * c * (arg/(2c))^{k-1}/(k-1)!
    #       <= (arg/2)^{k-1}/(k-1)! * c_max^{2-k} / ((k-2) q)
    tail = (2 * pi * scale * (arg / 2) ** (k - 1) / math.factorial(k - 1)
            * c_max ** (2 - k) / ((k - 2) * q))
    return PeterssonResult(value=value, c_max=c_max, tail_bound=tail)


def normalized_coefficient(params: ClassicalParams,
                           c_max: int) -> PeterssonResult:
    """(m/n)^{(k-1)/2} * p_{m,k,q}(n): the delta-plus-Kloosterman/Bessel
    sum with no power prefactor, the quantity whose large-k and large-q
    limits are the Kronecker delta in the orthogonality propositions."""
    raw = petersson_coefficient(params, c_max)
    scale = (params.m / params.n) ** ((params.k - 1) / 2)
    return PeterssonResult(value=scale * raw.value, c_max=c_max,
                           tail_bound=scale * raw.tail_bound)


def _eval_series_grid(m: int, k: int, q: int,
                      policy: QuadraturePolicy) -> np.ndarray:
    """P_{m,k,q}(x + iy) on the equispaced circle grid, by direct coset
    summation over bottom rows (c, d), c > 0, q | c, gcd(c, d) = 1 plus
    the identity row, using M z = a/c - 1/(c(cz+d)) with a d = 1 mod c."""
    n_grid = policy.grid_n
    y = policy.y
    xs = np.arange(n_grid) / n_grid
    z = xs + 1j * y
    vals = np.exp(2j * pi * m * z)
    for c in range(q, policy.c_max + 1, q):
        halfw = policy.d_window * c * y
        inv = np.array([pow(d, -1, c) if gcd(d, c) == 1 else -1
                        for d in range(c)]) if c > 1 else np.zeros(1, dtype=int)
        for i, x in enumerate(xs):
            lo = math.ceil(-c * x - halfw)
            hi = math.floor(-c * x + halfw)
            d = np.arange(lo, hi + 1)
            a = inv[d % c] if c > 1 else np.zeros(len(d), dtype=int)
            live = a >= 0
            if not live.any():
                continue
            d = d[live]
            a = a[live]
            w = c * z[i] + d
            t = w ** (-k) * np.exp(2j * pi * (m * a / c)) \
                * np.exp(-2j * pi * m / (c * w))
            vals[i] += t.sum()
    return vals


def classical_poincare_coefficient_by_quadrature(
        params: ClassicalParams,
        policy: QuadraturePolicy | None = None) -> float:
    """Independent value of p_{m,k,q}(n): sample the coset sum on the
    circle, one DFT readout, unfold by e^{2 pi n y}.  End-to-end oracle
    for the explicit formula (and for the Hilbert pipeline's structure)."""
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
    Empirical scan; emits (m, certified) pairs."""
    if k < 4 or k % 2:
        raise ClassicalError("k must be even and >= 4")
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
