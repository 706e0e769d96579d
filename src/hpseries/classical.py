"""Classical (F = Q) Poincare series for Gamma_0(q): the pipeline oracle.

The n-th Fourier coefficient of the m-th Poincare series of even weight
k >= 4 and level q is computed two independent ways:

* the explicit formula

      p_{m,k,q}(n) = delta(m,n)
          + 2 pi i^{-k} (n/m)^{(k-1)/2}
            sum_{c > 0, q | c} S(m,n;c)/c * J_{k-1}(4 pi sqrt(mn) / c)

  with Kloosterman sums summed term by term over the units mod c (one
  vectorised inverse table per c) and a self-validating Bessel J whose
  ascending series runs in exact integer arithmetic;

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
from functools import lru_cache
from math import pi

import numpy as np

TWO_PI = 2.0 * pi

_BESSEL_SERIES_XMAX = 50.0
_KLOOSTERMAN_CMAX = 10_000
# QuadraturePolicy.auto refuses a run whose estimated lattice-term count
# sum_c 2 W c y grid_n exceeds this; the largest criterion-1 configuration,
# (m, n, k, q) = (3, 3, 12, 1), needs about 5.0e6
_QUADRATURE_MAX_TERMS = 10 ** 8
_SERIES_TOL_INV = 10 ** 16  # the series stops once its tail is < 1e-16
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
    if not math.isfinite(y) or y <= 1.0:
        raise ClassicalError("quadrature fiber needs a finite y > 1")


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

        Raises ClassicalError when the run would sum more than
        _QUADRATURE_MAX_TERMS lattice terms, sum_{q | c <= C} 2 W c y grid_n
        (k = 4 at n = 1 asks for about 1.6e17).
        """
        _check_fiber(y)  # before any arithmetic: y^{1-k} needs y > 0
        n, k, q = params.n, params.k, params.q
        half_tol = tol / 2.0
        try:
            unfold = math.exp(TWO_PI * n * y)
            w = (8.0 * unfold / ((k - 1) * half_tol)) ** (1.0 / (k - 1)) \
                / (y * q)
            c = (4.0 * y ** (1 - k) * unfold
                 / ((k - 2) * q * half_tol)) ** (1.0 / (k - 2))
            c_max = max(int(math.ceil(c)) + q, 2 * q)
        except OverflowError:
            raise ClassicalError(
                f"quadrature sizing overflows at n = {n}, y = {y}: far "
                f"more than {_QUADRATURE_MAX_TERMS:.0e} lattice terms") from None
        d_window = max(w, 4.0)
        rows = c_max // q  # c = q, 2q, ..., rows q
        terms = d_window * y * grid_n * q * rows * (rows + 1)
        if terms > _QUADRATURE_MAX_TERMS:
            raise ClassicalError(
                f"quadrature needs about {terms:.2e} lattice terms "
                f"(c_max {c_max}, d_window {d_window:.1f}), more than "
                f"{_QUADRATURE_MAX_TERMS:.0e}")
        return cls(grid_n=grid_n, y=y, c_max=c_max, d_window=d_window)


def _unit_inverses(c: int) -> tuple[np.ndarray, np.ndarray]:
    """The units x of Z/c in increasing order and their inverses mod c, as
    int64 arrays (c = 1 has the single unit 0, its own inverse).  The
    inverse is x^(phi(c) - 1) mod c by square-and-multiply; every product
    is below c^2, so int64 is exact for c < 3e9."""
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
    return units, inverses % c


def _check_kloosterman_modulus(c: int):
    if c < 1:
        raise ClassicalError("c must be >= 1")
    if c > _KLOOSTERMAN_CMAX:
        raise ClassicalError(f"brute-force Kloosterman capped at c <= "
                             f"{_KLOOSTERMAN_CMAX}")


def kloosterman(m: int, n: int, c: int) -> float:
    """S(m, n; c) = sum over invertible x mod c of e((m x + n xbar)/c).
    Real by conjugate symmetry; returned as the cosine sum.

    The residues and the arguments 2 pi r / c are formed in numpy, in the
    same IEEE operations (and so the same doubles) as a Python loop over
    x; m and n are reduced mod c first, so int64 cannot overflow.  The
    cosines come from math.cos, not np.cos, whose SIMD kernels may round
    differently, and they are added strictly left to right in increasing
    x by np.add.accumulate (np.sum adds pairwise), so the sum has the bits
    of the plain loop `total += cos(...)`."""
    _check_kloosterman_modulus(c)
    units, inverses = _unit_inverses(c)
    residues = ((m % c) * units + (n % c) * inverses) % c
    cosines = list(map(math.cos, (TWO_PI * residues / c).tolist()))
    return float(np.add.accumulate(cosines)[-1])


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
        if j > 600:
            break
    # next term |term_j| ratio, over (1 - ratio) if ratio < 1 else times 10
    if big_p < ratio_den:
        rem_num, rem_den = power * big_p, den * (ratio_den - big_p)
    else:
        rem_num, rem_den = 10 * power * big_p, den * ratio_den
    return (pre_num * num / (pre_den * den),
            pre_num * rem_num / (pre_den * rem_den))


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


def _check_bessel_domain(order: int, x: float, x_max: float):
    if order < 3:
        raise ClassicalError("order must be >= 3")
    if not 0.0 <= x <= x_max:
        raise ClassicalError(f"x must lie in [0, {x_max:g}]")


def bessel_j(order: int, x: float) -> float:
    """J_order(x) for integer order >= 3, 0 <= x <= 1000, abs error < 1e-12.

    Exact-rational ascending series up to x = 50 (with rigorous remainder),
    backward recurrence beyond.
    """
    _check_bessel_domain(order, x, 1000.0)
    if x <= _BESSEL_SERIES_XMAX:
        value, rem = _bessel_series_rational(order, x)
        if rem > 1e-13:
            raise ClassicalError(f"series remainder {rem} too large")
        return value
    return _bessel_backward_recurrence(order, x)


def bessel_j_with_bound(order: int, x: float) -> tuple[float, float]:
    """Series value together with its rigorous truncation remainder
    (series range only: order >= 3, 0 <= x <= 50)."""
    _check_bessel_domain(order, x, _BESSEL_SERIES_XMAX)
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
    _check_kloosterman_modulus(c_max - c_max % q)  # the largest c, up front
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
    the identity row, using M z = a/c - 1/(c(cz+d)) with a d = 1 mod c.

    Per c, the inverse table (-1 off the units) and the phase table
    e(m a / c) over a mod c are built once and gathered by d; each entry
    is the double the per-term expression gives.  Neither table outlives
    its c."""
    n_grid = policy.grid_n
    y = policy.y
    xs = np.arange(n_grid) / n_grid
    z = xs + 1j * y
    vals = np.exp(2j * pi * m * z)
    for c in range(q, policy.c_max + 1, q):
        halfw = policy.d_window * c * y
        units, inverses = _unit_inverses(c)
        inv = np.full(c, -1, dtype=np.int64)
        inv[units] = inverses
        phase = np.exp(2j * pi * (m * np.arange(c) / c))
        for i, x in enumerate(xs):
            lo = math.ceil(-c * x - halfw)
            hi = math.floor(-c * x + halfw)
            d = np.arange(lo, hi + 1)
            a = inv[d % c]
            live = a >= 0
            if not live.any():
                continue
            d = d[live]
            a = a[live]
            w = c * z[i] + d
            t = w ** (-k) * phase[a] * np.exp(-2j * pi * m / (c * w))
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
