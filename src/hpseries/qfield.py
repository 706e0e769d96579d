"""Exact arithmetic in a real quadratic field F = Q(sqrt(d)).

Elements are stored as exact rational coordinates over the integral basis
[1, w], where w = (1+sqrt(d))/2 when d = 1 mod 4 and w = sqrt(d) otherwise.
Everything here (trace, norm, total positivity, ideal membership, unimodular
completion) is decided exactly; floating point only enters through the
embeddings.  One pair core (`_mul`, `_conj`, `_norm`, `_embed`) serves the
integer coordinate pairs of the hot paths and the `Fraction` coordinates of
`FieldElement` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

# d values for which nearest-coordinate rounding gives a working Euclidean
# division (norm-Euclidean fields supported by complete_pair).
EUCLIDEAN_D = (2, 3, 5, 6, 7, 13)

# Fundamental units > 1 as (a, b) coordinates over [1, w], table-driven.
_FUNDAMENTAL_UNITS = {
    2: (1, 1),    # 1 + sqrt(2)
    3: (2, 1),    # 2 + sqrt(3)
    5: (0, 1),    # (1 + sqrt(5))/2
    6: (5, 2),    # 5 + 2 sqrt(6)
    7: (8, 3),    # 8 + 3 sqrt(7)
    13: (1, 1),   # (3 + sqrt(13))/2 = 1 + w
}


class QFieldError(ValueError):
    """Invalid field construction or element operation."""


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


@dataclass(frozen=True)
class RealQuadraticField:
    """F = Q(sqrt(d)) with integral basis [1, w]."""

    d: int
    disc: int
    omega_is_half: bool  # True: w = (1+sqrt d)/2, else w = sqrt d
    euclidean: bool
    # basis constants: tr(w), N(w), and w^2 = omega_sq_const + omega_sq_lin*w
    omega_trace: int
    omega_norm: int
    omega_sq_const: int
    omega_sq_lin: int

    def omega_embeddings(self) -> tuple[float, float]:
        r = math.sqrt(self.d)
        if self.omega_is_half:
            return ((1 + r) / 2, (1 - r) / 2)
        return (r, -r)

    @property
    def sqrt_disc(self) -> float:
        return math.sqrt(self.disc)

    # -- element constructors --------------------------------------------
    def element(self, a, b=0) -> FieldElement:
        return FieldElement(self, Fraction(a), Fraction(b))

    @property
    def zero(self) -> FieldElement:
        return self.element(0, 0)

    @property
    def one(self) -> FieldElement:
        return self.element(1, 0)

    @property
    def omega(self) -> FieldElement:
        return self.element(0, 1)

    def sqrt_d_elem(self) -> FieldElement:
        """sqrt(d) as a field element: 2w - 1 if w = (1+sqrt d)/2, else w."""
        if self.omega_is_half:
            return self.element(-1, 2)
        return self.element(0, 1)

    def __repr__(self) -> str:
        return f"RealQuadraticField(d={self.d})"


def make_field(d: int, strict: bool = True) -> RealQuadraticField:
    """Build Q(sqrt(d)). Rejects non-squarefree d and d <= 1; in strict mode
    only the norm-Euclidean set EUCLIDEAN_D is allowed."""
    if not isinstance(d, int) or d <= 1:
        raise QFieldError(f"d must be an integer > 1, got {d!r}")
    if not _is_squarefree(d):
        raise QFieldError(f"d must be squarefree, got {d}")
    euclidean = d in EUCLIDEAN_D
    if strict and not euclidean:
        raise QFieldError(
            f"d={d} outside the supported norm-Euclidean set {EUCLIDEAN_D}"
        )
    if d % 4 == 1:
        return RealQuadraticField(
            d=d, disc=d, omega_is_half=True, euclidean=euclidean,
            omega_trace=1, omega_norm=(1 - d) // 4,
            omega_sq_const=(d - 1) // 4, omega_sq_lin=1)
    return RealQuadraticField(
        d=d, disc=4 * d, omega_is_half=False, euclidean=euclidean,
        omega_trace=0, omega_norm=-d, omega_sq_const=d, omega_sq_lin=0)


@dataclass(frozen=True, slots=True)
class FieldElement:
    """a + b*w with exact rational a, b."""

    field: RealQuadraticField
    a: Fraction
    b: Fraction

    def _check(self, other: FieldElement) -> None:
        if self.field != other.field:
            raise QFieldError("elements of different fields")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return FieldElement(self.field, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return FieldElement(self.field, -self.a, -self.b)

    def _coerce(self, other) -> FieldElement:
        if isinstance(other, FieldElement):
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, Fraction(other), Fraction(0))
        return NotImplemented

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        x, y = (self.a, self.b), (other.a, other.b)
        return FieldElement(self.field, *_mul(self.field, x, y))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            base = self.inverse()
            n = -n
        else:
            base = self
        out = self.field.one
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> FieldElement:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero field element")
        c = self.conjugate()
        return FieldElement(self.field, c.a / n, c.b / n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.field, self.a, self.b) == (other.field, other.a, other.b)

    def __hash__(self):
        return hash((self.field.d, self.a, self.b))

    def conjugate(self) -> FieldElement:
        return FieldElement(self.field, *_conj(self.field, (self.a, self.b)))

    def trace(self) -> Fraction:
        return 2 * self.a + self.b * self.field.omega_trace

    def norm(self) -> Fraction:
        return _norm(self.field, (self.a, self.b))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def int_coords(self) -> tuple[int, int]:
        if not self.is_integral():
            raise QFieldError(f"{self} is not integral")
        return (self.a.numerator, self.b.numerator)

    def embeddings(self) -> tuple[float, float]:
        return _embed(self.field, (self.a, self.b))

    def __repr__(self):
        return f"({self.a} + {self.b}*w | d={self.field.d})"


# -- spec-level operations ------------------------------------------------

def embed(x: FieldElement) -> tuple[float, float]:
    """Real embeddings (sigma_1(x), sigma_2(x)); sigma_1(sqrt d) > 0.

    Taken exactly from a 53-bit rational approximation of sqrt(d), then
    rounded once to double.
    """
    scale = 1 << 53
    r = Fraction(math.isqrt(x.field.d * scale * scale), scale)
    if x.field.omega_is_half:
        w1 = (1 + r) / 2
        w2 = (1 - r) / 2
    else:
        w1, w2 = r, -r
    return (float(x.a + x.b * w1), float(x.a + x.b * w2))


def trace(x: FieldElement) -> Fraction:
    return x.trace()


def norm(x: FieldElement) -> Fraction:
    return x.norm()


def is_totally_positive(x: FieldElement) -> bool:
    """Exact: both embeddings positive iff trace > 0 and norm > 0."""
    return x.trace() > 0 and x.norm() > 0


def codifferent_gen(field: RealQuadraticField) -> FieldElement:
    """Generator 1/sqrt(D) of the trace-dual lattice of O_F.

    For d = 1 mod 4 this is sqrt(d)/d = (2w-1)/d; otherwise
    1/(2 sqrt(d)) = w/(2d).
    """
    if field.omega_is_half:
        return FieldElement(field, Fraction(-1, field.d), Fraction(2, field.d))
    return FieldElement(field, Fraction(0), Fraction(1, 2 * field.d))


@dataclass(frozen=True)
class DualIndex:
    """nu = numerator / sqrt(D) in the codifferent, with its integer
    frequency pair (tr(nu), tr(nu*w))."""

    field: RealQuadraticField
    numerator: FieldElement  # integral element beta, nu = beta / sqrt(D)
    elem: FieldElement       # nu itself, exact rational coordinates
    freq: tuple[int, int]

    @classmethod
    def from_numerator(cls, field: RealQuadraticField,
                       beta: FieldElement) -> DualIndex:
        """nu = beta/sqrt(D) = (num[0] + num[1] w)/disc with
        num = beta*(2w - tr(w)); for beta = p + q w the pairing gives
        freq = (q, p + q tr(w)) (the inverse of _dual_from_freq_int)."""
        if not beta.is_integral():
            raise QFieldError("dual index numerator must be integral")
        p, q = beta.int_coords()
        t = field.omega_trace
        num = _mul(field, (p, q), (-t, 2))
        nu = FieldElement(field, Fraction(num[0], field.disc),
                          Fraction(num[1], field.disc))
        return cls(field=field, numerator=beta, elem=nu, freq=(q, p + q * t))

    def is_totally_positive(self) -> bool:
        return is_totally_positive(self.elem)

    def embeddings(self) -> tuple[float, float]:
        return self.elem.embeddings()

    def __repr__(self):
        p, q = self.numerator.int_coords()
        return f"DualIndex(({p}+{q}w)/sqrt({self.field.disc}))"


def trace_one_totally_positive(field: RealQuadraticField,
                               height_bound: int = 20) -> list[DualIndex]:
    """All totally positive dual indices of trace 1 with numerator
    coordinates bounded by height_bound, sorted by coordinates."""
    if height_bound < 1:
        return []
    # trace 1 means q = 1; s = p + tr(w) then runs p upwards
    t = field.omega_trace
    out = []
    for s in range(t - height_bound, t + height_bound + 1):
        beta, _num, positive = _dual_from_freq_int(field, 1, s)
        if positive:
            out.append(DualIndex.from_numerator(field, field.element(*beta)))
    return out


# -- integer lattice layer (fast paths share these) ------------------------

def _ideal_hnf(f: RealQuadraticField,
               gens: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite normal form (A, B, C) of the ideal generated by integer
    coordinate pairs (p, q) = p*1 + q*w, i.e. of the Z-span of {g, g*w}:
    lattice = A*Z + (B + C*w)*Z with C | q for all members, 0 <= B < A.
    Requires full rank."""
    vecs = [v for g in gens for v in (g, _mul(f, g, (0, 1))) if v != (0, 0)]
    if not vecs:
        raise QFieldError("zero lattice")
    # gcd of q-parts together with a witness combination
    cur_p, cur_q = vecs[0]
    for (p, q) in vecs[1:]:
        if cur_q == 0:
            cur_p, cur_q = p, q
            continue
        if q == 0:
            continue
        g, x, y = _xgcd(cur_q, q)
        cur_p, cur_q = x * cur_p + y * p, g
    if cur_q == 0:
        raise QFieldError("lattice not of full rank")
    if cur_q < 0:
        cur_p, cur_q = -cur_p, -cur_q
    a = 0
    for (p, q) in vecs:
        t = q // cur_q
        a = math.gcd(a, p - t * cur_p)
    if a == 0:
        raise QFieldError("lattice not of full rank")
    return (a, cur_p % a, cur_q)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


# The pair core: x = (x0, x1) stands for x0 + x1*w.  The coordinates may be
# ints, Fractions or integer numpy arrays (elementwise); `_embed` also takes
# float arrays.

def _mul(f: RealQuadraticField, x, y):
    cross = x[1] * y[1]
    return (x[0] * y[0] + cross * f.omega_sq_const,
            x[0] * y[1] + x[1] * y[0] + cross * f.omega_sq_lin)


def _conj(f: RealQuadraticField, x):
    if f.omega_is_half:
        return (x[0] + x[1], -x[1])
    return (x[0], -x[1])


def _norm(f: RealQuadraticField, x):
    return x[0] * x[0] + x[0] * x[1] * f.omega_trace \
        + x[1] * x[1] * f.omega_norm


def _embed(f: RealQuadraticField, x):
    """Float embeddings (x0 + x1*w_1, x0 + x1*w_2).  A Fraction coordinate
    enters as float(x0) + float(x1)*w_j, which is what Python's mixed
    Fraction/float arithmetic does."""
    w1, w2 = f.omega_embeddings()
    return (x[0] + x[1] * w1, x[0] + x[1] * w2)


def _dual_from_freq_int(f: RealQuadraticField, r, s):
    """Closed-form inverse of the trace pairing nu -> (tr nu, tr(nu w)) on
    the codifferent, elementwise on ints or integer numpy arrays.

    For nu = beta/sqrt(D) with beta = p + q w, tr(nu) = q and
    tr(nu w) = p + q tr(w): the pairing has determinant -1 on the numerator
    coordinates, so every (r, s) has the integral numerator
    beta = (s - r tr(w), r).  Returns (beta, num, positive):
    nu = (num[0] + num[1] w)/disc, since 1/sqrt(D) = (2w - tr(w))/disc, and
    nu is totally positive iff r > 0 and N(beta) < 0, as sqrt(D) has
    embeddings of opposite sign.
    """
    beta = (s - f.omega_trace * r, r)
    positive = (r > 0) & (_norm(f, beta) < 0)
    return beta, _mul(f, beta, (-f.omega_trace, 2)), positive


@dataclass(frozen=True)
class IdealHNF:
    """Integral ideal with Z-basis {m00, m01 + m11*w} in Hermite normal
    form: 0 <= m01 < m00, norm = m00*m11 = [O_F : I]."""

    field: RealQuadraticField
    m00: int
    m01: int
    m11: int

    def __post_init__(self):
        if self.m00 < 1 or self.m11 < 1 or not (0 <= self.m01 < self.m00):
            raise QFieldError(f"not a reduced HNF triple: "
                              f"({self.m00}, {self.m01}, {self.m11})")
        f = self.field
        for gen in ((self.m00, 0), (self.m01, self.m11)):
            if not self._contains_int(_mul(f, gen, (0, 1))):
                raise QFieldError("lattice is not an ideal (not closed "
                                  "under multiplication by w)")

    @property
    def norm(self) -> int:
        return self.m00 * self.m11

    def _contains_int(self, pq: tuple[int, int]) -> bool:
        p, q = pq
        if q % self.m11:
            return False
        return (p - (q // self.m11) * self.m01) % self.m00 == 0

    def contains(self, x: FieldElement) -> bool:
        if not x.is_integral():
            return False
        return self._contains_int(x.int_coords())

    def basis(self) -> tuple[FieldElement, FieldElement]:
        f = self.field
        return (f.element(self.m00, 0), f.element(self.m01, self.m11))

    def __repr__(self):
        return (f"IdealHNF([{self.m00}, {self.m01}+{self.m11}w], "
                f"norm={self.norm})")


def ideal_from_gens(field: RealQuadraticField,
                    gens: Iterable[FieldElement]) -> IdealHNF:
    """Smallest ideal containing the generators: HNF of the span of
    {g, g*w} over all g."""
    a, b, c = _ideal_hnf(field, [g.int_coords() for g in gens])
    return IdealHNF(field=field, m00=a, m01=b, m11=c)


def ideal_from_gen(c: FieldElement) -> IdealHNF:
    if c.is_zero():
        raise QFieldError("zero generator")
    return ideal_from_gens(c.field, [c])


def is_unimodular_pair(gamma: FieldElement, delta: FieldElement) -> bool:
    """gamma*O_F + delta*O_F = O_F, via the HNF of {g, gw, d, dw}."""
    if gamma.is_zero() and delta.is_zero():
        raise QFieldError("both entries zero")
    gens = [gamma.int_coords(), delta.int_coords()]
    try:
        a, _b, c = _ideal_hnf(gamma.field, gens)
    except QFieldError:
        return False
    return a == 1 and c == 1


# the correction offsets after (0, 0), in search order (see _ext_gcd_int)
_QUOTIENT_CORRECTIONS = ((0, -1), (0, 1), (-1, 0), (-1, -1), (-1, 1),
                         (1, 0), (1, -1), (1, 1))


def _ext_gcd_int(f: RealQuadraticField, a: tuple[int, int],
                 b: tuple[int, int]):
    """Returns (g, x, y) with x*a + y*b = g in integer coordinates.

    Each step divides a = q*b + r with |N(r)| < |N(b)|.  The quotient is
    a*conj(b)/N(b) rounded coordinatewise to the nearest integer: the
    coordinate m of a*conj(b) gives (2m + N) // (2N), with the signs of m
    and N flipped when N < 0.  That always works for d in {2, 3, 5, 13}.
    When it does not (d in {6, 7}), the offsets q + (dp, dq) are tried in
    the order (0, 0), then _QUOTIENT_CORRECTIONS, and the first with the
    smallest |N(r)| wins.  Neither rule may change: the quotient sequence
    fixes x, hence the residue a mod gamma that complete_pair and every
    _GammaClass phase table are built from, and with them the float bits
    of every series value.
    """
    # w^2 = c0 + c1 w, N(p + q w) = p^2 + t p q + n q^2
    c0, c1 = f.omega_sq_const, f.omega_sq_lin
    t, n = f.omega_trace, f.omega_norm
    a0, a1 = a
    b0, b1 = b
    x0, x1, u0, u1 = 1, 0, 0, 0  # coefficients of a and b on the input a
    y0, y1, v0, v1 = 0, 0, 1, 0  # ... and on the input b
    while b0 or b1:
        den = b0 * b0 + t * b0 * b1 + n * b1 * b1  # N(b)
        # num = a*conj(b), conj(b) = (b0 + t b1, -b1)
        cb0 = b0 + t * b1
        cross = -a1 * b1
        num0 = a0 * cb0 + c0 * cross
        num1 = -a0 * b1 + a1 * cb0 + c1 * cross
        if den < 0:
            num0, num1, den = -num0, -num1, -den
        q0 = (2 * num0 + den) // (2 * den)
        q1 = (2 * num1 + den) // (2 * den)
        r0 = a0 - q0 * b0 - c0 * q1 * b1
        r1 = a1 - q0 * b1 - q1 * b0 - c1 * q1 * b1
        nr = abs(r0 * r0 + t * r0 * r1 + n * r1 * r1)
        if nr >= den:
            best = (nr, q0, q1, r0, r1)
            for dp, dq in _QUOTIENT_CORRECTIONS:
                s0 = r0 - dp * b0 - c0 * dq * b1
                s1 = r1 - dp * b1 - dq * b0 - c1 * dq * b1
                ns = abs(s0 * s0 + t * s0 * s1 + n * s1 * s1)
                if ns < best[0]:
                    best = (ns, q0 + dp, q1 + dq, s0, s1)
            nr, q0, q1, r0, r1 = best
            if nr >= den:
                raise QFieldError(f"Euclidean division failed in d={f.d}: "
                                  f"|N(r)|={nr} >= |N(b)|={den}")
        a0, a1, b0, b1 = b0, b1, r0, r1
        x0, x1, u0, u1 = (u0, u1, x0 - q0 * u0 - c0 * q1 * u1,
                          x1 - q0 * u1 - q1 * u0 - c1 * q1 * u1)
        y0, y1, v0, v1 = (v0, v1, y0 - q0 * v0 - c0 * q1 * v1,
                          y1 - q0 * v1 - q1 * v0 - c1 * q1 * v1)
    return (a0, a1), (x0, x1), (y0, y1)


def _unit_inverse_int(f: RealQuadraticField,
                      u: tuple[int, int]) -> tuple[int, int]:
    n = _norm(f, u)
    c = _conj(f, u)
    if n == 1:
        return c
    if n == -1:
        return (-c[0], -c[1])
    raise QFieldError(f"{u} is not a unit")


def complete_pair(gamma: FieldElement,
                  delta: FieldElement) -> tuple[FieldElement, FieldElement]:
    """(a, b) with a*delta - b*gamma = 1, by norm-Euclidean extended gcd.

    Unimodularity is certified by the gcd itself: the pair generates the
    unit ideal iff the gcd is a unit."""
    f = gamma.field
    if not f.euclidean:
        raise QFieldError(f"d={f.d} is not in the supported Euclidean set")
    dc = delta.int_coords()
    gc = gamma.int_coords()
    g, x, y = _ext_gcd_int(f, dc, gc)
    if abs(_norm(f, g)) != 1:
        raise QFieldError("pair is not unimodular")
    gi = _unit_inverse_int(f, g)
    a = _mul(f, gi, x)
    b = _mul(f, gi, (-y[0], -y[1]))
    ad, bg = _mul(f, a, dc), _mul(f, b, gc)
    if (ad[0] - bg[0], ad[1] - bg[1]) != (1, 0):
        raise QFieldError("completion determinant check failed")
    return (FieldElement(f, Fraction(a[0]), Fraction(a[1])),
            FieldElement(f, Fraction(b[0]), Fraction(b[1])))


def fundamental_unit(field: RealQuadraticField) -> FieldElement:
    """Unit > 1 under sigma_1 generating the units modulo sign (table-driven)."""
    if field.d not in _FUNDAMENTAL_UNITS:
        raise QFieldError(f"no fundamental unit tabulated for d={field.d}")
    return field.element(*_FUNDAMENTAL_UNITS[field.d])
