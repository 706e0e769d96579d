"""The four benchmark workloads.

Each workload is built in three steps, timed differently by run.py:

* ``__init__(hp)`` constructs fields, specs, domains and policies through
  the library's public entry points (part of ``setup_s``);
* ``draw(seed)`` makes the seeded inputs with the benchmark's own code and
  wraps them as library objects (not timed);
* ``run_pass()`` makes the library calls of one pass (``wall_s``) and
  returns one output per operation, or the exception it raised.

``check``, ``payload`` and ``certified`` read a pass's outputs after the
timer has stopped.  Every library function is looked up on its module at
call time, so the tracing wrappers in tracing.py see the calls.
"""

from __future__ import annotations

import math
import random


def attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as err:  # an operation that raises counts as failed
        return err


class Workload:
    name = ""

    def draw(self, seed: int) -> None:
        pass

    def run_pass(self) -> list:
        raise NotImplementedError

    def check(self, output) -> bool:
        raise NotImplementedError

    def payload(self, outputs: list) -> str | None:
        """Value payload whose SHA-256 is compared with the stored digest;
        None when the payload depends on the seed."""
        return None

    def certified(self, outputs: list) -> int:
        return 0


class WeightSweep(Workload):
    """Criterion-5 weight sweep over d = 5 (the paper's headline run)."""

    name = "weight_sweep"
    K_LIST = [6, 10, 14, 18]

    def __init__(self, hp):
        self.hp = hp
        qf = hp.qfield
        f = qf.make_field(5)
        self.field = f
        self.nu = qf.DualIndex.from_numerator(f, f.omega)
        self.mu = qf.DualIndex.from_numerator(f, f.element(-1, 1))
        self.level = qf.ideal_from_gen(f.one)
        self.domain = hp.fourier.SamplingDomain(field=f, y1=1.1, y2=1.0,
                                                grid_n=32)
        self.policy = hp.hpoincare.TruncationPolicy(gamma_height_max=12.0,
                                                    term_cutoff=3e-12)

    def run_pass(self) -> list:
        return [attempt(self.hp.experiments.sweep_weight, self.field,
                        self.nu, self.mu, self.level, self.K_LIST,
                        self.domain, self.policy)]

    def check(self, report) -> bool:
        """No failed rows, endpoint improvement in both columns, final
        deviations below 0.05."""
        if isinstance(report, Exception):
            return False
        rows = report.rows
        if any(r.failed for r in rows) or \
                [r.param for r in rows] != self.K_LIST:
            return False
        dev_nu, dev_mu = report.final_deviations()
        return all(report.endpoint_improvement()) and \
            dev_nu < 0.05 and dev_mu < 0.05

    def payload(self, outputs: list) -> str | None:
        return self.hp.experiments.sweep_to_csv(outputs[0])


class CertifyFields(Workload):
    """certify_nonvanishing at k = (8,8), level 1, in all six fields."""

    name = "certify_fields"

    def __init__(self, hp):
        self.hp = hp
        qf, hpo = hp.qfield, hp.hpoincare
        self.policy = hpo.TruncationPolicy(gamma_height_max=8.0,
                                           term_cutoff=1e-11)
        self.cases = []
        for d in qf.EUCLIDEAN_D:
            f = qf.make_field(d)
            nu = qf.trace_one_totally_positive(f, 8)[-1]
            spec = hpo.PoincareSpec(field=f, weight=hpo.Weight(8, 8), nu=nu,
                                    level=qf.ideal_from_gen(f.one))
            domain = hp.fourier.SamplingDomain(field=f, y1=1.1, y2=1.0,
                                               grid_n=32)
            self.cases.append((d, spec, domain))
        self.order = list(range(len(self.cases)))

    def draw(self, seed: int) -> None:
        # the certificates are independent: the seed only sets their order
        random.Random(seed).shuffle(self.order)

    def run_pass(self) -> list:
        certify = self.hp.experiments.certify_nonvanishing
        out = []
        for i in self.order:
            d, spec, domain = self.cases[i]
            out.append((d, attempt(certify, spec, domain, self.policy)))
        return out

    def check(self, output) -> bool:
        """A finite value and error; an Inconclusive verdict is not a
        failure (it shows in `certified`)."""
        _d, cert = output
        if isinstance(cert, Exception):
            return False
        v = cert.coefficient.value
        return all(math.isfinite(x) for x in (v.real, v.imag,
                                              cert.total_error))

    def payload(self, outputs: list) -> str | None:
        to_json = self.hp.experiments.certificate_to_json
        return "".join(to_json(cert) for _d, cert in sorted(
            outputs, key=lambda o: o[0]))

    def certified(self, outputs: list) -> int:
        ok = self.hp.experiments.Verdict.NONZERO_CERTIFIED
        return sum(1 for _d, cert in outputs
                   if not isinstance(cert, Exception) and cert.verdict is ok)


class ClassicalOracle(Workload):
    """Criterion-1 grid: Petersson formula against coset quadrature."""

    name = "classical_oracle"
    GRID = [(m, n, k, q) for m in (1, 2, 3) for n in (1, 2, 3)
            for k in (12, 16) for q in (1, 2)]
    C_MAX = 1000
    TOLERANCE = 1e-6

    def __init__(self, hp):
        self.hp = hp
        cla = hp.classical
        self.params = [cla.ClassicalParams(m=m, n=n, k=k, q=q)
                       for m, n, k, q in self.GRID]

    def draw(self, seed: int) -> None:
        # the configurations are independent: the seed only sets their order
        random.Random(seed).shuffle(self.params)

    def run_pass(self) -> list:
        cla = self.hp.classical
        out = []
        for params in self.params:
            pet = attempt(cla.petersson_coefficient, params, self.C_MAX)
            quad = attempt(cla.classical_poincare_coefficient_by_quadrature,
                           params, None)
            out.append((params, pet, quad))
        return out

    def check(self, output) -> bool:
        _params, pet, quad = output
        if isinstance(pet, Exception) or isinstance(quad, Exception):
            return False
        return abs(pet.value - quad) < self.TOLERANCE

    def payload(self, outputs: list) -> str | None:
        rows = []
        for p, pet, quad in outputs:
            base = dict(m=p.m, n=p.n, k=p.k, q=p.q)
            rows.append(dict(base, value=pet.value,
                             tail_bound=pet.tail_bound, method="petersson"))
            rows.append(dict(base, value=quad, tail_bound=0.0,
                             method="quadrature"))
        rows.sort(key=lambda r: (r["m"], r["n"], r["k"], r["q"],
                                 r["method"]))
        return self.hp.classical.classical_csv(rows)


def omega_square(d: int) -> tuple[int, int]:
    """(c, l) with w^2 = c + l*w for the ring of integers Z[w] of Q(sqrt d)."""
    if d % 4 == 1:
        return (d - 1) // 4, 1
    return d, 0


def mul(cl: tuple[int, int], x: tuple[int, int],
        y: tuple[int, int]) -> tuple[int, int]:
    c, l = cl
    return (x[0] * y[0] + c * x[1] * y[1],
            x[0] * y[1] + x[1] * y[0] + l * x[1] * y[1])


class QFieldComplete(Workload):
    """complete_pair over a seeded sample of unimodular pairs."""

    name = "qfield_complete"
    HEIGHT = 20
    PAIRS_PER_FIELD = 20_000

    def __init__(self, hp):
        self.hp = hp
        self.fields = {d: hp.qfield.make_field(d)
                       for d in hp.qfield.EUCLIDEAN_D}
        self.pairs: list[tuple] = []

    def draw(self, seed: int) -> None:
        """PAIRS_PER_FIELD pairs (gamma, delta) per field with coordinates in
        [-HEIGHT, HEIGHT], kept when gamma*O + delta*O = O: the gcd of the
        2x2 minors of {gamma, gamma*w, delta, delta*w} is 1."""
        import numpy as np

        rng = np.random.default_rng(seed % 2**64)
        pairs = []
        for d in sorted(self.fields):
            c, l = omega_square(d)
            kept = 0
            while kept < self.PAIRS_PER_FIELD:
                p, q, r, s = rng.integers(-self.HEIGHT, self.HEIGHT + 1,
                                          size=(4, 4 * self.PAIRS_PER_FIELD))
                vecs = [(p, q), (q * c, p + q * l), (r, s), (s * c, r + s * l)]
                g = np.zeros_like(p)
                for i in range(4):
                    for j in range(i + 1, 4):
                        minor = vecs[i][0] * vecs[j][1] - vecs[i][1] * vecs[j][0]
                        g = np.gcd(g, np.abs(minor))
                for i in np.nonzero(g == 1)[0][:self.PAIRS_PER_FIELD - kept]:
                    pairs.append((d, int(p[i]), int(q[i]), int(r[i]),
                                  int(s[i])))
                    kept += 1
        self.pairs = []
        for i in rng.permutation(len(pairs)):
            d, p, q, r, s = pairs[i]
            f = self.fields[d]
            self.pairs.append((pairs[i], f.element(p, q), f.element(r, s)))

    def run_pass(self) -> list:
        complete = self.hp.qfield.complete_pair
        return [(key, attempt(complete, gamma, delta))
                for key, gamma, delta in self.pairs]

    def check(self, output) -> bool:
        """a*delta - b*gamma = 1, in the benchmark's own integer arithmetic."""
        (d, p, q, r, s), ab = output
        if isinstance(ab, Exception):
            return False
        a, b = (x.int_coords() for x in ab)
        cl = omega_square(d)
        ad = mul(cl, a, (r, s))
        bg = mul(cl, b, (p, q))
        return (ad[0] - bg[0], ad[1] - bg[1]) == (1, 0)


WORKLOADS = {w.name: w for w in (WeightSweep, CertifyFields, ClassicalOracle,
                                 QFieldComplete)}
