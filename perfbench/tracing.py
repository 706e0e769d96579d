"""Outside-in tracing of hpseries: wrap the public calls into each module
from the benchmark's side, record spans (name, start, end, parent) and
per-name totals, and derive self times.

Nothing here edits the library: `Instrumentation.install` replaces module
and class attributes with timing wrappers and `uninstall` puts the
originals back, so untraced and traced passes run the same library code.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory span recorder for one traced pass.

    Every timed call is charged to the innermost open call as child time,
    so a name's self time is its duration minus the time of the calls
    nested inside it.  Calls made in large numbers (`record=False`) are
    aggregated without keeping a span record.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.durations = defaultdict(list)
        self._stack: list[list] = []  # [name, start, child_time, span_id]

    def enter(self, name: str, record: bool) -> None:
        span_id = None
        if record:
            span_id = len(self.spans)
            parent = next((f[3] for f in reversed(self._stack)
                           if f[3] is not None), None)
            self.spans.append({"id": span_id, "name": name,
                               "parent": parent, "start": 0.0, "end": 0.0})
        self._stack.append([name, perf_counter(), 0.0, span_id])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, span_id = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        self.durations[name].append(dur)
        if span_id is not None:
            self.spans[span_id]["start"] = start
            self.spans[span_id]["end"] = end

    def count(self, name: str) -> None:
        self.calls[name] += 1


def timed(tracer_ref, name: str, fn, record: bool = True, on_result=None,
          on_call=None):
    """Wrap fn so each call is timed under `name` while a tracer is set.

    tracer_ref is a one-element list holding the active Tracer or None.
    on_call(args) runs before the call and on_result(result) after it, both
    inside the timed region."""

    def wrapper(*args, **kwargs):
        tracer = tracer_ref[0]
        if tracer is None:
            return fn(*args, **kwargs)
        tracer.enter(name, record)
        try:
            if on_call is not None:
                on_call(args)
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        finally:
            tracer.exit()

    return wrapper


class Instrumentation:
    """Timing wrappers around the hpseries public calls that the four
    workloads reach, plus the per-pass facts that are not times (gate keys,
    lattice terms, the specs sampled)."""

    def __init__(self, hp):
        self.hp = hp
        self.ref = [None]
        self._saved: list[tuple[object, str, object]] = []
        self.gate_keys: list[tuple] = []
        self.terms = 0
        self.rows = 0
        self.sampled: list[tuple] = []

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        hp = self.hp
        ref = self.ref
        exp, fou, qf, cla = (hp.experiments, hp.fourier, hp.qfield,
                             hp.classical)
        poincare = fou.PoincareEvaluand

        def gate_key(args):
            evaluand, domain = args
            self.gate_keys.append((evaluand.spec.field.d, domain.grid_n,
                                   domain.y))

        def sampled(args):
            evaluand, domain = args
            self.sampled.append((evaluand.spec, domain.y, evaluand.policy))

        def add_terms(result):
            self.terms += result[2]

        def add_sweep_rows(report):
            self.rows += len(report.rows)

        def add_certificate(_cert):
            self.rows += 1

        self._patch(exp, "sweep_weight",
                    timed(ref, "experiments.sweep", exp.sweep_weight,
                          on_result=add_sweep_rows))
        self._patch(exp, "certify_nonvanishing",
                    timed(ref, "experiments.certify",
                          exp.certify_nonvanishing,
                          on_result=add_certificate))
        self._patch(exp, "extract_many",
                    timed(ref, "fourier.extract", exp.extract_many))
        self._patch(poincare, "min_alias_trace",
                    timed(ref, "fourier.alias_gate",
                          poincare.min_alias_trace, on_call=gate_key))
        self._patch(poincare, "sample_grid",
                    timed(ref, "fourier.sample", poincare.sample_grid,
                          on_call=sampled))
        self._patch(fou, "evaluate_grid",
                    timed(ref, "hpoincare.evaluate_grid", fou.evaluate_grid,
                          on_result=add_terms))
        self._patch(qf, "complete_pair",
                    timed(ref, "qfield.complete_pair", qf.complete_pair,
                          record=False))
        self._patch(cla, "petersson_coefficient",
                    timed(ref, "classical.petersson",
                          cla.petersson_coefficient))
        self._patch(cla, "classical_poincare_coefficient_by_quadrature",
                    timed(ref, "classical.quadrature",
                          cla.classical_poincare_coefficient_by_quadrature))
        self._patch(cla, "bessel_j",
                    timed(ref, "classical.bessel_j", cla.bessel_j,
                          record=False))

        from_numerator = qf.DualIndex.from_numerator

        def counted_from_numerator(cls, *args, **kwargs):
            tracer = ref[0]
            if tracer is not None:
                tracer.count("qfield.dual_index")
            return from_numerator(*args, **kwargs)

        self._patch(qf.DualIndex, "from_numerator",
                    classmethod(counted_from_numerator))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def start_pass(self) -> Tracer:
        self.gate_keys = []
        self.terms = 0
        self.rows = 0
        self.sampled = []
        self.ref[0] = Tracer()
        return self.ref[0]

    def end_pass(self) -> None:
        self.ref[0] = None


def percentile_us(durations: list[float], q: int) -> float:
    """q-th percentile (1..99) of call durations, in microseconds."""
    if len(durations) < 2:
        return durations[0] * 1e6 if durations else 0.0
    return statistics.quantiles(durations, n=100)[q - 1] * 1e6
