"""evaluate_grid on helper threads: the bytes, the term budget and the
failure rules do not depend on the thread count, and no thread outlives a
call or starts for a call that fits in one chunk."""

import contextlib
import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from hpseries import hpoincare
from hpseries.cli import main
from hpseries.fourier import SamplingDomain
from hpseries.hpoincare import (
    PoincareSpec,
    TruncationLimitExceeded,
    TruncationPolicy,
    Weight,
    evaluate,
    evaluate_grid,
)
from hpseries.qfield import (
    DualIndex,
    ideal_from_gen,
    make_field,
    trace_one_totally_positive,
)

SRC = Path(__file__).resolve().parent.parent / "src"
POLICY = TruncationPolicy(gamma_height_max=6.0, term_cutoff=1e-10)
SMALL_CHUNK = 2_000  # box sites per chunk: every grid below walks many


def _spec(d, k, level_gen):
    f = make_field(d)
    return PoincareSpec(field=f, weight=Weight(*k),
                        nu=trace_one_totally_positive(f, 8)[-1],
                        level=ideal_from_gen(f.element(level_gen, 0)))


def _grid(spec, n=8):
    dom = SamplingDomain(field=spec.field, y1=1.1, y2=1.0, grid_n=n)
    return dom.lattice_points(), dom.y


def _bytes(result):
    values, tail, terms = result
    return (values.tobytes(), tail.cut.tobytes(), tail.unvisited.hex(),
            tail.skipped.hex(), tail.beyond.hex(), terms)


def _sweep_k6_call():
    """The k = 6 call of the weight-sweep benchmark workload: d = 5,
    nu = w/sqrt 5, the 514 orbit representatives of the 32 x 32 grid,
    y = (1.1, 1.0), H 12, cutoff 3e-12."""
    f = make_field(5)
    spec = PoincareSpec(field=f, weight=Weight(6, 6),
                        nu=DualIndex.from_numerator(f, f.omega),
                        level=ideal_from_gen(f.one))
    dom = SamplingDomain(field=f, y1=1.1, y2=1.0, grid_n=32)
    idx = np.arange(32 * 32)
    u, v = np.divmod(idx, 32)
    reps = np.flatnonzero(idx <= ((-u) % 32) * 32 + (-v) % 32)
    return (spec, dom.lattice_points()[reps], dom.y,
            TruncationPolicy(gamma_height_max=12.0, term_cutoff=3e-12))


@pytest.fixture
def starts(monkeypatch):
    """The number of threads started so far, counted through a wrapper
    around threading.Thread.start."""
    count = [0]
    start = threading.Thread.start

    def counted(self):
        count[0] += 1
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return count


@contextlib.contextmanager
def _no_thread_left():
    """Fails if a thread started inside the block is still alive after it.
    A thread from before the block that ends inside it does not count."""
    before = set(threading.enumerate())
    yield
    assert [t for t in threading.enumerate() if t not in before] == []


def _helpers(monkeypatch, n):
    monkeypatch.setattr(hpoincare, "_helper_threads", lambda: n)


def _chunk_count(spec, xs, y, policy):
    """The number of items of an evaluate_grid call: the chunks of all
    kept classes, each class's sized by `_class_plan`."""
    x1, x2 = np.ascontiguousarray(np.asarray(xs).T)
    return sum(len(hpoincare._class_plan(cl, x1, x2, spec.field.sqrt_disc)[0])
               for cl in hpoincare.enumerate_gamma_classes(spec, y, policy))


# -- the bytes ----------------------------------------------------------------

def test_bytes_do_not_depend_on_thread_count(symmetry_spec, monkeypatch,
                                             starts):
    """On the ten `conftest._SYMMETRY_CASES` specs, each grid walked in
    many chunks."""
    spec = symmetry_spec
    xs, y = _grid(spec)
    monkeypatch.setattr(hpoincare, "_CHUNK_ELEMENTS", SMALL_CHUNK)
    chunks = _chunk_count(spec, xs, y, POLICY)
    results = []
    for n in (0, 1, 2, 3):
        _helpers(monkeypatch, n)
        before = starts[0]
        with _no_thread_left():
            results.append(_bytes(evaluate_grid(spec, xs, y, POLICY)))
        assert starts[0] - before == min(n, chunks - 1)
    assert results[1:] == results[:1] * 3


def test_sweep_k6_bytes_do_not_depend_on_thread_count(monkeypatch):
    spec, xs, y, policy = _sweep_k6_call()
    results = []
    for n in (0, 1, 2, 3):
        _helpers(monkeypatch, n)
        results.append(_bytes(evaluate_grid(spec, xs, y, policy)))
    assert results[1:] == results[:1] * 3
    # the bytes of the serial lattice sum, its chunk sums folded in list
    # order by plain addition
    values, cut, unvisited, skipped, beyond, terms = results[0]
    assert hashlib.sha256(values).hexdigest() == \
        "231bf1b71104ec5d79a42bb9cd988021641072969a7c1da247e399837b499752"
    assert hashlib.sha256(cut).hexdigest() == \
        "05671e9078554cced0ab9db495bfd5c83d2a325f34a0659bb8815d4d4f89885a"
    assert (unvisited, skipped, beyond) == (
        "0x1.04e84c4e414aep-26", "0x1.4b7e8518461e9p-29",
        "0x1.0f39b2ffe5c36p-32")
    assert terms == 2_646_022


SWEEP_ARGV = ["sweep-weight", "--d", "5", "--ks", "10,14", "--grid", "32",
              "--height", "9", "--cutoff", "1e-11"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs CPU affinity")
def test_one_cpu_child_prints_the_same_sweep(capsys, starts):
    """A child process pinned to one CPU (its own affinity only) runs the
    sweep on its calling thread alone and prints the same CSV bytes."""
    assert main(SWEEP_ARGV) == 0
    out = capsys.readouterr().out
    if hpoincare._helper_threads():  # the default run used helpers
        assert starts[0] > 0
    cpu = min(os.sched_getaffinity(0))
    child = (
        "import os, sys\n"
        f"os.sched_setaffinity(0, {{{cpu}}})\n"
        "from hpseries import hpoincare\n"
        "from hpseries.cli import main\n"
        "assert hpoincare._helper_threads() == 0\n"
        f"sys.exit(main({SWEEP_ARGV!r}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out


# -- when no thread starts ------------------------------------------------------

def test_one_point_and_one_chunk_calls_start_no_thread(monkeypatch, starts):
    _helpers(monkeypatch, 3)
    spec = _spec(5, (8, 8), 1)
    z = (0.13 + 1.15j, -0.21 + 1.05j)
    evaluate(spec, z, POLICY)
    assert starts[0] == 0
    # a small grid whose estimated walk (the delta-box sites of every
    # class) fits in one chunk
    xs, y = np.array([(0.13, -0.21), (0.41, -0.07), (0.0, 0.0)]), (1.1, 1.0)
    x1, x2 = np.ascontiguousarray(xs.T)
    classes = hpoincare.enumerate_gamma_classes(spec, y, POLICY)
    assert len(classes) > 1
    assert sum(hpoincare._class_plan(cl, x1, x2, spec.field.sqrt_disc)[1]
               for cl in classes) <= hpoincare._CHUNK_ELEMENTS
    evaluate_grid(spec, xs, y, POLICY)
    assert starts[0] == 0
    # the same grid over more than one chunk starts the helpers
    monkeypatch.setattr(hpoincare, "_CHUNK_ELEMENTS", SMALL_CHUNK)
    evaluate_grid(spec, xs, y, POLICY)
    assert starts[0] == min(3, _chunk_count(spec, xs, y, POLICY) - 1)


@pytest.mark.parametrize("n", (1, 3))
def test_one_class_is_walked_on_many_threads(n, monkeypatch, starts):
    """A call whose walk is one kept class in many chunks starts
    min(n, chunks - 1) helpers, walks each of the class's chunks once, on
    more than one thread, and gives the serial call's bytes, also with the
    threads switched every microsecond."""
    spec = _spec(5, (8, 8), 1)
    xs, y = _grid(spec)
    policy = TruncationPolicy(gamma_height_max=1.5, term_cutoff=1e-10)
    assert len(hpoincare.enumerate_gamma_classes(spec, y, policy)) == 1
    monkeypatch.setattr(hpoincare, "_CHUNK_ELEMENTS", SMALL_CHUNK)
    chunks = _chunk_count(spec, xs, y, policy)
    assert chunks > 4
    _helpers(monkeypatch, 0)
    serial = _bytes(evaluate_grid(spec, xs, y, policy))
    _helpers(monkeypatch, n)
    calls = []  # the thread of each _chunk_record call
    two = threading.Event()
    chunk_record = hpoincare._chunk_record

    def record(*args):
        # each call waits (bounded) until two threads have taken a chunk
        calls.append(threading.get_ident())
        if len(set(calls)) > 1 or not two.wait(timeout=10):
            two.set()
        return chunk_record(*args)

    monkeypatch.setattr(hpoincare, "_chunk_record", record)
    before, interval = starts[0], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = _bytes(evaluate_grid(spec, xs, y, policy))
    finally:
        sys.setswitchinterval(interval)
    assert result == serial
    assert starts[0] - before == min(n, chunks - 1)
    assert len(calls) == chunks and len(set(calls)) > 1


# -- the term budget -----------------------------------------------------------

def _chunk_terms(spec, xs, y, monkeypatch):
    """Term counts of the chunks with terms, in list order, of a serial
    call without a budget."""
    records = []
    walk_chunks = hpoincare._walk_chunks

    def recorded(*args):
        out = walk_chunks(*args)
        records.extend(out)
        return out

    monkeypatch.setattr(hpoincare, "_walk_chunks", recorded)
    _helpers(monkeypatch, 0)
    evaluate_grid(spec, xs, y, POLICY)
    monkeypatch.setattr(hpoincare, "_walk_chunks", walk_chunks)
    return [r[2] for r in records if r[2]]


def test_budget_failure_count_is_the_serial_fold(monkeypatch):
    """TruncationLimitExceeded.terms is the running total, npts included,
    at the first chunk in list order that takes it past max_terms."""
    spec = _spec(3, (5, 7), 1)
    xs, y = _grid(spec)
    monkeypatch.setattr(hpoincare, "_CHUNK_ELEMENTS", SMALL_CHUNK)
    totals = [len(xs) + int(t) for t in
              np.cumsum(_chunk_terms(spec, xs, y, monkeypatch))]
    assert len(totals) > 10
    for max_terms in (1, len(xs), totals[0], totals[len(totals) // 2] - 1,
                      totals[-1] - 1):
        expected = next(t for t in totals if t > max_terms)
        policy = TruncationPolicy(gamma_height_max=6.0, term_cutoff=1e-10,
                                  max_terms=max_terms)
        for n in (0, 1, 2, 3):
            _helpers(monkeypatch, n)
            with _no_thread_left(), \
                    pytest.raises(TruncationLimitExceeded) as err:
                evaluate_grid(spec, xs, y, policy)
            assert err.value.terms == expected
    policy = TruncationPolicy(gamma_height_max=6.0, term_cutoff=1e-10,
                              max_terms=totals[-1])
    _helpers(monkeypatch, 3)
    assert evaluate_grid(spec, xs, y, policy)[2] == totals[-1]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_budget_stops_each_thread_after_one_chunk(n, monkeypatch):
    """With max_terms = npts every chunk with terms passes the budget, and
    no thread takes a chunk once one with terms has finished, so at most
    n + 1 chunks with terms are walked; the failure count is the serial
    fold's."""
    spec = _spec(3, (5, 7), 1)
    xs, y = _grid(spec)
    monkeypatch.setattr(hpoincare, "_CHUNK_ELEMENTS", SMALL_CHUNK)
    expected = len(xs) + _chunk_terms(spec, xs, y, monkeypatch)[0]
    walked = []
    chunk_record = hpoincare._chunk_record

    def recorded(*args):
        out = chunk_record(*args)
        walked.append(out[2])
        return out

    monkeypatch.setattr(hpoincare, "_chunk_record", recorded)
    _helpers(monkeypatch, n)
    policy = TruncationPolicy(gamma_height_max=6.0, term_cutoff=1e-10,
                              max_terms=len(xs))
    with _no_thread_left(), pytest.raises(TruncationLimitExceeded) as err:
        evaluate_grid(spec, xs, y, policy)
    assert err.value.terms == expected
    assert 1 <= sum(terms > 0 for terms in walked) <= n + 1


# -- failures ------------------------------------------------------------------

def _after_first_helper_call(monkeypatch, on_helper, on_caller):
    """Wrap _chunk_record, which the item loop calls once per chunk: a
    helper's first call runs on_helper(), and the caller's calls wait
    (bounded) for it, then run on_caller().  Returns the calls each side
    starts once on_helper or on_caller has begun to raise; the item loop
    sets its stop event only after that, so these are at least the calls
    started after stop."""
    helper_called = threading.Event()
    raised = threading.Event()
    late = {"caller": 0, "helper": 0}
    chunk_record = hpoincare._chunk_record

    def fail(on):
        if on is not None:
            raised.set()
            on()

    def record(*args):
        caller = threading.current_thread() is threading.main_thread()
        if raised.is_set():
            late["caller" if caller else "helper"] += 1
        if caller:
            assert helper_called.wait(timeout=30)
            fail(on_caller)
        elif not helper_called.is_set():
            helper_called.set()
            fail(on_helper)
        return chunk_record(*args)

    monkeypatch.setattr(hpoincare, "_chunk_record", record)
    return late


def _raise(err):
    def fail():
        raise err
    return fail


@pytest.mark.parametrize("n", (1, 3))
def test_helper_exception_stops_the_caller_and_is_raised(n, monkeypatch):
    spec = _spec(3, (5, 7), 1)
    xs, y = _grid(spec)
    monkeypatch.setattr(hpoincare, "_CHUNK_ELEMENTS", SMALL_CHUNK)
    _helpers(monkeypatch, n)
    late = _after_first_helper_call(
        monkeypatch, _raise(RuntimeError("helper failed")), None)
    with _no_thread_left(), pytest.raises(RuntimeError,
                                          match="helper failed"):
        evaluate_grid(spec, xs, y, POLICY)
    # the caller stops at its next item, each other helper at its next
    assert late["caller"] <= 1 and late["helper"] <= n - 1


@pytest.mark.parametrize("n", (1, 3))
def test_caller_interrupt_stops_helpers_and_is_raised(n, monkeypatch):
    spec = _spec(3, (5, 7), 1)
    xs, y = _grid(spec)
    monkeypatch.setattr(hpoincare, "_CHUNK_ELEMENTS", SMALL_CHUNK)
    _helpers(monkeypatch, n)
    late = _after_first_helper_call(monkeypatch, None,
                                    _raise(KeyboardInterrupt()))
    with _no_thread_left(), pytest.raises(KeyboardInterrupt):
        evaluate_grid(spec, xs, y, POLICY)
    assert late["helper"] <= n
