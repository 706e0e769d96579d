"""The library names the benchmark reaches by attribute.

perfbench/tracing.py wraps library calls through `owner.__dict__[attr]`
and perfbench/run.py reads `classical._kloosterman_cached.cache_info()` and
`hpoincare.enumerate_gamma_classes`, so a rename there breaks only a traced
benchmark run.  This loads tracing.py from its file without writing
bytecode next to it, and installs and removes its wrappers.  run.py also
starts every pass by calling `cache_clear` on each module-level object
that has one; a cache it cannot reach that way would make later passes
warm, and read as a false gain."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import hpseries
from hpseries import classical, fourier, hpoincare

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
RUNNER = PERFBENCH / "run.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_wraps_and_restores_library_names(monkeypatch):
    """install() raises KeyError on a name the library no longer has."""
    tracing = _load_tracing(monkeypatch)
    inst = tracing.Instrumentation(hpseries)
    inst.install()
    try:
        saved = list(inst._saved)
        assert saved
        for owner, attr, original in saved:
            assert owner.__dict__[attr] is not original
    finally:
        inst.uninstall()
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original


def test_tracing_counts_the_terms_evaluate_grid_returns(monkeypatch, field5,
                                                       nu5, unit_ideal5):
    """tracing.py adds `evaluate_grid(...)[2]` to its term count: the
    result keeps the term count at index 2."""
    tracing = _load_tracing(monkeypatch)
    inst = tracing.Instrumentation(hpseries)
    spec = hpoincare.PoincareSpec(field=field5, weight=hpoincare.Weight(8, 8),
                                  nu=nu5, level=unit_ideal5)
    policy = hpoincare.TruncationPolicy(gamma_height_max=6.0,
                                        term_cutoff=1e-10)
    inst.install()
    try:
        inst.start_pass()
        result = fourier.evaluate_grid(spec, [(0.1, 0.2), (0.3, -0.4)],
                                       (1.1, 1.0), policy)
        inst.end_pass()
    finally:
        inst.uninstall()
    assert isinstance(result[2], int) and result[2] > 2
    assert inst.terms == result[2]


def test_run_reads_library_names(field5, nu5, unit_ideal5):
    info = classical._kloosterman_cached.cache_info()
    assert info.hits >= 0 and info.misses >= 0
    spec = hpoincare.PoincareSpec(field=field5, weight=hpoincare.Weight(8, 8),
                                  nu=nu5, level=unit_ideal5)
    policy = hpoincare.TruncationPolicy(gamma_height_max=6.0,
                                        term_cutoff=1e-10)
    classes = hpoincare.enumerate_gamma_classes(spec, (1.1, 1.0), policy)
    assert classes and all(cl.pq != (0, 0) for cl in classes)


def _runner_modules():
    """perfbench/run.py's MODULES, read from the file: importing run.py
    would set its environment and search path in this process."""
    tree = ast.parse(RUNNER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["MODULES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("run.py assigns no MODULES")


def _clear_like_the_runner():
    for name in _runner_modules():
        module = importlib.import_module(f"hpseries.{name}")
        for obj in list(vars(module).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def test_runner_sweep_empties_every_classical_store(monkeypatch):
    """After the runner's sweep, a Petersson and a quadrature call build
    as many unit tables and evaluate as many Kloosterman sums and Bessel
    values as they did the first time: no store keeps them across
    passes."""
    names = ("_unit_inverses", "kloosterman", "bessel_j")
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(classical, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(classical, name, counting)
    runs = []
    for _ in range(2):
        _clear_like_the_runner()
        counts.update(dict.fromkeys(names, 0))
        classical.petersson_coefficient(
            classical.ClassicalParams(1, 2, 12, 1), 50)
        classical.classical_poincare_coefficient_by_quadrature(
            classical.ClassicalParams(1, 1, 12, 1))
        runs.append(dict(counts))
    assert all(runs[0].values()), runs[0]
    assert runs[1] == runs[0]
