"""hpseries benchmark runner.

    python3 perfbench/run.py --workload weight_sweep --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs one workload in this process (``all`` runs each in a process of its
own), closed loop and single-threaded: one pass of fixed operations at a
time, repeated for about --seconds seconds (at least MIN_PASSES passes).
Every pass starts with the library's module caches cleared.  Set-ups and
untraced passes are sampled for host speed (calibrate.py), and setup_s and
wall_s are reported in reference seconds, so that a stretch in which the
shared host runs slow does not read as a slower program.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Lines before it print every metric by name and
unit, the environment, and the payload digest.

--trace 1 alternates untraced and traced passes.  Traced passes wrap the
public calls into each module from outside (tracing.py); the spans are
written to perfbench/out/.  See NOTES.md for what each metric should move.
"""

import os

# one BLAS/OpenMP thread, set before numpy can be imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from tracing import Instrumentation, percentile_us  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 6          # extra set-ups, each in a fresh interpreter
PROBE_TIMEOUT_S = 60
MODULES = ("qfield", "hpoincare", "fourier", "experiments", "classical")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("experiments.sweep.s", "s"),
    ("experiments.certify.s", "s"),
    ("experiments.self_s", "s"),
    ("experiments.rows", "count"),
    ("experiments.certified", "count"),
    ("fourier.extract.s", "s"),
    ("fourier.extract.self_s", "s"),
    ("fourier.alias_gate.s", "s"),
    ("fourier.alias_gate.calls", "count"),
    ("fourier.alias_gate.distinct_keys", "count"),
    ("fourier.sample.s", "s"),
    ("fourier.sample.self_s", "s"),
    ("qfield.dual_index.calls", "count"),
    ("hpoincare.evaluate_grid.s", "s"),
    ("hpoincare.terms", "count"),
    ("hpoincare.terms_per_s", "1/s"),
    ("hpoincare.classes.kept", "count"),
    ("hpoincare.classes.s", "s"),
    ("qfield.complete_pair.s", "s"),
    ("qfield.complete_pair.calls", "count"),
    ("qfield.complete_pair.us_p50", "us"),
    ("qfield.complete_pair.us_p99", "us"),
    ("classical.petersson.s", "s"),
    ("classical.petersson.self_s", "s"),
    ("classical.quadrature.s", "s"),
    ("classical.bessel_j.s", "s"),
    ("classical.bessel_j.calls", "count"),
    ("classical.kloosterman.calls", "count"),
    ("classical.kloosterman.hit_ratio", "ratio"),
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
]


def import_hpseries():
    """Import hpseries from this checkout's src/, never from elsewhere."""
    if not (SRC / "hpseries" / "__init__.py").is_file():
        raise RuntimeError(f"no hpseries sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hpseries
    import hpseries.classical
    import hpseries.experiments
    import hpseries.fourier
    import hpseries.hpoincare
    import hpseries.qfield

    if Path(hpseries.__file__).resolve().parent != SRC / "hpseries":
        raise RuntimeError(f"hpseries imported from {hpseries.__file__}")
    return hpseries


def setup(name: str):
    """Import the library and build the workload's fixed objects, timed:
    returns hp, the workload, and (measured s, reference s)."""
    with calibrate.Sampler(arrays=False) as timer:
        hp = import_hpseries()
        wl = WORKLOADS[name](hp)
    return hp, wl, (timer.own_s, timer.reference_s)


def probe_setups(name: str, seed: int) -> list[tuple[float, float]]:
    """(measured s, reference s) set-up times of SETUP_PROBES fresh
    interpreters, run one by one."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        measured, reference = proc.stdout.split()[-2:]
        probes.append((float(measured), float(reference)))
    return probes


def clear_module_caches(hp) -> None:
    """Cold caches for every pass: a user's invocation pays them each time."""
    for mod_name in MODULES:
        for obj in list(vars(getattr(hp, mod_name)).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


class PassLog:
    """Outcomes of all passes of one run: untraced passes give wall_s,
    traced ones the per-layer numbers."""

    def __init__(self):
        self.walls: list[float] = []
        self.ref_walls: list[float] = []   # untraced walls, reference s
        self.speeds: list[float] = []      # median host speed in each pass
        self.traced_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.certified: list[int] = []
        self.digests: list[str | None] = []

    def add(self, wl, outputs: list, wall: float, traced: bool) -> None:
        self.attempted += len(outputs)
        self.failed += sum(1 for o in outputs if not wl.check(o))
        self.certified.append(wl.certified(outputs))
        if traced:
            self.traced_walls.append(wall)
            return
        self.walls.append(wall)
        text = wl.payload(outputs)
        self.digests.append(None if text is None else
                            hashlib.sha256(text.encode()).hexdigest())

    def enough(self, tracing: bool) -> bool:
        if tracing:
            return bool(self.walls) and bool(self.traced_walls)
        return len(self.walls) >= MIN_PASSES


def layer_metrics(hp, inst: Instrumentation, tracer, wl, outputs,
                  classes: tuple[int, float]) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    tot, own, calls = tracer.total, tracer.self_time, tracer.calls
    klo = hp.classical._kloosterman_cached.cache_info()
    lookups = klo.hits + klo.misses
    grid_s = tot["hpoincare.evaluate_grid"]
    pair_us = tracer.durations["qfield.complete_pair"]
    return {
        "experiments.sweep.s": tot["experiments.sweep"],
        "experiments.certify.s": tot["experiments.certify"],
        "experiments.self_s": own["experiments.sweep"]
        + own["experiments.certify"],
        "experiments.rows": inst.rows,
        "experiments.certified": wl.certified(outputs),
        "fourier.extract.s": tot["fourier.extract"],
        "fourier.extract.self_s": own["fourier.extract"],
        "fourier.alias_gate.s": tot["fourier.alias_gate"],
        "fourier.alias_gate.calls": calls["fourier.alias_gate"],
        "fourier.alias_gate.distinct_keys": len(set(inst.gate_keys)),
        "fourier.sample.s": tot["fourier.sample"],
        "fourier.sample.self_s": own["fourier.sample"],
        "qfield.dual_index.calls": calls["qfield.dual_index"],
        "hpoincare.evaluate_grid.s": grid_s,
        "hpoincare.terms": inst.terms,
        "hpoincare.terms_per_s": inst.terms / grid_s if grid_s else 0.0,
        "hpoincare.classes.kept": classes[0],
        "hpoincare.classes.s": classes[1],
        "qfield.complete_pair.s": tot["qfield.complete_pair"],
        "qfield.complete_pair.calls": calls["qfield.complete_pair"],
        "qfield.complete_pair.us_p50": percentile_us(pair_us, 50),
        "qfield.complete_pair.us_p99": percentile_us(pair_us, 99),
        "classical.petersson.s": tot["classical.petersson"],
        "classical.petersson.self_s": own["classical.petersson"],
        "classical.quadrature.s": tot["classical.quadrature"],
        "classical.bessel_j.s": tot["classical.bessel_j"],
        "classical.bessel_j.calls": calls["classical.bessel_j"],
        "classical.kloosterman.calls": lookups,
        "classical.kloosterman.hit_ratio": klo.hits / lookups
        if lookups else 0.0,
        "trace.pass_s": tot["bench.pass"],
        "trace.unattributed_s": own["bench.pass"],
    }


def enumerate_classes(hp, sampled: list[tuple]) -> tuple[int, float]:
    """Classes kept and seconds of a separate enumerate_gamma_classes call
    for every (spec, y, policy) a traced pass sampled."""
    kept = 0
    t0 = perf_counter()
    for spec, y, policy in sampled:
        kept += len(hp.hpoincare.enumerate_gamma_classes(spec, y, policy))
    return kept, perf_counter() - t0


def run(args) -> int:
    try:
        hp, wl, setup_times = setup(args.workload)
    except (ImportError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    setups = [setup_times]
    if args.setup_probe:
        print(*map(repr, setups[0]))
        return 0
    setups += probe_setups(args.workload, args.seed)
    wl.draw(args.seed)

    inst = Instrumentation(hp) if args.trace else None
    log = PassLog()
    layers: list[dict[str, float]] = []
    spans: list[list[dict]] = []
    start = perf_counter()
    while True:
        # with --trace 1, untraced and traced passes alternate
        traced = inst is not None and len(log.walls) > len(log.traced_walls)
        clear_module_caches(hp)
        # same live heap before every pass, so the cyclic collector's work
        # inside a pass does not depend on what earlier passes left behind
        gc.collect()
        if traced:
            inst.install()
            tracer = inst.start_pass()
            tracer.enter("bench.pass", True)
        if traced:
            t0 = perf_counter()
            outputs = wl.run_pass()
            wall = perf_counter() - t0
        else:
            with calibrate.Sampler(arrays=True) as timer:
                outputs = wl.run_pass()
            wall = timer.own_s
            log.ref_walls.append(timer.reference_s)
            log.speeds.append(timer.median_speed)
        if traced:
            tracer.exit()
            inst.end_pass()
            inst.uninstall()
            layers.append(layer_metrics(
                hp, inst, tracer, wl, outputs,
                enumerate_classes(hp, inst.sampled)))
            spans.append([dict(s, start=s["start"] - t0, end=s["end"] - t0)
                          for s in tracer.spans])
        log.add(wl, outputs, wall, traced)
        del outputs
        if (log.enough(inst is not None) and perf_counter() - start
                + max(log.walls + log.traced_walls) > args.seconds):
            break

    e2e = {
        "setup_s": statistics.median(ref for _s, ref in setups),
        "wall_s": statistics.median(log.ref_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    report(args, wl, log, setups, e2e)
    if inst is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        per_layer = {name: statistics.median(m[name] for m in layers)
                     for name in layers[0]}
        untraced = statistics.median(log.walls)
        per_layer["trace.untraced_pass_s"] = untraced
        per_layer["trace.overhead_s"] = (statistics.median(log.traced_walls)
                                         - untraced)
        for name, unit in PER_LAYER:
            print(f"{name:34s} {per_layer[name]:.10g} {unit}")
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in PER_LAYER}
        write_spans(args, spans)
    print(json.dumps({"correct": log.failed == 0,
                      "attempted": log.attempted, "failed": log.failed,
                      "metrics": metrics}))
    return 0


def report(args, wl, log: PassLog, setups: list[tuple[float, float]],
           e2e: dict[str, float]) -> None:
    import numpy

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"env nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"setup_s      {e2e['setup_s']:.4f} s   (reference seconds, median "
          f"of {len(setups)} set-ups; measured "
          f"{statistics.median(s for s, _r in setups):.4f} s)")
    print(f"wall_s       {e2e['wall_s']:.4f} s   (reference seconds, median "
          f"of {len(log.walls)} untraced passes; measured "
          f"{statistics.median(log.walls):.4f} s, slowest "
          f"{max(log.walls):.4f} s)")
    print("ref_passes_s " + " ".join(f"{w:.4f}" for w in log.ref_walls)
          + "   host speed per pass (reference machine 1.0): "
          + " ".join(f"{v:.3f}" for v in log.speeds))
    print("passes_s     " + " ".join(f"{w:.4f}" for w in log.walls)
          + "   traced: " + " ".join(f"{w:.4f}" for w in log.traced_walls))
    print(f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    print(f"fail_frac    {log.failed / log.attempted:.4g}   "
          f"({log.failed} failed of {log.attempted} operations)")
    if args.workload == "certify_fields":
        print(f"certified    {min(log.certified)} of {len(wl.cases)} "
              f"NonzeroCertified (lowest over passes)")
    stored = json.loads((HERE / "digests.json").read_text()).get(
        args.workload)
    digest = log.digests[0]
    if digest is None:
        print("payload      seed-dependent, no stored digest")
    else:
        same = all(x == digest for x in log.digests)
        print(f"payload      sha256 {digest} "
              f"{'matches' if digest == stored else 'DIFFERS FROM'} the "
              f"stored digest; passes {'agree' if same else 'DISAGREE'}")


def write_spans(args, spans: list[list[dict]]) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "passes": spans}, indent=1) + "\n")


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="print the set-up time only (used by the runner)")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
