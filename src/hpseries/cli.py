"""Command-line surface: machine-readable tables for every experiment.

Outputs are CSV (with the run configuration in leading comment lines) or
JSON (configuration embedded); re-running an embedded configuration
reproduces the values bit for bit.

Exit codes: 0 all asserted properties hold; 1 an asserted trend or verdict
failed; 2 invalid configuration, an output path that cannot be written
included; 3 truncation failure (partial output is still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import classical as cla
from . import experiments as exp
from .fourier import (
    AliasingError,
    SamplingDomain,
    SyntheticEvaluand,
    extract_many,
)
from .hpoincare import (
    EvaluationError,
    PoincareSpec,
    TruncationLimitExceeded,
    TruncationPolicy,
    Weight,
    enumerate_cosets,
    evaluate,
    term,
)
from .qfield import (
    DualIndex,
    IdealHNF,
    QFieldError,
    codifferent_gen,
    fundamental_unit,
    ideal_from_gen,
    make_field,
    trace_one_totally_positive,
)

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2
EXIT_TRUNCATION = 3

_SWEEP_FORMATS = ("csv", "json")


class OutputError(Exception):
    """An output path that cannot be written: a configuration fault."""


def _write_out(text: str, out: str | None) -> None:
    """Write text to stdout, or to the file out through a temporary file
    beside it that replaces out once written.  A path that cannot be
    written raises OutputError, and the temporary file is removed."""
    if out is None:
        sys.stdout.write(text)
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(out) or ".",
                                   prefix=".hpseries-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
        tmp = None
    except OSError as err:
        raise OutputError(f"cannot write output: {err}") from err
    finally:
        if tmp is not None:
            os.unlink(tmp)


def _check_out(out: str | None) -> None:
    """Raise OutputError unless out is None or a file name, not an existing
    directory, in a writable directory: checked before any computation
    (`_write_out` still reports a failed write)."""
    if out is not None and (os.path.isdir(out) or not (
            os.path.basename(out) and os.access(os.path.dirname(out) or ".",
                                                os.W_OK | os.X_OK))):
        raise OutputError(f"cannot write output: {out!r} is not a file "
                          f"name in a writable directory")


def _load_config_file(path: str) -> dict[str, str]:
    try:  # a missing or unreadable file is a config error, like a bad line
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ValueError(f"cannot read config file: {err}") from err
    out = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


# policy keys that only a config file sets (no flag)
_CONFIG_ONLY_KEYS = ("max_terms",)


def _merged(args: argparse.Namespace) -> dict:
    """Config-file values with explicit flags winning.  The flags are the
    parsed attributes but command, func and config; a file key that is
    neither a flag nor a config-only policy key is a ValueError, not
    silently dropped."""
    keys = [k for k in vars(args) if k not in ("command", "func", "config")]
    merged = {}
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    for key in merged:
        if key not in keys and key not in _CONFIG_ONLY_KEYS:
            raise ValueError(f"unknown config key {key!r}")
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _pair_of_ints(text) -> tuple[int, int]:
    parts = [int(p) for p in str(text).split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'a,b', got {text!r}")
    return (parts[0], parts[1])


def _pair_of_floats(text) -> tuple[float, float]:
    parts = [float(p) for p in str(text).split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'y1,y2', got {text!r}")
    return (parts[0], parts[1])


def _int_list(text) -> list[int]:
    return [int(p) for p in str(text).split(",")]


def _parse_levels(field, text) -> list:
    """Comma list; each entry a rational integer generator or an HNF
    triple a:b:c."""
    out = []
    for part in str(text).split(","):
        if ":" in part:
            a, b, c = (int(t) for t in part.split(":"))
            out.append(IdealHNF(field=field, m00=a, m01=b, m11=c))
        else:
            out.append(ideal_from_gen(field.element(int(part), 0)))
    return out


def _one_level(field, text):
    levels = _parse_levels(field, text)
    if len(levels) != 1:
        raise ValueError(f"--level takes one level, got {text!r}")
    return levels[0]


def _dual(field, coords) -> DualIndex:
    p, q = _pair_of_ints(coords)
    return DualIndex.from_numerator(field, field.element(p, q))


def _policy_from(cfg: dict) -> TruncationPolicy:
    return TruncationPolicy(
        gamma_height_max=float(cfg.get("height", 12.0)),
        term_cutoff=float(cfg.get("cutoff", 3e-12)),
        max_terms=int(cfg.get("max_terms", 50_000_000)),
    )


def _domain_from(field, cfg: dict) -> SamplingDomain:
    y1, y2 = _pair_of_floats(cfg.get("y", "1.1,1.0"))
    return SamplingDomain(field=field, y1=y1, y2=y2,
                          grid_n=int(cfg.get("grid", 32)))


# -- subcommands -------------------------------------------------------------

def cmd_field_info(args) -> int:
    _check_out(args.out)
    field = make_field(args.d)
    bound = args.height_bound
    eps = fundamental_unit(field)
    gen = codifferent_gen(field)
    indices = trace_one_totally_positive(field, bound)
    if args.json:
        doc = {
            "d": field.d,
            "disc": field.disc,
            "omega": "(1+sqrt(d))/2" if field.omega_is_half else "sqrt(d)",
            "euclidean": field.euclidean,
            "fundamental_unit": list(eps.int_coords()),
            "fundamental_unit_norm": eps.norm(),
            "codifferent_gen": [str(gen.a), str(gen.b)],
            "trace_one_totally_positive": [
                {"numerator": list(nu.numerator.int_coords()),
                 "freq": list(nu.freq)} for nu in indices],
            "config": {"d": args.d, "height_bound": bound},
        }
        _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [
            f"# config: d={args.d} height_bound={bound}",
            f"field Q(sqrt({field.d})), disc = {field.disc}",
            f"omega = {'(1+sqrt(d))/2' if field.omega_is_half else 'sqrt(d)'}",
            f"norm-Euclidean: {field.euclidean}",
            f"fundamental unit = {eps.int_coords()} over [1, w], "
            f"norm {eps.norm()}, embeddings {eps.embeddings()}",
            f"codifferent generator 1/sqrt({field.disc}) = "
            f"({gen.a}) + ({gen.b}) w",
            f"trace-1 totally positive dual indices "
            f"(numerator height <= {bound}):",
        ]
        for nu in indices:
            p, q = nu.numerator.int_coords()
            lines.append(f"  ({p}+{q}w)/sqrt({field.disc})  freq={nu.freq}  "
                         f"embeddings={nu.embeddings()}")
        _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _config_lines(cfg: dict) -> list[str]:
    return [f"{k}={cfg[k]}" for k in sorted(cfg)]


def cmd_sweep(args) -> int:
    """sweep-weight (parallel weights --ks at one --level) and sweep-level
    (levels --levels at one weight --k): the same experiment on two axes."""
    by_weight = args.command == "sweep-weight"
    try:  # the parse order decides which fault a bad config reports first
        cfg = _merged(args)
        _check_out(cfg.get("out"))
        if cfg.get("format", "csv") not in _SWEEP_FORMATS:
            raise ValueError(f"format must be {' or '.join(_SWEEP_FORMATS)}, "
                             f"got {cfg['format']!r}")
        field = make_field(int(cfg["d"]))
        if by_weight:
            params = _int_list(cfg["ks"])
            if sorted(params) != params:
                raise ValueError(f"--ks must be ascending, got {cfg['ks']}")
        else:
            k1, k2 = _pair_of_ints(cfg["k"])
            params = _parse_levels(field, cfg["levels"])
        nu = _dual(field, cfg.get("nu", "0,1"))
        mu = _dual(field, cfg.get("mu", "-1,1"))
        if by_weight:
            fixed = _one_level(field, cfg.get("level", "1"))
        domain = _domain_from(field, cfg)
        policy = _policy_from(cfg)
        thresholds = exp.TrendThresholds(
            final_deviation=float(cfg.get("final_dev", 0.05)))
        if not by_weight:
            fixed = Weight(k1, k2)
    except (KeyError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    run = exp.sweep_weight if by_weight else exp.sweep_level
    report = run(field, nu, mu, fixed, params, domain, policy)
    if cfg.get("format", "csv") == "json":
        text = exp.sweep_to_json(report, {k: str(v) for k, v in cfg.items()})
    else:
        text = exp.sweep_to_csv(report, _config_lines(cfg))
    _write_out(text, cfg.get("out"))
    if any(row.failed for row in report.rows):
        return EXIT_TRUNCATION
    nu_ok, mu_ok = report.endpoint_improvement()
    dev_nu, dev_mu = report.final_deviations()
    trends_ok = (nu_ok and mu_ok
                 and dev_nu < thresholds.final_deviation
                 and dev_mu < thresholds.final_deviation)
    return EXIT_OK if trends_ok else EXIT_ASSERT


def cmd_certify(args) -> int:
    try:
        cfg = _merged(args)
        _check_out(cfg.get("out"))
        field = make_field(int(cfg["d"]))
        k1, k2 = _pair_of_ints(cfg["k"])
        nu = _dual(field, cfg.get("nu", "0,1"))
        level = _one_level(field, cfg.get("level", "1"))
        domain = _domain_from(field, cfg)
        policy = _policy_from(cfg)
        spec = PoincareSpec(field=field, weight=Weight(k1, k2), nu=nu,
                            level=level)
        safety = exp.check_safety_factor(float(cfg.get("safety", 10.0)))
    except (KeyError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    cert = exp.certify_nonvanishing(spec, domain, policy, safety)
    text = exp.certificate_to_json(cert, {k: str(v) for k, v in cfg.items()})
    _write_out(text, cfg.get("out"))
    return EXIT_OK if cert.verdict is exp.Verdict.NONZERO_CERTIFIED \
        else EXIT_ASSERT


def cmd_classical(args) -> int:
    _check_out(args.out)
    rows = []
    if args.mode == "petersson":
        params = cla.ClassicalParams(m=args.m, n=args.n, k=args.k, q=args.q)
        res = cla.petersson_coefficient(params, args.cmax)
        rows.append(dict(m=args.m, n=args.n, k=args.k, q=args.q,
                         value=res.value, tail_bound=res.tail_bound,
                         method="petersson"))
    elif args.mode == "quadrature":
        params = cla.ClassicalParams(m=args.m, n=args.n, k=args.k, q=args.q)
        # QuadraturePolicy.auto keeps its own defaults for the flags not given
        flags = {"y": args.y, "grid_n": args.grid}
        policy = cla.QuadraturePolicy.auto(
            params, **{key: v for key, v in flags.items() if v is not None})
        val = cla.classical_poincare_coefficient_by_quadrature(params, policy)
        rows.append(dict(m=args.m, n=args.n, k=args.k, q=args.q,
                         value=val, tail_bound=0.0, method="quadrature"))
    elif args.mode == "tau":
        taus = cla.delta_coefficients(args.nmax)
        lines = [f"# config: nmax={args.nmax}", "n,tau"]
        lines += [f"{i + 1},{t}" for i, t in enumerate(taus)]
        _write_out("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    elif args.mode == "scan":
        scan = cla.nonvanishing_range_scan(args.k, args.mmax, args.cmax)
        lines = [f"# config: k={args.k} mmax={args.mmax} "
                 f"cmax={args.cmax}", "m,certified"]
        lines += [f"{m},{cert}" for m, cert in scan]
        _write_out("\n".join(lines) + "\n", args.out)
        return EXIT_OK if all(c for _m, c in scan) else EXIT_ASSERT
    cfg_line = (f"# config: mode={args.mode} m={args.m} n={args.n} "
                f"k={args.k} q={args.q} cmax={args.cmax}")
    for key in ("grid", "y"):  # echoed only when given: defaults unchanged
        if getattr(args, key) is not None:
            cfg_line += f" {key}={getattr(args, key)}"
    _write_out(cfg_line + "\n" + cla.classical_csv(rows), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    """Quick end-to-end checks (the library's worked examples)."""
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
        if not ok:
            failures += 1

    field = make_field(5)
    w = field.omega
    check("make_field(5) golden-ratio embedding",
          abs(w.embeddings()[0] - 1.618033988749895) < 1e-12)
    check("trace/norm of omega", w.trace() == 1 and w.norm() == -1)
    check("codifferent integrality",
          (codifferent_gen(field) * w).trace() == 1)
    check("|N(sqrt(5))| = 5",
          ideal_from_gen(field.element(-1, 2)).norm == 5)
    indices = trace_one_totally_positive(field, 8)
    check("trace-1 set of Q(sqrt 5)",
          [n.numerator.int_coords() for n in indices] == [(-1, 1), (0, 1)])

    check("S(1,1;2) = 1", abs(cla.kloosterman(1, 1, 2) - 1) < 1e-12)
    check("S(1,1;3) = -1", abs(cla.kloosterman(1, 1, 3) + 1) < 1e-12)
    taus = cla.delta_coefficients(6)
    check("tau(2) = -24, tau(6) = tau(2) tau(3)",
          taus[1] == -24 and taus[5] == taus[1] * taus[2])
    params = cla.ClassicalParams(m=1, n=2, k=12, q=1)
    pet = cla.petersson_coefficient(params, 400).value
    quad = cla.classical_poincare_coefficient_by_quadrature(params)
    check("petersson vs quadrature (1,2,12,1)", abs(pet - quad) < 1e-6,
          f"diff={abs(pet - quad):.2e}")

    nu = DualIndex.from_numerator(field, w)
    spec = PoincareSpec(field=field, weight=Weight(8, 8), nu=nu,
                        level=ideal_from_gen(field.one))
    policy = TruncationPolicy(gamma_height_max=6.0, term_cutoff=1e-10)
    z = (0.13 + 1.15j, -0.21 + 1.05j)
    res = evaluate(spec, z, policy)
    reps = enumerate_cosets(spec, z, policy)
    direct = sum(term(M, z, spec) for M in reps)
    check("evaluate vs explicit coset sum", abs(res.value - direct) < 1e-12,
          f"diff={abs(res.value - direct):.2e}")

    dom = SamplingDomain(field=field, y1=1.1, y2=1.0, grid_n=16)
    syn = SyntheticEvaluand([(nu, 0.5 - 0.25j)])
    est = extract_many(syn, [nu], dom)[0]
    check("synthetic Fourier recovery",
          abs(est.value - (0.5 - 0.25j)) < 1e-12)

    spec12 = PoincareSpec(field=field, weight=Weight(12, 12), nu=nu,
                          level=ideal_from_gen(field.one))
    cert = exp.certify_nonvanishing(
        spec12, SamplingDomain(field=field, y1=1.1, y2=1.0, grid_n=32),
        TruncationPolicy(gamma_height_max=8.0, term_cutoff=1e-11))
    check("certify k=(12,12) level (1)",
          cert.verdict is exp.Verdict.NONZERO_CERTIFIED,
          f"|p(nu)|={abs(cert.coefficient.value):.6f}")

    print(f"selftest: {failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_ASSERT


def _add_run_flags(p: argparse.ArgumentParser, axis_flags: tuple[str, ...],
                   sweep: bool) -> None:
    """Flags of sweep-weight, sweep-level and certify, in help order: --d,
    the axis flags, the series and sampling flags, then --final-dev and
    --format (sweeps) or --safety (certify), --out and --config."""
    p.add_argument("--d", type=int)
    for flag in axis_flags:
        p.add_argument(flag)
    p.add_argument("--nu")
    if sweep:
        p.add_argument("--mu")
    p.add_argument("--y")
    p.add_argument("--grid", type=int)
    p.add_argument("--height", type=float)
    p.add_argument("--cutoff", type=float)
    if sweep:
        p.add_argument("--final-dev", dest="final_dev", type=float)
        p.add_argument("--format", choices=_SWEEP_FORMATS)
    else:
        p.add_argument("--safety", type=float)
    p.add_argument("--out")
    p.add_argument("--config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpseries",
        description="Poincare series over real quadratic fields: "
                    "coefficient extraction, orthogonality sweeps, "
                    "non-vanishing certificates, classical oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="field invariants and the "
                                          "trace-1 totally positive duals")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--height-bound", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_field_info)

    p = sub.add_parser("sweep-weight", help="coefficients across a "
                                            "parallel-weight list")
    _add_run_flags(p, ("--ks", "--level"), sweep=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sweep-level", help="coefficients across a level list")
    _add_run_flags(p, ("--k", "--levels"), sweep=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("certify", help="non-vanishing certificate at mu = nu")
    _add_run_flags(p, ("--k", "--level"), sweep=False)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("classical", help="F = Q oracles")
    p.add_argument("mode", choices=("petersson", "quadrature", "tau", "scan"))
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--cmax", type=int, default=500)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--mmax", type=int, default=10)
    p.add_argument("--grid", type=int)
    p.add_argument("--y", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("selftest", help="run the worked-example suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TruncationLimitExceeded as err:
        print(f"truncation failure: {err}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (EvaluationError, QFieldError, AliasingError,
            cla.ClassicalError, OutputError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
