"""Command-line experiment runner.

Subcommands cover every package operation: closed-form constants, the
ground-state solver, spectral data of antisymmetric matrices, path and clock
simulation, small-ball and Laplace estimation, and the acceptance suite.

Results print human-readably on stdout; ``--output FILE`` additionally writes
a machine-readable record with schema

    {"op": str, "params": object, "results": array, "seed": int,
     "version": str, "defaults": object}

as sorted-key JSON (or CSV with one row per probe).  Records carry no
timestamps, so identical configs and seeds produce byte-identical output.

A config file (``--config FILE``, ``key = value`` lines, ``#`` comments,
JSON-parsed values) supplies defaults; explicit flags override it.  Each value
is converted like the flag's command-line value (a scalar for a list flag is a
one-element list); one that does not fit is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import __version__
from . import asymptotics as asy
from . import acceptance, mc, paths, schrodinger, spectral
from .errors import NumericError

# Central defaults, echoed into every machine-readable record.
DEFAULTS = {"n_steps": 2**14, "truncation": 50, "samples": 10**5}

_EXIT_USAGE = 2
_EXIT_NUMERIC = 3


def _load_config(path: str) -> dict:
    """Parse a key = value config file; values go through JSON when possible."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            val = val.strip()
            try:
                out[key] = json.loads(val)
            except json.JSONDecodeError:
                out[key] = val
    return out


def _config_defaults(sp: argparse.ArgumentParser, overrides: dict) -> dict:
    """Config values for the flags of subparser ``sp``, converted as argparse would.

    A config value goes through its flag's ``type`` and ``choices`` like a
    command-line string; a scalar for a list flag (``nargs="+"``) becomes a
    one-element list.  A value that does not fit raises ValueError.
    """
    out = {}
    for action in sp._actions:
        if action.dest not in overrides:
            continue
        value = overrides[action.dest]
        where = f"config value {action.dest} = {value!r}"
        if value is None:  # null: the flag is unset
            out[action.dest] = None
            continue
        if action.nargs == 0:  # store_true flags take a JSON bool
            if not isinstance(value, bool):
                raise ValueError(f"{where}: expected true or false")
            out[action.dest] = value
            continue
        many = action.nargs == "+" or isinstance(action.nargs, int)
        items = value if isinstance(value, list) else [value]
        if not many and isinstance(value, list):
            raise ValueError(f"{where}: expected a single value")
        if isinstance(action.nargs, int) and len(items) != action.nargs:
            raise ValueError(f"{where}: expected {action.nargs} values")
        if action.nargs == "+" and not items:
            raise ValueError(f"{where}: expected at least one value")
        try:
            items = [(action.type or str)(str(v)) for v in items]
        except (TypeError, ValueError):
            raise ValueError(f"{where}: invalid value for {'/'.join(action.option_strings)}") from None
        if action.choices is not None and any(v not in action.choices for v in items):
            raise ValueError(f"{where}: choose from {', '.join(map(str, action.choices))}")
        out[action.dest] = items if many else items[0]
    return out


def _jsonable(obj):
    """Fallback encoder for numpy scalars and arrays."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_record(args, op: str, params: dict, results: list) -> None:
    if not args.output:
        return
    record = {
        "op": op,
        "params": params,
        "results": results,
        "seed": args.seed,
        "version": __version__,
        "defaults": DEFAULTS,
    }
    if args.format == "json":
        with open(args.output, "w") as fh:
            json.dump(record, fh, sort_keys=True, indent=2, default=_jsonable)
            fh.write("\n")
    else:
        rows = results if results and isinstance(results[0], dict) else [{"value": r} for r in results]
        keys = sorted({k for r in rows for k in r})
        with open(args.output, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            writer.writerows(rows)


def _windows_from(a_list, b_list):
    b = list(b_list)
    if a_list is None:
        a = [0.0] + b[:-1]
    else:
        a = list(a_list)
    if len(a) != len(b):
        raise ValueError("need as many lower window bounds as upper ones")
    return tuple(zip(a, b))


def _q_from(args) -> tuple[float, ...]:
    return tuple(args.q) if args.q else paths.geometric_q(args.q_ratio, args.q_terms)


def _clock_from(args) -> paths.ClockSpec:
    if args.clock == "power":
        if args.rho is None:
            rho = 1.0
        elif len(args.rho) == 1:
            rho = args.rho[0]
        else:
            rho = tuple(args.rho)
        return paths.PowerClockSpec(p=args.clock_p, rho=rho)
    return paths.ChaosClockSpec(_q_from(args))


def _process_from(args) -> paths.ProcessSpec:
    if args.process == "bm":
        return paths.BrownianProcess()
    if args.process == "levy-area":
        return paths.ChaosDirectProcess(paths.ChaosClockSpec((1.0,)))
    if args.process == "chaos":
        return paths.ChaosDirectProcess(paths.ChaosClockSpec(_q_from(args)))
    if args.process == "time-changed":
        return paths.TimeChangedProcess(_clock_from(args))
    raise ValueError(f"unknown process {args.process!r}")


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_constants(args) -> int:
    results = []
    params = {}
    if args.chaos_sup:
        part = asy.Partition(tuple(args.t), windows=_windows_from(args.a, args.b))
        value = asy.chaos_sup_constant(args.omega_one_norm, part)
        params = {"omega_one_norm": args.omega_one_norm, "t": args.t, "b": args.b}
        print(f"{value:.10f}")
        results = [{"constant": value}]
    elif args.chaos_clock:
        part = asy.Partition(tuple(args.t), weights=tuple(args.d))
        value = asy.chaos_clock_constant(args.omega_one_norm, part)
        params = {"omega_one_norm": args.omega_one_norm, "t": args.t, "d": args.d}
        print(f"{value:.10f}")
        results = [{"constant": value}]
    elif args.tsb:
        value = asy.tsb_constant(args.alpha, args.beta, args.k, args.b)
        params = {"alpha": args.alpha, "beta": args.beta, "k": args.k, "b": args.b}
        print(f"{value:.10f}")
        results = [{"constant": value}]
    elif args.kappa_p:
        lam = args.lambda1 if args.lambda1 is not None else schrodinger.lambda1(args.p).value
        value = asy.kappa_p(args.p, lam)
        params = {"p": args.p, "lambda1": lam}
        print(f"{value:.10f}")
        results = [{"constant": value, "lambda1": lam}]
    elif args.weighted_sum:
        base = asy.AsymptoticOrder(args.alpha, 0.0, args.big_k)
        if args.sigma is not None:
            w = asy.WeightSequenceSpec.geometric(args.sigma)
        elif args.weights is not None:
            w = asy.WeightSequenceSpec.explicit(args.weights)
        elif args.r is not None:
            w = asy.WeightSequenceSpec.polynomial(args.r)
        else:
            raise ValueError("need --sigma, --r or --weights")
        value = asy.weighted_sum_constant(base, w)
        params = {"alpha": args.alpha, "big_k": args.big_k, "kind": w.kind}
        print(f"{value:.10f}")
        results = [{"constant": value}]
    elif args.iterated:
        spec = asy.IteratedSpec(args.theta, args.kappa, args.rho_outer, asy.AsymptoticOrder(args.alpha, 0.0, args.big_k))
        value = asy.iterated_first_order_constant(spec)
        params = {"theta": args.theta, "kappa": args.kappa, "rho": args.rho_outer, "alpha": args.alpha, "big_k": args.big_k}
        print(f"{value:.10f}")
        results = [{"constant": value, "rate_exponent": asy.iterated_rate_exponent(spec)}]
    elif args.tauberian_forward:
        lo = asy.tauberian_forward(asy.AsymptoticOrder(args.alpha, args.beta, args.big_k))
        params = {"alpha": args.alpha, "beta": args.beta, "big_k": args.big_k}
        print(f"pow_exponent={lo.pow_exponent:.10f} log_exponent={lo.log_exponent:.10f} L={lo.big_l:.10f}")
        results = [{"pow_exponent": lo.pow_exponent, "log_exponent": lo.log_exponent, "big_l": lo.big_l}]
    elif args.tauberian_inverse:
        ao = asy.tauberian_inverse(asy.LaplaceOrder(args.pow_exponent, args.log_exponent, args.big_l))
        params = {"pow_exponent": args.pow_exponent, "log_exponent": args.log_exponent, "big_l": args.big_l}
        print(f"alpha={ao.alpha:.10f} beta={ao.beta:.10f} K={ao.big_k:.10f}")
        results = [{"alpha": ao.alpha, "beta": ao.beta, "big_k": ao.big_k}]
    else:
        raise ValueError("choose a constants mode (e.g. --chaos-sup, --tsb, --kappa-p)")
    _write_record(args, "constants", params, results)
    return 0


def _cmd_lambda1(args) -> int:
    cfg = schrodinger.EigenConfig(args.half_width, args.grid_points, args.levels)
    res = schrodinger.lambda1(args.p, cfg)
    print(f"lambda1({args.p:g}) = {res.value:.7f} +/- {res.error_estimate:.1e}")
    _write_record(
        args,
        "lambda1",
        {"p": args.p, "half_width": args.half_width, "grid_points": args.grid_points, "levels": args.levels},
        [{"value": res.value, "error_estimate": res.error_estimate, "grid_values": list(res.grid_values)}],
    )
    return 0


def _cmd_spectral(args) -> int:
    mat = spectral.load_matrix(args.matrix)
    data = spectral.singular_pairs(mat)
    print(f"q = {[f'{v:.10g}' for v in data.q]}")
    print(f"one_norm = {data.one_norm:.10f}")
    print(f"hs_norm_sq = {data.hs_norm_sq:.10f}")
    results = [{"q": list(data.q), "one_norm": data.one_norm, "hs_norm_sq": data.hs_norm_sq}]
    if args.project is not None:
        proj = spectral.singular_pairs(spectral.project(mat, args.project))
        print(f"projected q (k={args.project}) = {[f'{v:.10g}' for v in proj.q]}")
        results.append({"projected_q": list(proj.q), "k": args.project})
    if args.interlace is not None:
        ok = spectral.interlace_check(mat, args.interlace)
        print(f"interlace check (k={args.interlace}): {ok}")
        results.append({"interlace": bool(ok), "k": args.interlace})
    _write_record(args, "spectral", {"matrix": str(args.matrix)}, results)
    return 0


def _cmd_simulate(args) -> int:
    grid = paths.simulate_path(_process_from(args), args.n_steps, args.horizon, paths.RngStream(args.seed, args.stream))
    sup = float(grid.running_sup()[-1])
    print(f"{args.process}: terminal={grid.values[-1]:.6f} sup|path|={sup:.6f} (N={args.n_steps}, T={args.horizon:g})")
    if args.dump:
        paths.dump_csv(grid, args.dump)
        print(f"path written to {args.dump}")
    _write_record(
        args,
        "simulate",
        {"process": args.process, "n_steps": args.n_steps, "horizon": args.horizon, "stream": args.stream},
        [{"terminal": float(grid.values[-1]), "sup": sup}],
    )
    return 0


def _cmd_smallball(args) -> int:
    cfg = mc.McConfig(samples=args.samples, n_steps=args.n_steps, seed=args.seed, workers=args.workers)
    results = []
    if args.extract:
        if not args.conditional:
            raise ValueError("--extract needs --conditional")
        if len(args.eps) < 3:
            raise ValueError("--extract needs at least three eps")
        mc._decreasing_eps(args.eps)  # extract_constant's check, before any sampling
    if args.conditional and (len(args.t) > 1 or args.a is not None or args.b is not None):
        raise ValueError("--conditional takes one --t and no --a or --b windows")
    if args.conditional:
        t = args.t[0] if args.t else 1.0
        probes = mc.probe_smallball_conditional(_clock_from(args), t, args.eps, cfg)
        for eps, est in zip(args.eps, probes):
            print(f"eps={eps:g}: P = {est.estimate:.6e} +/- {est.std_error:.2e} ({est.samples} samples)")
            results.append(est.record("smallball-conditional", {"eps": eps, "t": t, "n_steps": args.n_steps}))
        if args.extract:
            ext = mc.extract_constant(args.eps, probes, (args.extract[0], args.extract[1]))
            print(f"K_hat = {[f'{k:.5f}' for k in ext.k_hat]}")
            print(f"extrapolated K = {ext.extrapolated:.5f}; gaps non-increasing: {ext.gaps_non_increasing}")
            results.append(
                {"extrapolated": ext.extrapolated, "k_hat": list(ext.k_hat), "k_hat_se": list(ext.k_hat_se)}
            )
    else:
        process = _process_from(args)
        b = [1.0] if args.b is None else args.b
        part = asy.Partition(tuple(args.t), windows=_windows_from(args.a, b))
        for eps, est in zip(args.eps, mc.probe_smallball_raw(process, part, args.eps, cfg)):
            flag = " (zero hits: std_error column holds the 95% upper bound)" if est.zero_hits else ""
            print(f"eps={eps:g}: P = {est.estimate:.6e} +/- {est.std_error:.2e} ({est.samples} samples){flag}")
            results.append(est.record("smallball-raw", {"eps": eps, "t": args.t, "b": b, "n_steps": args.n_steps}))
    _write_record(args, "smallball", {"eps": args.eps, "samples": args.samples, "n_steps": args.n_steps}, results)
    return 0


def _cmd_laplace(args) -> int:
    cfg = mc.McConfig(samples=args.samples, n_steps=args.n_steps, seed=args.seed, workers=args.workers)
    clock = _clock_from(args)
    times = tuple(args.t) if args.t else (1.0,)
    part = asy.Partition(times, weights=tuple(args.d) if args.d else None)
    ests = mc.estimate_laplace_multi(clock, part, args.lam, cfg)
    laws = [None] * len(ests)
    # one interval of a clock with a spectrum has an exact law at this grid; a weight d scales lambda
    if part.m == 1 and paths.quadratic_clock_spectrum(clock, times[0], args.n_steps) is not None:
        d = (part.weights or (1.0,))[0]
        laws = np.exp(mc.log_laplace(clock, times[0], [lam * d for lam in args.lam], args.n_steps)).tolist()
    results = []
    for lam, est, law in zip(args.lam, ests, laws):
        line = f"lambda={lam:g}: E = {est.estimate:.6f} +/- {est.std_error:.2e} ({est.samples} samples)"
        rec = est.record("laplace", {"lambda": lam, "t": list(times), "n_steps": args.n_steps})
        if law is not None:
            rec["exact"] = law
            line += f" (exact {law:.6f})"
        print(line)
        results.append(rec)
    _write_record(args, "laplace", {"lambda": args.lam, "samples": args.samples, "n_steps": args.n_steps}, results)
    return 0


def _cmd_verify(args) -> int:
    only = set(args.only.split(",")) if args.only else None
    results = acceptance.run_all(args.seed, only=only)
    # Timings are printed by run_all only: the record must repeat bit for bit.
    _write_record(
        args,
        "verify",
        {"only": sorted(only) if only else None},
        [{"cid": r.cid, "label": r.label, "passed": r.passed} for r in results],
    )
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--seed", type=int, default=42, help="master seed")
    sp.add_argument("--output", help="write a machine-readable record here")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def _add_clock_flags(sp):
    sp.add_argument("--clock", choices=("power", "chaos"), default="chaos")
    sp.add_argument("--clock-p", type=float, default=2.0, help="exponent for the power clock")
    sp.add_argument("--rho", type=float, nargs="+", default=None, help="stepwise weight for the power clock")
    sp.add_argument("--q", type=float, nargs="+", default=None, help="explicit chaos singular values")
    sp.add_argument("--q-ratio", type=float, default=0.5, help="geometric ratio for q_j = ratio^j")
    sp.add_argument("--q-terms", type=int, default=DEFAULTS["truncation"], help="number of chaos terms J")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallball",
        description="Small-deviation constants for time-changed Brownian motion and second-order chaos.",
    )
    parser.add_argument("--config", help="key = value config file; explicit flags override it")
    parser.add_argument("--version", action="version", version=f"smallball {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="evaluate closed-form constants")
    mode = sp.add_mutually_exclusive_group(required=False)
    mode.add_argument("--chaos-sup", action="store_true")
    mode.add_argument("--chaos-clock", action="store_true")
    mode.add_argument("--tsb", action="store_true")
    mode.add_argument("--kappa-p", action="store_true")
    mode.add_argument("--weighted-sum", action="store_true")
    mode.add_argument("--iterated", action="store_true")
    mode.add_argument("--tauberian-forward", action="store_true")
    mode.add_argument("--tauberian-inverse", action="store_true")
    sp.add_argument("--omega-one-norm", type=float, default=1.0)
    sp.add_argument("--t", type=float, nargs="+", default=[1.0], help="partition times")
    sp.add_argument("--a", type=float, nargs="+", default=None, help="lower window bounds")
    sp.add_argument("--b", type=float, nargs="+", default=[1.0], help="upper window bounds")
    sp.add_argument("--d", type=float, nargs="+", default=[1.0], help="decreasing weights")
    sp.add_argument("--k", type=float, nargs="+", default=[0.125], help="per-interval constants")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--big-k", type=float, default=0.125)
    sp.add_argument("--big-l", type=float, default=1.0)
    sp.add_argument("--pow-exponent", type=float, default=0.5)
    sp.add_argument("--log-exponent", type=float, default=0.0)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--lambda1", type=float, default=None)
    sp.add_argument("--theta", type=float, default=2.0)
    sp.add_argument("--kappa", type=float, default=float(np.pi**2 / 8))
    sp.add_argument("--rho-outer", type=float, default=1.0)
    sp.add_argument("--sigma", type=float, default=None)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--weights", type=float, nargs="+", default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_constants)

    sp = sub.add_parser("lambda1", help="ground state of -1/2 u'' + |x|^p u")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--half-width", type=float, default=12.0)
    sp.add_argument("--grid-points", type=int, default=4096)
    sp.add_argument("--levels", type=int, default=2)
    _add_common(sp)
    sp.set_defaults(func=_cmd_lambda1)

    sp = sub.add_parser("spectral", help="singular pairs of an antisymmetric matrix")
    sp.add_argument("--matrix", required=True, help="CSV or JSON array-of-rows file")
    sp.add_argument("--project", type=int, default=None)
    sp.add_argument("--interlace", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_spectral)

    sp = sub.add_parser("simulate", help="simulate one path and optionally dump CSV")
    sp.add_argument("--process", choices=("bm", "levy-area", "chaos", "time-changed"), default="bm")
    sp.add_argument("--n-steps", type=int, default=DEFAULTS["n_steps"])
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.add_argument("--stream", type=int, default=0)
    sp.add_argument("--dump", help="write (time,value) CSV here")
    _add_clock_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("smallball", help="estimate window probabilities")
    sp.add_argument("--process", choices=("bm", "chaos", "time-changed"), default="bm")
    sp.add_argument("--conditional", action="store_true", help="Rao-Blackwellized estimator (single interval)")
    sp.add_argument("--eps", type=float, nargs="+", required=True)
    sp.add_argument("--t", type=float, nargs="+", default=[1.0])
    sp.add_argument("--a", type=float, nargs="+", default=None)
    sp.add_argument("--b", type=float, nargs="+", default=None, help="upper window bounds (default 1.0)")
    sp.add_argument("--samples", type=int, default=DEFAULTS["samples"])
    sp.add_argument("--n-steps", type=int, default=DEFAULTS["n_steps"])
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--extract", type=float, nargs=2, metavar=("ALPHA", "BETA"), default=None)
    _add_clock_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_smallball)

    sp = sub.add_parser("laplace", help="estimate Laplace functionals of a clock")
    sp.add_argument("--lam", type=float, nargs="+", required=True, help="lambda values")
    sp.add_argument("--t", type=float, nargs="+", default=[1.0])
    sp.add_argument("--d", type=float, nargs="+", default=None, help="decreasing weights")
    sp.add_argument("--samples", type=int, default=DEFAULTS["samples"])
    sp.add_argument("--n-steps", type=int, default=DEFAULTS["n_steps"])
    sp.add_argument("--workers", type=int, default=1)
    _add_clock_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_laplace)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--only", help="comma-separated criterion ids, e.g. C1,C5")
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The stage-1 ``--config`` pre-parser and the full parser, built on the first ``main`` call."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    return pre, build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre, parser = _parsers()

    # Stage 1: pull out --config so its values can become subcommand defaults.
    known, _ = pre.parse_known_args(argv)
    bad = {}  # subcommand -> its config error, reported only if it runs
    if known.config:
        try:
            overrides = _load_config(known.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT_USAGE
        parser = build_parser()  # config values become subparser defaults: never on the shared parser
        for name, sp in parser._subparsers._group_actions[0].choices.items():  # type: ignore[union-attr]
            try:
                sp.set_defaults(**_config_defaults(sp, overrides))
            except ValueError as exc:
                bad[name] = exc

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command in bad:
        print(f"error: {known.config}: {bad[args.command]}", file=sys.stderr)
        return _EXIT_USAGE

    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
