"""Command-line front end.

Exit codes: 0 success, 1 user/validation error, 2 internal cross-check
failure (methods disagree or a roundtrip fails).  Output is JSON (JSON lines
for enumerations) or DOT, and is byte-identical across identical invocations;
wall-clock timings are only emitted behind --timings.

At start-up this module imports only ``core``: each command imports the
pipelines it runs when it first needs them, so ``compute --method
permutation`` never loads the ribbon, tropical or traffic modules.  Every
command first names the methods it runs and passes each through
``core.check_method_r``, so a refusal (r = 0 for a graph method, r >= 6 for
the ribbon method) exits 1 before any pipeline loads.  ``METHODS`` and
``roundtrip_check`` are module attributes holding callables and are looked
up at each call, so a caller may replace them; the listing functions named
in ``LISTINGS`` are looked up on their module at each call.

HURWITZ_THREADS caps the verify sweep's worker processes (0 = one per CPU,
unset = serial); any other value than a nonnegative integer is an error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

from .core import (
    HurwitzError,
    Partition,
    check_method_r,
    format_rational,
    hurwitz_params,
    sweep_params,
)


def _pipeline(module: str):
    """The module ``hurwitz.<module>``, imported on the first request."""
    return importlib.import_module(f".{module}", __package__)


def _deferred(module: str, name: str):
    """A stand-in for ``hurwitz.<module>.<name>`` that imports the module on
    its first call and then forwards every call."""

    def call(*args, **kwargs):
        return getattr(_pipeline(module), name)(*args, **kwargs)

    return call


# Keyed by the name of the module that holds each count.
METHODS = {
    "permutation": _deferred("permutation", "count_hurwitz_permutation"),
    "ribbon": _deferred("ribbon", "count_hurwitz_ribbon"),
    "tropical": _deferred("tropical", "count_hurwitz_tropical"),
}
roundtrip_check = _deferred("traffic", "roundtrip_check")

# Keyed by --kind: (module, function, JSON key of the listed object).  The
# module is also the method whose range the listing needs.  Monodromy sets
# have no key: they carry no aut and have no DOT form.
LISTINGS = {
    "monodromy-sets": ("permutation", "enumerate_monodromy_sets", None),
    "skeletons": ("ribbon", "enumerate_skeletons", "skeleton"),
    "hrgs": ("ribbon", "hurwitz_ribbon_classes", "hrg"),
    "tropical-graphs": ("tropical", "enumerate_tropical_graphs", "graph"),
    "monodromy-graphs": ("tropical", "monodromy_graph_classes", "graph"),
}


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 1


def _params_from(args):
    if args.genus is None or args.mu is None or args.nu is None:
        raise ValueError("--genus, --mu and --nu are required here")
    return hurwitz_params(
        args.genus, Partition.parse(args.mu), Partition.parse(args.nu)
    )


def cmd_compute(args) -> int:
    wanted = (
        list(METHODS) if args.method == "all" else [args.method]
    )
    try:
        params = _params_from(args)
        # refuse before any count, so no method's work is thrown away
        for name in wanted:
            check_method_r(name, params.r)
    except (HurwitzError, ValueError) as exc:
        return _fail(str(exc))
    values = {}
    timings = {}
    for name in wanted:
        _pipeline(name)  # the import stays outside the timed count
        t0 = time.perf_counter()
        values[name] = METHODS[name](params)
        timings[name] = round(1000.0 * (time.perf_counter() - t0), 3)
    agree = len(set(values.values())) == 1
    report = {
        "params": params.describe(),
        "values": {k: format_rational(v) for k, v in values.items()},
        "value": format_rational(next(iter(values.values()))) if agree else None,
        "agree": agree,
    }
    if args.timings:
        report["timings_ms"] = timings
    _emit(report)
    return 0 if agree else 2


def cmd_enumerate(args) -> int:
    kind = args.kind
    module, function, key = LISTINGS[kind]
    try:
        if kind in ("skeletons", "tropical-graphs"):
            if args.m is None or args.n is None or args.r is None:
                return _fail(f"--kind {kind} needs --m, --n and --r")
            check_method_r(module, args.r)
            if args.m < 1 or args.n < 1:
                return _fail(f"--kind {kind} needs --m >= 1 and --n >= 1")
            listing_args = (args.m, args.n, args.r)
        else:
            params = _params_from(args)
            check_method_r(module, params.r)
            listing_args = (params,)
        as_dot = args.format == "dot"
        if as_dot and key is None:
            return _fail("monodromy sets have no DOT form")
        for item in getattr(_pipeline(module), function)(*listing_args):
            if key is None:
                _emit(item.serialize())
                continue
            obj, aut = item
            if as_dot:
                sys.stdout.write(obj.to_dot() + "\n")
            else:
                _emit({key: obj.serialize(), "aut": aut})
        return 0
    except (HurwitzError, ValueError) as exc:
        return _fail(str(exc))


def _verify_one(job):
    g, mu, nu = job
    params = hurwitz_params(g, Partition(mu), Partition(nu))
    values = {name: fn(params) for name, fn in METHODS.items()}
    agree = len(set(values.values())) == 1
    rep = roundtrip_check(params)
    return {
        "params": params.describe(),
        "values": {k: format_rational(v) for k, v in values.items()},
        "agree": agree,
        "roundtrip_matched": rep.matched,
        "classes": rep.classes_ribbon,
    }


def worker_count() -> int:
    raw = os.environ.get("HURWITZ_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
        if n < 0:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"HURWITZ_THREADS must be a nonnegative integer, got {raw!r}"
        ) from None
    if n == 0:
        return os.cpu_count() or 1
    return n


def cmd_verify(args) -> int:
    if args.max_d < 1 or args.max_r < 1:
        return _fail("--max-d and --max-r must be >= 1")
    try:
        for name in METHODS:
            check_method_r(name, args.max_r)
        workers = worker_count()
    except (HurwitzError, ValueError) as exc:
        return _fail(str(exc))
    jobs = list(sweep_params(args.max_d, args.max_r))
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers at once: no more than the jobs
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(_verify_one, jobs))
    else:
        results = [_verify_one(job) for job in jobs]
    failures = [
        res
        for res in results
        if not (res["agree"] and res["roundtrip_matched"])
    ]
    report = {
        "max_d": args.max_d,
        "max_r": args.max_r,
        "checked": len(results),
        "all_agree": not failures,
        "results": results,
    }
    if failures:
        report["first_failure"] = failures[0]
    _emit(report)
    return 0 if not failures else 2


def cmd_chambers(args) -> int:
    from .chambers import degree_check, fit_all_chambers, walls

    if args.genus < 0 or args.m < 1 or args.n < 1:
        return _fail("chambers needs --genus >= 0, --m >= 1 and --n >= 1")
    r = 2 * args.genus - 2 + args.m + args.n
    if r < 1:
        return _fail(f"(g={args.genus}, m={args.m}, n={args.n}) has r={r}; no chambers")
    try:
        fits = fit_all_chambers(args.genus, args.m, args.n, dmax=args.dmax)
    except HurwitzError as exc:
        return _fail(str(exc))
    if not fits and not fits.skipped:
        return _fail(f"no chamber has a sample point up to --dmax {args.dmax}")
    report = {
        "g": args.genus,
        "m": args.m,
        "n": args.n,
        "degree_bound": 4 * args.genus - 3 + args.m + args.n,
        "walls": [w.describe() for w in walls(args.m, args.n)],
        "chambers": [dict(cp.describe(), degree_ok=degree_check(cp)) for cp in fits],
    }
    if fits.skipped:
        report["skipped"] = [
            {"signs": list(signs), "reason": reason} for signs, reason in fits.skipped
        ]
    _emit(report)
    if fits.skipped:
        return _fail(
            f"{len(fits.skipped)} of {len(fits) + len(fits.skipped)} sampled "
            f"chambers have too few points up to --dmax {args.dmax}; "
            "a larger --dmax samples more"
        )
    return 0


def cmd_roundtrip(args) -> int:
    try:
        params = _params_from(args)
        check_method_r("ribbon", params.r)
        rep = roundtrip_check(params)
    except (HurwitzError, ValueError) as exc:
        return _fail(str(exc))
    _emit(rep.serialize())
    return 0 if rep.matched else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hurwitz",
        description="Exact double Hurwitz numbers via permutations, ribbon graphs and tropical graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute H_g(mu, nu)")
    c.add_argument("--genus", type=int, required=True)
    c.add_argument("--mu", required=True, help='partition, e.g. "2,1"')
    c.add_argument("--nu", required=True)
    c.add_argument(
        "--method",
        choices=[*METHODS, "all"],
        default="all",
    )
    c.add_argument("--timings", action="store_true", help="include wall-clock timings")
    c.set_defaults(func=cmd_compute)

    e = sub.add_parser("enumerate", help="list combinatorial objects, one per line")
    e.add_argument(
        "--kind",
        choices=list(LISTINGS),
        required=True,
    )
    e.add_argument("--genus", type=int)
    e.add_argument("--mu")
    e.add_argument("--nu")
    e.add_argument("--m", type=int)
    e.add_argument("--n", type=int)
    e.add_argument("--r", type=int)
    e.add_argument("--format", choices=["json", "dot"], default="json")
    e.set_defaults(func=cmd_enumerate)

    v = sub.add_parser("verify", help="cross-check all three methods on a sweep")
    v.add_argument("--max-d", type=int, required=True)
    v.add_argument("--max-r", type=int, required=True)
    v.set_defaults(func=cmd_verify)

    ch = sub.add_parser("chambers", help="fit chamber polynomials exactly")
    ch.add_argument("--genus", type=int, required=True)
    ch.add_argument("--m", type=int, required=True)
    ch.add_argument("--n", type=int, required=True)
    ch.add_argument("--dmax", type=int, default=10)
    ch.set_defaults(func=cmd_chambers)

    rt = sub.add_parser("roundtrip", help="ribbon <-> permutation translation check")
    rt.add_argument("--genus", type=int, required=True)
    rt.add_argument("--mu", required=True)
    rt.add_argument("--nu", required=True)
    rt.set_defaults(func=cmd_roundtrip)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
