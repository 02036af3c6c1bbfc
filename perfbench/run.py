"""End-to-end benchmark of the ``hurwitz`` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload perm --seed 1 --seconds 20 --trace 0

Every invocation is a fresh ``python -m hurwitz.cli`` child with ``src`` on
``PYTHONPATH`` and ``HURWITZ_THREADS`` removed, run one at a time, exactly as
a user runs it.  Each child's CPU time and peak RSS come from ``os.wait4``;
a child that overruns its timeout is killed and counts as a failure, as does
a nonzero exit or any printed value that differs from its exact expected value
in ``expected.json``.

With ``--trace 0`` the run repeats passes over the workload's invocations for
about ``--seconds`` seconds and reports the end-to-end metrics.  With
``--trace 1`` it makes one untraced pass and one traced pass (see
``tracer.py``), followed by a small probe that reaches every layer, and
reports the per-layer metrics.  The seed shuffles the order of the cases and
of the parts inside mu and nu; counts do not depend on part order, so the
expected values hold for every seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it are a
human-readable report; details and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

# Why each workload exists and which layer it loads is recorded in README.md.
WORKLOADS = {
    "perm": [
        {"cmd": "compute", "method": "permutation", "genus": 2, "mu": [6], "nu": [4, 2]},
        {"cmd": "compute", "method": "permutation", "genus": 1, "mu": [3, 3], "nu": [2, 2, 2]},
        {"cmd": "compute", "method": "permutation", "genus": 1, "mu": [7], "nu": [4, 2, 1]},
        {"cmd": "compute", "method": "permutation", "genus": 1, "mu": [5, 2], "nu": [4, 3]},
        {"cmd": "compute", "method": "permutation", "genus": 3, "mu": [4], "nu": [4]},
        {"cmd": "compute", "method": "permutation", "genus": 0, "mu": [4, 3], "nu": [2, 2, 2, 1]},
    ],
    "ribbon": [
        {"cmd": "compute", "method": "ribbon", "genus": 1, "mu": [3, 2], "nu": [2, 2, 1]},
        {"cmd": "compute", "method": "ribbon", "genus": 1, "mu": [3, 2], "nu": [3, 2]},
        {"cmd": "compute", "method": "ribbon", "genus": 0, "mu": [2, 2, 1], "nu": [2, 2, 1]},
        {"cmd": "compute", "method": "ribbon", "genus": 1, "mu": [4, 2], "nu": [3, 3]},
        {"cmd": "compute", "method": "ribbon", "genus": 2, "mu": [5], "nu": [5]},
        {"cmd": "compute", "method": "ribbon", "genus": 1, "mu": [4], "nu": [2, 1, 1]},
        {"cmd": "compute", "method": "ribbon", "genus": 1, "mu": [2, 2, 1], "nu": [5]},
        {"cmd": "compute", "method": "ribbon", "genus": 0, "mu": [4, 2], "nu": [2, 2, 1, 1]},
        {"cmd": "compute", "method": "ribbon", "genus": 0, "mu": [5], "nu": [1, 1, 1, 1, 1]},
        {"cmd": "compute", "method": "ribbon", "genus": 0, "mu": [3, 2, 1], "nu": [2, 2, 2]},
        {"cmd": "compute", "method": "ribbon", "genus": 0, "mu": [3, 1, 1], "nu": [2, 2, 1]},
    ],
    "verify": [
        {"cmd": "verify", "max_d": 3, "max_r": 4},
        {"cmd": "verify", "max_d": 5, "max_r": 3},
    ],
    "chambers": [
        {"cmd": "chambers", "genus": 0, "m": 2, "n": 2, "dmax": 14},
    ],
}

# Run after the traced pass of every workload, in one fresh process, so that
# every layer reports on every workload.
PROBE = [
    {"cmd": "verify", "max_d": 3, "max_r": 2},
    {"cmd": "chambers", "genus": 0, "m": 2, "n": 2, "dmax": 6},
]

# Imports every module, chambers included, so their .pyc files exist before timing.
WARMUP = {"cmd": "chambers", "genus": 0, "m": 1, "n": 2, "dmax": 6}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_REPEATS = 5
CASE_TIMEOUT_S = 90.0
RUN_BUDGET_S = 165.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# cases


def _parts(xs) -> str:
    return ",".join(map(str, xs))


def cli_argv(case: dict) -> list:
    """The ``hurwitz`` arguments of one case."""
    cmd = case["cmd"]
    if cmd == "compute":
        return [
            "compute", "--method", case["method"], "--genus", str(case["genus"]),
            "--mu", _parts(case["mu"]), "--nu", _parts(case["nu"]),
        ]
    if cmd == "verify":
        return ["verify", "--max-d", str(case["max_d"]), "--max-r", str(case["max_r"])]
    if cmd == "chambers":
        return [
            "chambers", "--genus", str(case["genus"]), "--m", str(case["m"]),
            "--n", str(case["n"]), "--dmax", str(case["dmax"]),
        ]
    raise ValueError(f"unknown case command {cmd!r}")


def case_id(case: dict) -> str:
    return " ".join(cli_argv(case))


def expected_key(case: dict) -> str:
    """Key of a case in expected.json; part order is not part of it."""
    if case["cmd"] == "compute":
        return "{}:{}:{}".format(
            case["genus"],
            _parts(sorted(case["mu"], reverse=True)),
            _parts(sorted(case["nu"], reverse=True)),
        )
    return case_id(case)


def make_plan(workload: str, seed: int) -> list:
    """The workload's cases in a seed-determined order, with the parts of mu
    and nu shuffled."""
    rng = random.Random(f"{workload}/{seed}")
    plan = []
    for case in rng.sample(WORKLOADS[workload], len(WORKLOADS[workload])):
        case = dict(case)
        for key in ("mu", "nu"):
            if key in case:
                case[key] = rng.sample(case[key], len(case[key]))
        plan.append(case)
    return plan


def _descending_partitions(d: int, cap: int):
    if d == 0:
        yield ()
        return
    for p in range(min(d, cap), 0, -1):
        for rest in _descending_partitions(d - p, p):
            yield (p,) + rest


def sweep(max_d: int, max_r: int) -> list:
    """Parameter sets of ``verify``: (g, mu, nu) with descending parts,
    d <= max_d and 1 <= r <= max_r, as value-table keys."""
    out = []
    for d in range(1, max_d + 1):
        parts = list(_descending_partitions(d, d))
        for mu in parts:
            for nu in parts:
                for g in range(max_r + 1):
                    r = 2 * g - 2 + len(mu) + len(nu)
                    if 1 <= r <= max_r:
                        out.append(f"{g}:{_parts(mu)}:{_parts(nu)}")
    return out


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else a reason


def check_compute(doc: dict, case: dict, expected: dict):
    want = expected["compute"][expected_key(case)]
    got = doc.get("values", {}).get(case["method"])
    if got != want or doc.get("value") != want or doc.get("agree") is not True:
        return f"value {got!r}, expected {want!r}"
    params = doc.get("params", {})
    if (params.get("g"), params.get("mu"), params.get("nu")) != (
        case["genus"], _parts(case["mu"]), _parts(case["nu"])
    ):
        return f"params echoed as {params!r}"
    return None


def check_verify(doc: dict, case: dict, expected: dict):
    keys = sweep(case["max_d"], case["max_r"])
    if doc.get("checked") != len(keys) or doc.get("all_agree") is not True:
        return f"checked {doc.get('checked')!r} of {len(keys)}, all_agree {doc.get('all_agree')!r}"
    results = doc.get("results", [])
    seen = set()
    for res in results:
        p = res.get("params", {})
        key = f"{p.get('g')}:{p.get('mu')}:{p.get('nu')}"
        want = expected["sweep"].get(key)
        values = res.get("values", {})
        if want is None or not {"permutation", "ribbon", "tropical"} <= set(values):
            return f"unexpected result entry {key}"
        if any(v != want for v in values.values()):
            return f"{key}: values {values!r}, expected {want!r}"
        if res.get("agree") is not True or res.get("roundtrip_matched") is not True:
            return f"{key}: agree/roundtrip_matched not true"
        seen.add(key)
    if seen != set(keys) or len(results) != len(keys):
        return "result parameter sets differ from the sweep"
    return None


def check_chambers(doc: dict, case: dict, expected: dict):
    want = {tuple(c["signs"]): c["coefficients"] for c in expected["chambers"][expected_key(case)]}
    got = doc.get("chambers", [])
    if {tuple(c.get("signs", ())) for c in got} != set(want) or len(got) != len(want):
        return f"fitted chambers {[c.get('signs') for c in got]!r}"
    for c in got:
        if c.get("coefficients") != want[tuple(c["signs"])]:
            return f"chamber {c['signs']}: coefficients {c.get('coefficients')!r}"
        if c.get("holdout_passed") is not True or c.get("degree_ok") is not True:
            return f"chamber {c['signs']}: holdout_passed/degree_ok not true"
    return None


CHECKS = {"compute": check_compute, "verify": check_verify, "chambers": check_chambers}


def check_output(stdout: str, case: dict, expected: dict):
    try:
        return CHECKS[case["cmd"]](json.loads(stdout), case, expected)
    except ValueError:
        return "output is not one JSON document"
    except (AttributeError, KeyError, TypeError) as exc:
        return f"output has an unexpected shape: {exc!r}"


def load_expected() -> dict:
    with open(EXPECTED) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# children


@dataclass
class Invocation:
    case: str
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    error: str | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HURWITZ_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(args: list, timeout: float, label: str = "") -> Invocation:
    """Run ``python <args>`` to completion or until ``timeout`` seconds have
    passed (then kill it), and account for it through ``os.wait4``."""
    OUT.mkdir(exist_ok=True)
    argv = [sys.executable, *args]
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            # interrupted before the child was reaped: leave no process behind
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
        out.seek(0)
        stdout = out.read().decode(errors="replace")
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    error = None
    if not ready:
        error = f"timeout after {timeout:.1f} s"
    elif os.waitstatus_to_exitcode(status) != 0:
        error = f"exit {os.waitstatus_to_exitcode(status)}: {stderr.strip()[-300:]}"
    return Invocation(
        label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stdout, error
    )


def run_case(case: dict, expected: dict, timeout: float) -> Invocation:
    inv = spawn(["-m", "hurwitz.cli", *cli_argv(case)], timeout, case_id(case))
    if inv.error is None:
        inv.error = check_output(inv.stdout, case, expected)
    return inv


def _timeout(deadline: float) -> float:
    return min(CASE_TIMEOUT_S, deadline - time.perf_counter())


def run_pass(plan: list, expected: dict, deadline: float) -> list:
    return [run_case(case, expected, _timeout(deadline)) for case in plan]


def preflight(expected: dict, deadline: float) -> None:
    """Untimed warm-up invocation (compiles ``.pyc`` files); it must pass."""
    if not (SRC / "hurwitz" / "cli.py").is_file():
        raise BenchError(f"no hurwitz sources under {SRC}")
    inv = run_case(WARMUP, expected, _timeout(deadline))
    if inv.error:
        raise BenchError(f"warm-up invocation failed: {inv.error}")


def measure_setup(deadline: float, repeats: int) -> list:
    """Wall seconds of a fresh interpreter plus ``import hurwitz.cli``."""
    invs = [spawn(["-c", "import hurwitz.cli"], _timeout(deadline)) for _ in range(repeats)]
    return [inv.wall for inv in invs if inv.error is None]


# ---------------------------------------------------------------------------
# runs


def timed_run(plan: list, expected: dict, seconds: float, deadline: float, setup_walls: list):
    """Passes over the plan until another pass would end after ``seconds``;
    always at least one.  A set-up sample precedes every invocation, so that
    the set-up samples span the run as the invocations do."""
    passes = []
    start = time.perf_counter()
    while True:
        invs = []
        for case in plan:
            setup_walls += measure_setup(deadline, 1)
            invs.append(run_case(case, expected, _timeout(deadline)))
        passes.append(invs)
        elapsed = time.perf_counter() - start
        last = sum(inv.wall for inv in passes[-1])
        if elapsed + last > seconds or time.perf_counter() + last > deadline:
            return passes


def end_to_end_metrics(passes: list, setup_walls: list) -> dict:
    invs = [inv for p in passes for inv in p]
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(sum(inv.wall for inv in p) for p in passes),
        "cpu_s": statistics.median(sum(inv.cpu for inv in p) for p in passes),
        "peak_rss_mb": max(inv.rss_mb for inv in invs),
    }


def per_invocation_note(invs: list) -> str:
    """Per-invocation wall percentiles.  They are printed, not reported as
    metrics: a median of a few invocations of different sizes swings with
    the machine's speed more than a whole pass does."""
    walls = [inv.wall for inv in invs]
    n = len(walls)
    note = f"{'op_s.p50':12s} {statistics.median(walls):12.4f} s   (n = {n}, not a metric); "
    beyond = n - int(0.9 * n)
    if beyond >= 10:
        return note + f"op_s.p90 {statistics.quantiles(walls, n=10)[-1]:.4f} s"
    return note + f"op_s.p90 not given: {beyond} of {n} samples beyond it, 10 needed"


def machine_facts() -> str:
    return f"nproc {os.cpu_count()}, Python {platform.python_version()}, {platform.machine()}"


def run_untraced(workload: str, plan: list, expected: dict, seconds: float, deadline: float):
    preflight(expected, deadline)
    setup_walls = measure_setup(deadline, SETUP_REPEATS)
    if not setup_walls:
        raise BenchError("a fresh interpreter cannot import hurwitz.cli")
    passes = timed_run(plan, expected, seconds, deadline, setup_walls)
    metrics = end_to_end_metrics(passes, setup_walls)
    invs = [inv for p in passes for inv in p]
    failed = [inv for inv in invs if inv.error]
    print(f"workload {workload}: {len(passes)} pass(es) of {len(plan)} invocation(s); {machine_facts()}")
    counts = {
        "setup_s": len(setup_walls), "wall_s": len(passes), "cpu_s": len(passes),
        "peak_rss_mb": len(invs),
    }
    for name, value in metrics.items():
        print(f"  {name:12s} {value:12.4f} {END_TO_END_UNITS[name]:3s} (n = {counts[name]})")
    print(f"  failed_frac  {len(failed) / len(invs):12.4f}     ({len(failed)} of {len(invs)})")
    print(f"  {per_invocation_note(invs)}")
    for inv in failed:
        print(f"  FAILED {inv.case}: {inv.error}")
    details = {
        "workload": workload, "metrics": metrics, "setup_walls": setup_walls,
        "passes": [[_record(inv) for inv in p] for p in passes],
    }
    return metrics, END_TO_END_UNITS, len(invs), len(failed), details


def _record(inv: Invocation) -> dict:
    return {"case": inv.case, "wall": inv.wall, "cpu": inv.cpu, "rss_mb": inv.rss_mb, "error": inv.error}


@dataclass
class TracedChild:
    label: str
    wall: float
    extra_s: float = 0.0
    spans: list = field(default_factory=list)
    error: str | None = None


def extra_seconds(spans: list) -> float:
    """Time in outermost extra spans (the calls a plain CLI run skips)."""
    by_id = {s["id"]: s for s in spans}
    return sum(
        s["end"] - s["start"]
        for s in spans
        if s["extra"] and (s["parent"] is None or not by_id[s["parent"]]["extra"])
    )


def run_traced_child(cases: list, expected: dict, timeout: float, label=None) -> TracedChild:
    """Run the cases in one fresh traced process and check every output."""
    label = label or " | ".join(case_id(c) for c in cases)
    commands = json.dumps([cli_argv(c) for c in cases])
    inv = spawn([str(HERE / "tracer.py"), label, commands], timeout, label)
    child = TracedChild(label, inv.wall, error=inv.error)
    if inv.error:
        return child
    try:
        doc = json.loads(inv.stdout)
    except ValueError:
        child.error = "traced child printed no JSON document"
        return child
    child.spans = doc["spans"]
    child.extra_s = extra_seconds(child.spans)
    for case, out in zip(cases, doc["outputs"]):
        if out["exit"] != 0:
            child.error = f"{case_id(case)}: exit {out['exit']}"
        else:
            child.error = child.error or check_output(out["stdout"], case, expected)
    return child


def run_traced(workload: str, plan: list, expected: dict, deadline: float):
    preflight(expected, deadline)
    untraced = run_pass(plan, expected, deadline)
    traced = [run_traced_child([case], expected, _timeout(deadline)) for case in plan]
    probe = run_traced_child(PROBE, expected, _timeout(deadline), label="probe")
    children = traced + [probe]
    spans = [s for child in children for s in child.spans]
    case_spans = [s for child in traced for s in child.spans]
    untraced_wall = sum(inv.wall for inv in untraced)
    traced_wall = sum(child.wall - child.extra_s for child in traced)
    metrics = tracer.layer_metrics(spans)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.spans"] = len(spans)
    errors = [(inv.case, inv.error) for inv in untraced if inv.error]
    errors += [(child.label, child.error) for child in children if child.error]
    attempted = len(untraced) + len(children)
    print(f"workload {workload} (traced): {len(plan)} case(s) plus probe; {machine_facts()}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {tracer.PER_LAYER_UNITS[name]}")
    print(tracer.share_report(workload, tracer.layer_metrics(case_spans), traced_wall))
    for label, error in errors:
        print(f"  FAILED {label}: {error}")
    details = {
        "workload": workload, "metrics": metrics,
        "untraced": [_record(inv) for inv in untraced],
        "spans": spans,
    }
    return metrics, tracer.PER_LAYER_UNITS, attempted, len(errors), details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        expected = load_expected()
        plan = make_plan(args.workload, args.seed)
        if args.trace:
            result = run_traced(args.workload, plan, expected, deadline)
        else:
            result = run_untraced(args.workload, plan, expected, args.seconds, deadline)
    except (BenchError, OSError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    metrics, units, attempted, failed, details = result
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(details, f)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
