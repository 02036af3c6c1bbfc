"""Rebuild ``expected.json``, the exact values the benchmark checks.

Usage (from the repository root; takes about a minute):

    python3 perfbench/make_expected.py

Every value is computed by the pipeline the workload times and confirmed by a
second, independent one before it is written: ``perm`` values and the
``verify`` sweep by the tropical count, ``ribbon`` values by the permutation
count, and every chamber polynomial by tropical counts at the in-chamber
points with d <= 9.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))

from hurwitz import hurwitz_params  # noqa: E402
from hurwitz.chambers import chamber_of, degree_check, fit_all_chambers, walls  # noqa: E402
from hurwitz.core import OnWall, Partition, format_rational  # noqa: E402
from hurwitz.permutation import count_hurwitz_permutation  # noqa: E402
from hurwitz.ribbon import count_hurwitz_ribbon  # noqa: E402
from hurwitz.tropical import count_hurwitz_tropical  # noqa: E402

METHODS = {"permutation": count_hurwitz_permutation, "ribbon": count_hurwitz_ribbon}
SECOND = {"permutation": count_hurwitz_tropical, "ribbon": count_hurwitz_permutation}
CHECK_DMAX = 9


def confirmed(first, second, params) -> str:
    a, b = first(params), second(params)
    if a != b:
        raise SystemExit(f"pipelines disagree at {params.describe()}: {a} != {b}")
    return format_rational(a)


def compute_table() -> dict:
    table = {}
    for case in run.WORKLOADS["perm"] + run.WORKLOADS["ribbon"]:
        params = hurwitz_params(case["genus"], Partition(case["mu"]), Partition(case["nu"]))
        method = case["method"]
        table[run.expected_key(case)] = confirmed(METHODS[method], SECOND[method], params)
    return table


def sweep_table() -> dict:
    cases = [c for c in run.WORKLOADS["verify"] + run.PROBE if c["cmd"] == "verify"]
    keys = sorted({k for c in cases for k in run.sweep(c["max_d"], c["max_r"])})
    table = {}
    for key in keys:
        g, mu, nu = key.split(":")
        params = hurwitz_params(int(g), Partition.parse(mu), Partition.parse(nu))
        table[key] = confirmed(count_hurwitz_permutation, count_hurwitz_tropical, params)
    return table


def confirm_chamber(cp, wall_list) -> None:
    """The polynomial equals the tropical count at every in-chamber point."""
    for d in range(max(cp.m, cp.n), CHECK_DMAX + 1):
        for mu in itertools.product(range(1, d + 1), repeat=cp.m):
            for nu in itertools.product(range(1, d + 1), repeat=cp.n):
                if sum(mu) != d or sum(nu) != d:
                    continue
                try:
                    if chamber_of(Partition(mu), Partition(nu), wall_list) != cp.signs:
                        continue
                except OnWall:
                    continue
                params = hurwitz_params(cp.g, Partition(mu), Partition(nu))
                if cp.evaluate(mu, nu) != count_hurwitz_tropical(params):
                    raise SystemExit(f"chamber {cp.signs} wrong at mu={mu}, nu={nu}")


def chambers_table() -> dict:
    cases = [c for c in run.WORKLOADS["chambers"] + run.PROBE + [run.WARMUP] if c["cmd"] == "chambers"]
    table = {}
    for case in cases:
        g, m, n = case["genus"], case["m"], case["n"]
        fits = fit_all_chambers(g, m, n, dmax=case["dmax"])
        for cp in fits:
            if not (cp.holdout_passed and degree_check(cp)):
                raise SystemExit(f"chamber {cp.signs} of {run.case_id(case)} fails its own checks")
            confirm_chamber(cp, walls(m, n))
        table[run.expected_key(case)] = [
            {"signs": list(cp.signs), "coefficients": cp.describe()["coefficients"]} for cp in fits
        ]
    return table


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    doc = {
        "made_with": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_rev": git_rev(),
        },
        "compute": compute_table(),
        "sweep": sweep_table(),
        "chambers": chambers_table(),
    }
    with open(run.EXPECTED, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
