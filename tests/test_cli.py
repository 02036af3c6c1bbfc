import concurrent.futures
import hashlib
import io
import json
import sys
import time

import pytest

from hurwitz import cli


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


def test_compute_all_methods():
    code, out, _ = run_cli(
        ["compute", "--genus", "0", "--mu", "2,1", "--nu", "2,1", "--method", "all"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "4"
    assert doc["agree"] is True
    assert set(doc["values"]) == {"permutation", "ribbon", "tropical"}
    assert "timings_ms" not in doc


def test_compute_single_method():
    code, out, _ = run_cli(
        ["compute", "--genus", "1", "--mu", "2", "--nu", "2", "--method", "tropical"]
    )
    assert code == 0
    assert json.loads(out)["value"] == "1/2"


def test_compute_degree_mismatch_exits_one():
    code, _, err = run_cli(["compute", "--genus", "0", "--mu", "3", "--nu", "2"])
    assert code == 1
    assert "error" in err


def test_compute_nonpositive_part_names_the_rule():
    code, _, err = run_cli(["compute", "--genus", "0", "--mu", "0,2", "--nu", "2"])
    assert code == 1
    assert ">= 1" in err


def test_compute_unparsable_partition_exits_one():
    code, _, err = run_cli(["compute", "--genus", "0", "--mu", "2,,1", "--nu", "3"])
    assert code == 1
    assert "cannot parse partition" in err


def test_compute_r_zero_graph_method_exits_one(monkeypatch):
    # r = 0: rejected before any count, naming the method that answers
    def no_count(params):
        raise AssertionError("counted before rejecting r = 0")

    monkeypatch.setitem(cli.METHODS, "permutation", no_count)
    for method in ("ribbon", "tropical", "all"):
        code, out, err = run_cli(
            ["compute", "--genus", "0", "--mu", "5", "--nu", "5", "--method", method]
        )
        assert code == 1 and out == ""
        assert "--method permutation" in err


def test_ribbon_beyond_max_r_exits_one():
    # r = 6: rejected before any table or permutation work; the listings
    # are refused too, and the message stays true for them
    for argv in (
        ["compute", "--genus", "2", "--mu", "4,2", "--nu", "3,3", "--method", "ribbon"],
        ["compute", "--genus", "2", "--mu", "4,2", "--nu", "3,3", "--method", "all"],
        ["verify", "--max-d", "2", "--max-r", "6"],
        ["enumerate", "--kind", "skeletons", "--m", "2", "--n", "2", "--r", "6"],
        ["roundtrip", "--genus", "2", "--mu", "4,2", "--nu", "3,3"],
    ):
        code, out, err = run_cli(argv)
        assert code == 1 and out == ""
        assert "permutation" in err and "tropical" in err


def test_commands_call_the_methods_and_roundtrip_through_the_module(monkeypatch):
    # compute and verify look METHODS and roundtrip_check up on the module
    # at each call, so replacing them there (as a tracer does) takes effect
    calls = []
    count, roundtrip = cli.METHODS["ribbon"], cli.roundtrip_check

    def fake_count(params):
        calls.append(("ribbon", params.describe()))
        return count(params)

    def fake_roundtrip(params):
        calls.append(("roundtrip", params.describe()))
        return roundtrip(params)

    monkeypatch.setitem(cli.METHODS, "ribbon", fake_count)
    monkeypatch.setattr(cli, "roundtrip_check", fake_roundtrip)
    code, out, _ = run_cli(
        ["compute", "--genus", "0", "--mu", "2,1", "--nu", "2,1", "--method", "ribbon"]
    )
    assert code == 0 and json.loads(out)["value"] == "4"
    assert calls == [("ribbon", json.loads(out)["params"])]
    calls.clear()
    code, out, _ = run_cli(["verify", "--max-d", "2", "--max-r", "2"])
    assert code == 0
    swept = [res["params"] for res in json.loads(out)["results"]]
    assert swept and calls == [
        (kind, p) for p in swept for kind in ("ribbon", "roundtrip")
    ]


def test_compute_timings_flag():
    code, out, _ = run_cli(
        [
            "compute", "--genus", "0", "--mu", "1,1", "--nu", "2",
            "--method", "permutation", "--timings",
        ]
    )
    assert code == 0
    assert "timings_ms" in json.loads(out)


def test_compute_deterministic_output():
    argv = ["compute", "--genus", "0", "--mu", "2,1", "--nu", "2,1"]
    _, out1, _ = run_cli(argv)
    _, out2, _ = run_cli(argv)
    assert out1 == out2


def test_enumerate_monodromy_sets():
    code, out, _ = run_cli(
        ["enumerate", "--kind", "monodromy-sets", "--genus", "1", "--mu", "2", "--nu", "2"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["taus"] == ["(1 2)", "(1 2)"]


def test_enumerate_hrgs():
    code, out, _ = run_cli(
        ["enumerate", "--kind", "hrgs", "--genus", "0", "--mu", "1,1", "--nu", "2"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["aut"] == 1
    assert doc["hrg"]["darts"] == 4


def test_enumerate_skeletons_needs_mnr():
    code, _, err = run_cli(["enumerate", "--kind", "skeletons"])
    assert code == 1
    code, out, _ = run_cli(
        ["enumerate", "--kind", "skeletons", "--m", "1", "--n", "1", "--r", "2"]
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "skeletons", "--m", "0", "--n", "1", "--r", "1"],
        ["--kind", "tropical-graphs", "--m", "-1", "--n", "2", "--r", "2"],
    ],
)
def test_enumerate_graphs_rejects_m_n_below_one(argv):
    code, out, err = run_cli(["enumerate"] + argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_enumerate_monodromy_graphs():
    code, out, _ = run_cli(
        ["enumerate", "--kind", "monodromy-graphs", "--genus", "0", "--mu", "2,1", "--nu", "2,1"]
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_enumerate_dot_format():
    code, out, _ = run_cli(
        ["enumerate", "--kind", "tropical-graphs", "--m", "1", "--n", "1", "--r", "2", "--format", "dot"]
    )
    assert code == 0
    assert out.startswith("digraph")
    code, out, err = run_cli(
        ["enumerate", "--kind", "monodromy-sets", "--genus", "1", "--mu", "2", "--nu", "2", "--format", "dot"]
    )
    assert code == 1 and out == ""
    assert err == "error: monodromy sets have no DOT form\n"


def test_enumerate_deterministic():
    argv = ["enumerate", "--kind", "monodromy-sets", "--genus", "0", "--mu", "2,1", "--nu", "2,1"]
    _, out1, _ = run_cli(argv)
    _, out2, _ = run_cli(argv)
    assert out1 == out2 and len(out1.strip().splitlines()) == 24


# (arguments, lines, sha256) of `enumerate` stdout, taken while each kind
# still had its own branch in cmd_enumerate: the README example of each kind
# in JSON and DOT, and one r = 4 case per graph kind in DOT.
_LISTING_PINS = [
    ("--kind monodromy-sets --genus 1 --mu 2 --nu 2", 1,
     "a7eba07d81f653b0a16f6cc623549f30a172a085c061d32bf1db8996ccd4125f"),
    ("--kind skeletons --m 2 --n 1 --r 1", 1,
     "4744de02f4963e9c3e5c2b6183cdcae53ce7ed1dc3a4baf1e7ca3b70a7220def"),
    ("--kind hrgs --genus 0 --mu 1,1 --nu 2", 1,
     "48cab1d0fd27470330264e5d4811e915ef8dc0f689e260e92f285e4e252588bc"),
    ("--kind tropical-graphs --m 2 --n 2 --r 2", 5,
     "b90023d07cd2b1565772d003385caa06fa508cffe8c265766ca640977e069428"),
    ("--kind monodromy-graphs --genus 0 --mu 2,1 --nu 2,1", 2,
     "1977cd1b1f90f273199f697b6afda2c8d2144f87695dfbf87f9d4e061d375a03"),
    ("--kind skeletons --m 2 --n 1 --r 1 --format dot", 5,
     "4220cb11f93f4804d0562dbde2bb57ef44e5742b0570d2d1844bdc824de92072"),
    ("--kind hrgs --genus 0 --mu 1,1 --nu 2 --format dot", 5,
     "ea31aaf5d9d5f33eece72ca4df52b92b38d90df36b6bb0fc4ac990cf3d1e992d"),
    ("--kind tropical-graphs --m 2 --n 2 --r 2 --format dot", 70,
     "e4b3708eaa653363cd5bc4b652ac4eb86bb2d60753cbf967101228282bebe8b6"),
    ("--kind monodromy-graphs --genus 0 --mu 2,1 --nu 2,1 --format dot", 28,
     "42702c74830695218684a6d5199f008d308047a1e2fb62705e9f550fb90121e1"),
    ("--kind skeletons --m 2 --n 2 --r 4 --format dot", 28056,
     "d78f3065da04b40f7c9de1cc8d3c881a7ef2a40108bd4763baa4bd5a05a9fe72"),
    ("--kind hrgs --genus 1 --mu 2,1 --nu 2,1 --format dot", 560,
     "03c214a5508c90c4ac3e3c30c5eb42dee60644467b2acfba35b235846edfa896"),
    ("--kind tropical-graphs --m 2 --n 2 --r 4 --format dot", 1691,
     "6798625b6e869cdb9cb9fd070435c193c6285877a14f6bf32bc15d2642ed417a"),
    ("--kind monodromy-graphs --genus 1 --mu 2,1 --nu 2,1 --format dot", 152,
     "e4a30dc282f3b7c182ec49ffd40705b96076decae15678f144f5dd755c2e2424"),
]


@pytest.mark.parametrize("args, lines, digest", _LISTING_PINS)
def test_enumerate_output_is_pinned(args, lines, digest):
    code, out, err = run_cli(["enumerate"] + args.split())
    assert code == 0 and err == ""
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_small_sweep():
    code, out, _ = run_cli(["verify", "--max-d", "3", "--max-r", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_agree"] is True
    assert doc["checked"] > 0
    for res in doc["results"]:
        assert res["agree"] and res["roundtrip_matched"]


def test_verify_vacuous_sweep():
    code, out, _ = run_cli(["verify", "--max-d", "1", "--max-r", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["checked"] == 0 and doc["all_agree"] is True


def test_verify_worker_env(monkeypatch):
    monkeypatch.setenv("HURWITZ_THREADS", "2")
    assert cli.worker_count() == 2
    monkeypatch.setenv("HURWITZ_THREADS", "0")
    assert cli.worker_count() >= 1
    monkeypatch.delenv("HURWITZ_THREADS")
    assert cli.worker_count() == 1
    for bad in ("abc", "-1"):
        monkeypatch.setenv("HURWITZ_THREADS", bad)
        code, out, err = run_cli(["verify", "--max-d", "2", "--max-r", "2"])
        assert code == 1 and out == ""
        assert "HURWITZ_THREADS" in err


def test_verify_pool_never_exceeds_the_jobs(monkeypatch):
    """A large HURWITZ_THREADS starts no more workers than there are jobs;
    a recording stand-in for the pool runs the jobs in this process."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for threads, expected in (("64", 5), ("3", 3)):
        monkeypatch.setenv("HURWITZ_THREADS", threads)
        code, out, _ = run_cli(["verify", "--max-d", "2", "--max-r", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["checked"] == 5 and doc["all_agree"] is True
        assert pools.pop() == expected
    assert pools == []


def test_chambers_command():
    code, out, _ = run_cli(
        ["chambers", "--genus", "0", "--m", "2", "--n", "2", "--dmax", "8"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["walls"] == ["mu1=nu1", "mu1=nu2"]
    assert len(doc["chambers"]) == 4 and "skipped" not in doc
    for ch in doc["chambers"]:
        assert ch["holdout_passed"] and ch["degree"] <= 1 and ch["degree_ok"]


def test_chambers_r_zero_family_rejected():
    code, _, err = run_cli(["chambers", "--genus", "0", "--m", "1", "--n", "1"])
    assert code == 1


def test_chambers_genus_one():
    code, out, _ = run_cli(
        ["chambers", "--genus", "1", "--m", "1", "--n", "1", "--dmax", "8"]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["chambers"]) == 1
    assert doc["chambers"][0]["degree"] <= 3


def test_chambers_skipped_exits_one():
    code, out, err = run_cli(
        ["chambers", "--genus", "1", "--m", "2", "--n", "2", "--dmax", "10"]
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["chambers"] == []
    assert [s["signs"] for s in doc["skipped"]] == [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    assert all("50 points for 56 coefficients" in s["reason"] for s in doc["skipped"])
    assert "--dmax" in err


def test_chambers_skips_unfittable_chambers_at_once():
    """A chamber with fewer points than coefficients is skipped before its
    monomials (42,504 here) are listed."""
    start = time.perf_counter()
    code, out, err = run_cli(
        ["chambers", "--genus", "4", "--m", "3", "--n", "3", "--dmax", "10"]
    )
    assert time.perf_counter() - start < 10
    assert code == 1
    doc = json.loads(out)
    assert doc["chambers"] == [] and len(doc["skipped"]) == 18
    assert all("points for 42504 coefficients" in s["reason"] for s in doc["skipped"])
    assert err.startswith("error: 18 of 18 sampled chambers have too few points")


def test_chambers_without_samples_exits_one():
    code, out, err = run_cli(
        ["chambers", "--genus", "0", "--m", "2", "--n", "2", "--dmax", "2"]
    )
    assert code == 1 and out == ""
    assert "--dmax 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--genus", "0", "--m", "0", "--n", "3"],
        ["--genus", "1", "--m", "2", "--n", "0"],
        ["--genus", "-1", "--m", "3", "--n", "3", "--dmax", "9"],
    ],
)
def test_chambers_out_of_range_exits_one(argv):
    code, out, err = run_cli(["chambers"] + argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_roundtrip_command():
    code, out, _ = run_cli(["roundtrip", "--genus", "0", "--mu", "2,1", "--nu", "2,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["matched"] is True
    assert doc["classes_ribbon"] == doc["classes_permutation"] == 4
