"""Tests of the benchmark itself: request generation, output checks, failure
handling and the tracer's self-time arithmetic.

    python3 -m pytest bench/tests -q
"""

import copy
import itertools
import json
import types

import pytest

import calibration
import checks
import run
import workloads
from tracer import LayerStats, Tracer, self_times


def first(workload, seed, count=60):
    return list(itertools.islice(workloads.requests(workload, seed), count))


def cli_output(argv):
    cli = run.import_program()
    request = workloads.Request(0, tuple(argv), {})
    outcome = run.execute(cli, request, sweep_dir=None)
    assert outcome.cause is None
    return outcome.stdout


# -- request generation ------------------------------------------------------------


@pytest.mark.parametrize("workload", list(workloads.BLOCKS))
def test_same_seed_gives_same_requests(workload):
    a, b = first(workload, 7), first(workload, 7)
    assert [(r.argv, r.params, r.sweep_text) for r in a] == [(r.argv, r.params, r.sweep_text) for r in b]


@pytest.mark.parametrize("workload", list(workloads.BLOCKS))
def test_other_seed_gives_other_requests(workload):
    a, b = first(workload, 7), first(workload, 8)
    assert [(r.argv, r.sweep_text) for r in a] != [(r.argv, r.sweep_text) for r in b]


def test_correlate_requests_stay_in_their_ranges():
    for r in first("correlate", 3, 200):
        n, m = r.params["n"], r.params["m"]
        xs = [x for x, _ in r.params["sites"]]
        assert 12 <= n <= 30 and 12 <= m <= 30
        assert 1 <= len(xs) <= 4 and xs == sorted(set(xs)) and 1 <= xs[0] and xs[-1] <= n + m


# -- output checks -------------------------------------------------------------------


CORRELATE_FLOAT = ["correlate", "--n", "3", "--m", "2", "--sites", "2:down,4:up", "--eval", "0.5", "--float"]
CORRELATE_EXACT = ["correlate", "--n", "3", "--m", "2", "--sites", "2:down,4:up"]


def correlate_params(mode, q):
    return {"n": 3, "m": 2, "sites": [(2, "down"), (4, "up")], "mode": mode, "q": q}


def test_checker_accepts_correct_outputs():
    exact = json.loads(cli_output(CORRELATE_EXACT))
    floats = json.loads(cli_output(CORRELATE_FLOAT))
    assert checks.check_correlate(correlate_params("grid", None), exact) == []
    assert checks.check_correlate(correlate_params("float", "1/2"), floats) == []
    partition = json.loads(cli_output(["partition", "--n", "4", "--m", "3"]))
    assert checks.check_partition({"n": 4, "m": 3}, partition) == []


def test_checker_rejects_a_changed_coefficient():
    env = json.loads(cli_output(CORRELATE_EXACT))
    env["result"]["probability"]["num"][1][1] = str(int(env["result"]["probability"]["num"][1][1]) + 1)
    assert checks.check_correlate(correlate_params("grid", None), env)

    partition = json.loads(cli_output(["partition", "--n", "4", "--m", "3"]))
    # Moving one unit between coefficients keeps the coefficient sum; the
    # modular closed-form check still sees it.
    poly = partition["result"]["polynomial"]
    poly[1][1] = str(int(poly[1][1]) + 1)
    poly[2][1] = str(int(poly[2][1]) - 1)
    assert checks.check_partition({"n": 4, "m": 3}, partition) == [
        "partition: polynomial differs from the closed product form"
    ]


def test_checker_rejects_a_float_outside_the_tolerance():
    env = json.loads(cli_output(CORRELATE_FLOAT))
    inside = copy.deepcopy(env)
    inside["result"]["checks"][0]["probability"] *= 1 + 1e-12
    assert checks.check_correlate(correlate_params("float", "1/2"), inside) == []
    env["result"]["checks"][0]["probability"] *= 1 + 1e-6
    assert "correlate: float probability is inaccurate" in checks.check_correlate(
        correlate_params("float", "1/2"), env
    )


def test_reference_comparison_is_exact_for_exact_fields_and_tolerant_for_floats():
    stdout = cli_output(CORRELATE_FLOAT)
    reference = {"ok": True, **checks.digest(stdout)}
    assert checks.compare_reference(reference, stdout) == []

    env = json.loads(stdout)
    env["result"]["checks"][0]["probability_float"] *= 1 + 1e-12
    assert checks.compare_reference(reference, json.dumps(env, indent=2)) == []
    env["result"]["checks"][0]["probability_float"] *= 1 + 1e-6
    assert checks.compare_reference(reference, json.dumps(env, indent=2)) == [
        "reference: float fields differ from the recorded output"
    ]
    env = json.loads(stdout)
    env["result"]["probability"]["num"][0][1] = "2"
    assert checks.compare_reference(reference, json.dumps(env, indent=2)) == [
        "reference: exact fields differ from the recorded output"
    ]


# -- failures --------------------------------------------------------------------------


def test_uncaught_exception_is_a_failure_and_the_run_goes_on():
    def main(argv):
        if argv[0] == "boom":
            raise ZeroDivisionError("denominator vanishes")
        print(json.dumps({"command": "verify", "result": {"passed": True, "records": [1]}}, indent=2))
        return 0

    fake_cli = types.SimpleNamespace(main=main)
    requests = [
        workloads.Request(0, ("boom",), {}),
        workloads.Request(1, ("verify", "bounds"), {"suite": "bounds"}),
    ]
    outcomes = [run.check(run.execute(fake_cli, r, sweep_dir=None), r, None) for r in requests]
    assert outcomes[0].cause.startswith("ZeroDivisionError at test_bench.py")
    assert outcomes[1].cause is None
    meta = run.metadata("correlate", 1, outcomes)
    assert (meta["attempted"], meta["failed"]) == (2, 1)
    assert meta["failures"][0]["origin"] == run.UNATTRIBUTED
    assert not run.is_correct(outcomes)


def test_nonzero_exit_and_failed_check_are_failures():
    fake_cli = types.SimpleNamespace(main=lambda argv: 2)
    request = workloads.Request(0, ("verify", "bounds"), {"suite": "bounds"})
    outcome = run.check(run.execute(fake_cli, request, sweep_dir=None), request, None)
    assert (outcome.cause, outcome.origin) == ("exit 2: ", run.UNATTRIBUTED)
    assert not run.is_correct([outcome])

    def failing_report(argv):
        print(json.dumps({"command": "verify", "result": {"passed": False, "records": [1]}}, indent=2))
        return 0

    fake_cli = types.SimpleNamespace(main=failing_report)
    outcome = run.check(run.execute(fake_cli, request, sweep_dir=None), request, None)
    assert outcome.cause == "check: verify: report did not pass"
    assert outcome.stdout is None
    assert not run.is_correct([outcome])


def test_only_the_recorded_float_underflow_is_a_known_failure():
    # At q = 1/3 and n = 26, q^(n(n+1)) underflows and the denominator is 0.
    argv = ["correlate", "--n", "26", "--m", "12", "--sites", "3:down", "--eval", "0.3333333333333333", "--float"]
    params = {"n": 26, "m": 12, "sites": [(3, "down")], "mode": "float", "q": "1/3"}
    request = workloads.Request(0, tuple(argv), params)
    outcome = run.check(run.execute(run.import_program(), request, sweep_dir=None), request, None)
    assert outcome.cause == "ZeroDivisionError at qpoly.py:246 in evaluate"
    assert outcome.origin.startswith("ROADMAP item 4")
    assert run.is_correct([outcome])

    # The same cause on an exact request, or another cause on a float one, is not known.
    exact = workloads.Request(0, tuple(argv[:6]), {**params, "mode": "grid", "q": None})
    assert run.attribute(exact, outcome.cause) == run.UNATTRIBUTED
    assert run.attribute(request, "ZeroDivisionError at qpoly.py:173 in divexact") == run.UNATTRIBUTED


# -- tracing ---------------------------------------------------------------------------


def span(sid, parent, name, t0, t1):
    return (sid, parent, name, t0, t1, None, 0)


def test_self_times_on_a_synthetic_tree():
    spans = [
        span(1, None, "bench.request", 0.0, 10.0),
        span(2, 1, "cli.main", 1.0, 9.0),
        span(3, 2, "correlations.multipoint_prob", 2.0, 5.0),
        span(4, 3, "qpoly.QPoly.__mul__", 2.5, 3.0),
        span(5, 3, "qpoly.QPoly.__add__", 3.0, 3.25),
        span(6, 2, "qpoly.QPoly.evaluate:exact", 6.0, 8.0),
    ]
    selfs, overlap = self_times(spans)
    assert selfs == {1: 2.0, 2: 3.0, 3: 2.25, 4: 0.5, 5: 0.25, 6: 2.0}
    assert overlap == 0.0
    assert sum(selfs.values()) == 10.0

    stats = LayerStats()
    stats.add_request(spans, caches=[], stdout_bytes=0)
    m = stats.metrics(max_coeff_bits=0)
    assert m["trace.residual_s"] == 2.0
    assert m["cli.self_s"] == 3.0
    assert m["correlations.self_s"] == 2.25
    assert m["qpoly.self_s"] == 2.75
    assert m["qpoly.mul.calls"] == 1 and m["qpoly.mul.self_s"] == 0.5
    assert m["trace.identity_error_s"] == 0.0


def test_self_times_count_overlapping_children_once():
    spans = [
        span(1, None, "bench.request", 0.0, 10.0),
        span(2, 1, "cli.json.dumps", 1.0, 4.0),
        span(3, 1, "cli.json.dumps", 3.0, 6.0),
    ]
    selfs, overlap = self_times(spans)
    assert selfs[1] == 5.0 and overlap == 1.0
    assert sum(selfs.values()) - overlap == 10.0


def test_traced_request_self_times_add_up_and_install_is_undone():
    cli = run.import_program()
    original = cli.multipoint_prob
    tracer = Tracer()
    request = workloads.Request(0, tuple(CORRELATE_EXACT), correlate_params("grid", None))
    tracer.install()
    try:
        outcome = run.execute(cli, request, sweep_dir=None, tracer=tracer)
    finally:
        tracer.uninstall()
    assert cli.multipoint_prob is original
    assert run.check(outcome, request, None).cause is None
    spans, caches = tracer.take()
    names = {s[2] for s in spans}
    assert {"bench.request", "cli.main", "correlations.multipoint_prob", "qpoly.QPoly.__mul__"} <= names
    root = next(s for s in spans if s[1] is None)
    selfs, overlap = self_times(spans)
    assert sum(selfs.values()) - overlap == pytest.approx(root[4] - root[3], abs=1e-9)
    assert len(caches) == 1 and caches[0].misses > 0


def test_declared_per_layer_metrics_are_the_ones_reported():
    reported = set(LayerStats().metrics(max_coeff_bits=0))
    reported |= {"trace.throughput_rps", "trace.untraced_throughput_rps", "trace.overhead"}
    assert set(run.declared_units("per_layer")) == reported


# -- calibration -------------------------------------------------------------------------


def test_calibration_scales_by_the_neighbouring_median():
    assert calibration.factors([2e-3] * 5) == [0.5] * 5
    # One slow outlier among its neighbours does not move the scale.
    samples = [1e-3] * 10 + [9e-3] + [1e-3] * 10
    assert calibration.factors(samples) == [1.0] * 21
