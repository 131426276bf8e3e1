"""Fast self-test of the benchmark.

    python3 -m pytest perfbench -q

Checks that every declared metric comes out for every workload with its
unit, that traced counts equal hand-derived values on tiny inputs, that
tracing changes no output, and that the checks reject wrong outputs.
"""

import json

import pytest

import run
import tracer
import workloads
from workloads import am, run_cli

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_present_with_unit(workload, trace, monkeypatch, capsys):
    full = workloads.WORKLOADS[workload]
    monkeypatch.setitem(workloads.WORKLOADS, workload, lambda seed, tiny=True: full(seed, tiny=True))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _traced(fn) -> dict:
    with tracer.Tracer() as t:
        fn()
    return tracer.layer_metrics(t.spans)


def test_greek_report_with_fd_check_draws_five_ensembles():
    spec = am.OptionSpec(1.0, 1.0, 1.0, 0.0, 1.0)
    m = _traced(lambda: am.greek_report(spec, am.MCConfig(64, 8, 1), fd_check=True))
    assert m["paths.ensembles"] == 5
    assert m["greeks.reports"] == 1 and m["greeks.ensembles_per_report"] == 5
    # one ensemble at drifts (0, 1), four single-drift batches, one chunk each
    assert m["paths.drift_evals"] == 6
    assert m["paths.normals_drawn"] == 5 * 1024 * 8


def test_cdf_both_methods_draws_two_ensembles():
    m = _traced(lambda: run_cli(["cdf", "--a", "1", "--paths", "64", "--steps", "8"]))
    assert m["paths.ensembles"] == 2
    assert m["estimators.calls"] == 2
    assert m["paths.normals_drawn"] == 2 * 1024 * 8
    assert m["paths.threaded_share"] == 0.0


def test_three_point_sweep_draws_three_ensembles():
    argv = ["sweep", "--quantity", "cdf", "--grid", "a=0.5,1,2", "--paths", "64",
            "--steps", "8", "--threads", "2"]
    m = _traced(lambda: run_cli(argv))
    assert m["paths.ensembles"] == 3
    assert m["bench.ensembles_per_group"] == 3
    assert m["estimators.calls"] == 6


def test_worker_thread_spans_hang_under_the_sweep():
    argv = ["sweep", "--quantity", "cdf", "--grid", "a=1", "--grid", "t=0.5,1",
            "--paths", "64", "--steps", "8", "--threads", "2"]
    with tracer.Tracer() as t:
        run_cli(argv)
    by_id = {s.id: s for s in t.spans}
    ensembles = [s for s in t.spans if s.name == "paths.sample_ensemble"]
    assert len(ensembles) == 2
    assert all(tracer._has_ancestor(s, by_id, "cli.run") for s in ensembles)
    assert tracer.layer_metrics(t.spans)["paths.threaded_share"] == 1.0


def test_tracing_is_transparent_and_restored():
    original = (am.cdf, am.sample_ensemble, workloads.cli.run)
    argv = workloads.sweep_argv(3, tiny=True)
    plain = run_cli(argv)
    with tracer.Tracer() as t:
        assert am.sample_ensemble is not original[1]
        traced = run_cli(argv)
    assert t.spans and traced == plain
    assert (am.cdf, am.sample_ensemble, workloads.cli.run) == original


def test_self_time_subtracts_union_of_children():
    S = tracer.Span
    spans = [S(0, "p", "x", 0.0, None, 0, False, end=10.0),
             S(1, "c", "y", 1.0, 0, 0, True, end=3.0),
             S(2, "c", "y", 2.0, 0, 0, True, end=5.0),
             S(3, "c", "y", 7.0, 0, 0, False, end=8.0)]
    assert tracer.self_times(spans) == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_golden_corpus_covers_every_cli_op():
    corpus = json.loads(run.GOLDEN.read_text())
    assert {w: [e["argv"] for e in entries] for w, entries in corpus.items()} == \
        workloads.golden_argvs()


def test_checks_reject_wrong_outputs():
    rows = run_cli(workloads.greeks_argv(1, 1.0, strike=0.0, rate=0.05, tiny=True)).rows()
    assert workloads.check_zero_strike(rows) == []
    rows[0]["estimate"] = repr(float(rows[0]["estimate"]) * (1 + 1e-9))
    assert workloads.check_zero_strike(rows)

    rows = run_cli(workloads.bias_argv(1, tiny=True)).rows()
    assert workloads.check_bias(rows) == []
    rows[-1]["estimate"] = repr(float(rows[-1]["estimate"]) + 1.0)
    assert workloads.check_bias(rows)

    rows = run_cli(workloads.sweep_argv(1, tiny=True)).rows()
    assert workloads.check_sweep(rows) == []
    naive = [r for r in rows if r["method"] == "naive" and float(r["a"]) == 2.0]
    naive[0]["estimate"] = "-0.5"
    assert workloads.check_sweep(rows)

    op, = workloads.dist_curve_ops(1, tiny=True)
    out = op.call()
    assert op.check(out) == []
    out[("d1", "naive")][3] = out[("d1", "identity")][3]
    assert op.check(out)
