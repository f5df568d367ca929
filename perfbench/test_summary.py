"""How run.py turns a workload process's record into counts and times.

The records here are made up, and the output checks are replaced by stubs,
so these tests need neither the package nor a benchmark run:

    python3 -m pytest -q perfbench/test_summary.py
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 4
BASE_S = 2e-3


def _record(workload, rounds, dt=lambda op: BASE_S * op["calls"], error=lambda op: False):
    """A workload process's record: every op takes dt(op) at reference speed."""
    out = []
    for r in range(rounds):
        ops = workloads.round_ops(workload, SEED, r)
        out.append({
            "cal": [run.CAL_REF_S] * (len(ops) + 1),
            "ops": [{"dt": dt(op), "error": "ValueError: boom"} if error(op)
                    else {"dt": dt(op), "out": []} for op in ops],
        })
    return {"rounds": out}


@pytest.fixture
def no_problems(monkeypatch):
    monkeypatch.setattr(run.checks, "check_round", lambda *a, **k: [])


def _result(ev):
    metrics = {name: {"value": ev["metrics"].get(name, 1.0), "unit": unit}
               for name, unit in run.END_TO_END}
    return run.result_line([ev], metrics)


def test_configs_repeat_every_cycle():
    for workload in workloads.WORKLOADS:
        n = workloads.CYCLE[workload]
        for r in range(n):
            a = [(op["cls"], op["cfg"], op["calls"]) for op in workloads.round_ops(workload, 1, r)]
            b = [(op["cls"], op["cfg"], op["calls"])
                 for op in workloads.round_ops(workload, 2, r + 3 * n)]
            assert a == b


def test_clean_run(no_problems):
    ev = run.evaluate("oracle", SEED, _record("oracle", 20))
    assert ev["failed"] == 0 and ev["attempted"] == 80
    for cls in workloads.CLASSES:
        assert ev["metrics"][f"{cls}_ms"] == pytest.approx(1e3 * BASE_S)
    assert _result(ev)["correct"] is True


def test_class_that_always_raises_is_unmeasured(no_problems):
    ev = run.evaluate("book", SEED, _record("book", 10, error=lambda op: op["cls"] == "call2"))
    assert ev["metrics"]["call2_ms"] is None
    assert ev["metrics"]["call1_ms"] == pytest.approx(1e3 * BASE_S)
    assert ev["failed"] == 20 and len(ev["errors"]) == 20
    result = _result(ev)
    assert result["correct"] is False
    assert result["metrics"]["call2_ms"]["value"] is None


def test_failed_op_counts_once(monkeypatch):
    monkeypatch.setattr(run.checks, "check_round",
                        lambda *a, **k: [(0, "first problem"), (0, "second problem")])
    ev = run.evaluate("inference", SEED, _record("inference", 3))
    assert ev["failed"] == 3 and len(ev["problems"]) == 6
    assert _result(ev)["correct"] is False


def test_slowdown_on_one_tail_index_shows(no_problems):
    """A 10x slower hedge at D*mu = 1.2 is one of five equal strata."""
    slow = lambda op: BASE_S * (10.0 if op["cfg"] == "real_part_1.2" else 1.0)  # noqa: E731
    for rounds in (10, 13, 17):
        ev = run.evaluate("book", SEED, _record("book", rounds, dt=slow))
        assert ev["metrics"]["call2_ms"] == pytest.approx(1e3 * BASE_S * 14.0 / 5.0)


def test_missing_outputs_do_not_break_named_figures():
    record = _record("book", 10, error=lambda op: op["kind"] in ("quote", "hedge"))
    named = run.named_metrics("book", SEED, record)
    assert named["quote_p50_ms"] is None and named["hedge_p50_ms"] is None
    assert named["grid_contracts_per_s"] > 0
