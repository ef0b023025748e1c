"""Tests of the benchmark itself: checker, recorder, generation, report shape.

Run from the repository root with ``PYTHONPATH=src python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import hostclock  # noqa: E402
import run  # noqa: E402
from checks import TAMPER, IncorrectOutput, OutputChecker, self_test  # noqa: E402
from spans import TARGETS, SpanRecorder, op_scope, paused  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Seeds exercised during development, plus one that never was.
SEEDS = (0, 1, 2, 7, 90_417)


def _outcome(truth=None, **outputs) -> Outcome:
    return Outcome(key=0, failed=False, bits=80, wire_bytes=10, outputs=outputs,
                   truth=dict(truth or {}))


# -- checker -----------------------------------------------------------------


VALID = {
    "emd-grid": lambda: _outcome(dict(n=2, side=128, dim=2),
                                 success=True, bob_final=[[1, 2], [3, 4]]),
    "gap-hamming": lambda: _outcome(
        dict(alice=frozenset({(0, 1), (1, 0)}), bob=frozenset({(1, 1)})),
        success=True, transmitted=[[0, 1]], bob_final=[[1, 1], [0, 1]]),
    "gossip-churn": lambda: _outcome(dict(shipped=8, min_bits=80), success=True,
                                     converged=True, matches_cold_rebuild=True,
                                     events_shipped=8),
    "service-lossy": lambda: _outcome(dict(union=5), success=True, union_ok=True, bob_size=5),
}


@pytest.mark.parametrize("workload", sorted(VALID))
def test_checker_accepts_valid_and_self_test_trips(workload):
    OutputChecker(workload).check(VALID[workload]())
    self_test(workload, VALID[workload]())


@pytest.mark.parametrize("workload, edit", [
    (workload, edit) for workload, edits in sorted(TAMPER.items()) for edit in edits
])
def test_checker_rejects_each_broken_promise(workload, edit):
    outcome = VALID[workload]()
    edit(outcome)
    with pytest.raises(IncorrectOutput):
        OutputChecker(workload).check(outcome)


def test_checker_rejects_nondeterminism():
    checker = OutputChecker("gap-hamming")
    checker.check(VALID["gap-hamming"]())
    drifted = VALID["gap-hamming"]()
    drifted.outputs["bob_final"] = [[0, 1], [1, 1]]
    with pytest.raises(IncorrectOutput):
        checker.check(drifted)


def test_failed_op_is_counted_not_fatal():
    outcome = _outcome(dict(union=5), success=False, union_ok=False, bob_size=-1)
    outcome.failed = True
    OutputChecker("service-lossy").check(outcome)
    lost = _outcome(dict(shipped=8, min_bits=80), converged=False,
                    matches_cold_rebuild=False, events_shipped=3)
    lost.failed = True
    OutputChecker("gossip-churn").check(lost)


def test_self_test_notices_a_checker_that_accepts_everything(monkeypatch):
    import checks

    monkeypatch.setattr(checks.OutputChecker, "check", lambda self, outcome: "")
    with pytest.raises(AssertionError):
        self_test("gap-hamming", VALID["gap-hamming"]())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_real_warm_up_passes_the_checker_and_costs_the_same_at_any_seed(name):
    outcomes = []
    for seed in (1, 90_417):
        workload = WORKLOADS[name]()
        workload.setup(seed)
        outcomes.append(workload.warm_up())
    checker = OutputChecker(name)
    for outcome in outcomes:
        checker.check(outcome)  # the same digest at both seeds
    self_test(name, outcomes[0])
    assert not outcomes[0].failed
    assert outcomes[0].stats.get("strata_fallbacks", 0) == 0


# -- recorder ----------------------------------------------------------------


def _bindings() -> dict:
    """Every object a target names, wherever a ``repro`` module binds it."""
    found = {}
    for target in TARGETS:
        module_name, _, cls_name = target.owner.partition(":")
        module = importlib.import_module(module_name)
        if cls_name:
            cls = getattr(module, cls_name)
            found[(cls_name, target.attr)] = cls.__dict__[target.attr]
            continue
        original = getattr(module, target.attr)
        for name, loaded in list(sys.modules.items()):
            if name.startswith("repro") and loaded is not None:
                for attr, value in vars(loaded).items():
                    if value is original:
                        found[(name, attr)] = value
    return found


def test_recorder_wraps_then_restores_every_binding():
    workload = WORKLOADS["gap-hamming"]()
    workload.setup(3)
    workload.call(workload.pool[0])  # import everything an op touches before taking stock
    before = _bindings()
    with SpanRecorder() as recorder:
        assert any(_bindings()[key] is not value for key, value in before.items())
        with op_scope(0):
            workload.call(workload.pool[0])
    after = _bindings()
    assert before.keys() == after.keys()
    for key, value in before.items():
        assert after[key] is value, key
    assert recorder.spans > 0
    assert recorder.self_s["protocol.parse_s"] > 0
    assert recorder.counts["iblt.decodes"] >= 1
    assert recorder.own_s[0] > 0 and None not in recorder.own_s


def test_paused_recorder_records_nothing():
    workload = WORKLOADS["gap-hamming"]()
    workload.setup(3)
    with SpanRecorder() as recorder, paused():
        workload.call(workload.pool[0])
    assert recorder.spans == 0 and not recorder.self_s


def test_recorder_restores_after_a_failed_install():
    before = _bindings()
    broken = SpanRecorder(targets=TARGETS + (TARGETS[0].__class__("repro.core", "nope", "x"),))
    with pytest.raises(AttributeError):
        broken.install()
    after = _bindings()
    for key, value in before.items():
        assert after[key] is value, key


# -- generation --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_generation_succeeds_at_several_seeds(name, seed):
    workload = WORKLOADS[name]()
    workload.setup(seed)
    if hasattr(workload, "pool"):
        assert len(workload.pool) == workload.pool_size


def test_generation_is_seeded():
    first, second, other = (WORKLOADS["gap-hamming"]() for _ in range(3))
    first.setup(4)
    second.setup(4)
    other.setup(5)
    assert [p[0] for p in first.pool] == [p[0] for p in second.pool]
    assert [p[0] for p in first.pool] != [p[0] for p in other.pool]


def test_tail_percentile_leaves_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (value, percentile, beyond) == (90.0, 90, 10)
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75, 10)
    # Below 40 samples the rule would fall under p75: take the maximum.
    assert run.tail([float(i) for i in range(1, 40)]) == (39.0, 100, 0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)


# -- reference clock ---------------------------------------------------------


def test_host_clock_divides_wall_time_by_the_probe_slowdown(monkeypatch):
    now, slowdown = [0.0], [1.0]

    def probe():
        now[0] += slowdown[0] * hostclock.PROBE_REF_S

    monkeypatch.setattr(hostclock, "perf_counter", lambda: now[0])
    monkeypatch.setattr(hostclock, "probe_work", probe)
    clock = hostclock.HostClock()
    clock.mark()
    first = (now[0], now[0] + 1.0)
    now[0] += 1.0
    slowdown[0] = 3.0
    clock.mark()
    second = (now[0], now[0] + 2.0)
    now[0] += 2.0
    clock.mark()
    # Between marks the host runs at their mean slowdown: 2, then 3.
    assert clock.span(*first) == pytest.approx(0.5)
    assert clock.span(*second) == pytest.approx(2.0 / 3.0)
    # Beyond the last mark, at its slowdown; spans add up.
    assert clock.span(second[1], second[1] + 3.0) == pytest.approx(1.0)
    assert clock.span(first[0], second[1]) == pytest.approx(
        clock.span(*first) + clock.span(first[1], second[0]) + clock.span(*second))
    assert clock.slowdown == pytest.approx(3.0)


def test_host_clock_refuses_stamps_before_any_mark():
    with pytest.raises(RuntimeError):
        hostclock.HostClock().span(0.0, 1.0)


# -- the command -------------------------------------------------------------


def _run_main(capsys, *argv) -> "tuple[dict, str]":
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def test_command_prints_every_metric_and_repeats_exactly(capsys, monkeypatch):
    monkeypatch.setattr(WORKLOADS["gap-hamming"], "pool_size", 3)
    args = ("--workload", "gap-hamming", "--seed", "11", "--seconds", "0")
    first, text = _run_main(capsys, *args, "--trace", "0")
    second, text2 = _run_main(capsys, *args, "--trace", "0")
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert first["correct"] and first["attempted"] >= 3
    for metric in BENCHMARK["end_to_end"]:
        entry = first["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
        assert metric["name"] in text
    assert first["metrics"]["bits_per_recon"] == second["metrics"]["bits_per_recon"]

    def digest(report):
        return [line for line in report.splitlines() if "first_pass_digest" in line]

    assert digest(text) == digest(text2) != []

    traced, _ = _run_main(capsys, *args, "--trace", "1")
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert traced["metrics"][metric["name"]]["unit"] == metric["unit"]
    shares = {name: entry["value"] for name, entry in traced["metrics"].items()
              if name.startswith("share.")}
    assert max(shares, key=shares.get) == "share.protocol"


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    result = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "gap-hamming",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
