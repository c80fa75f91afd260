"""Tests of the benchmark itself: tiny workloads, metric names, failure detection.

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import clock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "sweep": lambda: workloads.sweep(trials=6),
    "nae_threshold": lambda: workloads.nae_threshold(sizes=(20, 30), seeds=2),
    "reduce_large": lambda: workloads.reduce_large(n=60, m=90),
    "cut_ladder": lambda: workloads.cut_ladder(sizes=(4, 8), seeds=2),
}


def measure(workload, tmp_path, trace=False, reference=None, seconds=0.0):
    return run.measure(workload, 0, seconds, trace, reference or {}, tmp_path)


def records(tmp_path, name):
    path = tmp_path / f"{name}-seed0-trace0.instances.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_reports_every_metric_with_its_unit(name, trace, tmp_path, capsys):
    result = measure(TINY[name](), tmp_path, trace)
    line = run.report(result, SPEC, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    printed = capsys.readouterr().out
    for m in wanted:
        assert f"metric {m['name']} " in printed
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_traced_run_attributes_time_to_layers(tmp_path):
    sweep = measure(TINY["sweep"](), tmp_path, trace=True)["metrics"]
    assert sweep["solvers.brute_force_cut.calls"] == 6
    assert sweep["solvers.brute_force_nae.input_formula.busy_s"] > 0
    assert sweep["solvers.brute_force_nae.extracted.busy_s"] > 0
    assert 0 < sweep["solvers.self_share"] <= 1
    large = measure(TINY["reduce_large"](), tmp_path, trace=True)["metrics"]
    assert not any(k.startswith("solvers.brute_force") for k in large)
    assert large["cli.verify_cut.self_s"] > 0 and large["reduction.map_io.busy_s"] > 0
    assert large["reduction.build_graph.vertices"] > 0


@pytest.mark.parametrize("name, oracle", [("nae_threshold", "brute_force_nae"), ("cut_ladder", "brute_force_cut")])
def test_wrong_witness_is_a_failure(name, oracle, tmp_path, monkeypatch):
    nc, _ = run.load_naecut()
    real = getattr(nc, oracle)

    def wrong(obj, budget=None):
        found = real(obj, budget)
        if found is None:
            return None
        if oracle == "brute_force_nae":
            return {x: False for x in found}
        return nc.Cut(frozenset({1}), frozenset(range(2, obj.num_vertices + 1)))

    monkeypatch.setattr(nc, oracle, wrong)
    result = measure(TINY[name](), tmp_path)
    assert result["failed"] >= 1
    assert not run.report(result, SPEC, False)["correct"]


def test_digest_mismatch_is_a_failure(tmp_path):
    first = measure(TINY["sweep"](), tmp_path)
    assert first["failed"] == 0
    reference = dict(first["digests"], t3="0" * 16)
    again = measure(TINY["sweep"](), tmp_path, reference=reference)
    assert again["failed"] == 1


def test_reduce_large_accepts_valid_and_rejects_corrupted_certificates(tmp_path):
    assert measure(TINY["reduce_large"](), tmp_path)["failed"] == 0
    verdicts = {r["id"]: r["outcome"] for r in records(tmp_path, "reduce_large")}
    assert verdicts.pop("reject_cut") == verdicts.pop("reject_assignment") == "unsat"
    assert set(verdicts.values()) == {"sat"}


def test_timeout_ends_the_climb_and_is_not_a_failure(tmp_path):
    result = measure(workloads.cut_ladder(sizes=(4, 8, 16), seeds=2, limit_s=1e-4), tmp_path)
    assert result["failed"] == 0
    assert result["metrics"]["decided_share"] == 0
    recs = records(tmp_path, "cut_ladder")
    assert [r["outcome"] for r in recs] == ["timeout"] * 6
    assert sum(1 for r in recs if r.get("skipped")) == 4


def test_later_passes_carry_the_climbs_timeout_over(tmp_path):
    result = measure(workloads.cut_ladder(sizes=(4, 8, 16), seeds=1, limit_s=0.3), tmp_path, seconds=1.0)
    assert result["failed"] == 0
    recs = records(tmp_path, "cut_ladder")
    top = [r for r in recs if r["id"] == "n16-s0"]
    assert len(top) >= 2 and top[0]["outcome"] == "timeout" and "carried" not in top[0]
    assert all(r == dict(top[0], carried=True) for r in top[1:])
    assert sum(1 for r in recs if r["id"] == "n8-s0" and r["outcome"] == "sat") == len(top)
    assert result["metrics"]["wall_s"] >= 0.3


def test_alarm_is_cleared_after_each_instance():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        with pytest.raises(run.InstanceTimeout):
            run.run_limited(lambda: time.sleep(1), 0.05)
        assert run.run_limited(lambda: 7, 0.1) == 7
        time.sleep(0.3)  # an alarm left armed would fire here
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_sweep_corpus_is_the_roundtrip_corpus():
    _, cli = run.load_naecut()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["roundtrip", "--seed", "402280", "-n", "14", "-m", "20", "--trials", "8"]) == 0
    drawn = []
    for line in out.getvalue().splitlines()[:-1]:
        words = line.split()
        drawn.append((int(words[5]), int(words[7]), int(words[3])))
    assert drawn == workloads.sweep_corpus(402280, 8, 14, 20)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(x) for x in range(1, 201)]) == (95.0, 190.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


def test_fails_without_naecut_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""



def test_speed_clock_samples_only_around_the_interval():
    speed = clock.SpeedClock()
    mark = speed.mark()
    before = len(speed.samples)
    sum(range(200_000))
    assert len(speed.samples) == before == clock.SAMPLES
    factor = speed.scale(mark)
    assert len(speed.samples) == 2 * clock.SAMPLES
    assert factor == (clock.KERNEL_REF_S / statistics.median(speed.samples)) ** clock.SENSITIVITY
    assert clock.kernel() == 4
