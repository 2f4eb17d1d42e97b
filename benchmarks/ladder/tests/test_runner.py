"""run.py: folding child results into metrics, the rep protocol, and the
builder's driver contract (with fake children: no program is run)."""

import json
import time

import pytest

from ladder import child, run, spec


def _rep(seed, wall, **extra):
    rep = {
        "seed": seed, "wall_s": wall, "steps": 20000, "updates": None,
        "bytes": 1099200, "messages": 400, "rounds": 100,
        "bytes_per_transfer": 2748.0, "reward": 0.5, "violation": 0.07,
        "model_p95_s": None, "checksum": "aa",
    }
    rep.update(extra)
    return rep


def _child(reps, attempted=None, failed=0, failures=(), setup_s=3.8, rss=56.0):
    return {
        "reps": reps,
        "attempted": attempted if attempted is not None else len(reps) + 1,
        "failed": failed,
        "failures": list(failures),
        "setup_s": setup_s,
        "peak_rss_mib": rss,
    }


def test_timing_is_reported_as_median_min_max_n():
    walls = [3.0, 3.4, 3.1, 3.2, 3.3, 9.0, 3.2]
    entry = run.aggregate(
        "paper_2dev", [_child([_rep(2025 + i, w) for i, w in enumerate(walls)])]
    )
    assert entry["timing"]["run_wall_s"] == {"median": 3.2, "min": 3.0, "max": 9.0, "n": 7}
    assert entry["metrics"]["run_wall_s"] == 3.2
    assert entry["metrics"]["ops_per_s"] == pytest.approx(20000 / 3.2)
    assert entry["samples"]["seeds"] == list(range(2025, 2032))
    assert entry["metrics"]["failed_ops_share"] == 0.0


def test_paper_workload_reads_the_papers_bytes():
    entry = run.aggregate("paper_2dev", [_child([_rep(1, 3.0), _rep(2, 3.1)])])
    assert entry["metrics"]["comm_bytes_per_round"] == 10992
    assert entry["metrics"]["bytes_per_transfer"] == 2748
    assert entry["metrics"]["model_time_to_version_p95_s"] is None


def test_quality_metrics_are_means_over_seeds():
    reps = [_rep(1, 3.0, reward=0.4, violation=0.06), _rep(2, 3.0, reward=0.6, violation=0.08)]
    entry = run.aggregate("paper_2dev", [_child(reps)])
    assert entry["metrics"]["eval_reward_mean"] == pytest.approx(0.5)
    assert entry["metrics"]["power_violation_rate"] == pytest.approx(0.07)
    assert entry["samples"]["eval_reward_mean"] == [0.4, 0.6]


def _agg_rep(seed, wall):
    return _rep(seed, wall, steps=None, updates=20000, reward=None, violation=None,
                bytes=104118000, rounds=1, bytes_per_transfer=5180)


def test_aggregation_workload_counts_folded_updates_as_its_ops():
    entry = run.aggregate("agg_10k", [_child([_agg_rep(1, 4.0)])])
    assert entry["metrics"]["ops_per_s"] == pytest.approx(5000.0)
    assert entry["metrics"]["eval_reward_mean"] is None
    assert entry["metrics"]["comm_bytes_per_round"] == 104118000


def test_async_workload_reports_the_modelled_p95():
    reps = [_rep(1, 3.0, model_p95_s=172.0), _rep(2, 3.0, model_p95_s=172.0)]
    entry = run.aggregate("async_degraded_8", [_child(reps)])
    assert entry["metrics"]["model_time_to_version_p95_s"] == 172.0


def test_failed_reps_raise_failed_ops_share_and_keep_their_reasons():
    child = _child(
        [_rep(1, 3.0)], attempted=4, failed=2,
        failures=["rep 1 seed 2: raised RuntimeError: boom", "rep 0 seed 1: checksum"],
    )
    entry = run.aggregate("paper_2dev", [child])
    assert entry["metrics"]["failed_ops_share"] == 0.5
    assert (entry["attempted"], entry["failed"]) == (4, 2)
    assert len(entry["failures"]) == 2


def test_every_rep_failing_leaves_timings_null_not_a_crash():
    entry = run.aggregate("paper_2dev", [_child([], attempted=3, failed=3)])
    assert entry["metrics"]["failed_ops_share"] == 1.0
    assert entry["metrics"]["run_wall_s"] is None
    assert entry["metrics"]["setup_s"] == 3.8


def test_several_children_give_setup_and_memory_a_median():
    children = [
        _child([_rep(1, 3.0)], setup_s=3.6, rss=55.0),
        _child([_rep(101, 3.2)], setup_s=4.4, rss=57.0),
        _child([_rep(201, 3.1)], setup_s=3.8, rss=56.0),
    ]
    entry = run.aggregate("paper_2dev", children)
    assert entry["metrics"]["setup_s"] == 3.8
    assert entry["metrics"]["peak_rss_mib"] == 56.0
    assert entry["metrics"]["run_wall_s"] == 3.1
    assert entry["attempted"] == 6


def test_every_declared_metric_is_printed_by_name_with_its_unit(capsys):
    entry = run.aggregate("paper_2dev", [_child([_rep(1, 3.0)])])
    run.print_workload("paper_2dev", entry)
    printed = capsys.readouterr().out
    for metric in spec.END_TO_END:
        assert f"  {metric.name} " in printed
    assert "null s" in printed  # model_time_to_version_p95_s does not apply here
    assert "[median of n=1" in printed


# -- the rep protocol (child.run_reps) -----------------------------------
def _fake_rep(duration=0.0, checksums=None, fail_on=()):
    calls = []

    def rep(seed):
        calls.append(seed)
        if seed in fail_on:
            raise RuntimeError("boom")
        time.sleep(duration)
        checksum = checksums.pop(0) if checksums else "aa"
        return {"seed": seed, "wall_s": duration, "checksum": checksum, "problems": []}

    return rep, calls


def test_reps_are_a_warm_up_then_consecutive_seeds():
    rep, calls = _fake_rep()
    result = child.run_reps(rep, 2025, time.time(), reps=3)
    assert calls == [2025, 2025, 2026, 2027]
    assert [r["seed"] for r in result["reps"]] == [2025, 2026, 2027]
    assert (result["attempted"], result["failed"]) == (4, 0)
    assert result["setup_s"] >= 0 and result["peak_rss_mib"] > 0


def test_seconds_add_reps_beyond_the_minimum_but_never_cut_it():
    rep, calls = _fake_rep(duration=0.02)
    short = child.run_reps(rep, 1, time.time(), reps=3, seconds=0.001)
    assert len(short["reps"]) == 3
    rep, calls = _fake_rep(duration=0.02)
    long = child.run_reps(rep, 1, time.time(), reps=1, seconds=0.2)
    assert 5 <= len(long["reps"]) <= 11


def test_a_raising_rep_and_a_checksum_mismatch_each_count_as_failed():
    rep, _ = _fake_rep(fail_on=(3,))
    raised = child.run_reps(rep, 1, time.time(), reps=4)
    assert (raised["attempted"], raised["failed"]) == (5, 1)
    assert [r["seed"] for r in raised["reps"]] == [1, 2, 4]
    rep, _ = _fake_rep(checksums=["aa", "bb", "cc"])
    mismatch = child.run_reps(rep, 1, time.time(), reps=2)
    assert mismatch["failed"] == 1 and "differs" in mismatch["failures"][0]


# -- the builder's driver contract (run.driver_run) ----------------------
def _fake_children(monkeypatch, make_rep, walls=(3.0, 3.2, 3.1)):
    """Replace child interpreters: each ``rep`` child returns the reps it
    was asked for, at least one, with seeds from its own block. Returns
    the list the (mode, options) of every child started are appended to."""
    started = []

    def fake_run_child(arguments, timeout=None):
        options = dict(zip(arguments[1::2], arguments[2::2]))
        started.append((arguments[0], options))
        if arguments[0] == "rep":
            seed, reps = int(options["--seed"]), max(1, int(options["--reps"]))
            return _child(
                [make_rep(seed + i, walls[i % len(walls)]) for i in range(reps)],
                setup_s=3.5 + 0.5 * len(started),
            )
        if arguments[0] == "trace":
            return {
                "metrics": {name: 0.5 for name in spec.layer_names(kind="trace")},
                "fidelity_failures": [],
            }
        wanted = spec.layer_names(kind="probe", driver_only="--driver-only" in arguments)
        return {"metrics": {name: 2.0 for name in wanted}, "errors": []}

    monkeypatch.setattr(run, "run_child", fake_run_child)
    return started


def _last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _landed_rep(workload, scale=1.0):
    reward, _ = spec.LANDED_QUALITY[workload]["eval_reward_mean"]
    violation, _ = spec.LANDED_QUALITY[workload]["power_violation_rate"]
    return lambda seed, wall: _rep(seed, wall, reward=scale * reward, violation=violation)


def test_driver_run_prints_every_driver_metric_of_a_training_workload(
    monkeypatch, capsys
):
    started = _fake_children(monkeypatch, _landed_rep("paper_2dev"))
    result = run.driver_run("paper_2dev", 2025, 10.0, trace=False)
    line = _last_line(capsys)
    assert line == result
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m.name for m in spec.driver_end_to_end()]
    assert line["correct"] is True and line["failed"] == 0
    # Two children with seed blocks 100 apart share the five reps owed, 3 + 2.
    assert [(o["--seed"], o["--reps"]) for _, o in started] == [("2025", "3"), ("2125", "2")]
    assert all(float(o["--seconds"]) == 5.0 for _, o in started)
    assert line["attempted"] == 7  # five timed reps and two warm-ups
    metrics = {name: entry["value"] for name, entry in line["metrics"].items()}
    assert metrics["run_wall_s"] == 3.1  # median of 3.0 3.2 3.1 3.0 3.2
    assert metrics["ops_per_s"] == pytest.approx(20000 / 3.1)
    assert metrics["setup_s"] == pytest.approx(4.25)  # median of the two children
    assert metrics["bytes_per_transfer"] == 2748
    assert line["metrics"]["ops_per_s"]["unit"] == "1/s"
    assert all(value for value in metrics.values())  # never null, never 0


def test_driver_run_on_the_aggregation_workload_needs_no_quality(monkeypatch, capsys):
    _fake_children(monkeypatch, _agg_rep)
    run.driver_run("agg_10k", 7, 10.0, trace=False)
    line = _last_line(capsys)
    assert line["correct"] is True
    assert line["metrics"]["ops_per_s"]["value"] == pytest.approx(20000 / 3.1)
    assert line["metrics"]["comm_bytes_per_round"]["value"] == 104118000


@pytest.mark.parametrize("workload", ["paper_2dev", "hardened_sync_8", "async_degraded_8"])
def test_a_run_at_four_fifths_of_the_landed_reward_is_not_correct(
    workload, monkeypatch, capsys
):
    _fake_children(monkeypatch, _landed_rep(workload, scale=0.8))
    run.driver_run(workload, 2025, 10.0, trace=False)
    captured = capsys.readouterr()
    line = json.loads(captured.out.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == 0  # every rep ran; it is the policy that is off
    assert "eval_reward_mean" in captured.err


def test_a_failed_rep_makes_the_driver_run_incorrect(monkeypatch, capsys):
    _fake_children(monkeypatch, _landed_rep("paper_2dev"))
    real = run.run_child

    def one_failure(arguments, timeout=None):
        result = real(arguments, timeout)
        result.update(attempted=result["attempted"] + 1, failed=1, failures=["rep 9: boom"])
        return result

    monkeypatch.setattr(run, "run_child", one_failure)
    run.driver_run("paper_2dev", 2025, 10.0, trace=False)
    line = _last_line(capsys)
    assert line["correct"] is False and line["failed"] == 2


def test_traced_driver_run_prints_every_driver_layer_metric(monkeypatch, capsys):
    started = _fake_children(monkeypatch, _landed_rep("paper_2dev"))
    run.driver_run("fleet_batched_64", 3, 10.0, trace=True)
    line = _last_line(capsys)
    assert list(line["metrics"]) == spec.layer_names(driver_only=True)
    assert line["correct"] is True
    assert line["metrics"]["nn.predict_single_us"] == {"value": 2.0, "unit": "us"}
    assert line["metrics"]["trace_overhead_ratio"]["value"] == 0.5
    assert "cli.import_s" not in line["metrics"]
    assert [mode for mode, _ in started] == ["trace", "probes"]
    assert started[0][1]["--workload"] == "fleet_batched_64"


def test_a_checkout_without_the_program_exits_nonzero_without_a_result(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "paper_2dev", "--seed", "1", "--seconds", "1", "--trace", "0"])
    captured = capsys.readouterr()
    assert code != 0
    assert captured.out == ""
