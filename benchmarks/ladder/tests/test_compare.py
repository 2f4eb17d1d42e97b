"""compare.py verdicts on hand-made pairs."""

import copy
import json

from ladder import compare, spec

METRICS = {metric.name: metric for metric in spec.END_TO_END}


def test_relative_metric_within_bound_is_same():
    wall = METRICS["run_wall_s"]
    within = 3.0 * (1 + 0.9 * wall.bound)
    assert compare.verdict(wall, "paper_2dev", 3.0, within)[0] == "same"


def test_relative_metric_beyond_bound_is_worse_or_better():
    wall = METRICS["run_wall_s"]
    assert compare.verdict(wall, "paper_2dev", 3.0, 3.0 * (1 + 1.2 * wall.bound))[0] == "worse"
    assert compare.verdict(wall, "paper_2dev", 3.0, 3.0 * (1 - 1.2 * wall.bound))[0] == "better"
    rate = METRICS["ops_per_s"]
    assert compare.verdict(rate, "paper_2dev", 6000.0, 6000.0 * (1 - 1.2 * rate.bound))[0] == "worse"
    assert compare.verdict(rate, "paper_2dev", 6000.0, 6000.0 * (1 + 1.2 * rate.bound))[0] == "better"


def test_overlapping_ranges_make_a_large_difference_unresolved():
    wall = METRICS["run_wall_s"]
    slow = 3.0 * (1 + 1.5 * wall.bound)
    a = [2.9, 3.0, 3.0, 3.1, slow + 0.3]  # one rep of A as slow as all of B
    b = [slow - 0.6, slow, slow, slow + 0.1, slow + 0.2]
    assert compare.verdict(wall, "paper_2dev", 3.0, slow, a, b)[0] == "unresolved"
    separated = [slow - 0.05, slow, slow + 0.05]
    assert compare.verdict(wall, "paper_2dev", 3.0, slow, [2.9, 3.0, 3.1], separated)[0] == "worse"


def test_exact_metric_must_be_equal():
    comm = METRICS["comm_bytes_per_round"]
    assert compare.verdict(comm, "paper_2dev", 10992.0, 10992.0)[0] == "same"
    assert compare.verdict(comm, "paper_2dev", 10992.0, 10993.0)[0] == "worse"
    assert compare.verdict(comm, "paper_2dev", 10992.0, 5496.0)[0] == "better"
    failed = METRICS["failed_ops_share"]
    assert compare.verdict(failed, "paper_2dev", 0.0, 0.125)[0] == "worse"


def test_calibrated_metric_uses_the_frozen_absolute_bound():
    reward = METRICS["eval_reward_mean"]
    bound = spec.calibrated_bound("eval_reward_mean", "paper_2dev")
    _mean, std = spec.LANDED_QUALITY["paper_2dev"]["eval_reward_mean"]
    assert bound == 2 * std / spec.FULL_REPS ** 0.5 > 0
    assert compare.verdict(reward, "paper_2dev", 0.55, 0.55 - 0.5 * bound)[0] == "same"
    assert compare.verdict(reward, "paper_2dev", 0.55, 0.55 - 2 * bound)[0] == "worse"
    assert compare.verdict(reward, "paper_2dev", 0.55, 0.55 + 2 * bound)[0] == "better"
    violation = METRICS["power_violation_rate"]
    bound = spec.calibrated_bound("power_violation_rate", "paper_2dev")
    assert compare.verdict(violation, "paper_2dev", 0.07, 0.07 + 2 * bound)[0] == "worse"


def test_null_on_both_sides_is_not_reported_and_on_one_side_unresolved():
    p95 = METRICS["model_time_to_version_p95_s"]
    assert compare.verdict(p95, "paper_2dev", None, None)[0] == "n/a"
    assert compare.verdict(p95, "async_degraded_8", 144.0, None)[0] == "unresolved"
    # A value where the metric is not declared cannot be judged either.
    assert compare.verdict(p95, "paper_2dev", 144.0, 144.0)[0] == "unresolved"


def _document(seed=2025):
    entry = {
        "metrics": {
            "setup_s": 3.8, "run_wall_s": 3.2, "ops_per_s": 6250.0,
            "peak_rss_mib": 56.0,
            "comm_bytes_per_round": 10992.0, "bytes_per_transfer": 2748.0,
            "eval_reward_mean": 0.55, "power_violation_rate": 0.07,
            "model_time_to_version_p95_s": None, "failed_ops_share": 0.0,
        },
        "samples": {"run_wall_s": [3.1, 3.2, 3.3]},
    }
    workloads = {name: copy.deepcopy(entry) for name in spec.WORKLOADS}
    for name, workload in workloads.items():
        for metric in spec.END_TO_END:
            if not metric.applies(name):
                workload["metrics"][metric.name] = None
    workloads["async_degraded_8"]["metrics"]["model_time_to_version_p95_s"] = 144.0
    return {"seed": seed, "mode": "full", "workloads": workloads}


def test_identical_documents_are_all_same_and_exit_zero(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_document()))
    b.write_text(json.dumps(_document()))
    assert compare.main([str(a), str(b)]) == 0
    rows = compare.compare(_document(), _document())
    assert {outcome for _, _, outcome, _ in rows} == {"same"}
    assert "same" in capsys.readouterr().out


def test_a_worse_metric_exits_one(tmp_path):
    worse = _document()
    worse["workloads"]["agg_10k"]["metrics"]["peak_rss_mib"] = 80.0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_document()))
    b.write_text(json.dumps(worse))
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(b), str(a)]) == 0  # the other way round it is better


def test_between_different_seeds_exact_metrics_use_their_bound_and_seed_means_are_skipped():
    other = _document(2026)
    metrics = other["workloads"]["hardened_sync_8"]["metrics"]
    metrics["comm_bytes_per_round"] *= 1.02  # another participation draw
    metrics["bytes_per_transfer"] += 4  # never depends on the seed
    metrics["failed_ops_share"] = 0.125
    rows = compare.compare(_document(2025), other)
    by_metric = {metric: outcome for workload, metric, outcome, _ in rows if workload == "hardened_sync_8"}
    assert by_metric["run_wall_s"] == "same"
    assert by_metric["comm_bytes_per_round"] == "same"
    assert by_metric["bytes_per_transfer"] == "worse"
    assert by_metric["failed_ops_share"] == "worse"
    assert by_metric["eval_reward_mean"] == "skipped"
    # With the same seeds the 2 % would have to be 0.
    other["seed"] = 2025
    rows = compare.compare(_document(2025), other)
    assert ("hardened_sync_8", "comm_bytes_per_round", "worse") in {row[:3] for row in rows}


def test_a_full_set_and_a_smoke_set_do_not_compare(tmp_path, capsys):
    smoke = dict(_document(), mode="smoke")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_document()))
    b.write_text(json.dumps(smoke))
    assert compare.main([str(a), str(b)]) == 2
    assert "do not compare" in capsys.readouterr().err
