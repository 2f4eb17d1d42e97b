"""validate.py: the committed declarations pass, malformed ones are rejected."""

import copy
import json

import pytest

from ladder import spec, validate

BENCHMARK = validate.ROOT / "BENCHMARK.json"


@pytest.fixture()
def document():
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def _problems(document):
    return validate.check_benchmark_json(json.dumps(document))


def test_committed_benchmark_json_is_valid_and_matches_spec(document):
    assert validate.check_benchmark_json(BENCHMARK.read_text(encoding="utf-8")) == []
    assert validate.check_against_spec(document) == []
    assert validate.check_spec() == []
    assert validate.main(["--benchmark", str(BENCHMARK)]) == 0


def test_contract_sizes(document):
    assert len(document["workloads"]) == 5
    assert len(spec.END_TO_END) == 10
    assert len(document["end_to_end"]) == len(spec.driver_end_to_end()) == 6
    assert len(spec.PER_LAYER) <= 128
    assert document["paths"] == ["benchmarks/ladder"]


def test_extra_or_missing_top_level_key_is_rejected(document):
    extra = dict(document, environment={"nproc": 2})
    assert _problems(extra)
    missing = {key: value for key, value in document.items() if key != "paths"}
    assert _problems(missing)


def test_bad_names_and_units_are_rejected(document):
    for bad in ("has space", "_leading", "x" * 65, "slash/name", ""):
        broken = copy.deepcopy(document)
        broken["per_layer"][0]["name"] = bad
        assert _problems(broken), bad
    broken = copy.deepcopy(document)
    broken["end_to_end"][1]["unit"] = "seconds per rep!"
    assert _problems(broken)


def test_duplicate_name_is_rejected(document):
    broken = copy.deepcopy(document)
    broken["per_layer"][1]["name"] = broken["per_layer"][0]["name"]
    assert any("more than once" in line for line in _problems(broken))


def test_limits_are_enforced(document):
    too_many = copy.deepcopy(document)
    too_many["workloads"] = [
        {"name": f"w{index}", "why": "x"} for index in range(9)
    ]
    assert _problems(too_many)
    too_many = copy.deepcopy(document)
    too_many["end_to_end"] += [
        {"name": f"m{index}", "unit": "s", "better": "lower", "bound": 0.1}
        for index in range(16)
    ]
    assert _problems(too_many)
    too_many = copy.deepcopy(document)
    too_many["per_layer"] = [
        {"name": f"layer.m{index}", "unit": "us", "better": "lower"}
        for index in range(129)
    ]
    assert _problems(too_many)
    one_workload = copy.deepcopy(document)
    one_workload["workloads"] = one_workload["workloads"][:1]
    assert _problems(one_workload)


def test_bounds_setup_metric_and_run_seconds_are_checked(document):
    wide = copy.deepcopy(document)
    wide["end_to_end"][1]["bound"] = 0.3
    assert _problems(wide)
    no_setup = copy.deepcopy(document)
    no_setup["end_to_end"] = [m for m in no_setup["end_to_end"] if m["name"] != "setup_s"]
    assert any("setup_s" in line for line in _problems(no_setup))
    for seconds in (0, 61, 2.5, True):
        broken = dict(document, run_seconds=seconds)
        assert _problems(broken), seconds


def test_command_and_paths_stay_inside_the_repo(document):
    assert _problems(dict(document, command=["python3", "/abs/run.py"]))
    assert _problems(dict(document, command=["python3", "../run.py"]))
    assert _problems(dict(document, paths=["benchmarks/../src"]))
    assert _problems(dict(document, paths=[]))


def test_extra_key_in_an_entry_is_rejected(document):
    broken = copy.deepcopy(document)
    broken["workloads"][0]["inputs"] = "train_federated(...)"
    assert _problems(broken)
    broken = copy.deepcopy(document)
    broken["per_layer"][0]["layer"] = "nn"
    assert _problems(broken)


def test_drift_from_spec_is_reported(document):
    drifted = copy.deepcopy(document)
    drifted["per_layer"].pop()
    assert validate.check_against_spec(drifted)
    drifted = copy.deepcopy(document)
    drifted["end_to_end"][0]["bound"] = 0.05
    assert validate.check_against_spec(drifted)
    drifted = copy.deepcopy(document)
    drifted["workloads"][0]["why"] = "something else"
    assert validate.check_against_spec(drifted)


def _results():
    workloads = {}
    for name in spec.WORKLOADS:
        workloads[name] = {
            "metrics": {
                metric.name: (1.0 if metric.applies(name) else None)
                for metric in spec.END_TO_END
            }
        }
    return {
        "workloads": workloads,
        "layers": {
            "probes": {name: 1.0 for name in spec.layer_names(kind="probe")},
            "trace": {
                name: {metric: 1.0 for metric in spec.layer_names(kind="trace")}
                for name in spec.WORKLOADS
            },
        },
    }


def test_results_with_every_declared_metric_pass():
    assert validate.check_results(_results()) == []


def test_undeclared_and_unprinted_metrics_are_reported():
    results = _results()
    results["workloads"]["paper_2dev"]["metrics"]["surprise_s"] = 1.0
    del results["workloads"]["agg_10k"]["metrics"]["peak_rss_mib"]
    results["workloads"]["agg_10k"]["metrics"]["eval_reward_mean"] = 0.5
    results["workloads"]["fleet_batched_64"]["metrics"]["run_wall_s"] = None
    results["layers"]["probes"]["nn.made_up_us"] = 1.0
    del results["layers"]["trace"]["paper_2dev"]["trace_overhead_ratio"]
    problems = "\n".join(validate.check_results(results))
    assert "surprise_s printed but not declared" in problems
    assert "agg_10k peak_rss_mib declared but not printed" in problems
    assert "agg_10k eval_reward_mean should be null" in problems
    assert "fleet_batched_64 run_wall_s is null" in problems
    assert "nn.made_up_us printed but not declared" in problems
    assert "trace_overhead_ratio declared but not printed" in problems


def test_readme_glossary_names_every_workload_and_metric():
    readme = (validate.HERE / "README.md").read_text(encoding="utf-8")
    names = (
        list(spec.WORKLOADS)
        + spec.end_to_end_names()
        + spec.layer_names()
    )
    assert [name for name in names if f"`{name}`" not in readme] == []
