"""The artefact runner: byte-identical artefacts, shared runs, named numbers.

The digests pin every registered artefact's text at a tiny schedule.
They were taken from the per-artefact harnesses that the declarations
replaced, so a declaration, its reduce or its render cannot drift
without failing here. Lines carrying wall-clock timings are dropped
before hashing.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments.artefact import federated
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.registry import EXPERIMENTS, Runner, run_artefacts
from repro.experiments.scenarios import scenario_applications
from repro.federated.codecs import DPGaussianCodec
from repro.obs.sink import EventPipeline
from repro.obs.tracing import RoundTracer
from repro.runspec import RunSpec

#: Lines dropped before hashing: they carry wall-clock measurements.
TIMING_MARKERS = ("wall_s=", "Controller latency", "Overhead vs Delta_DVFS")

#: SHA-256 of each artefact's text (timing lines dropped) at the
#: ``every_artefact`` fixture's schedule.
DIGESTS = {
    'table1': '42d3d1738baf1b3379358f10d9d26b40efe44181e8e870dfd7625ff97cb316bf',
    'table2': 'e60ef78dfa8a8c4a45cb495285fee5c989e0be3286dc3091e98bf322ee8d5e97',
    'fig2': '7cd315225f22a8217013201d19cc4d1885ebb91dca8ec2ab8bb52f8ad942d813',
    'fig3': '031c7eaf16e84ca0af2b42412b3e35a496dabf63ef24de3e87283171a0123a54',
    'fig4': '2f2fd8505c50284dbdb895e0fee036113476d4e4c2076d635dee18352705365e',
    'table3': 'e66ec5eb2d6cc6aab0a31af3c2de2ad02a6724b3dc81a06e3330de0e88433dd9',
    'fig5': '1f0fcb6327230a1359610c688224a4313fa907f1429fc7de4d75eb77f5b4491b',
    'overhead': 'f835d8c4ff58d9585ce49402d3f7cf44c7308484a670e24446e5da9400da1c64',
    'adaptation': '3e215c8465c8b43a2bb526d4bde6b69e454abbb1eba563752dc28447e594d0cc',
    'generalization': '2515b770859d1ada5208568564c67ce1ea3b432e2f93f6602a118bdb701a7715',
    'multiseed': '0ac63d65b29726ba7a2ddf8a79c3deb44f89e364b8642bd643d25fe9a74e8133',
    'sweep_lr': 'b4c0d43657ff86b11287e21854370219a24e8a6dc146bd3a286f06d672eda870',
    'regret': '197b6cfb42880e50441b370b5b33513869afa39ee825b4d8b687835cc5fd36f8',
    'resilience': 'c97241890e017e12d783482ee76990d2a8b5bbc03addeb2222bf15ff54b997e8',
    'guard': 'b41864742c281a35f3d1b1f057a20ec9037f9c1f8a4c94d7479b8f7b364aab17',
    'ablation_clients': '1135e4fca156a61d4e6dda812b54ce0f926a6c981f7ba6d2ba4f633707afe0eb',
    'ablation_weighted': '09d525786ed39882997bd8808ba04409fbbabc973fa479f6e084f5e5b232a3e7',
    'ablation_participation': '62f3e452896ec42488aab6f40a36ebd7f9e723d42bea62e17e898695ce495091',
    'ablation_temperature': '5807c25a66477718ebedb961785892589987a98aadfb3f57a1e23b8b1a6a9795',
    'ablation_loss': '1dc86a3b1e7a22a54964ceda3e4bcca9544abb9d8997e6c41d193573fcab03ac',
    'ablation_governors': '003e5804e539a7dbece3bf7d6c0ffbe2fc05de379685495a8cbefa9f5626c075',
    'ablation_privacy': '9e1beb58d89eb61f74b15c8f609584aba835bec78821f8a2b611a6f8e1d28c0e',
    'ablation_multicore': '15d1eb95287bc53d05095237f8948ee8b09f99f8706a3ada2a23e09be69ceae4',
    'ablation_async': 'f889cb90fed1562ce6c207e73b3d1acf029d2711bae75d91d90104b4092f4c64',
    'ablation_replay': '1e77f1f1bf3fb334e6b99e1f2d16e002e337f3ce784b7951011d19a691221091',
    'ablation_transition': '64a386e43a4d90ed3da0570105d46ad5792ff76a9d3882ddaa58e52f315c2d43',
    'ablation_hetero_budget': '14a0d2defa1617f458efd67cb71c5f283f24a2de77fc2f286a624314dee2b29a',
    'ablation_compression': '4149b940bc2598da27cbf12bbc3d102fec5eb62bbe30fdabb91f9bce3492a535',
    'fleet-scale': 'eb03936960d79cc679da842c09f479952a8dd0ec968e2d8d6ef29cd0b0b2b188',
    'controlplane': '443a56943772d8b9385e9e8a9fd8a10d833172102e06f2ca8bc07005c1bd87ea',
    'ablation_thermal': 'baa025f93ccc251cb91805cd076334809cb2f6177ff401af62f71a502081c6c4',
}


def _digest(text: str) -> str:
    kept = "\n".join(
        line
        for line in text.splitlines()
        if not any(marker in line for marker in TIMING_MARKERS)
    )
    return hashlib.sha256(kept.encode()).hexdigest()


class TestEveryArtefact:
    def test_every_artefact_is_pinned(self):
        assert set(DIGESTS) == set(EXPERIMENTS)

    def test_text_is_byte_identical_from_json_numbers(self, every_artefact):
        _, numbers = every_artefact
        digests = {
            experiment_id: _digest(
                EXPERIMENTS[experiment_id].render(
                    json.loads(json.dumps(numbers[experiment_id]))
                )
            )
            for experiment_id in EXPERIMENTS
        }
        assert digests == DIGESTS

    def test_each_distinct_run_is_trained_once(self, every_artefact):
        runner, _ = every_artefact
        # 55 driver calls across the artefacts name 38 distinct runs.
        assert runner.trained_runs == 38


class TestRunSharing:
    @pytest.fixture
    def config(self):
        return FederatedPowerControlConfig(
            num_rounds=2, steps_per_round=10, eval_steps_per_app=2,
            eval_every_rounds=1, seed=3,
        )

    def test_artefacts_share_a_run(self, config):
        runner = Runner(config)
        runner.numbers("fig3")
        assert runner.trained_runs == 6
        runner.numbers("fig4")  # scenario 2, both systems: already trained
        assert runner.trained_runs == 6

    def test_run_artefacts_returns_numbers_per_id(self, config):
        numbers = run_artefacts(["table1", "fig2"], config)
        assert list(numbers) == ["table1", "fig2"]
        assert numbers["table1"]["#Rounds (R)"] == 2

    def test_codec_runs_share_only_with_equal_noise_streams(self, config):
        runner = Runner(config)
        assignments = scenario_applications(1)
        results = [
            runner.train(
                federated(
                    assignments,
                    config,
                    client_codec=DPGaussianCodec(noise_std=0.05, seed=seed),
                )
            )
            for seed in (1, 2, 1)
        ]
        assert runner.trained_runs == 2
        rewards = [result.mean_metric("reward_mean") for result in results]
        assert rewards[0] != rewards[1]
        assert rewards[2] == rewards[0]

    def test_evaluating_a_shared_run_leaves_it_as_trained(self, config):
        """A guarded controller's watchdog advances when it is evaluated,
        so an artefact must not see another artefact's evaluation."""
        base = RunSpec(guard=True, faults="byzantine=0.3,seed=7")
        shared = Runner(config, base=base)
        shared.numbers("ablation_governors")
        after_governors = shared.numbers("generalization")
        alone = Runner(config, base=base).numbers("generalization")
        assert shared.trained_runs == 1
        assert after_governors == alone

    @pytest.mark.parametrize("experiment_id", ["adaptation", "ablation_hetero_budget"])
    def test_hand_built_loops_report_to_the_base_sinks(self, config, experiment_id):
        # Two federated loops of num_rounds each, built inside reduce.
        events, tracer = EventPipeline([]), RoundTracer()
        Runner(config, base=RunSpec(tracer=tracer, events=events)).numbers(
            experiment_id
        )
        assert len(tracer.rounds) == 2 * config.num_rounds
        spans = [row for row in events.rows() if row["type"] == "round_span"]
        assert len(spans) == 2 * config.num_rounds

    def test_async_arm_streams_every_push(self, config):
        events, tracer = EventPipeline([]), RoundTracer()
        Runner(config, base=RunSpec(tracer=tracer, events=events)).numbers(
            "ablation_async"
        )
        modes = [row.get("mode") for row in events.rows() if row["type"] == "round_span"]
        # The declared sync run, then the fast device's three pushes per
        # slow push.
        assert modes.count("async") == 4 * config.num_rounds
        assert len(modes) == 5 * config.num_rounds
        # The tracer behind --metrics-out records the same spans.
        traced = [span.mode for span in tracer.rounds]
        assert traced.count("async") == 4 * config.num_rounds
        assert len(traced) == 5 * config.num_rounds

    def test_variant_runs_are_distinct(self, config):
        runner = Runner(config)
        assignments = scenario_applications(2)
        for variant in ({}, {"loss": "mse"}, {"replay": "prioritized"}):
            runner.train(federated(assignments, replace(config, **variant)))
        assert runner.trained_runs == 3


def test_loss_ablation_resume_reproduces_both_rows(tmp_path, capsys):
    """A resumed run must not pick up another variant's snapshot.

    Every training run of the ablation shares one checkpoint path; the
    paper run may only resume from its own snapshot, so the MSE run's
    final snapshot must not leak into the Huber row.
    """
    checkpoint = str(tmp_path / "ck.pkl")
    argv = ["run", "ablation_loss", "--rounds", "4", "--steps", "20",
            "--checkpoint", checkpoint, "--checkpoint-every", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv + ["--resume"]) == 0
    assert capsys.readouterr().out == first
