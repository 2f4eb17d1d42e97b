"""The one run description: every field merges, reaches the drivers and
is either fingerprinted or documented as not trajectory-determining.

The stack mechanics (empty-is-off, innermost-wins, inheritance,
pop-on-exception, thread isolation) live in ``tests/test_obs_context.py``.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import _telemetry_header, build_parser, main
from repro.controlplane.context import ControlPlaneConfig
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.training import train_federated
from repro.obs.store import RunStore
from repro.runspec import (
    FIELD_NAMES,
    UNDESCRIBED_FIELDS,
    RunSpec,
    ambient,
    resolve,
)

from tests.runspec_samples import on_values

ASSIGNMENTS = {
    "device-0": ("fft", "lu"),
    "device-1": ("radix", "ocean"),
    "device-2": ("barnes", "fmm"),
    "device-3": ("water-sp", "radiosity"),
}


def test_sample_table_decides_every_field(tmp_path):
    assert FIELD_NAMES == tuple(f.name for f in dataclasses.fields(RunSpec))
    assert set(on_values(tmp_path)) == set(FIELD_NAMES)


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_field_set_in_a_frame_resolves_like_the_keyword(name, tmp_path):
    value = on_values(tmp_path)[name]
    explicit = resolve(**{name: value})
    with ambient(**{name: value}):
        assert resolve() == explicit
    assert getattr(explicit, name) is value
    assert explicit.is_on(name)


class TestHeaderFingerprint:
    """The telemetry header / ``RunStore`` fingerprint is the spec's."""

    @staticmethod
    def header(spec, argv=("run", "fig3")):
        args = build_parser().parse_args(list(argv))
        config = FederatedPowerControlConfig(seed=args.seed)
        return _telemetry_header(args, "fig3", config, spec)["run_fingerprint"]

    @pytest.mark.parametrize("name", FIELD_NAMES)
    def test_moves_with_every_describable_field(self, name, tmp_path):
        spec = RunSpec(**{name: on_values(tmp_path)[name]})
        again = RunSpec(**{name: on_values(tmp_path)[name]})
        assert self.header(spec) == self.header(again)
        if name in UNDESCRIBED_FIELDS:
            assert self.header(spec) == self.header(RunSpec())
        else:
            assert self.header(spec) != self.header(RunSpec())

    def test_off_values_describe_as_nothing(self):
        off = RunSpec(
            backend="serial",
            participation_fraction=1.0,
            guard=False,
            quarantine=False,
            controlplane=ControlPlaneConfig(enabled=False),
        )
        assert off.describe() == {}
        assert self.header(off) == self.header(RunSpec())

    def test_backend_and_seed_still_count(self):
        base = self.header(RunSpec())
        assert self.header(RunSpec(), ("run", "fig3", "--backend", "batched")) != base
        assert self.header(RunSpec(), ("run", "fig3", "--seed", "8")) != base


class TestCliFingerprint:
    """``obs-history``/``obs-diff`` must not file a chaos run and a clean
    run as one population."""

    @staticmethod
    def stamp(tmp_path, tag, *flags):
        events = tmp_path / f"{tag}.jsonl"
        argv = ["run", "table1", "--events-out", str(events)]
        assert main(argv + ["--store", str(tmp_path / "runs.sqlite"), *flags]) == 0
        with open(events) as handle:
            return json.loads(handle.readline())["run_fingerprint"]

    @pytest.mark.parametrize(
        "flags",
        [
            ("--faults", "drop=0.3,seed=3"),
            ("--aggregator", "median"),
            ("--guard",),
            ("--quarantine",),
            ("--churn",),
            ("--topology", "edges=2"),
            ("--selection", "uniform:0.5"),
            ("--async",),
            ("--async", "--quorum", "0.75"),
        ],
        ids=lambda flags: flags[0].lstrip("-") + str(len(flags)),
    )
    def test_differing_options_differ(self, tmp_path, capsys, flags):
        clean = self.stamp(tmp_path, "clean")
        assert self.stamp(tmp_path, "same") == clean
        assert self.stamp(tmp_path, "other", *flags) != clean
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            first, second, third = store.runs()
        assert first["fingerprint"] == second["fingerprint"] == clean
        assert third["fingerprint"] != clean
        assert first["config"]["spec"] == {}
        assert third["config"]["spec"]


class TestAmbientEqualsExplicit:
    """Every field set through a frame reaches the sync driver exactly as
    the keyword does."""

    OPTIONS = {
        "faults": "drop=0.2,fail=0.2,seed=7",
        "guard": True,
        "topology": "edges=2",
    }

    @staticmethod
    def train(**options):
        config = FederatedPowerControlConfig(
            num_rounds=3,
            steps_per_round=20,
            eval_steps_per_app=4,
            eval_every_rounds=1,
            seed=7,
        )
        return train_federated(
            ASSIGNMENTS, config, eval_applications=("fft",), **options
        )

    @staticmethod
    def checksum(result):
        federated = result.federated_result
        return (
            [
                (r.device, r.round_index, r.step, r.action_index, r.power_w, r.reward)
                for r in result.train_trace
            ],
            result.round_evaluations,
            federated.total_bytes_communicated,
            federated.total_messages,
            federated.participation_by_round,
            federated.stragglers_by_round,
            federated.fallback_steps_by_device,
        )

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_same_result_either_way(self, backend):
        explicit = self.train(backend=backend, **self.OPTIONS)
        with ambient(backend=backend, **self.OPTIONS):
            framed = self.train()
        assert self.checksum(framed) == self.checksum(explicit)
        for a, b in zip(
            framed.controllers["device-0"].agent.get_parameters(),
            explicit.controllers["device-0"].agent.get_parameters(),
        ):
            assert np.array_equal(a, b)
        # The options did something: a plain run differs.
        assert self.checksum(self.train(backend=backend)) != self.checksum(explicit)

    def test_unknown_option_is_a_type_error(self):
        with pytest.raises(TypeError, match="not_an_option"):
            self.train(not_an_option=1)
