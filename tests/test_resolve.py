"""One table resolves a run's options: the CLI check and both drivers.

* a value of the wrong type is refused by name before a device is
  hosted, on every field and both federated drivers;
* the checkpoint fingerprint of a string option equals its materialised
  twin's, and both are pinned;
* the shared ``key=value`` walker parses fault and churn specs exactly
  as each plan's own walker did, messages included.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane.driver import train_async_federated
from repro.errors import ConfigurationError
from repro.experiments import training
from repro.experiments.config import FederatedPowerControlConfig
from repro.experiments.resolve import RESOLVERS, check_spec_strings, resolve_spec
from repro.experiments.training import FederatedHosting, train_federated
from repro.faults.aggregation import MedianAggregator
from repro.faults.plan import FaultPlan
from repro.faults.recovery import CheckpointConfig
from repro.guard.churn import ChurnPlan
from repro.guard.quarantine import QuarantineConfig, QuarantineManager
from repro.guard.watchdog import WatchdogConfig
from repro.hier.selection import ParetoSelection
from repro.hier.topology import FleetTopology
from repro.runspec import FIELD_NAMES, RunSpec

ASSIGNMENTS = {
    "device-0": ("fft", "lu"),
    "device-1": ("radix", "ocean"),
    "device-2": ("barnes", "fmm"),
    "device-3": ("water-sp", "radiosity"),
}
DEVICES = list(ASSIGNMENTS)
CONFIG = FederatedPowerControlConfig(seed=11).scaled(rounds=6, steps_per_round=5)
FAULTS = "drop=0.2,byzantine=1,kill=4,seed=3"
CHURN = "leave=0.2,rejoin=0.5,late=1,seed=5"


@pytest.fixture
def no_fleet(monkeypatch):
    """Fail the test if any device is hosted."""

    def refuse(*args, **kwargs):
        raise AssertionError("a DeviceFleet was built")

    monkeypatch.setattr(training, "DeviceFleet", refuse)


def test_table_covers_the_resolvable_fields():
    assert set(RESOLVERS) < set(FIELD_NAMES)
    assert set(RESOLVERS) == {
        "faults", "aggregator", "guard", "quarantine", "churn", "topology",
        "selection",
    }
    assert list(RESOLVERS).index("topology") < list(RESOLVERS).index("selection")


@pytest.mark.parametrize("field", list(RESOLVERS))
def test_wrong_type_is_refused_by_name_on_the_sync_driver(field, no_fleet):
    with pytest.raises(ConfigurationError, match=f"^{field} must be .*, got int$"):
        train_federated(ASSIGNMENTS, CONFIG, **{field: 42})


@pytest.mark.parametrize("field", ["faults", "aggregator", "guard"])
def test_wrong_type_is_refused_by_name_on_the_async_driver(field, no_fleet):
    with pytest.raises(ConfigurationError, match=f"^{field} must be .*, got int$"):
        train_async_federated(ASSIGNMENTS, CONFIG, **{field: 42})


def test_off_stays_off():
    spec = RunSpec(guard=False, quarantine=False, faults=None)
    resolved = resolve_spec(spec, DEVICES, CONFIG)
    assert all(getattr(resolved, name) is None for name in RESOLVERS)


def test_strings_and_switches_become_objects():
    spec = RunSpec(
        faults=FAULTS, aggregator="median", guard=True, quarantine=True,
        churn=CHURN, topology="edges=2", selection="stratified:0.5",
    )
    resolved = resolve_spec(spec, DEVICES, CONFIG)
    assert isinstance(resolved.faults, FaultPlan)
    assert isinstance(resolved.aggregator, MedianAggregator)
    assert resolved.guard == WatchdogConfig()
    assert isinstance(resolved.quarantine, QuarantineManager)
    assert isinstance(resolved.churn, ChurnPlan)
    assert resolved.topology.depth == 2
    assert resolved.selection.topology is resolved.topology


def test_materialised_values_are_kept():
    manager, plan = QuarantineManager(), FaultPlan([])
    resolved = resolve_spec(RunSpec(quarantine=manager, faults=plan), DEVICES, CONFIG)
    assert resolved.quarantine is manager and resolved.faults is plan


@pytest.mark.parametrize(
    "field", [name for name, resolver in RESOLVERS.items() if resolver.parse]
)
def test_cli_check_gives_the_runs_own_complaint(field, no_fleet):
    with pytest.raises(ConfigurationError) as checked:
        check_spec_strings(RunSpec(**{field: "garbage"}))
    with pytest.raises(ConfigurationError) as ran:
        train_federated(ASSIGNMENTS, CONFIG, **{field: "garbage"})
    assert str(checked.value) == str(ran.value)


#: Hosting fingerprints with a checkpoint configured. Every saved
#: snapshot carries one, so a changed description would make each saved
#: checkpoint "belong to a different run". Each string option
#: fingerprints like its materialised twin.
FINGERPRINTS = {
    "none": "2be050ed9d19dfeb670336e6771bf061b6570aae6d28167426c922269af5db02",
    "faults-spec": "fb9e0d378d056e6c906858629427b29c61c4ab0e9f9e9ce65519a1cf88dfa685",
    "faults-plan": "fb9e0d378d056e6c906858629427b29c61c4ab0e9f9e9ce65519a1cf88dfa685",
    "aggregator-name": "00fcbe00706733630d2269d4df9999565017fac42da7526ecf50a6a2b000e396",
    "aggregator-object": "00fcbe00706733630d2269d4df9999565017fac42da7526ecf50a6a2b000e396",
    "guard-true": "f9f5665a508ed1ad9bb74be5394d5b85b0a1bc3fc48560d51e764dd703fb29ff",
    "guard-config": "f9f5665a508ed1ad9bb74be5394d5b85b0a1bc3fc48560d51e764dd703fb29ff",
    "quarantine-true": "63077b8cd6df43ecd59c8a0d0a3115dc21ef63c16221574ac013558d18a98d38",
    "quarantine-config": "63077b8cd6df43ecd59c8a0d0a3115dc21ef63c16221574ac013558d18a98d38",
    "churn-spec": "1e912a45e9fc3f76cf19733e93e63c6d8263740b35c642ddd974e97e627f061b",
    "churn-plan": "1e912a45e9fc3f76cf19733e93e63c6d8263740b35c642ddd974e97e627f061b",
    "topology-spec": "161396205fb9aaef56072f66fe5a613ab1d3ee7f7cfa0ab3f299f39bd26aaa00",
    "topology-object": "161396205fb9aaef56072f66fe5a613ab1d3ee7f7cfa0ab3f299f39bd26aaa00",
    "selection-spec": "296b81654c83a252b244b8a85af073c49251229dab6a1da771276ab7544c1c97",
    "selection-object": "296b81654c83a252b244b8a85af073c49251229dab6a1da771276ab7544c1c97",
    "combined": "c16f9f1bfb76750d29ebfd0223c7f69329f321387f6babeac374534123441ef7",
    "async-schedule": "7cde93aef52c1288d3936ac6f43bf98aa05521f99f394291421558347bdf2bd7",
}


def _options(case):
    rounds = CONFIG.num_rounds
    return {
        "none": {},
        "faults-spec": {"faults": FAULTS},
        "faults-plan": {"faults": FaultPlan.from_spec(FAULTS, rounds, DEVICES)},
        "aggregator-name": {"aggregator": "median"},
        "aggregator-object": {"aggregator": MedianAggregator()},
        "guard-true": {"guard": True},
        "guard-config": {"guard": WatchdogConfig()},
        "quarantine-true": {"quarantine": True},
        "quarantine-config": {"quarantine": QuarantineConfig()},
        "churn-spec": {"churn": CHURN},
        "churn-plan": {"churn": ChurnPlan.from_spec(CHURN, rounds, DEVICES)},
        "topology-spec": {"topology": "edges=2"},
        "topology-object": {
            "topology": FleetTopology.clustered(DEVICES, edges=2, seed=CONFIG.seed)
        },
        "selection-spec": {"selection": "pareto:0.5"},
        "selection-object": {"selection": ParetoSelection(0.5, seed=CONFIG.seed)},
        "combined": {
            "faults": FAULTS, "aggregator": "median", "guard": True,
            "quarantine": True, "churn": CHURN, "topology": "edges=2",
            "selection": "pareto:0.5",
        },
        "async-schedule": {"faults": FAULTS, "aggregator": "median", "guard": True},
    }[case]


@pytest.mark.parametrize("case", list(FINGERPRINTS))
def test_hosting_fingerprint_is_pinned(case, tmp_path):
    spec = RunSpec(
        checkpoint=CheckpointConfig(path=str(tmp_path / "run.ckpt")), **_options(case)
    )
    if case == "async-schedule":
        host = FederatedHosting(
            "async_federated", ASSIGNMENTS, CONFIG, None, spec,
            schedule=((("device-0", 1.0),), 0.6, 0.5),
        )
    else:
        host = FederatedHosting("federated", ASSIGNMENTS, CONFIG, None, spec)
    assert host.fingerprint == FINGERPRINTS[case]


# -- the shared key=value walker ---------------------------------------------

#: Each plan's keys: the keyword it sets and how its value converts.
FAULT_KEYS = {
    **{
        key: (f"{key}_rate", float)
        for key in ("crash", "drop", "duplicate", "corrupt", "delay", "fail")
    },
    "corrupt_mode": ("corrupt_mode", str),
    "delay_s": ("delay_s", float),
    "fail_repeats": ("fail_repeats", int),
    "byzantine": (None, None),
    "byzantine_scale": ("byzantine_scale", float),
    "byzantine_mode": ("byzantine_mode", str),
    "kill": ("kill_at", int),
    "hb_loss": ("hb_loss_rate", float),
    "dead": ("dead_fraction", float),
    "seed": ("seed", int),
}
CHURN_KEYS = {
    "leave": ("leave_rate", float),
    "rejoin": ("rejoin_rate", float),
    "late": ("late_joiners", int),
    "seed": ("seed", int),
}


def _oracle(spec, kind, keys):
    """``(kwargs, None)`` or ``(None, message)``, as each plan's own
    walker produced them."""
    text = spec.strip()
    if text.endswith(".json") or pathlib.Path(text).exists():
        return None, None
    kwargs = {}
    for raw in text.split(","):
        entry = raw.strip()
        if not entry:
            continue
        if "=" not in entry:
            return None, f"{kind} spec entry {entry!r} is not key=value"
        key, value = (side.strip() for side in entry.split("=", 1))
        bad = f"bad value for {kind} spec key {key!r}: "
        if key not in keys:
            return None, bad + f"unknown {kind} spec key {key!r}"
        keyword, convert = keys[key]
        try:
            if keyword is not None:
                kwargs[keyword] = convert(value)
            elif "." in value:
                kwargs["byzantine_rate"] = float(value)
            else:
                device = int(value) if value.lstrip("-").isdigit() else value
                kwargs["byzantine_devices"] = kwargs.get("byzantine_devices", []) + [
                    device
                ]
        except ValueError as error:
            return None, bad + str(error)
    return kwargs, None


_PAD = st.sampled_from(["", " ", "  ", "\t"])
_VALUE = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.text(alphabet="abc-_.9 ", max_size=5),
)


def _specs(keys):
    known = st.sampled_from(sorted(keys))
    stranger = st.one_of(
        st.sampled_from(sorted(set(FAULT_KEYS) ^ set(CHURN_KEYS))),
        st.text(alphabet="xyz_", max_size=4),
    )
    pair = st.builds(
        lambda a, key, b, value, c: f"{a}{key}{b}={value}{c}",
        _PAD, st.one_of(known, known, stranger), _PAD, _VALUE, _PAD,
    )
    byzantine = st.builds(
        lambda value: f"byzantine={value}",
        st.one_of(st.integers(-2, 9).map(str), st.sampled_from(["b", "0.3", "-x"])),
    )
    garbage = st.one_of(_PAD, st.text(alphabet="qr ", max_size=4))
    entry = st.one_of(pair, pair, byzantine, garbage)
    return st.lists(entry, max_size=6).map(",".join)


def _walk(parse, spec):
    try:
        return parse(spec), None
    except ConfigurationError as error:
        return None, str(error)


@settings(max_examples=300, deadline=None)
@given(spec=_specs(FAULT_KEYS))
def test_fault_spec_walk_matches_the_oracle(spec):
    assert _walk(FaultPlan.parse_spec, spec) == _oracle(spec, "fault", FAULT_KEYS)


@settings(max_examples=300, deadline=None)
@given(spec=_specs(CHURN_KEYS))
def test_churn_spec_walk_matches_the_oracle(spec):
    assert _walk(ChurnPlan.parse_spec, spec) == _oracle(spec, "churn", CHURN_KEYS)


@pytest.mark.parametrize(
    "parse, spec, message",
    [
        (FaultPlan.parse_spec, "drop=0.1,zz=1",
         "bad value for fault spec key 'zz': unknown fault spec key 'zz'"),
        (FaultPlan.parse_spec, "kill=1.5",
         "bad value for fault spec key 'kill': invalid literal for int() with "
         "base 10: '1.5'"),
        (ChurnPlan.parse_spec, "leave=x",
         "bad value for churn spec key 'leave': could not convert string to "
         "float: 'x'"),
        (ChurnPlan.parse_spec, "late", "churn spec entry 'late' is not key=value"),
    ],
)
def test_walker_messages_are_pinned(parse, spec, message):
    with pytest.raises(ConfigurationError) as raised:
        parse(spec)
    assert str(raised.value) == message
