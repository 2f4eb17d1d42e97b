"""One switched-on value for every :class:`repro.runspec.RunSpec` field.

Shared by the tests that must hold for *every* field — the async plane
honours it or refuses it by name, the fingerprint moves with it or
documents why not — so a field added without a decision fails them
(``tests/test_runspec.py`` checks the table is complete). Also the one
backend list the equivalence suites parametrise over.
"""

from repro.controlplane.context import ControlPlaneConfig
from repro.faults.recovery import CheckpointConfig
from repro.faults.retry import RetryPolicy
from repro.federated.codecs import QuantizedInt8Codec
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ScopeProfiler
from repro.obs.sink import EventPipeline
from repro.obs.tracing import RoundTracer
from repro.runspec import BACKEND_NAMES

#: Every backend but the serial reference the equivalence suites compare
#: against; derived, so adding or removing a backend changes every suite.
PARALLEL_BACKENDS = tuple(name for name in BACKEND_NAMES if name != "serial")


def on_values(tmp_path):
    """Fresh ``{field: value}`` with every field switched on."""
    return {
        "backend": "batched",
        "participation_fraction": 0.5,
        "aggregation_weights": {"cp-00": 2.0},
        "codec": QuantizedInt8Codec(),
        "client_codec": QuantizedInt8Codec(),
        "straggler_policy": "skip",
        "faults": "hb_loss=0.05,seed=3",
        "aggregator": "median",
        "retry": RetryPolicy(max_attempts=2),
        "checkpoint": CheckpointConfig(path=str(tmp_path / "run.ckpt")),
        "guard": True,
        "quarantine": True,
        "churn": "leave=0.2,seed=3",
        "topology": "edges=2",
        "selection": "uniform:0.5",
        "controlplane": ControlPlaneConfig(enabled=True),
        "metrics": MetricsRegistry(),
        "tracer": RoundTracer(),
        "flight": FlightRecorder(),
        "profiler": ScopeProfiler(),
        "events": EventPipeline([]),
    }
