"""The hierarchy's name for the O(model) mean.

Every tier node folds its child updates through its
:class:`~repro.federated.server.FederatedServer`, whose default
aggregator is :class:`repro.federated.averaging.MeanAggregator` — one
decoded update resident at a time, bit-identical to
:func:`repro.federated.averaging.federated_average`. ``StreamingMean``
is that class under its earlier name.
"""

from repro.federated.averaging import MeanAggregator

StreamingMean = MeanAggregator

__all__ = ["StreamingMean"]
