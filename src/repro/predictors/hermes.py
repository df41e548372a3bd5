"""Hermes: the state-of-the-art off-chip predictor the paper compares against.

Hermes (Bera et al., MICRO 2022) attaches a hashed perceptron predictor to
the core.  On every demand load it sums the weights selected by the legacy
feature set (Table I of the TLP paper); if the sum exceeds the activation
threshold the core fires a *speculative DRAM request* in parallel with the
regular cache access, hiding the on-chip lookup latency for loads that truly
go off-chip -- at the cost of one extra DRAM transaction for every positive
prediction (right or wrong).  The predictor is trained when the demand load
returns, using the true off-chip outcome.
"""

from __future__ import annotations

from repro.predictors.base import OffChipAction, OffChipDecision, OffChipPredictor
from repro.predictors.features import FeatureHistory, legacy_hermes_features
from repro.predictors.perceptron import HashedPerceptron, table_one_kernel


class HermesPredictor(OffChipPredictor):
    """Perceptron-based off-chip predictor with a single activation threshold."""

    name = "hermes"

    def __init__(
        self,
        activation_threshold: int = 2,
        table_entries: int | None = None,
        weight_bits: int = 5,
        training_threshold: int = 34,
        page_buffer_entries: int = 128,
    ) -> None:
        self.activation_threshold = activation_threshold
        self.perceptron = HashedPerceptron(
            legacy_hermes_features(table_entries, weight_bits),
            training_threshold=training_threshold,
        )
        self.history = FeatureHistory(page_buffer_entries=page_buffer_entries)
        self._kernel = table_one_kernel(self.perceptron)
        #: Last binary prediction, exposed so a downstream prefetch filter
        #: (SLP) can use it as a feature for prefetches triggered by this load.
        self.last_prediction = False

    def step(
        self, pc: int, vaddr: int
    ) -> tuple[OffChipAction, int, list[int]]:
        """Raw prediction: ``(action, confidence, indices)`` for one load.

        Advances the feature history exactly as :meth:`predict` does; the
        batch core calls this directly and trains with
        ``self.perceptron.train(indices, went_offchip, confidence)``.
        """
        first_access, last_pcs = self.history.advance(pc, vaddr)
        confidence, indices = self._kernel(
            pc, vaddr, first_access, last_pcs, False
        )
        predicted_offchip = confidence >= self.activation_threshold
        self.last_prediction = predicted_offchip
        action = OffChipAction.IMMEDIATE if predicted_offchip else OffChipAction.NONE
        return action, confidence, indices

    def predict(self, pc: int, vaddr: int, cycle: int) -> OffChipDecision:
        action, confidence, indices = self.step(pc, vaddr)
        return OffChipDecision(
            action=action,
            predicted_offchip=self.last_prediction,
            confidence=confidence,
            metadata={"indices": indices, "confidence": confidence},
        )

    def train(self, metadata: dict, went_offchip: bool) -> None:
        indices = metadata.get("indices")
        if indices is None:
            return
        self.perceptron.train(indices, went_offchip, metadata.get("confidence", 0))

    def reset(self) -> None:
        self.perceptron.reset()
        self.history.reset()
        self.last_prediction = False

    def storage_kib(self) -> float:
        """Predictor storage (weight tables plus page buffer), in KiB."""
        weights = self.perceptron.storage_bits()
        page_buffer = self.history.storage_bits()
        return (weights + page_buffer) / 8.0 / 1024.0
