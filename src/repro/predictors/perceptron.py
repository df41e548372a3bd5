"""Hashed perceptron predictor.

This is the shared neural machinery behind Hermes, PPF, FLP and SLP: one
small table of signed saturating weights per program feature, indexed by a
hash of the feature value.  A prediction sums the selected weights; training
increments or decrements them following the standard perceptron update rule
with a training threshold (weights stop moving once the prediction is both
correct and confident).

:meth:`HashedPerceptron.predict` is the general, extractor-driven form: it
runs each :class:`~repro.predictors.features.FeatureSpec` extractor over a
:class:`~repro.predictors.features.FeatureContext` and memoizes the
``feature value -> table index`` hash per feature.  It is the reference the
tests pin.  The per-access paths -- Hermes/FLP ``step`` on each demand load
(under ``predict`` in the object hierarchy, called directly by the batch
core), SLP ``consult_step`` on each L1D prefetch candidate -- instead call
the kernel returned by :func:`table_one_kernel`: the Table I features (plus
SLP's leveling feature) computed straight-line over raw ints, each index
memoized on its raw key, so no context object and no per-feature call is
involved.  Both forms select the same indices and sum the same weights.
Every path, scalar or batch, trains through :meth:`HashedPerceptron.train`.

Weight storage is one flat numpy ``int32`` buffer.  Each feature's table is
a :class:`memoryview` row of it (plain-int reads and writes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.common.hashing import hash_combine, table_index
from repro.predictors.features import (
    LEGACY_FEATURE_NAMES,
    LEVELING_FEATURE_NAME,
    FeatureContext,
    FeatureSpec,
)

#: Per-feature memo entries kept before the memo is cleared.  Feature values
#: come from hashes of PCs and addresses, so a trace touches a bounded set;
#: the cap only guards against pathological workloads.
_INDEX_MEMO_LIMIT = 1 << 16


@dataclass
class PerceptronStats:
    """Training/prediction counters of one perceptron instance."""

    predictions: int = 0
    positive_predictions: int = 0
    training_events: int = 0
    weight_updates: int = 0
    correct_predictions: int = 0

    @property
    def accuracy(self) -> float:
        """Fraction of trained predictions that matched the outcome."""
        if self.training_events == 0:
            return 0.0
        return self.correct_predictions / self.training_events


class HashedPerceptron:
    """A multi-feature hashed perceptron with saturating integer weights."""

    def __init__(
        self,
        features: list[FeatureSpec],
        training_threshold: int = 32,
    ) -> None:
        if not features:
            raise ValueError("a perceptron needs at least one feature")
        self.features = list(features)
        self.training_threshold = training_threshold
        # All weights live in one flat int32 buffer; each feature's table is
        # a zero-copy memoryview slice of it.  Memoryview subscripts return
        # plain Python ints, keeping the per-access loops cheap.
        offsets = [0]
        for spec in self.features:
            offsets.append(offsets[-1] + spec.table_entries)
        self._weights = np.zeros(offsets[-1], dtype=np.int32)
        buffer = memoryview(self._weights)
        self._tables: list[memoryview] = [
            buffer[offsets[i]:offsets[i + 1]] for i in range(len(self.features))
        ]
        self._weight_limits: list[tuple[int, int]] = []
        for spec in self.features:
            maximum = (1 << (spec.weight_bits - 1)) - 1
            minimum = -(1 << (spec.weight_bits - 1))
            self._weight_limits.append((minimum, maximum))
        # Hot-path plan: one row per feature holding everything the fused
        # prediction loop needs (extractor, index bits, entry count, weight
        # table, value->index memo), so predict() touches no attributes of
        # FeatureSpec and recomputes no bit widths.
        self._plan: list[tuple] = [
            (
                spec.extractor,
                max(1, (spec.table_entries - 1).bit_length()),
                spec.table_entries,
                table,
                {},
            )
            for spec, table in zip(self.features, self._tables)
        ]
        self.stats = PerceptronStats()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _compute(self, context: FeatureContext) -> tuple[int, list[int]]:
        """Fused index selection + weight summation (the hot loop)."""
        total = 0
        indices = []
        append = indices.append
        for extractor, bits, entries, table, memo in self._plan:
            value = extractor(context)
            index = memo.get(value)
            if index is None:
                if len(memo) >= _INDEX_MEMO_LIMIT:
                    memo.clear()
                index = table_index(value, bits) % entries
                memo[value] = index
            append(index)
            total += table[index]
        return total, indices

    def predict(self, context: FeatureContext) -> tuple[int, list[int]]:
        """Return ``(confidence, indices)`` for a feature context."""
        total, indices = self._compute(context)
        stats = self.stats
        stats.predictions += 1
        if total >= 0:
            stats.positive_predictions += 1
        return total, indices

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(self, indices: list[int], target_positive: bool, confidence: int) -> None:
        """Apply the perceptron update rule.

        Weights are updated when the prediction disagreed with the outcome or
        when its magnitude was below the training threshold.
        """
        self.stats.training_events += 1
        predicted_positive = confidence >= 0
        if predicted_positive == target_positive:
            self.stats.correct_predictions += 1
        needs_update = (
            predicted_positive != target_positive
            or abs(confidence) < self.training_threshold
        )
        if not needs_update:
            return
        delta = 1 if target_positive else -1
        for table, index, (minimum, maximum) in zip(
            self._tables, indices, self._weight_limits
        ):
            updated = table[index] + delta
            table[index] = min(maximum, max(minimum, updated))
        self.stats.weight_updates += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        """Total weight storage, in bits."""
        return sum(spec.storage_bits() for spec in self.features)

    def storage_kib(self) -> float:
        """Total weight storage, in KiB."""
        return self.storage_bits() / 8.0 / 1024.0

    def weight(self, feature_index: int, entry: int) -> int:
        """Read one weight (used by tests)."""
        return self._tables[feature_index][entry]

    def reset(self) -> None:
        """Zero every weight and clear statistics.

        The flat buffer is zeroed in place so the memoryview rows held by
        the prediction plan and the raw kernels stay valid.
        """
        self._weights[:] = 0
        self.stats = PerceptronStats()

    def saturation_fraction(self) -> float:
        """Fraction of weights currently pinned at a saturation bound."""
        saturated = 0
        total = 0
        for table, (minimum, maximum) in zip(self._tables, self._weight_limits):
            for weight in table:
                total += 1
                if weight in (minimum, maximum):
                    saturated += 1
        return saturated / total if total else 0.0


# ----------------------------------------------------------------------
# Raw-int kernel for the Table I feature layout
# ----------------------------------------------------------------------
def _memo_index(memo: dict, key, value: int, bits: int, entries: int) -> int:
    """Hash ``value`` to its table index and memoize it under ``key``."""
    if len(memo) >= _INDEX_MEMO_LIMIT:
        memo.clear()
    index = memo[key] = table_index(value, bits) % entries
    return index


@lru_cache(maxsize=None)
def _pair_indices(swap: bool, bits: int, entries: int) -> list[int]:
    """Indices of the 128 ``(offset << 1) | bit`` keys of a two-part feature.

    ``hash_combine(offset, bit)`` for offset+first-access and, with
    ``swap``, ``hash_combine(bit, offset)`` for the leveling feature: the
    key domain is tiny, so the whole memo is built up front, once per table
    shape, and shared read-only by every kernel.
    """
    return [
        table_index(
            hash_combine(key & 1, key >> 1) if swap
            else hash_combine(key >> 1, key & 1),
            bits,
        ) % entries
        for key in range(128)
    ]


def table_one_kernel(perceptron: HashedPerceptron):
    """Raw-int prediction kernel for a perceptron over the Table I features.

    Returns ``kernel(pc, address, first_access, last_pcs, flp_prediction)
    -> (confidence, indices)``, equal to ``perceptron.predict(context)`` for
    a context carrying the same five inputs (and bumping the same two
    prediction counters).  The perceptron must hold the five legacy Hermes
    features, optionally followed by the leveling feature (SLP); any table
    sizes are accepted.  ``flp_prediction`` is ignored without the leveling
    feature.

    The indices are computed straight-line and each one is memoized on its
    raw key -- ``(pc << 1) | first_access`` rather than its
    ``hash_combine`` value, the last-PC tuple rather than its folded hash
    -- so a memo hit costs no hashing at all.
    """
    names = tuple(spec.name for spec in perceptron.features)
    leveled = names == LEGACY_FEATURE_NAMES + (LEVELING_FEATURE_NAME,)
    if names != LEGACY_FEATURE_NAMES and not leveled:
        raise ValueError(f"not the Table I feature layout: {names}")
    widths = [(bits, entries) for _, bits, entries, _, _ in perceptron._plan]
    (b0, e0), (b1, e1), (b2, e2), (b3, e3), (b4, e4) = widths[:5]
    t0, t1, t2, t3, t4 = perceptron._tables[:5]
    m0: dict[int, int] = {}
    m1: dict[int, int] = {}
    m2: dict[int, int] = {}
    m4: dict[tuple[int, ...], int] = {}
    offset_first = _pair_indices(False, b3, e3)
    if leveled:
        flp_offset = _pair_indices(True, *widths[5])
        t5 = perceptron._tables[5]

    def kernel(
        pc: int,
        address: int,
        first_access: bool,
        last_pcs: tuple[int, ...],
        flp_prediction: bool,
    ) -> tuple[int, list[int]]:
        offset = (address >> 6) & 63
        first = 1 if first_access else 0
        key = pc ^ (offset << 2)
        i0 = m0.get(key)
        if i0 is None:
            i0 = _memo_index(m0, key, key, b0, e0)
        key = pc ^ ((address & 63) << 2)
        i1 = m1.get(key)
        if i1 is None:
            i1 = _memo_index(m1, key, key, b1, e1)
        key = (pc << 1) | first
        i2 = m2.get(key)
        if i2 is None:
            i2 = _memo_index(m2, key, hash_combine(pc, first), b2, e2)
        i3 = offset_first[(offset << 1) | first]
        i4 = m4.get(last_pcs)
        if i4 is None:
            i4 = _memo_index(
                m4, last_pcs, hash_combine(*last_pcs) if last_pcs else 0,
                b4, e4,
            )
        confidence = t0[i0] + t1[i1] + t2[i2] + t3[i3] + t4[i4]
        if leveled:
            i5 = flp_offset[(offset << 1) | (1 if flp_prediction else 0)]
            confidence += t5[i5]
            indices = [i0, i1, i2, i3, i4, i5]
        else:
            indices = [i0, i1, i2, i3, i4]
        stats = perceptron.stats
        stats.predictions += 1
        if confidence >= 0:
            stats.positive_predictions += 1
        return confidence, indices

    return kernel
