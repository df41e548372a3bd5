"""Tests for the hashed perceptron machinery and feature extraction."""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.predictors.perceptron as perceptron_module
from repro.core.flp import FirstLevelPerceptron
from repro.core.slp import SecondLevelPerceptron
from repro.predictors.features import (
    FeatureContext,
    FeatureHistory,
    FeatureSpec,
    legacy_hermes_features,
    leveling_feature,
    slp_features,
)
from repro.predictors.hermes import HermesPredictor
from repro.predictors.perceptron import HashedPerceptron, table_one_kernel


def make_context(pc=0x400, address=0x1000, first=False, history=(1, 2, 3, 4), flp=False):
    return FeatureContext(
        pc=pc,
        address=address,
        first_access=first,
        last_load_pcs=history,
        flp_prediction=flp,
    )


class TestFeatureSpecs:
    def test_legacy_feature_count(self):
        assert len(legacy_hermes_features()) == 5

    def test_slp_has_leveling_feature(self):
        features = slp_features()
        assert len(features) == 6
        assert features[-1].name == "flp_prediction_plus_offset"

    def test_storage_bits(self):
        feature = leveling_feature()
        assert feature.storage_bits() == feature.table_entries * feature.weight_bits

    def test_leveling_feature_depends_on_flp_bit(self):
        feature = leveling_feature()
        positive = feature.extractor(make_context(flp=True))
        negative = feature.extractor(make_context(flp=False))
        assert positive != negative

    def test_table_entry_override(self):
        features = legacy_hermes_features(table_entries=256)
        assert all(spec.table_entries == 256 for spec in features)


class TestFeatureHistory:
    def test_first_access_true_for_unseen_page(self):
        history = FeatureHistory()
        assert history.is_first_access(0x5000)

    def test_first_access_false_after_observation(self):
        history = FeatureHistory()
        history.observe(0x400, 0x5000)
        assert not history.is_first_access(0x5010)

    def test_page_buffer_capacity_evicts_oldest(self):
        history = FeatureHistory(page_buffer_entries=2)
        history.observe(0x400, 0x1000)
        history.observe(0x400, 0x2000)
        history.observe(0x400, 0x3000)
        assert history.is_first_access(0x1000)
        assert not history.is_first_access(0x3000)

    def test_pc_history_is_bounded(self):
        history = FeatureHistory(pc_history_length=4)
        for pc in range(10):
            history.observe(pc, 0x1000)
        context = history.context(99, 0x1000)
        assert len(context.last_load_pcs) == 4
        assert context.last_load_pcs == (6, 7, 8, 9)

    def test_reset(self):
        history = FeatureHistory()
        history.observe(1, 0x1000)
        history.reset()
        assert history.is_first_access(0x1000)
        assert history.context(1, 0x1000).last_load_pcs == ()

    def test_pc_tuple_cached_between_observations(self):
        history = FeatureHistory()
        history.observe(1, 0x1000)
        history.observe(2, 0x2000)
        first = history.context(10, 0x3000).last_load_pcs
        second = history.context(11, 0x4000).last_load_pcs
        # No observe() in between: the tuple is reused, not rebuilt.
        assert first is second

    def test_pc_tuple_invalidated_on_observe(self):
        history = FeatureHistory()
        history.observe(1, 0x1000)
        before = history.context(10, 0x3000).last_load_pcs
        history.observe(2, 0x2000)
        after = history.context(10, 0x3000).last_load_pcs
        assert after == (1, 2)
        assert after != before

    def test_context_pcs_hash_matches_direct_hash(self):
        from repro.common.hashing import hash_combine

        history = FeatureHistory()
        for pc in (3, 5, 7, 11):
            history.observe(pc, 0x1000)
        context = history.context(99, 0x2000)
        assert context.last_pcs_hash == hash_combine(3, 5, 7, 11)

    def test_standalone_context_computes_hash_lazily(self):
        from repro.common.hashing import hash_combine

        context = FeatureContext(pc=1, address=2, first_access=False,
                                 last_load_pcs=(4, 5))
        assert context.last_pcs_hash == hash_combine(4, 5)
        assert FeatureContext(pc=1, address=2, first_access=False,
                              last_load_pcs=()).last_pcs_hash == 0


class TestHashedPerceptron:
    def test_initial_prediction_is_zero(self):
        perceptron = HashedPerceptron(legacy_hermes_features())
        confidence, indices = perceptron.predict(make_context())
        assert confidence == 0
        assert len(indices) == 5

    def test_positive_training_raises_confidence(self):
        perceptron = HashedPerceptron(legacy_hermes_features())
        context = make_context()
        confidence, indices = perceptron.predict(context)
        for _ in range(10):
            perceptron.train(indices, True, confidence)
        new_confidence, _ = perceptron.predict(context)
        assert new_confidence > 0

    def test_negative_training_lowers_confidence(self):
        perceptron = HashedPerceptron(legacy_hermes_features())
        context = make_context()
        confidence, indices = perceptron.predict(context)
        for _ in range(10):
            perceptron.train(indices, False, confidence)
        new_confidence, _ = perceptron.predict(context)
        assert new_confidence < 0

    def test_training_stops_when_confident_and_correct(self):
        perceptron = HashedPerceptron(legacy_hermes_features(), training_threshold=2)
        context = make_context()
        _, indices = perceptron.predict(context)
        perceptron.train(indices, True, 0)
        perceptron.train(indices, True, 100)  # confident and correct: no update
        assert perceptron.stats.weight_updates == 1

    def test_empty_feature_list_rejected(self):
        with pytest.raises(ValueError):
            HashedPerceptron([])

    def test_reset_zeroes_weights(self):
        perceptron = HashedPerceptron(legacy_hermes_features())
        context = make_context()
        confidence, indices = perceptron.predict(context)
        perceptron.train(indices, True, confidence)
        perceptron.reset()
        assert perceptron.predict(context)[0] == 0

    def test_storage_accounting(self):
        perceptron = HashedPerceptron(legacy_hermes_features())
        expected_bits = sum(spec.storage_bits() for spec in perceptron.features)
        assert perceptron.storage_bits() == expected_bits
        assert perceptron.storage_kib() == pytest.approx(expected_bits / 8 / 1024)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**20),  # pc
            st.integers(min_value=0, max_value=2**30),  # address
            st.booleans(),  # outcome
        ),
        min_size=1,
        max_size=150,
    )
)
def test_weights_never_exceed_5_bit_saturation(events):
    perceptron = HashedPerceptron(legacy_hermes_features(), training_threshold=1000)
    history = FeatureHistory()
    for pc, address, outcome in events:
        context = history.context(pc, address)
        confidence, indices = perceptron.predict(context)
        history.observe(pc, address)
        perceptron.train(indices, outcome, confidence)
    for feature_index, spec in enumerate(perceptron.features):
        for entry in range(spec.table_entries):
            weight = perceptron.weight(feature_index, entry)
            assert -16 <= weight <= 15


def test_train_pins_weights_at_saturation_bounds():
    perceptron = HashedPerceptron(legacy_hermes_features(), training_threshold=1000)
    indices = [1, 2, 3, 4, 5]
    for _ in range(40):
        perceptron.train(indices, True, 0)
    assert [perceptron.weight(f, i) for f, i in enumerate(indices)] == [15] * 5
    for _ in range(80):
        perceptron.train(indices, False, 0)
    assert [perceptron.weight(f, i) for f, i in enumerate(indices)] == [-16] * 5
    assert perceptron.stats.weight_updates == 120
    assert perceptron.stats.training_events == 120


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=0, max_value=2**40))
def test_prediction_confidence_bounded_by_feature_count(pc, address):
    perceptron = HashedPerceptron(slp_features())
    context = make_context(pc=pc, address=address)
    confidence, _ = perceptron.predict(context)
    assert -16 * 6 <= confidence <= 15 * 6


# ----------------------------------------------------------------------
# Raw-int kernel vs the extractor-based reference
# ----------------------------------------------------------------------
#: PCs and addresses drawn from small pools repeat (memo hits, page-buffer
#: hits, recurring last-PC windows); the wide ranges add fresh keys.
_PCS = st.one_of(
    st.integers(min_value=0, max_value=15).map(lambda i: 0x40_0000 + 4 * i),
    st.integers(min_value=0, max_value=2**40),
)
_ADDRESSES = st.one_of(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=4095),
    ).map(lambda parts: 0x1000_0000 + parts[0] * 4096 + parts[1]),
    st.integers(min_value=0, max_value=2**40),
)
_ORACLE_EVENTS = st.lists(
    st.tuples(_PCS, _ADDRESSES, st.booleans(), st.booleans()),
    min_size=1,
    max_size=120,
)


def _kernel_under_test(kind, table_entries):
    """``(step, perceptron, reference features, leveling)`` for one predictor.

    ``step(pc, address, flp_bit)`` runs the predictor's own hot path and
    returns ``(confidence, indices)``.
    """
    if kind == "flp":
        predictor = FirstLevelPerceptron(table_entries=table_entries)
    elif kind == "hermes":
        predictor = HermesPredictor(table_entries=table_entries)
    else:
        predictor = SecondLevelPerceptron(
            table_entries=table_entries,
            use_leveling_feature=kind == "slp-leveled",
        )
        return (
            lambda pc, address, flp: predictor.consult_step(pc, address, flp)[1:],
            predictor.perceptron,
            slp_features(table_entries),
            kind == "slp-leveled",
        )

    def step(pc, address, flp):
        metadata = predictor.predict(pc, address, 0).metadata
        return metadata["confidence"], metadata["indices"]

    return step, predictor.perceptron, legacy_hermes_features(table_entries), False


@settings(max_examples=60, deadline=None)
@given(
    events=_ORACLE_EVENTS,
    kind=st.sampled_from(("flp", "hermes", "slp-leveled", "slp-unleveled")),
    table_entries=st.sampled_from((None, 64, 100, 2048)),
    memo_limit=st.sampled_from((None, 1, 3)),
)
def test_kernel_matches_extractor_predict(events, kind, table_entries, memo_limit):
    """FLP/Hermes ``predict`` and SLP ``consult_step`` (the raw kernel) select
    the same indices and sum the same weights as ``HashedPerceptron.predict``
    over ``FeatureHistory.context``, with or without the leveling feature,
    at any table size, and across memo clears."""
    limit = perceptron_module._INDEX_MEMO_LIMIT if memo_limit is None else memo_limit
    with mock.patch.object(perceptron_module, "_INDEX_MEMO_LIMIT", limit):
        step, perceptron, features, leveling = _kernel_under_test(kind, table_entries)
        reference = HashedPerceptron(
            features, training_threshold=perceptron.training_threshold
        )
        history = FeatureHistory()
        for pc, address, flp, outcome in events:
            confidence, indices = step(pc, address, flp)
            context = history.context(pc, address, flp_prediction=flp and leveling)
            expected = reference.predict(context)
            history.observe(pc, address)
            assert (confidence, indices) == expected
            # Train both on the same outcome so the weights move and the
            # confidences compared above are not all zero.
            perceptron.train(indices, outcome, confidence)
            reference.train(expected[1], outcome, expected[0])
    assert dataclasses.asdict(perceptron.stats) == dataclasses.asdict(reference.stats)
    assert perceptron._weights.tolist() == reference._weights.tolist()


def test_kernel_memo_clear_keeps_indices():
    """A memo capped at one entry clears on every miss yet yields the same
    indices as an uncapped one."""
    calls = [(0x40_0000 + 4 * (i % 20), 0x2000_0000 + 64 * i) for i in range(200)]
    capped = HashedPerceptron(slp_features())
    uncapped = HashedPerceptron(slp_features())
    capped_kernel = table_one_kernel(capped)
    uncapped_kernel = table_one_kernel(uncapped)
    history = FeatureHistory()
    for pc, address in calls:
        first, pcs = history.advance(pc, address)
        with mock.patch.object(perceptron_module, "_INDEX_MEMO_LIMIT", 1):
            got = capped_kernel(pc, address, first, pcs, True)
        assert got == uncapped_kernel(pc, address, first, pcs, True)


def test_kernel_rejects_other_feature_layouts():
    with pytest.raises(ValueError):
        table_one_kernel(HashedPerceptron([FeatureSpec("pc", lambda c: c.pc)]))
    with pytest.raises(ValueError):
        table_one_kernel(HashedPerceptron(legacy_hermes_features()[::-1]))


def test_advance_matches_context_then_observe():
    advanced = FeatureHistory(page_buffer_entries=2)
    observed = FeatureHistory(page_buffer_entries=2)
    for pc, address in [(1, 0x1000), (2, 0x2000), (3, 0x1000), (4, 0x3000),
                        (5, 0x2000), (6, 0x1000), (7, 0x1040)]:
        context = observed.context(pc, address)
        expected = (context.first_access, context.last_load_pcs)
        observed.observe(pc, address)
        assert advanced.advance(pc, address) == expected
