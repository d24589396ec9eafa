"""Equivalence suite for the CSR-native selection engine.

The contract under test: ``node_selection`` returns
:class:`SelectionResult` s bit-identical to :func:`reference_selection`,
the pure-Python greedy loop kept here as the oracle — same seeds, same
``prefix_weights`` floats, same ``covered_weight``, same ``saturated_at`` —
over any weighted RR collection, and the growable :class:`RRCollection`,
its zero-copy :meth:`freeze` and the ``.npz`` round-trip all preserve
that identity — including a frozen index answering any sequence of
budgets, from any number of threads, as prefixes of the one greedy order
it keeps.
"""

import sys
import threading
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import AlgorithmError
from repro.index.frozen import FrozenRRIndex
from repro.rrsets.coverage import (
    SATURATION_PAD,
    SATURATION_STOP,
    RRCollection,
    SelectionResult,
    node_selection,
)
from repro.rrsets.imm import imm


def reference_selection(collection, k: int,
                        on_saturation: str = SATURATION_PAD
                        ) -> SelectionResult:
    """The pure-Python greedy oracle: one set and one member at a time."""
    n = collection.num_nodes
    gains = collection.initial_gains()
    weights = collection.weights()
    covered = np.zeros(collection.num_sets, dtype=bool)
    selected: List[int] = []
    prefix_weights: List[float] = []
    total = 0.0
    saturated_at: Optional[int] = None
    chosen = np.zeros(n, dtype=bool)
    for _ in range(k):
        candidate = int(np.argmax(np.where(chosen, -np.inf, gains)))
        if chosen[candidate]:
            break
        chosen[candidate] = True
        covered_new = 0
        for set_index in collection.sets_covered_by(candidate):
            if covered[set_index]:
                continue
            covered[set_index] = True
            covered_new += 1
            weight = weights[set_index]
            total += weight
            for node in collection.set_members(set_index):
                gains[int(node)] -= weight
        if covered_new == 0 and saturated_at is None:
            saturated_at = len(selected)
            if on_saturation == SATURATION_STOP:
                break
        selected.append(candidate)
        prefix_weights.append(total)
    return SelectionResult(seeds=selected, covered_weight=total,
                           prefix_weights=prefix_weights,
                           saturated_at=saturated_at)


#: the production loop and its oracle, by test id
SELECTORS = {"eager": node_selection, "reference": reference_selection}


def random_collection(rng, num_nodes=12, num_sets=30, weighted=True,
                      empty_fraction=0.15, zero_weight_fraction=0.1):
    """A random weighted RR collection (with empty and zero-weight sets)."""
    collection = RRCollection(num_nodes)
    for _ in range(num_sets):
        if rng.random() < empty_fraction:
            nodes = np.empty(0, dtype=np.int64)
        else:
            size = int(rng.integers(1, min(6, num_nodes) + 1))
            nodes = rng.choice(num_nodes, size=size, replace=False)
        if rng.random() < zero_weight_fraction:
            weight = 0.0
        elif weighted:
            weight = float(rng.random() * 5.0)
        else:
            weight = 1.0
        collection.add(nodes.astype(np.int64), weight)
    return collection


def assert_identical(result_a, result_b):
    """Bit-for-bit SelectionResult equality (no approx anywhere)."""
    assert result_a.seeds == result_b.seeds
    assert len(result_a.prefix_weights) == len(result_b.prefix_weights)
    for weight_a, weight_b in zip(result_a.prefix_weights,
                                  result_b.prefix_weights):
        assert weight_a == weight_b
    assert result_a.covered_weight == result_b.covered_weight
    assert result_a.saturated_at == result_b.saturated_at


class TestStrategyEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("weighted", [True, False])
    def test_lazy_eager_reference_bit_identical(self, seed, weighted):
        rng = np.random.default_rng(seed)
        collection = random_collection(rng, weighted=weighted)
        for k in (0, 1, 3, 7, 12):
            for mode in (SATURATION_PAD, SATURATION_STOP):
                assert_identical(
                    node_selection(collection, k, on_saturation=mode),
                    reference_selection(collection, k, on_saturation=mode))

    @pytest.mark.parametrize("seed", range(4))
    def test_frozen_matches_growable(self, seed):
        rng = np.random.default_rng(100 + seed)
        collection = random_collection(rng, num_nodes=15, num_sets=40)
        frozen = collection.freeze()
        for k in (1, 4, 9):
            expected = reference_selection(collection, k)
            assert_identical(node_selection(collection, k), expected)
            assert_identical(node_selection(frozen, k), expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_extend_matches_add(self, seed):
        rng = np.random.default_rng(200 + seed)
        reference = random_collection(rng, num_nodes=10, num_sets=25)
        pairs = [(reference.set_members(i).copy(),
                  float(reference.weights()[i]))
                 for i in range(reference.num_sets)]
        bulk = RRCollection(10)
        bulk.extend(pairs)
        assert bulk.total_weight == reference.total_weight
        for k in (2, 6):
            assert_identical(node_selection(bulk, k),
                             node_selection(reference, k))

    def test_equivalence_on_sampled_rr_sets(self, small_er_graph):
        result = imm(small_er_graph, 5, rng=7, keep_collection=True)
        collection = result.collection
        expected = reference_selection(collection, 5)
        scale = collection.num_nodes / collection.num_sets
        assert result.seeds == expected.seeds
        assert result.estimated_value == expected.covered_weight * scale
        assert result.prefix_values == [weight * scale for weight
                                        in expected.prefix_weights]


# property-based: the loop and the oracle agree on arbitrary weighted
# instances
rr_sets_strategy = st.lists(
    st.tuples(st.lists(st.integers(min_value=0, max_value=9), min_size=0,
                       max_size=5, unique=True),
              st.floats(min_value=0.0, max_value=10.0)),
    min_size=1, max_size=20)


@settings(max_examples=50, deadline=None)
@given(sets=rr_sets_strategy, k=st.integers(min_value=0, max_value=11))
def test_property_strategies_bit_identical(sets, k):
    collection = RRCollection(10)
    for nodes, weight in sets:
        collection.add(np.array(nodes, dtype=np.int64), weight)
    frozen = collection.freeze()
    reference = reference_selection(collection, k)
    for holder in (collection, frozen):
        assert_identical(node_selection(holder, k), reference)


# integer weights keep every sum exact, so coverage's submodularity shows
# in the greedy's prefix weights without rounding slack
integer_rr_sets = st.lists(
    st.tuples(st.lists(st.integers(min_value=0, max_value=9), min_size=0,
                       max_size=5, unique=True),
              st.integers(min_value=0, max_value=5)),
    min_size=1, max_size=20)


@settings(max_examples=50, deadline=None)
@given(sets=integer_rr_sets, k=st.integers(min_value=0, max_value=11))
def test_property_prefix_weights_are_submodular(sets, k):
    collection = RRCollection(10)
    for nodes, weight in sets:
        collection.add(np.array(nodes, dtype=np.int64), float(weight))
    result = node_selection(collection, k)
    increments = np.diff([0.0] + result.prefix_weights)
    assert (increments >= 0).all()  # prefix weights never decrease
    assert (np.diff(increments) <= 0).all()  # increments never increase
    if result.saturated_at is not None:
        assert (increments[result.saturated_at:] == 0).all()
    assert result.covered_weight == collection.covered_weight(result.seeds)


# a frozen index answers every k from one kept order: any sequence of
# budgets and modes must match the oracle run fresh to each k
weights_strategy = st.one_of(
    st.just(1.0),
    st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0,
                                               max_value=10.0)),
             min_size=20, max_size=20))
member_lists = st.lists(st.integers(min_value=0, max_value=9), min_size=0,
                        max_size=5)  # not unique: duplicated members
queries_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=13),
              st.sampled_from([SATURATION_PAD, SATURATION_STOP])),
    min_size=1, max_size=10)


@settings(max_examples=80, deadline=None)
@given(members=st.lists(member_lists, min_size=1, max_size=20),
       weights=weights_strategy, queries=queries_strategy)
@example(members=[[0, 1], [1, 2, 2], [], [3], [4, 0], [5, 6, 7], [8]],
         weights=1.0,
         queries=[(4, SATURATION_STOP), (4, SATURATION_PAD),
                  (9, SATURATION_PAD), (2, SATURATION_STOP),
                  (0, SATURATION_PAD), (13, SATURATION_STOP),
                  (13, SATURATION_PAD), (7, SATURATION_STOP)])
def test_property_frozen_order_answers_every_sequence(members, weights,
                                                      queries):
    collection = RRCollection(10)
    for position, nodes in enumerate(members):
        weight = weights if isinstance(weights, float) \
            else weights[position]
        collection.add(np.array(nodes, dtype=np.int64), weight)
    frozen = FrozenRRIndex(10, *collection._packed())
    for k, mode in queries:
        assert_identical(node_selection(frozen, k, on_saturation=mode),
                         reference_selection(collection, k, mode))


class TestKeptOrder:
    """A frozen index keeps one greedy order and answers by slicing it."""

    def test_answers_are_fresh_lists(self):
        collection = random_collection(np.random.default_rng(42),
                                       num_nodes=12, num_sets=40)
        frozen = collection.freeze()
        for k in (6, 3):
            answer = node_selection(frozen, k)
            answer.seeds.reverse()
            answer.seeds.append(11)
            answer.prefix_weights[:] = [-1.0]
            assert_identical(node_selection(frozen, k),
                             reference_selection(collection, k))
            assert_identical(node_selection(frozen, 8),
                             reference_selection(collection, 8))

    def test_threads_share_one_fresh_index(self):
        collection = random_collection(np.random.default_rng(43),
                                       num_nodes=40, num_sets=400)
        frozen = FrozenRRIndex(40, *collection._packed())
        queries = [(0, SATURATION_PAD), (3, SATURATION_STOP),
                   (7, SATURATION_PAD), (12, SATURATION_STOP),
                   (20, SATURATION_PAD), (26, SATURATION_STOP),
                   (33, SATURATION_PAD), (45, SATURATION_STOP)]
        barrier = threading.Barrier(len(queries), timeout=30)
        answers = {}

        def select(query):
            barrier.wait()
            answers[query] = node_selection(frozen, *query)

        threads = [threading.Thread(target=select, args=(query,))
                   for query in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the extensions densely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(answers) == sorted(queries)  # no thread raised
        for k, mode in queries:
            assert_identical(answers[(k, mode)],
                             reference_selection(collection, k, mode))

    def test_save_after_queries_writes_the_same_files(self, tmp_path):
        import json
        import zipfile

        collection = random_collection(np.random.default_rng(44),
                                       num_nodes=12, num_sets=50)
        index = collection.freeze(meta={"sampler": "standard"})
        index.save(tmp_path / "before")
        for k in (5, 12, 2):
            node_selection(index, k)
        index.save(tmp_path / "after")
        with np.load(tmp_path / "before.npz") as before, \
                np.load(tmp_path / "after.npz") as after:
            assert before.files == after.files
            for name in before.files:
                assert before[name].dtype == after[name].dtype
                np.testing.assert_array_equal(before[name], after[name])
        with zipfile.ZipFile(tmp_path / "after.npz") as archive:
            assert archive.namelist() == [
                f"{name}.npy" for name in ("offsets", "nodes", "weights",
                                           "inv_offsets", "inv_sets",
                                           "gains0")]
        manifests = [json.loads((tmp_path / f"{name}.manifest.json")
                                .read_text(encoding="utf-8"))
                     for name in ("before", "after")]
        for key in ("array_bytes", "dtypes"):
            assert manifests[0][key] == manifests[1][key]


class TestSaturation:
    def make_saturating(self):
        # only nodes 0 and 1 ever cover anything; nodes 2, 3 are padding
        collection = RRCollection(4)
        collection.add(np.array([0]), 2.0)
        collection.add(np.array([0, 1]), 1.0)
        collection.add(np.array([1]), 1.0)
        return collection

    @pytest.mark.parametrize("strategy", sorted(SELECTORS))
    def test_pad_keeps_k_seeds_and_reports_saturation(self, strategy):
        result = SELECTORS[strategy](self.make_saturating(), 4)
        assert result.seeds == [0, 1, 2, 3]  # zero-gain pad: lowest ids
        assert result.saturated_at == 2
        assert result.prefix_weights == [3.0, 4.0, 4.0, 4.0]

    @pytest.mark.parametrize("strategy", sorted(SELECTORS))
    def test_stop_truncates_at_saturation(self, strategy):
        result = SELECTORS[strategy](self.make_saturating(), 4,
                                     on_saturation="stop")
        assert result.seeds == [0, 1]
        assert result.saturated_at == 2
        assert result.prefix_weights == [3.0, 4.0]
        assert result.covered_weight == 4.0

    @pytest.mark.parametrize("strategy", sorted(SELECTORS))
    def test_unsaturated_selection_reports_none(self, strategy):
        collection = RRCollection(3)
        for node in range(3):
            collection.add(np.array([node]), 1.0)
        result = SELECTORS[strategy](collection, 2)
        assert result.saturated_at is None

    @pytest.mark.parametrize("strategy", sorted(SELECTORS))
    def test_saturation_detected_despite_float_residue(self, strategy):
        # incremental subtraction can leave ~1-ulp residue on the gains of
        # fully covered nodes (0.1 + 0.3 summed forward, subtracted in
        # coverage order); saturation must still be detected because the
        # pick covers no new set
        collection = RRCollection(3)
        collection.add(np.array([0, 2]), 0.1)
        collection.add(np.array([1, 2]), 0.3)
        collection.add(np.array([0]), 5.0)
        collection.add(np.array([1]), 4.0)
        result = SELECTORS[strategy](collection, 3)
        assert result.seeds == [0, 1, 2]
        assert result.saturated_at == 2
        stopped = SELECTORS[strategy](collection, 3, on_saturation="stop")
        assert stopped.seeds == [0, 1]
        assert stopped.saturated_at == 2

    def test_pad_preserves_prefix_semantics(self):
        # the padded tail still makes every prefix a greedy solution,
        # which is what PRIMA+/SeqGRD budget exhaustion relies on
        collection = self.make_saturating()
        full = node_selection(collection, 4)
        for k in range(1, 5):
            assert node_selection(collection, k).seeds == full.prefix(k)

    def test_invalid_mode_rejected(self):
        with pytest.raises(AlgorithmError):
            node_selection(RRCollection(2), 1, on_saturation="explode")


class TestPackedStore:
    def test_average_set_size_running_totals(self):
        collection = RRCollection(6)
        collection.add(np.array([0, 1]), 1.0)
        collection.add(np.empty(0, dtype=np.int64), 1.0)
        collection.extend([(np.array([2, 3, 4]), 1.0),
                           (np.array([5]), 0.0)])
        assert collection.average_set_size() == pytest.approx(6 / 4)
        assert RRCollection(3).average_set_size() == 0.0

    def test_freeze_is_zero_copy(self):
        rng = np.random.default_rng(5)
        collection = random_collection(rng, num_nodes=8, num_sets=20)
        frozen = collection.freeze()
        assert np.shares_memory(frozen._nodes, collection._members)
        assert np.shares_memory(frozen._weights, collection._weights)
        assert np.shares_memory(frozen._offsets, collection._offsets)

    def test_growing_after_freeze_leaves_frozen_intact(self):
        collection = RRCollection(5)
        collection.add(np.array([0, 1]), 1.0)
        frozen = collection.freeze()
        nodes_before = frozen._nodes.copy()
        for _ in range(50):  # force several buffer doublings
            collection.add(np.array([2, 3, 4]), 1.0)
        np.testing.assert_array_equal(frozen._nodes, nodes_before)
        assert frozen.num_sets == 1
        assert collection.num_sets == 51

    def test_npz_round_trip_preserves_packed_buffers(self, tmp_path):
        rng = np.random.default_rng(11)
        collection = random_collection(rng, num_nodes=10, num_sets=35)
        frozen = collection.freeze(meta={"sampler": "standard"})
        frozen.save(tmp_path / "packed")
        loaded = FrozenRRIndex.load(tmp_path / "packed")
        np.testing.assert_array_equal(loaded._offsets, frozen._offsets)
        np.testing.assert_array_equal(loaded._nodes, frozen._nodes)
        np.testing.assert_array_equal(loaded._weights, frozen._weights)
        np.testing.assert_array_equal(loaded._inv_offsets,
                                      frozen._inv_offsets)
        np.testing.assert_array_equal(loaded._inv_sets, frozen._inv_sets)
        assert_identical(node_selection(loaded, 6),
                         node_selection(collection, 6))

    def test_compact_freeze_copies_buffers(self):
        rng = np.random.default_rng(19)
        collection = random_collection(rng, num_nodes=8, num_sets=20)
        frozen = collection.freeze(compact=True)
        assert not np.shares_memory(frozen._nodes, collection._members)
        assert_identical(node_selection(frozen, 4),
                         node_selection(collection, 4))

    def test_thawed_empty_index_can_grow(self):
        # regression: _from_packed installs exactly-sized (possibly empty)
        # buffers, and growth from zero capacity must still terminate
        empty = RRCollection(5).freeze().to_collection()
        empty.add(np.array([0, 1]), 1.0)
        assert empty.num_sets == 1
        all_empty = RRCollection(5)
        all_empty.add(np.empty(0, dtype=np.int64), 1.0)
        thawed = all_empty.freeze().to_collection()
        thawed.add(np.array([2, 3]), 1.0)
        assert thawed.num_sets == 2
        assert list(thawed.set_members(1)) == [2, 3]

    def test_thaw_round_trip(self):
        rng = np.random.default_rng(13)
        collection = random_collection(rng, num_nodes=9, num_sets=25)
        thawed = collection.freeze().to_collection()
        assert thawed.num_sets == collection.num_sets
        assert thawed.average_set_size() == collection.average_set_size()
        assert_identical(node_selection(thawed, 5),
                         node_selection(collection, 5))

    def test_duplicate_members_stay_equivalent(self):
        # duplicated members duplicate postings; the loop must still count
        # each covered set's weight exactly once, as the oracle does
        collection = RRCollection(4)
        collection.add(np.array([1, 1, 2]), 3.0)
        collection.add(np.array([2, 3]), 1.0)
        reference = reference_selection(collection, 3)
        assert_identical(node_selection(collection, 3), reference)
        assert reference.covered_weight == 4.0

    def test_member_validation(self):
        collection = RRCollection(4)
        with pytest.raises(AlgorithmError):
            collection.add(np.array([4]), 1.0)
        with pytest.raises(AlgorithmError):
            collection.extend([(np.array([-1]), 1.0)])

    def test_initial_gains_matches_posting_sums(self):
        rng = np.random.default_rng(17)
        collection = random_collection(rng, num_nodes=8, num_sets=30)
        gains = collection.initial_gains()
        weights = collection.weights()
        for node in range(8):
            expected = sum(weights[i]
                           for i in collection.sets_covered_by(node))
            assert gains[node] == pytest.approx(expected)
