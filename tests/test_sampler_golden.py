"""Golden digests of every reverse-BFS sampler's output.

The packed stream samplers (standard, marginal, weighted) and the keyed
sampler are pinned bit for bit: offsets, members, weights and roots are
hashed and compared against digests recorded from the reference
implementation.  Any change to how a sampler stores, scans or extracts
its per-sample state must leave every digest unchanged.

The cases cover what such a change can get wrong:

* a p=1 diamond, where two frontier nodes share a live in-neighbour, so
  one BFS level yields the same (sample, node) pair twice;
* counts that span several chunks and end in a short chunk (the test
  pins ``REPRO_ENGINE_BATCH`` itself, to 7 and to unset, because the
  chunk size is part of the stream samplers' RNG stream);
* blocked roots, marginal sets killed mid-walk, and weighted roots that
  sit on fixed seeds;
* the in-process output of :class:`~repro.index.builder.ParallelRRSampler`,
  whose shards each draw from their own seed stream: two ``generate``
  calls over a shard size that leaves a short final shard.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.dynamic.sampling import keyed_roots, keyed_rr_sets
from repro.engine.config import BATCH_ENV_VAR
from repro.engine.reverse import (
    marginal_rr_sets_packed,
    random_rr_sets_packed,
    weighted_rr_sets_packed,
)
from repro.graphs import generators, weighting
from repro.graphs.graph import DirectedGraph
from repro.index.builder import ParallelRRSampler, ShardSpec
from repro.rrsets.coverage import PackedRRBatch
from repro.rrsets.rrset import WeightedRRSampler

#: 0 -> {1, 2} -> 3 -> 4, every edge live: a walk from 3 or 4 reaches
#: node 0 through both 1 and 2 in the same level
DIAMOND = DirectedGraph.from_edges(
    5, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
    name="diamond")
DIAMOND_ROOTS = [3, 4, 0, 2, 4, 1, 3, 3, 4]
ER = weighting.weighted_cascade(
    generators.erdos_renyi(150, 4.0, rng=7, directed=True))
#: the ER graph's five highest out-degree nodes: fixed seeds reached by
#: many walks and sitting under some roots
ER_SEEDS = [int(v) for v in np.argsort(-ER.out_degrees(), kind="stable")[:5]]
ER_BLOCK = dict(zip(ER_SEEDS, (0.2, 0.9, 0.5, 0.5, 0.3)))


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.asarray(array)
        layout = "<f8" if array.dtype.kind == "f" else "<i8"
        digest.update(np.ascontiguousarray(array, dtype=layout).tobytes())
    return digest.hexdigest()[:16]


def _stream_cases():
    """(name, draw) pairs; ``draw()`` returns the arrays to hash."""
    def packed(offsets, nodes, *rest):
        assert nodes.dtype == np.int64
        return (offsets, nodes) + rest

    return [
        ("standard-diamond-roots", lambda: packed(*random_rr_sets_packed(
            DIAMOND, len(DIAMOND_ROOTS), 1, roots=DIAMOND_ROOTS))),
        ("standard-diamond", lambda: packed(*random_rr_sets_packed(
            DIAMOND, 40, 2))),
        ("standard-er", lambda: packed(*random_rr_sets_packed(
            ER, 1100, 3))),
        ("marginal-diamond-roots", lambda: packed(*marginal_rr_sets_packed(
            DIAMOND, {4}, len(DIAMOND_ROOTS), 4, roots=DIAMOND_ROOTS))),
        ("marginal-diamond-dead", lambda: packed(*marginal_rr_sets_packed(
            DIAMOND, {2}, 40, 5))),
        ("marginal-er", lambda: packed(*marginal_rr_sets_packed(
            ER, set(ER_SEEDS), 1100, 6))),
        ("weighted-diamond-roots", lambda: packed(*weighted_rr_sets_packed(
            DIAMOND, {0: 0.4}, 1.0, len(DIAMOND_ROOTS), 7,
            roots=DIAMOND_ROOTS))),
        ("weighted-diamond", lambda: packed(*weighted_rr_sets_packed(
            DIAMOND, {0: 0.4, 3: 0.7}, 1.0, 40, 8))),
        ("weighted-er", lambda: packed(*weighted_rr_sets_packed(
            ER, ER_BLOCK, 1.0, 1100, 9))),
        ("weighted-pairs-er", lambda: _pairs(
            WeightedRRSampler.from_state(ER, ER_BLOCK, 1.0).sample_pairs(
                10, 1100))),
    ]


def _pairs(pairs):
    nodes = [np.asarray(members, dtype=np.int64) for members, _ in pairs]
    return (np.array([len(members) for members in nodes]),
            np.concatenate(nodes),
            np.array([weight for _, weight in pairs], dtype=np.float64))


def _keyed(graph, count, base_seed, roots=None, **kwargs):
    indices = np.arange(count)
    if roots is None:
        roots = keyed_roots(base_seed, indices, graph.num_nodes)
    return _pairs(keyed_rr_sets(graph, indices, roots, base_seed, **kwargs))


KEYED_CASES = [
    ("keyed-standard-diamond", lambda: _keyed(
        DIAMOND, len(DIAMOND_ROOTS), 11, roots=DIAMOND_ROOTS)),
    ("keyed-marginal-diamond", lambda: _keyed(
        DIAMOND, len(DIAMOND_ROOTS), 12, roots=DIAMOND_ROOTS,
        kind="marginal", blocked=[4])),
    ("keyed-weighted-diamond", lambda: _keyed(
        DIAMOND, len(DIAMOND_ROOTS), 13, roots=DIAMOND_ROOTS,
        kind="weighted", node_block_utility={0: 0.4},
        superior_utility=1.0)),
    ("keyed-standard-er", lambda: _keyed(ER, 1100, 14)),
    ("keyed-marginal-er", lambda: _keyed(
        ER, 1100, 15, kind="marginal", blocked=ER_SEEDS)),
    ("keyed-weighted-er", lambda: _keyed(
        ER, 1100, 16, kind="weighted", node_block_utility=ER_BLOCK,
        superior_utility=1.0)),
]

def _shards(seed, **spec_kwargs):
    """Two in-process ``generate`` calls: shards of 300, 300, 300 and 200
    sets, then one of 250."""
    spec = ShardSpec(graph=ER, **spec_kwargs)
    with ParallelRRSampler(spec, seed=seed, shard_sets=300) as sampler:
        batch = PackedRRBatch.concat([sampler.generate(1100),
                                      sampler.generate(250)])
    return batch.offsets, batch.nodes, batch.weights


SHARD_CASES = [
    ("shards-standard-er", lambda: _shards(21, kind="standard")),
    ("shards-marginal-er", lambda: _shards(
        22, kind="marginal", blocked=frozenset(ER_SEEDS))),
    ("shards-weighted-er", lambda: _shards(
        23, kind="weighted", node_block_utility=ER_BLOCK,
        superior_utility=1.0)),
]

#: stream digests per ``REPRO_ENGINE_BATCH`` setting (chunking is part of
#: the stream)
STREAM_GOLDEN = {
    "7": {
        "standard-diamond-roots": "c3c22450645ab620",
        "standard-diamond": "400e0b7dc454dabb",
        "standard-er": "89ab4cac2ee2fbee",
        "marginal-diamond-roots": "f6633b0bcbd326cd",
        "marginal-diamond-dead": "8a7f1d5dc6c64d8d",
        "marginal-er": "3e5a531f15552a15",
        "weighted-diamond-roots": "a6cadace3fbf1f4e",
        "weighted-diamond": "01d790facfd59857",
        "weighted-er": "85ae4623f87b3230",
        "weighted-pairs-er": "9a3a7737bbbd697c",
    },
    None: {
        "standard-diamond-roots": "c3c22450645ab620",
        "standard-diamond": "4d9e51bbc63652bd",
        "standard-er": "1642e8ff9e5157ae",
        "marginal-diamond-roots": "f6633b0bcbd326cd",
        "marginal-diamond-dead": "82a5c6fee22c7b20",
        "marginal-er": "6d0e418efdb8141f",
        "weighted-diamond-roots": "a6cadace3fbf1f4e",
        "weighted-diamond": "b756b260c28508f0",
        "weighted-er": "8671832bf3dc51ed",
        "weighted-pairs-er": "aa285f1ec1d762c4",
    },
}

#: in-process sharded digests per ``REPRO_ENGINE_BATCH`` setting
SHARD_GOLDEN = {
    "7": {
        "shards-standard-er": "c778d8f72524f921",
        "shards-marginal-er": "28e2ebcdab3d3a04",
        "shards-weighted-er": "bf49c76615093353",
    },
    None: {
        "shards-standard-er": "7e979c51d2656a4b",
        "shards-marginal-er": "b39711a5160c31e5",
        "shards-weighted-er": "aaa45ad80bada83a",
    },
}

#: keyed digests: keyed coins are chunking-independent, so one table
#: serves every batch setting
KEYED_GOLDEN = {
    "keyed-standard-diamond": "809e4afe900acb31",
    "keyed-marginal-diamond": "55c6e9e3cf0284ad",
    "keyed-weighted-diamond": "d319ad74bcad67f6",
    "keyed-standard-er": "34ad42c3208f6916",
    "keyed-marginal-er": "ea90a7ea1e15690c",
    "keyed-weighted-er": "1e41b9a24f6faebd",
}


@pytest.fixture(params=["7", None], ids=["batch7", "batch-default"])
def batch(request, monkeypatch):
    if request.param is None:
        monkeypatch.delenv(BATCH_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(BATCH_ENV_VAR, request.param)
    return request.param


@pytest.mark.parametrize("name, draw", _stream_cases(),
                         ids=[name for name, _ in _stream_cases()])
def test_stream_sampler_digest(batch, name, draw):
    assert _digest(*draw()) == STREAM_GOLDEN[batch][name]


@pytest.mark.parametrize("name, draw", SHARD_CASES,
                         ids=[name for name, _ in SHARD_CASES])
def test_shard_sampler_digest(batch, name, draw):
    assert _digest(*draw()) == SHARD_GOLDEN[batch][name]


@pytest.mark.parametrize("name, draw", KEYED_CASES,
                         ids=[name for name, _ in KEYED_CASES])
def test_keyed_sampler_digest(batch, name, draw):
    assert _digest(*draw()) == KEYED_GOLDEN[name]


def test_diamond_sets_hold_each_member_once():
    """The shared in-neighbour is recorded once per set, in every kind."""
    offsets, nodes = random_rr_sets_packed(DIAMOND, 1, 0, roots=[4])
    assert nodes.tolist() == [0, 1, 2, 3, 4]
    offsets, nodes, weights, _ = weighted_rr_sets_packed(
        DIAMOND, {0: 0.4}, 1.0, 1, 0, roots=[3])
    assert nodes.tolist() == [0, 1, 2, 3]
    assert weights.tolist() == [pytest.approx(0.6)]
