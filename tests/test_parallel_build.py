"""Tests for the packed-transport parallel index builder.

Covers the PR-10 rework: :class:`PackedRRBatch` shard transport, the
zero-copy merges into :class:`RRCollection` / :class:`StreamingIndexWriter`,
the warm shared-memory worker pools, and the failure paths (worker death
fallback, spawn transport, shared-memory cleanup).
"""

import glob
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
import warnings

import numpy as np
import pytest

from repro.graphs import generators, weighting
from repro.index import build_index, pool_stats, shutdown_worker_pools
from repro.index.builder import (
    DEFAULT_SHARD_SIZE,
    ParallelRRSampler,
    ShardSpec,
    _sample_shards,
)
from repro.index.pool import SHM_PREFIX
from repro.index.stream import StreamingIndexWriter
from repro.rrsets.coverage import PackedRRBatch, RRCollection
from repro.rrsets.imm import IMMOptions
from repro.utility.configs import two_item_config

OPTIONS = IMMOptions(max_rr_sets=2000)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def graph():
    g = generators.erdos_renyi(150, avg_degree=4.0, rng=11, directed=True,
                               name="er150")
    return weighting.weighted_cascade(g)


@pytest.fixture(autouse=True)
def _drain_pools():
    """Each test starts and ends with an empty warm-pool registry."""
    shutdown_worker_pools()
    yield
    shutdown_worker_pools()


def batches_equal(a: PackedRRBatch, b: PackedRRBatch) -> bool:
    return (np.array_equal(a.offsets, b.offsets)
            and np.array_equal(a.nodes, b.nodes)
            and np.array_equal(a.weights, b.weights))


def shm_blocks():
    return glob.glob(f"/dev/shm/{SHM_PREFIX}-*")


def _exit_worker(task):
    """Simulated worker crash; module-level so it pickles by reference."""
    os._exit(1)


# ----------------------------------------------------------------------
# PackedRRBatch container
# ----------------------------------------------------------------------
class TestPackedRRBatch:
    def test_from_pairs_round_trips(self):
        pairs = [(np.array([3, 1, 4], dtype=np.int64), 1.0),
                 (np.array([], dtype=np.int64), 0.5),
                 (np.array([2], dtype=np.int64), 2.25)]
        batch = PackedRRBatch.from_pairs(pairs, num_nodes=10)
        assert len(batch) == 3
        assert batch.num_members == 4
        out = list(batch)
        for (want_nodes, want_w), (got_nodes, got_w) in zip(pairs, out):
            np.testing.assert_array_equal(want_nodes, got_nodes)
            assert want_w == got_w

    def test_from_arrays_validates_bounds_before_narrowing(self):
        # an id past the int32 range must be caught, not silently wrapped
        offsets = np.array([0, 1], dtype=np.int64)
        nodes = np.array([2**40], dtype=np.int64)
        with pytest.raises(Exception):
            PackedRRBatch.from_arrays(offsets, nodes,
                                      np.ones(1), num_nodes=100,
                                      id_dtype=np.int32)

    def test_concat_matches_from_pairs(self):
        rng = np.random.default_rng(7)
        pairs = [(rng.choice(20, size=int(rng.integers(0, 6)),
                             replace=False).astype(np.int64),
                  float(rng.random()))
                 for _ in range(30)]
        whole = PackedRRBatch.from_pairs(pairs, num_nodes=20)
        parts = [PackedRRBatch.from_pairs(pairs[i:i + 7], num_nodes=20)
                 for i in range(0, 30, 7)]
        assert batches_equal(whole, PackedRRBatch.concat(parts))

    def test_concat_skips_none_and_empty_input(self):
        empty = PackedRRBatch.concat([])
        assert len(empty) == 0 and empty.num_members == 0
        one = PackedRRBatch.from_pairs(
            [(np.array([1], dtype=np.int64), 1.0)], num_nodes=5)
        assert batches_equal(one, PackedRRBatch.concat([None, one, None]))

    def test_rejects_malformed_offsets(self):
        with pytest.raises(Exception):
            PackedRRBatch(offsets=np.array([1, 2], dtype=np.int64),
                          nodes=np.array([0], dtype=np.int64),
                          weights=np.ones(1))
        with pytest.raises(Exception):
            PackedRRBatch(offsets=np.array([0, 2, 1], dtype=np.int64),
                          nodes=np.array([0, 1], dtype=np.int64),
                          weights=np.ones(2))


# ----------------------------------------------------------------------
# zero-copy merges
# ----------------------------------------------------------------------
class TestPackedMerge:
    def pairs(self, n=200, num_nodes=50, seed=3):
        rng = np.random.default_rng(seed)
        return [(rng.choice(num_nodes, size=int(rng.integers(0, 8)),
                            replace=False).astype(np.int64),
                 float(rng.random()) if i % 3 else 1.0)
                for i in range(n)]

    def test_extend_packed_matches_repeated_add(self):
        pairs = self.pairs()
        loop = RRCollection(50)
        for nodes, weight in pairs:
            loop.add(nodes, weight)
        packed = RRCollection(50)
        packed.extend(PackedRRBatch.from_pairs(pairs, num_nodes=50))
        for want, got in zip(loop._packed(), packed._packed()):
            np.testing.assert_array_equal(want, got)
        # float accumulation order is part of the bit-identity contract
        assert loop.total_weight == packed.total_weight

    def test_extend_packed_rejects_out_of_range_ids(self):
        bad = PackedRRBatch.from_pairs(
            [(np.array([49], dtype=np.int64), 1.0)], num_nodes=50)
        small = RRCollection(10)
        with pytest.raises(Exception):
            small.extend_packed(bad)

    def test_streaming_append_packed_bit_identical_files(self, tmp_path):
        pairs = self.pairs(n=300)
        batch = PackedRRBatch.from_pairs(pairs, num_nodes=50)

        w1 = StreamingIndexWriter(tmp_path / "pairs", 50, chunk_members=64)
        w1.append(iter(pairs))
        npz1, _ = w1.finalize(meta={"sampler": "standard"})

        w2 = StreamingIndexWriter(tmp_path / "packed", 50, chunk_members=64)
        w2.append(batch)
        npz2, _ = w2.finalize(meta={"sampler": "standard"})

        assert npz1.read_bytes() == npz2.read_bytes()


# ----------------------------------------------------------------------
# worker-count invariance on the packed path
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestWorkerCountInvariance:
    def test_packed_arrays_identical_across_worker_counts(self, graph):
        spec = ShardSpec(kind="standard", graph=graph)
        reference = None
        for workers in (1, 2, 4):
            with ParallelRRSampler(spec, seed=99, workers=workers,
                                   shard_sets=64) as sampler:
                batch = sampler.generate(300)
            assert isinstance(batch, PackedRRBatch)
            assert len(batch) == 300
            if reference is None:
                reference = batch
            else:
                assert batches_equal(reference, batch)

    def test_odd_shard_remainders(self, graph):
        # counts that do not divide the shard size exercise the trailing
        # partial shard on both the serial and the pooled path
        spec = ShardSpec(kind="marginal", graph=graph,
                         blocked=frozenset({0, 5}))
        for count in (1, 63, 65, 129):
            with ParallelRRSampler(spec, seed=17, workers=1,
                                   shard_sets=64) as serial:
                want = serial.generate(count)
            with ParallelRRSampler(spec, seed=17, workers=3,
                                   shard_sets=64) as pooled:
                got = pooled.generate(count)
            assert len(got) == count
            assert batches_equal(want, got)

    def test_chunked_calls_match_one_shot_on_shard_multiples(self, graph):
        spec = ShardSpec(kind="standard", graph=graph)
        with ParallelRRSampler(spec, seed=5, workers=1,
                               shard_sets=64) as one:
            whole = one.generate(320)
        with ParallelRRSampler(spec, seed=5, workers=2,
                               shard_sets=64) as two:
            chunks = [two.generate(128), two.generate(192)]
        assert batches_equal(whole, PackedRRBatch.concat(chunks))

    def test_build_index_fingerprints_identical(self, graph):
        model = two_item_config("C1")
        kwargs = dict(sampler="marginal", budgets={"i": 3, "j": 2},
                      options=OPTIONS, seed=1234)
        one = build_index(graph, model, workers=1, **kwargs)
        four = build_index(graph, model, workers=4, **kwargs)
        np.testing.assert_array_equal(one._offsets, four._offsets)
        np.testing.assert_array_equal(one._nodes, four._nodes)
        np.testing.assert_array_equal(one._weights, four._weights)
        assert one.fingerprint == four.fingerprint


# ----------------------------------------------------------------------
# pool lifecycle: warm reuse, graceful close, death fallback
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestPoolLifecycle:
    def test_pool_stays_warm_across_samplers(self, graph):
        spec = ShardSpec(kind="standard", graph=graph)
        with ParallelRRSampler(spec, seed=1, workers=2,
                               shard_sets=32) as first:
            first.generate(128)
            assert pool_stats()["pools"] == 1
        # close() released the reference but kept the workers warm
        assert pool_stats() == {"pools": 1, "busy": 0}
        with ParallelRRSampler(spec, seed=2, workers=2,
                               shard_sets=32) as second:
            second.generate(128)
            assert pool_stats()["pools"] == 1  # reused, not respawned
        shutdown_worker_pools()
        assert pool_stats() == {"pools": 0, "busy": 0}

    def test_worker_death_falls_back_to_identical_results(self, graph,
                                                          monkeypatch):
        spec = ShardSpec(kind="standard", graph=graph)
        with ParallelRRSampler(spec, seed=21, workers=1,
                               shard_sets=32) as serial:
            want = serial.generate(160)

        # fork workers inherit the patched task runner and die on dispatch
        import repro.index.pool as pool_mod

        monkeypatch.setattr(pool_mod, "_run_shard_task", _exit_worker)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with ParallelRRSampler(spec, seed=21, workers=2,
                                   shard_sets=32) as sampler:
                got = sampler.generate(160)
                # a later call must not retry the broken pool
                sampler.generate(32)
        assert batches_equal(want, got)
        assert any("falling back to in-process" in str(w.message)
                   for w in caught)
        assert pool_stats() == {"pools": 0, "busy": 0}


# ----------------------------------------------------------------------
# spawn / shared-memory transport
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods()
    or not os.path.isdir("/dev/shm"),
    reason="spawn start method or /dev/shm unavailable")
class TestSpawnTransport:
    def test_spawn_path_bit_identical_and_cleaned_up(self, graph):
        spec = ShardSpec(kind="standard", graph=graph)
        with ParallelRRSampler(spec, seed=77, workers=1,
                               shard_sets=64) as serial:
            want = serial.generate(256)
        with ParallelRRSampler(spec, seed=77, workers=2, shard_sets=64,
                               start_method="spawn") as sampler:
            got = sampler.generate(256)
            assert shm_blocks(), "spawn transport should use shared memory"
        assert batches_equal(want, got)
        shutdown_worker_pools()
        assert shm_blocks() == []

    def test_shm_cleaned_after_abnormal_parent_exit(self, graph, tmp_path):
        # a parent that dies without running atexit hooks must not leak
        # /dev/shm blocks: the resource tracker owns the creator-side
        # registration and unlinks on its behalf
        script = tmp_path / "crash.py"
        script.write_text(textwrap.dedent("""
            import os
            from repro.graphs import generators, weighting
            from repro.index.builder import ParallelRRSampler, ShardSpec

            g = weighting.weighted_cascade(
                generators.erdos_renyi(80, avg_degree=3.0, rng=1,
                                       directed=True, name="er80"))
            sampler = ParallelRRSampler(
                ShardSpec(kind="standard", graph=g), seed=3, workers=2,
                shard_sets=32, start_method="spawn")
            sampler.generate(128)
            os._exit(3)  # skip atexit + finalizers on purpose
        """))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        deadline = time.monotonic() + 30.0
        while shm_blocks() and time.monotonic() < deadline:
            time.sleep(0.2)  # the tracker reaps asynchronously
        assert shm_blocks() == []


# ----------------------------------------------------------------------
# shard sampling building blocks
# ----------------------------------------------------------------------
class TestSampleShard:
    def test_python_and_vectorized_engines_both_pack(self, graph):
        seq = np.random.SeedSequence(41)
        for kind in ("standard", "marginal"):
            spec = ShardSpec(kind=kind, graph=graph, engine="python")
            batch = _sample_shards(spec, graph, [(seq, 16)])
            assert isinstance(batch, PackedRRBatch)
            assert len(batch) == 16
            assert np.all(batch.weights == 1.0)

    def test_default_shard_size_is_smoke_friendly(self):
        # the pool only wins if smoke-scale calls split into several
        # shards; guard against the old serial-by-default regression
        assert DEFAULT_SHARD_SIZE <= 1024
