"""Fingerprints for persistent RR-set indexes.

An RR-set index is only valid for the exact CWelMax instance it was sampled
from: the graph's edges and influence probabilities (which embed the
weighting scheme), the utility configuration, the Monte-Carlo engine, the
RNG seed and the sampler kind.  :func:`index_fingerprint` hashes all of
those into one hex digest that is stored in the index manifest; loading an
index against a mismatching fingerprint raises
:class:`~repro.exceptions.IndexStoreError` so stale indexes are rebuilt
rather than silently reused.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Optional

import numpy as np

from repro.graphs.graph import DirectedGraph
from repro.utility.model import UtilityModel

#: bump when the hashed byte layout changes, or when the same build
#: parameters come to sample different RR-set contents (invalidates older
#: manifests).  Version 2: serial PRIMA+ draws batched marginal sets.
#: Version 3: every build samples the SeedSequence shards, so the
#: ``sharded`` extra is gone and a serial-stream index is stale.
FINGERPRINT_VERSION = 3


def _update_array(digest, array: np.ndarray) -> None:
    digest.update(str(array.dtype).encode("utf-8"))
    digest.update(str(array.shape).encode("utf-8"))
    digest.update(np.ascontiguousarray(array).tobytes())


def graph_fingerprint(graph: DirectedGraph) -> str:
    """Digest of the graph's node count and (deduplicated) weighted edges."""
    digest = hashlib.sha256()
    digest.update(b"graph-v1")
    digest.update(str(graph.num_nodes).encode("utf-8"))
    sources, targets, probs = graph.edge_arrays()
    _update_array(digest, sources)
    _update_array(digest, targets)
    _update_array(digest, probs)
    return digest.hexdigest()


def model_fingerprint(model: UtilityModel) -> str:
    """Digest of the utility configuration ``(V, P, {D_i})``.

    Hashes the item names, the full ``2^m`` value table, the price vector
    and a textual description of each noise distribution (class + support),
    which pins down every quantity the samplers and estimators consume.
    """
    digest = hashlib.sha256()
    digest.update(b"model-v1")
    digest.update(json.dumps(list(model.items)).encode("utf-8"))
    _update_array(digest, model.valuation.table())
    prices = np.array([model.price(name) for name in model.items],
                      dtype=np.float64)
    _update_array(digest, prices)
    for name in model.items:
        noise = model.noise(name)
        low, high = noise.support()
        digest.update(
            f"{name}:{type(noise).__name__}:{noise!r}:{low}:{high}"
            .encode("utf-8"))
    return digest.hexdigest()


def index_fingerprint(graph: DirectedGraph,
                      model: Optional[UtilityModel] = None, *,
                      sampler: str,
                      engine: str,
                      seed: Optional[int],
                      extra: Optional[Mapping[str, Any]] = None) -> str:
    """Fingerprint of one (graph, config, sampler, engine, seed) instance.

    ``extra`` carries any further build parameters that change the sampled
    collection (IMM options, budgets, the fixed allocation, ...); it must be
    JSON-serializable and is hashed with sorted keys so dict ordering does
    not matter.
    """
    digest = hashlib.sha256()
    digest.update(f"index-fingerprint-v{FINGERPRINT_VERSION}".encode("utf-8"))
    digest.update(graph_fingerprint(graph).encode("utf-8"))
    digest.update(model_fingerprint(model).encode("utf-8")
                  if model is not None else b"no-model")
    digest.update(str(sampler).encode("utf-8"))
    digest.update(str(engine).encode("utf-8"))
    digest.update(str(seed).encode("utf-8"))
    digest.update(json.dumps(dict(extra or {}), sort_keys=True,
                             default=str).encode("utf-8"))
    return digest.hexdigest()


__all__ = ["FINGERPRINT_VERSION", "graph_fingerprint", "model_fingerprint",
           "index_fingerprint"]
