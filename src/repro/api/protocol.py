"""Versioned request/response protocol for ``repro serve``.

A v1 request wraps a :class:`~repro.api.specs.RunSpec` dictionary::

    {"v": 1, "id": 7, "spec": {"algorithm": "SeqGRD-NM",
                               "workload": {...}, "engine": {...}}}

and the response round-trips the spec (``RunSpec.from_dict(response["spec"])
== RunSpec.from_dict(request["spec"])``) alongside the result::

    {"v": 1, "id": 7, "ok": true, "spec": {...}, "fingerprint": "...",
     "algorithm": "SeqGRD-NM", "budgets": {...}, "allocation": {...},
     "welfare": 123.4, "cached": false,
     "timings": {"latency_ms": 0.8}}

A request may also carry ``deadline_ms`` (milliseconds from frame
receipt); an expired request is answered ``deadline-exceeded`` before any
selection work runs — the deadline is **not** part of the spec or its
fingerprint, so deadline-carrying requests share the result cache with
their plain twins.

Errors never kill the serving loop; they come back as an envelope::

    {"v": 1, "ok": false,
     "error": {"code": "unsupported-version" | "malformed-request" |
               "oversized-request" | "invalid-spec" | "incompatible-spec" |
               "unsupported-algorithm" | "overloaded" |
               "deadline-exceeded" | "shutting-down",
               "message": "..."}}

The last three (:data:`RETRYABLE_ERROR_CODES`) are the overload/lifecycle
envelopes a well-behaved client retries with backoff; ``overloaded``
additionally carries ``queue_depth`` and a ``retry_after_ms`` hint.

The served allocation is **bit-identical** to a direct ``repro run`` of the
same spec, provided the loaded index was built for that spec — which is
exactly what the compatibility check enforces: the spec's workload and
engine knobs must match the index manifest, and the index's RR-set kind
must be one the algorithm executes against (the legacy un-versioned
``{"op": "query"}`` dialect of :class:`repro.serve.AllocationServer`
remains available for raw budget queries).  Results are LRU-cached per
index on ``(algorithm, budgets)``; ``cached`` says that cache answered.

Dynamic graphs ride the legacy dialect.  A *repairable* index (built with
the keyed engine, ``meta["keyed"] == true`` — see :mod:`repro.dynamic`)
accepts an in-place graph-delta repair::

    {"op": "apply-delta", "index": "<name>",          # index optional
     "delta": {"add_nodes": 0,
               "remove_nodes": [...],
               "add_edges": [[u, v, p], ...],
               "remove_edges": [[u, v], ...],
               "update_edges": [[u, v, p], ...]}}

    -> {"ok": true, "index": "<name>",
        "repair": {"epoch": 3, "delta_ops": 12, "touched_sets": ...,
                   "rerooted_sets": ..., "repaired_sets": ...,
                   "repaired_fraction": 0.04, "zero_delta": false, ...},
        "scan": {...}, "latency_ms": 1.9}

The repaired index is persisted atomically and hot-swapped without a
restart: the registry rescans as on SIGHUP, then keeps the repaired
build resident instead of reloading it on the next request; a zero-op
delta is a no-op that leaves the on-disk artifact untouched.  Repairable indexes are
never routed by v1 specs — the keyed coin stream is not bit-identical to
the stream-RNG engines — so the bit-identity contract above is
unaffected.  Manifest ``meta["dynamic"]["staleness"]`` accumulates
``{"epoch", "deltas_applied", "repaired_sets", "repaired_fraction",
"cumulative_repaired_fraction"}`` across repairs;
:meth:`repro.serve.IndexRegistry.stats` flags indexes whose cumulative
repaired fraction exceeds the registry's staleness bound.

Handling is two stages plus the response:

* :func:`prepare_request` — validation and routing: version, spec shape,
  servable algorithm, the route to a compatible index, budget
  resolution; returns ``(key, service, PreparedRequest)`` (or an error
  envelope) without touching any cache;
* execution — :meth:`repro.index.service.AllocationService.query` of the
  prepared algorithm and budgets, run by the server's execution step
  (the one both dialects share: deadline check, then the query) on the
  worker thread where the request was prepared;
* :func:`build_response` — assembles the wire response.

The server adds a ``"server"`` object to every served response (the
serving index, the queue depth at admission, the requests in flight) —
see :class:`repro.serve.AllocationServer`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.api.specs import RunSpec
from repro.exceptions import ReproError, SpecError

#: the protocol version this build speaks
PROTOCOL_VERSION = 1

#: algorithms servable from a prebuilt index through the v1 protocol
SERVABLE_ALGORITHMS = ("SeqGRD-NM", "SupGRD")

#: error-envelope codes a v1 client may receive
ERROR_CODES = (
    "unsupported-version",
    "malformed-request",
    "oversized-request",
    "invalid-spec",
    "incompatible-spec",
    "unsupported-algorithm",
    "overloaded",
    "deadline-exceeded",
    "shutting-down",
)

#: codes a well-behaved client may retry (the shed/lifecycle envelopes;
#: ``overloaded`` additionally carries a ``retry_after_ms`` hint)
RETRYABLE_ERROR_CODES = ("overloaded", "deadline-exceeded",
                         "shutting-down")


def make_request(spec: RunSpec,
                 request_id: Optional[Any] = None) -> Dict[str, Any]:
    """Build a v1 serve request for ``spec``."""
    request: Dict[str, Any] = {"v": PROTOCOL_VERSION, "spec": spec.to_dict()}
    if request_id is not None:
        request["id"] = request_id
    return request


def error_response(code: str, message: str,
                   request_id: Optional[Any] = None,
                   **details: Any) -> Dict[str, Any]:
    """Build a v1 error envelope.

    ``details`` are folded into the ``error`` object — the ``overloaded``
    envelope carries ``queue_depth`` and ``retry_after_ms`` this way.
    """
    error: Dict[str, Any] = {"code": code, "message": message}
    error.update(details)
    response: Dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "ok": False,
        "error": error,
    }
    if request_id is not None:
        response["id"] = request_id
    return response


def _mismatch(label: str, requested: Any, built: Any) -> str:
    return (f"spec {label} is {requested!r} but the loaded index was "
            f"built with {built!r}; rebuild the index or adjust the spec")


def _index_samplers(algorithm: str) -> Optional[Tuple[Optional[str], ...]]:
    """The index sampler kinds ``algorithm`` executes against (``None``
    for algorithms that are not served from an index)."""
    from repro.core.seqgrd import INDEX_SAMPLERS as SEQGRD_SAMPLERS
    from repro.core.supgrd import INDEX_SAMPLERS as SUPGRD_SAMPLERS

    return {"SeqGRD-NM": SEQGRD_SAMPLERS,
            "SupGRD": SUPGRD_SAMPLERS}.get(algorithm)


def _superior_item(workload) -> Optional[str]:
    """The item a SupGRD spec allocates: the one budget
    :func:`~repro.api.runner.narrow_single_item_budgets` keeps."""
    from repro.api.runner import narrow_single_item_budgets

    budgets = workload.resolved_budgets(workload.item_names() or ())
    return next(iter(narrow_single_item_budgets(
        budgets, workload.superior_item)), None)


def index_mismatch(spec: RunSpec, meta: Mapping[str, Any]) -> Optional[str]:
    """Why ``spec`` cannot be served from an index with manifest ``meta``.

    Returns ``None`` when compatible.  The checks mirror what makes served
    allocations bit-identical to a direct run: an RR-set kind the
    algorithm executes against (marginal/standard for SeqGRD-NM, weighted
    for SupGRD), the superior item a weighted index was sampled for, same
    network, scale, configuration, seed, IMM accuracy knobs, engine and
    fixed-IMM workload.  ``workers`` is not checked: every worker count,
    ``None`` included, samples the same shard stream.
    """
    samplers = _index_samplers(spec.algorithm)
    sampler = meta.get("sampler")
    if samplers is not None and sampler not in samplers:
        return (f"spec algorithm {spec.algorithm} runs on "
                f"{' or '.join(repr(k) for k in samplers if k)} RR-set "
                f"indexes but the loaded index was built with the "
                f"{sampler!r} sampler; rebuild the index or adjust the spec")
    resolved = spec.resolve()
    workload, engine = resolved.workload, resolved.engine
    if spec.algorithm == "SupGRD":
        # weighted RR-set weights are one superior item's utility gains
        superior = _superior_item(workload)
        if superior != meta.get("superior_item"):
            return _mismatch("superior_item", superior,
                             meta.get("superior_item"))
    options = meta.get("options") or {}
    checks = (
        ("network", workload.network, meta.get("network")),
        ("configuration", workload.configuration, meta.get("configuration")),
        ("scale", workload.scale, meta.get("scale")),
        ("seed", engine.seed, meta.get("seed")),
        ("epsilon", engine.epsilon, options.get("epsilon")),
        ("ell", engine.ell, options.get("ell")),
        ("max_rr_sets", engine.max_rr_sets, options.get("max_rr_sets")),
        ("engine", engine.engine, meta.get("engine")),
        ("fixed_imm_item", workload.fixed_imm_item,
         meta.get("fixed_imm_item")),
        # repairable indexes sample with the keyed engine
        # (repro.dynamic), whose coin stream is not bit-identical to the
        # stream-RNG engines — no v1 spec ever routes to one, which is
        # what keeps served ≡ direct bit-identity intact; named legacy
        # ops still serve them
        ("keyed sampling", False, bool(meta.get("keyed", False))),
    )
    for label, requested, built in checks:
        if built is None and label in ("scale", "fixed_imm_item"):
            if requested is None:
                continue
            return _mismatch(label, requested, built)
        if requested != built:
            return _mismatch(label, requested, built)
    if workload.fixed_imm_item is not None:
        built_budget = meta.get("fixed_imm_budget")
        if workload.fixed_imm_budget != built_budget:
            return _mismatch("fixed_imm_budget", workload.fixed_imm_budget,
                             built_budget)
    else:
        # an explicit fixed allocation must match the one the index was
        # sampled against (when fixed_imm_item is set, the manifest's
        # fixed seeds are that item's IMM seeds and the checks above
        # already pin them via item + budget + seed)
        spec_fixed = {item: [int(v) for v in nodes] for item, nodes
                      in (workload.fixed_allocation or {}).items()}
        built_fixed = {item: [int(v) for v in nodes] for item, nodes
                       in ((meta.get("fingerprint_extra") or {})
                           .get("fixed") or {}).items()}
        if spec_fixed != built_fixed:
            return _mismatch("fixed_allocation", spec_fixed, built_fixed)
    return None


@dataclass(frozen=True)
class PreparedRequest:
    """A validated v1 request, ready for execution."""

    request_id: Optional[Any]
    spec: RunSpec
    fingerprint: str
    algorithm: str
    budgets: Dict[str, int]


def prepare_request(request: Mapping[str, Any],
                    route: Callable[[RunSpec], Tuple[str, Any]]
                    ) -> Union[Tuple[str, Any, PreparedRequest],
                               Dict[str, Any]]:
    """Validate one versioned request and route it to a service.

    Checks the version, parses the spec and enforces the servable
    algorithm set; ``route(spec)`` then picks a compatible index and
    returns ``(key, service)`` (raising :class:`ReproError` when none
    is); finally the spec's items are validated against the service's
    model and the effective budgets resolved.  Touches no cache.  Returns
    ``(key, service, PreparedRequest)``, or an error envelope ``dict``.
    """
    request_id = request.get("id")
    version = request.get("v")
    if version != PROTOCOL_VERSION:
        return error_response(
            "unsupported-version",
            f"protocol version {version!r} is not supported; "
            f"supported versions: [{PROTOCOL_VERSION}]", request_id)
    spec_dict = request.get("spec")
    if not isinstance(spec_dict, Mapping):
        return error_response(
            "malformed-request",
            "a v1 request needs a 'spec' object: "
            '{"v": 1, "spec": {"algorithm": ..., "workload": ..., '
            '"engine": ...}}', request_id)
    try:
        spec = RunSpec.from_dict(spec_dict)
    except SpecError as error:
        return error_response("invalid-spec", str(error), request_id)
    if spec.algorithm not in SERVABLE_ALGORITHMS:
        return error_response(
            "unsupported-algorithm",
            f"{spec.algorithm} cannot be served from a prebuilt index; "
            f"servable algorithms: {list(SERVABLE_ALGORITHMS)}",
            request_id)
    try:
        key, service = route(spec)
    except ReproError as error:
        return error_response(
            "incompatible-spec",
            f"no hosted index is compatible with the spec: {error}",
            request_id)
    if service.model is None:
        return error_response(
            "invalid-spec",
            f"{spec.algorithm} requests need the service to hold the "
            f"graph and utility model (repro serve rebuilds them from the "
            f"index manifest)", request_id)
    try:
        # the route's manifest check pins the configuration, so item
        # names validate against the service's already-loaded model
        # instead of rebuilding a catalog model on every request
        spec.validate(items=tuple(service.model.items), catalog=False)
    except ReproError as error:
        return error_response("invalid-spec", str(error), request_id)

    from repro.api.registry import get_algorithm
    from repro.api.runner import narrow_single_item_budgets

    budgets = spec.workload.resolved_budgets(service.model.items)
    if get_algorithm(spec.algorithm).single_item:
        budgets = narrow_single_item_budgets(
            budgets, spec.workload.superior_item)
    return key, service, PreparedRequest(
        request_id=request_id, spec=spec, fingerprint=spec.fingerprint(),
        algorithm=spec.algorithm, budgets=budgets)


def build_response(prepared: PreparedRequest, payload: Dict[str, Any],
                   started: float, trace=None) -> Dict[str, Any]:
    """Assemble the v1 wire response for an executed request.

    ``trace`` (an optional :class:`repro.obs.trace.Trace`) adds
    ``trace_id`` and per-stage ``spans`` (milliseconds) to the
    ``timings`` object; the allocation payload itself never depends on
    it.
    """
    response: Dict[str, Any] = {"v": PROTOCOL_VERSION, "ok": True}
    if prepared.request_id is not None:
        response["id"] = prepared.request_id
    timings: Dict[str, Any] = {
        "latency_ms": round((time.perf_counter() - started) * 1e3, 3),
        "num_rr_sets": payload.get("num_rr_sets"),
    }
    if trace is not None:
        timings["trace_id"] = trace.trace_id
        timings["spans"] = trace.timings_ms()
    response.update(
        spec=prepared.spec.to_dict(),
        fingerprint=prepared.fingerprint,
        algorithm=payload["algorithm"],
        budgets=payload["budgets"],
        allocation=payload["allocation"],
        welfare=payload["estimated_value"],
        cached=payload["cached"],
        timings=timings,
    )
    return response


__all__ = [
    "PROTOCOL_VERSION",
    "SERVABLE_ALGORITHMS",
    "ERROR_CODES",
    "RETRYABLE_ERROR_CODES",
    "PreparedRequest",
    "make_request",
    "error_response",
    "index_mismatch",
    "prepare_request",
    "build_response",
]
