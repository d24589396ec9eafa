"""Immutable CSR-packed RR-set indexes with a persistent on-disk format.

A :class:`FrozenRRIndex` is the read-only counterpart of
:class:`~repro.rrsets.coverage.RRCollection`: both implement the
:class:`~repro.rrsets.coverage.PackedCoverage` accessor protocol over the
same packed representation — set-major ``offsets``/``nodes``/``weights``
CSR arrays plus the node → set inverted CSR — so the greedy
:func:`~repro.rrsets.coverage.node_selection` runs on either directly and
produces bit-identical selections.  :meth:`RRCollection.freeze` hands its
buffers over without copying; :meth:`FrozenRRIndex.to_collection` thaws
back.

Because the arrays never change, an index keeps one greedy order
(:class:`~repro.rrsets.coverage.GreedyOrder`) for its lifetime: every
``node_selection`` over it returns a prefix of that order in fresh
lists, and extends the order under its lock only when the budget
reaches past every earlier one, so threads may share an index.  The
order pins ``num_nodes`` float64 working gains and a ``num_sets``-byte
covered mask once the first selection runs; it is never saved and never
counted in :meth:`FrozenRRIndex.array_nbytes`.  A repaired or reloaded
index is a new object with a new order, so an order cannot go stale.

Persistence is one ``.npz`` of arrays plus one JSON manifest carrying the
instance fingerprint (see :mod:`repro.index.fingerprint`) and build
metadata; :meth:`FrozenRRIndex.load` refuses a manifest whose fingerprint
does not match the caller's expectation, so stale indexes are rebuilt
rather than silently reused.

On-disk format versions
-----------------------
``v1``
    ``np.savez_compressed`` of the three set-major arrays, all ``int64``.
    Still loadable (the arrays are decompressed into RAM and the inverted
    CSR rebuilt); rejected only on fingerprint mismatch, as always.
``v2`` (current)
    *Uncompressed* ``.npz`` (ZIP-stored members) carrying the set-major
    arrays **plus** the inverted CSR and the precomputed initial gains, at
    their native dtypes (``int32`` node/set ids below ``2**31``).  Because
    members are stored raw at stable offsets, :meth:`load` with
    ``mmap=True`` maps every array straight off the page cache — a served
    index faults in only the pages a query touches instead of
    materializing the whole collection.  The manifest records the format
    version, per-array dtypes and the exact total weight.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.exceptions import IndexStoreError
from repro.rrsets.coverage import (
    GreedyOrder,
    PackedCoverage,
    RRCollection,
    build_inverted_csr,
)

#: bump when the array layout changes (older versions stay readable)
FORMAT_VERSION = 2
#: every on-disk format version :meth:`FrozenRRIndex.load` understands
SUPPORTED_FORMAT_VERSIONS = (1, 2)

#: npz member names of the v2 layout, in stored order
_V2_ARRAYS = ("offsets", "nodes", "weights", "inv_offsets", "inv_sets",
              "gains0")


def index_paths(path: Union[str, Path]) -> Tuple[Path, Path]:
    """Resolve ``path`` to its ``(arrays.npz, manifest.json)`` file pair.

    ``path`` may be the bare stem (``runs/nethept-c1``), the ``.npz`` file
    or the ``.manifest.json`` file; all three name the same index.
    """
    path = Path(path)
    name = path.name
    if name.endswith(".manifest.json"):
        stem = path.with_name(name[:-len(".manifest.json")])
    elif name.endswith(".npz"):
        stem = path.with_name(name[:-len(".npz")])
    else:
        stem = path
    return (stem.with_name(stem.name + ".npz"),
            stem.with_name(stem.name + ".manifest.json"))


def write_manifest(path: Union[str, Path], manifest: Dict[str, Any]) -> None:
    """Write an index manifest as compact, key-sorted JSON.

    The one manifest encoder of every index writer.  No indent: with one,
    :mod:`json` falls back to its pure-Python encoder, and a repairable
    index's manifest carries its whole delta history.
    """
    Path(path).write_text(
        json.dumps(manifest, sort_keys=True, default=str,
                   separators=(",", ":")),
        encoding="utf-8")


def _is_memmapped(array: Optional[np.ndarray]) -> bool:
    """Whether ``array`` is (a view of) a :class:`np.memmap`.

    ``ascontiguousarray`` strips the memmap subclass while keeping the
    mapping (zero-copy view), so the check walks the ``base`` chain.
    """
    while array is not None:
        if isinstance(array, np.memmap):
            return True
        array = getattr(array, "base", None)
    return False


def _int_array(values: np.ndarray, *, widen_to_int64: bool = False
               ) -> np.ndarray:
    """Contiguous signed-integer view of ``values``, preserving narrow
    dtypes (an ``int32`` memmap passes through untouched)."""
    array = np.ascontiguousarray(values)
    if array.dtype.kind != "i" or widen_to_int64:
        array = np.ascontiguousarray(array, dtype=np.int64)
    return array


def _mmap_npz_arrays(npz_path: Path, names: Tuple[str, ...]
                     ) -> Dict[str, np.ndarray]:
    """Memory-map the named members of an *uncompressed* ``.npz``.

    ``np.load(mmap_mode=...)`` ignores the mmap request for zip archives,
    so this walks the zip structure itself: each ZIP-stored member is a
    complete ``.npy`` stream at a fixed file offset, and once the npy
    header is parsed the raw array data can be handed to :func:`np.memmap`
    (which supports arbitrary byte offsets).
    """
    arrays: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(npz_path) as archive:
        with open(npz_path, "rb") as stream:
            for name in names:
                try:
                    info = archive.getinfo(name + ".npy")
                except KeyError as error:
                    raise IndexStoreError(
                        f"index {npz_path.name} has no {name!r} array; "
                        f"rebuild the index") from error
                if info.compress_type != zipfile.ZIP_STORED:
                    raise IndexStoreError(
                        f"index member {name!r} in {npz_path.name} is "
                        f"compressed and cannot be memory-mapped")
                # local file header: 30 fixed bytes, then file name and
                # extra field (whose lengths live at offsets 26 and 28)
                stream.seek(info.header_offset)
                header = stream.read(30)
                if len(header) != 30 or header[:4] != b"PK\x03\x04":
                    raise IndexStoreError(
                        f"corrupt zip entry for {name!r} in {npz_path.name}")
                name_len = int.from_bytes(header[26:28], "little")
                extra_len = int.from_bytes(header[28:30], "little")
                stream.seek(info.header_offset + 30 + name_len + extra_len)
                version = np.lib.format.read_magic(stream)
                if version == (1, 0):
                    shape, fortran, dtype = \
                        np.lib.format.read_array_header_1_0(stream)
                elif version == (2, 0):
                    shape, fortran, dtype = \
                        np.lib.format.read_array_header_2_0(stream)
                else:
                    raise IndexStoreError(
                        f"unsupported npy format {version} for {name!r} "
                        f"in {npz_path.name}")
                if fortran:
                    raise IndexStoreError(
                        f"array {name!r} in {npz_path.name} is not "
                        f"C-contiguous")
                arrays[name] = np.memmap(npz_path, dtype=dtype, mode="r",
                                         offset=stream.tell(), shape=shape)
    return arrays


class FrozenRRIndex(PackedCoverage):
    """An immutable, CSR-packed RR-set collection plus its inverted index.

    Parameters
    ----------
    num_nodes:
        Number of graph nodes the index refers to.
    offsets:
        ``(num_sets + 1,)`` int64 — set ``i`` occupies
        ``nodes[offsets[i]:offsets[i + 1]]``.
    nodes:
        Concatenated member node ids of all sets, in per-set stored order.
        Integer dtypes are preserved (``int32`` members stay ``int32``).
    weights:
        ``(num_sets,)`` float64 per-set weights.
    meta:
        Arbitrary JSON-serializable build metadata; ``meta["fingerprint"]``
        is checked by :meth:`load`.
    inverted:
        Optional prebuilt ``(inv_offsets, inv_sets)`` node → set CSR pair
        (the zero-copy :meth:`RRCollection.freeze` handoff); built from the
        set-major arrays when omitted.
    validate:
        Run the full-array integrity scans (monotonic offsets, member
        bounds).  The memory-mapped load path passes ``False`` so opening
        an index never faults in every page; files written by
        :meth:`save` were validated when their arrays were built.
    total_weight:
        Exact total weight, when known (the manifest records it); avoids
        summing a memory-mapped weights array on first use.
    """

    def __init__(self, num_nodes: int, offsets: np.ndarray, nodes: np.ndarray,
                 weights: np.ndarray,
                 meta: Optional[Dict[str, Any]] = None,
                 inverted: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                 validate: bool = True,
                 total_weight: Optional[float] = None
                 ) -> None:
        self._num_nodes = int(num_nodes)
        self._offsets = _int_array(offsets, widen_to_int64=True)
        self._nodes = _int_array(nodes)
        self._weights = np.ascontiguousarray(weights, dtype=np.float64)
        self._meta: Dict[str, Any] = dict(meta or {})
        self._total_weight: Optional[float] = \
            None if total_weight is None else float(total_weight)
        self._mmapped = _is_memmapped(self._nodes)
        if self._offsets.ndim != 1 or len(self._offsets) == 0:
            raise IndexStoreError("offsets must be a non-empty 1-d array")
        if int(self._offsets[0]) != 0 \
                or int(self._offsets[-1]) != len(self._nodes):
            raise IndexStoreError("offsets do not span the nodes array")
        if len(self._weights) != self.num_sets:
            raise IndexStoreError(
                f"expected {self.num_sets} weights, got {len(self._weights)}")
        if validate:
            if np.any(np.diff(self._offsets) < 0):
                raise IndexStoreError("offsets must be non-decreasing")
            if len(self._nodes) and (self._nodes.min() < 0
                                     or self._nodes.max() >= self._num_nodes):
                raise IndexStoreError("set members must be valid node ids")
        if inverted is not None:
            inv_offsets, inv_sets = inverted
            inv_offsets = _int_array(inv_offsets, widen_to_int64=True)
            inv_sets = _int_array(inv_sets)
            if len(inv_offsets) != self._num_nodes + 1 \
                    or int(inv_offsets[-1]) != len(inv_sets):
                raise IndexStoreError(
                    "inverted CSR does not match the packed arrays")
            self._inv_offsets, self._inv_sets = inv_offsets, inv_sets
        else:
            self._inv_offsets, self._inv_sets = build_inverted_csr(
                self._offsets, self._nodes, self._weights, self._num_nodes)
        self._gains0: Optional[np.ndarray] = None  # initial_gains cache
        #: the one greedy order every selection over this index slices
        self._order = GreedyOrder()
        #: per-set root node ids — carried only by repairable (keyed)
        #: indexes, where re-rooting after node insertions makes roots
        #: non-derivable from the base seed (see repro.dynamic)
        self._roots: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_collection(cls, collection: RRCollection,
                        meta: Optional[Dict[str, Any]] = None
                        ) -> "FrozenRRIndex":
        """Freeze a growable :class:`RRCollection` (zero-copy handoff)."""
        return collection.freeze(meta=meta)

    def to_collection(self) -> RRCollection:
        """Thaw back into a growable :class:`RRCollection` (same ordering)."""
        return RRCollection._from_packed(self._num_nodes, self._offsets,
                                         self._nodes, self._weights)

    # ------------------------------------------------------------------
    # the packed-coverage protocol consumed by node_selection
    # ------------------------------------------------------------------
    def _packed(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._offsets, self._nodes, self._weights

    def _inverted(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._inv_offsets, self._inv_sets

    def _greedy_order(self) -> GreedyOrder:
        # the arrays never change, so neither does the order: it is kept
        # and extended on demand, never recomputed
        return self._order

    @property
    def num_nodes(self) -> int:
        """Number of graph nodes the index refers to."""
        return self._num_nodes

    @property
    def num_sets(self) -> int:
        """Number of RR sets (empty and zero-weight sets included)."""
        return len(self._offsets) - 1

    @property
    def total_weight(self) -> float:
        """Sum of all set weights."""
        if self._total_weight is None:
            self._total_weight = float(self._weights.sum())
        return self._total_weight

    @property
    def mmapped(self) -> bool:
        """Whether the packed arrays are memory-mapped from disk."""
        return self._mmapped

    @property
    def meta(self) -> Dict[str, Any]:
        """Build metadata recorded in the manifest."""
        return self._meta

    @property
    def fingerprint(self) -> Optional[str]:
        """The instance fingerprint this index was built for (if recorded)."""
        value = self._meta.get("fingerprint")
        return str(value) if value is not None else None

    @property
    def roots(self) -> Optional[np.ndarray]:
        """Per-set root node ids (repairable indexes only)."""
        return self._roots

    @roots.setter
    def roots(self, roots: Optional[np.ndarray]) -> None:
        if roots is not None:
            roots = _int_array(roots, widen_to_int64=True)
            if len(roots) != self.num_sets:
                raise IndexStoreError(
                    f"expected {self.num_sets} roots, got {len(roots)}")
        self._roots = roots

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def _arrays(self) -> Dict[str, np.ndarray]:
        arrays = {"offsets": self._offsets, "nodes": self._nodes,
                  "weights": self._weights, "inv_offsets": self._inv_offsets,
                  "inv_sets": self._inv_sets}
        if self._gains0 is not None:
            arrays["gains0"] = self._gains0
        if self._roots is not None:
            arrays["roots"] = self._roots
        return arrays

    def array_nbytes(self) -> int:
        """Total bytes of all index arrays when fully materialized."""
        return int(sum(a.nbytes for a in self._arrays().values()))

    def resident_nbytes(self) -> int:
        """Bytes of index arrays pinned in process memory.

        Memory-mapped arrays count zero — their pages live in the page
        cache and the kernel reclaims them under pressure — so a freshly
        mmap-loaded index reports (near) zero residency while a fully
        materialized one reports :meth:`array_nbytes`.  This is the figure
        the serving registry budgets against.
        """
        return int(sum(a.nbytes for a in self._arrays().values()
                       if not _is_memmapped(a)))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Tuple[Path, Path]:
        """Write the index to ``<path>.npz`` + ``<path>.manifest.json``.

        Writes the current (v2) format: an uncompressed ``.npz`` whose
        members — the set-major CSR, the inverted CSR and the precomputed
        initial gains — can all be memory-mapped back by
        ``load(mmap=True)``.
        """
        npz_path, manifest_path = index_paths(path)
        npz_path.parent.mkdir(parents=True, exist_ok=True)
        gains0 = self.initial_gains()
        members = {"offsets": self._offsets, "nodes": self._nodes,
                   "weights": self._weights,
                   "inv_offsets": self._inv_offsets,
                   "inv_sets": self._inv_sets, "gains0": gains0}
        if self._roots is not None:
            members["roots"] = self._roots
        np.savez(npz_path, **members)
        manifest = {
            "format_version": FORMAT_VERSION,
            "num_nodes": self._num_nodes,
            "num_sets": self.num_sets,
            "total_weight": self.total_weight,
            "dtypes": {name: str(array.dtype)
                       for name, array in self._arrays().items()},
            "array_bytes": self.array_nbytes(),
            "meta": self._meta,
        }
        write_manifest(manifest_path, manifest)
        return npz_path, manifest_path

    @classmethod
    def peek_manifest(cls, path: Union[str, Path]) -> Dict[str, Any]:
        """Read and validate an index manifest without loading the arrays.

        The multi-index registry (:class:`repro.serve.IndexRegistry`) scans
        directories of manifests and lazily loads the ``.npz`` arrays only
        when a compatible request arrives; this is the cheap scan step.
        Returns the parsed manifest dictionary (``manifest["meta"]`` holds
        the build metadata).

        Raises
        ------
        IndexStoreError
            If the manifest is missing, unreadable, or an unsupported
            format version.
        """
        npz_path, manifest_path = index_paths(path)
        if not manifest_path.exists():
            raise IndexStoreError(
                f"no index manifest at {manifest_path}; "
                f"build one with `repro index build`")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise IndexStoreError(
                f"unreadable index manifest {manifest_path}: {error}"
            ) from error
        if not isinstance(manifest, dict):
            raise IndexStoreError(
                f"index manifest {manifest_path} is not a JSON object")
        version = manifest.get("format_version")
        if version not in SUPPORTED_FORMAT_VERSIONS:
            raise IndexStoreError(
                f"index format version {version!r} is not supported "
                f"(expected one of {list(SUPPORTED_FORMAT_VERSIONS)}); "
                f"rebuild the index")
        if not npz_path.exists():
            raise IndexStoreError(
                f"index manifest {manifest_path} has no arrays file "
                f"({npz_path.name} is missing); rebuild the index")
        return manifest

    @classmethod
    def load(cls, path: Union[str, Path],
             expected_fingerprint: Optional[str] = None,
             mmap: bool = False) -> "FrozenRRIndex":
        """Load an index, optionally verifying its fingerprint.

        With ``mmap=True`` a v2 index is served straight off the page
        cache: every array (including the inverted CSR and the initial
        gains) is memory-mapped read-only, so queries fault in only the
        pages they touch and the process never materializes the full
        collection.  v1 (compressed) indexes cannot be mapped and fall
        back to a full in-RAM load.

        Raises
        ------
        IndexStoreError
            If the files are missing, the format version is unknown, or
            ``expected_fingerprint`` does not match the stored one (the
            index is stale for the caller's instance and must be rebuilt).
        """
        npz_path, manifest_path = index_paths(path)
        if not npz_path.exists() or not manifest_path.exists():
            raise IndexStoreError(
                f"no index at {npz_path} (+ {manifest_path.name}); "
                f"build one with `repro index build`")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise IndexStoreError(
                f"unreadable index manifest {manifest_path}: {error}"
            ) from error
        version = manifest.get("format_version")
        if version not in SUPPORTED_FORMAT_VERSIONS:
            raise IndexStoreError(
                f"index format version {version!r} is not supported "
                f"(expected one of {list(SUPPORTED_FORMAT_VERSIONS)}); "
                f"rebuild the index")
        meta = dict(manifest.get("meta") or {})
        if expected_fingerprint is not None:
            stored = meta.get("fingerprint")
            if stored != expected_fingerprint:
                raise IndexStoreError(
                    f"stale index {npz_path.name}: fingerprint "
                    f"{str(stored)[:12]}… does not match the current "
                    f"graph/configuration ({expected_fingerprint[:12]}…); "
                    f"rebuild the index")
        num_nodes = int(manifest["num_nodes"])
        total_weight = manifest.get("total_weight")
        try:
            if version >= 2 and mmap:
                names = _V2_ARRAYS
                with zipfile.ZipFile(npz_path) as archive:
                    if "roots.npy" in archive.namelist():
                        names = _V2_ARRAYS + ("roots",)
                arrays = _mmap_npz_arrays(npz_path, names)
                index = cls(num_nodes, arrays["offsets"], arrays["nodes"],
                            arrays["weights"], meta=meta,
                            inverted=(arrays["inv_offsets"],
                                      arrays["inv_sets"]),
                            validate=False, total_weight=total_weight)
                index._gains0 = arrays["gains0"]
                if "roots" in arrays:
                    index._roots = arrays["roots"]
            else:
                with np.load(npz_path) as data:
                    inverted = None
                    if "inv_offsets" in data and "inv_sets" in data:
                        inverted = (data["inv_offsets"], data["inv_sets"])
                    index = cls(num_nodes, data["offsets"], data["nodes"],
                                data["weights"], meta=meta,
                                inverted=inverted,
                                total_weight=total_weight)
                    if "gains0" in data:
                        index._gains0 = data["gains0"]
                    if "roots" in data:
                        index._roots = data["roots"]
        except (KeyError, TypeError, ValueError, OSError,
                zipfile.BadZipFile) as error:
            raise IndexStoreError(
                f"corrupt index {npz_path.name}: {error!r}; rebuild it "
                f"with `repro index build`") from error
        if index.num_sets != int(manifest.get("num_sets", index.num_sets)):
            raise IndexStoreError(
                f"corrupt index {npz_path.name}: manifest records "
                f"{manifest.get('num_sets')} sets, arrays hold "
                f"{index.num_sets}")
        return index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FrozenRRIndex(num_nodes={self._num_nodes}, "
                f"num_sets={self.num_sets}, "
                f"sampler={self._meta.get('sampler')!r})")


__all__ = ["FORMAT_VERSION", "SUPPORTED_FORMAT_VERSIONS", "FrozenRRIndex",
           "index_paths", "write_manifest"]
