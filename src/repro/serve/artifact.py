"""Serving artifacts: the deployable form of a quantized model.

:mod:`repro.quant.packing` frames the integer weight codes as a CQW1
bitstream — the file whose size *is* the paper's storage figure. This
module turns that bitstream into something a server can answer
predictions with:

* **Container.** A serving artifact is a CQW1 bitstream followed by a
  small *sidecar* section: a JSON manifest naming the preset
  architecture (model, dataset, scale, seed, geometry,
  ``max_bits``/``act_bits``) plus every piece of model state that is
  *not* quantized weight payload — biases, batch-norm statistics,
  calibrated activation ranges, the unquantized first/output layers.
  The sidecar comes in two layouts: legacy ``CQS1`` (every tensor
  stored raw float64) and tagged ``CQS2`` (a per-tensor dtype byte, so
  the unquantized tail can be stored float32 — the default — or
  float16, keeping the artifact bytes tracking the paper's storage
  figure instead of being dwarfed by a float64 sidecar). Writing
  ``sidecar_dtype="float64"`` emits byte-identical legacy ``CQS1``;
  both layouts read back. Plain-CQW1 readers
  (:func:`repro.quant.packing.read_bitstream`) ignore the sidecar;
  plain CQW1 files without one are rejected here with a pointer to
  ``repro quantize --save-artifact``.

* **Reconstruction.** :func:`build_serving_model` rebuilds the preset
  architecture, loads the sidecar state, overwrites each quantized
  layer's weight with :meth:`LayerExport.reconstruct` (bit-exact with
  ``effective_weight`` — the reconstruction mirrors the quantizer's
  arithmetic) and disables weight fake-quantization: the served model
  runs forwards straight from the dequantized integer codes,
  identically on every load. Against the *original* fake-quantized
  model its predictions are bit-exact when the sidecar stored the
  state losslessly (``sidecar_dtype="float64"``) and float32-tight
  under the compact default (the narrowing happens once, at pack
  time). Both contracts are enforced by ``tests/test_serve_parity.py``.

* **Artifact cache, copy-on-lease.** :class:`ArtifactCache` is a
  content-hash-keyed LRU over *built* artifacts: loading the same
  bitstream bytes twice parses and reconstructs once. The cached
  :class:`ServingArtifact` keeps one pristine **prototype** model;
  engines never serve it directly. Instead :meth:`ArtifactCache.lease`
  hands each caller a :class:`ModelLease` holding a private clone of
  the prototype (deep copy of the parameter/buffer arrays; the parsed
  codes and manifest stay shared — they are immutable), so N engines
  can serve one cached artifact with zero shared mutable state.
  Leases are refcounted: :meth:`ModelLease.release` returns the claim,
  and eviction skips entries with active leases so the clone source
  survives its tenants.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.nn.module import Module
from repro.quant.export import (
    STORAGE_DTYPE_BITS,
    QuantizedExport,
    export_quantized_weights,
    verify_export,
)
from repro.quant.packing import (
    ByteReader,
    dtype_from_tag,
    dtype_tag,
    read_export,
    serialize_export,
)
from repro.quant.qmodules import quantize_model, quantized_layers
from repro.utils.misc import clone_module

SIDECAR_MAGIC = b"CQS1"
"""Legacy sidecar layout: every tensor stored raw float64, untagged."""

SIDECAR_MAGIC_V2 = b"CQS2"
"""Tagged sidecar layout: a dtype byte per tensor (see ``TENSOR_DTYPES``)."""

#: Storage dtypes :func:`serialize_artifact` accepts for the sidecar.
#: ``float64`` emits the legacy ``CQS1`` layout byte for byte; the rest
#: emit tagged ``CQS2``. Derived from the authoritative bit-cost table
#: in :mod:`repro.quant.export` so the two can never drift.
SIDECAR_DTYPES = {
    name: np.dtype(f"<f{bits // 8}")
    for name, bits in STORAGE_DTYPE_BITS.items()
}

DEFAULT_SIDECAR_DTYPE = "float32"

#: The dtype a served float model computes in, by sidecar storage dtype:
#: float32 storage runs float32 and float16 storage widens to float32.
#: Every other sidecar (``float64``, legacy ``CQS1``, ``"mixed"``) runs
#: float64, so a lossless sidecar serves bitwise like the source model.
COMPUTE_DTYPES = {"float16": np.dtype(np.float32), "float32": np.dtype(np.float32)}

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
@dataclass
class ArtifactManifest:
    """Everything needed to rebuild the served architecture.

    ``model``/``scale``/``seed``/geometry feed
    :func:`repro.experiments.presets.build_preset_model`; ``dataset``
    names the preset whose replay traffic ``repro serve`` generates;
    ``extra`` carries free-form report figures (accuracies, budgets).
    """

    model: str
    dataset: str = "synth10"
    scale: str = "tiny"
    seed: int = 0
    num_classes: int = 10
    image_size: int = 16
    max_bits: int = 4
    act_bits: Optional[int] = None
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def input_shape(self):
        """Shape of one request payload (``(3, S, S)`` synth images)."""
        return (3, self.image_size, self.image_size)

    def to_dict(self) -> Dict[str, object]:
        extra = {}
        for key, value in self.extra.items():
            if isinstance(value, float) and not math.isfinite(value):
                value = None  # strict-JSON convention of repro.experiments.io
            extra[str(key)] = value
        return {
            "model": self.model,
            "dataset": self.dataset,
            "scale": self.scale,
            "seed": int(self.seed),
            "num_classes": int(self.num_classes),
            "image_size": int(self.image_size),
            "max_bits": int(self.max_bits),
            "act_bits": None if self.act_bits is None else int(self.act_bits),
            "extra": extra,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "ArtifactManifest":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(document) - known
        if unknown:
            raise ValueError(f"manifest has unknown fields {sorted(unknown)}")
        return cls(**document)


# ----------------------------------------------------------------------
# Sidecar framing
# ----------------------------------------------------------------------
def _serving_state(model: Module) -> "OrderedDict[str, np.ndarray]":
    """Model state minus the quantized layers' weights.

    Those weights travel as integer codes in the CQW1 frames; storing
    them again as float64 would defeat the storage claim the bitstream
    exists to make physical.
    """
    quantized = set(quantized_layers(model))
    state = OrderedDict()
    for name, value in model.state_dict().items():
        if name.endswith(".weight") and name[: -len(".weight")] in quantized:
            continue
        state[name] = value
    return state


def _pack_sidecar(
    manifest: ArtifactManifest,
    state: Dict[str, np.ndarray],
    sidecar_dtype: str = DEFAULT_SIDECAR_DTYPE,
) -> bytes:
    if sidecar_dtype not in SIDECAR_DTYPES:
        raise ValueError(
            f"unknown sidecar dtype {sidecar_dtype!r}; "
            f"supported: {sorted(SIDECAR_DTYPES)}"
        )
    dtype = SIDECAR_DTYPES[sidecar_dtype]
    legacy = sidecar_dtype == "float64"
    manifest_bytes = json.dumps(
        manifest.to_dict(), sort_keys=True, allow_nan=False
    ).encode("utf-8")
    chunks = [
        SIDECAR_MAGIC if legacy else SIDECAR_MAGIC_V2,
        struct.pack("<I", len(manifest_bytes)),
        manifest_bytes,
        struct.pack("<I", len(state)),
    ]
    for name, array in state.items():
        array = np.asarray(array, dtype=dtype)
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        if not legacy:
            chunks.append(struct.pack("<B", dtype_tag(array.dtype)))
        chunks.append(struct.pack("<B", array.ndim))
        chunks.append(struct.pack(f"<{array.ndim}I", *array.shape))
        chunks.append(array.tobytes())
    return b"".join(chunks)


def _unpack_sidecar(reader: ByteReader):
    """Parse a CQS1/CQS2 sidecar; returns (manifest, state, dtype name).

    State arrays keep their stored float32 or float64; float16 widens to
    float32, the narrowest dtype a model computes in. The returned dtype
    name records the storage form (``"mixed"`` if a CQS2 sidecar carries
    more than one tag).
    """
    if reader.remaining() == 0:
        raise ValueError(
            "CQW1 bitstream has no serving sidecar; write one with "
            "`repro quantize --save-artifact` or save_artifact()"
        )
    magic = reader.take_bytes(4)
    if magic not in (SIDECAR_MAGIC, SIDECAR_MAGIC_V2):
        raise ValueError(
            "unknown section after CQW1 frames (expected CQS1/CQS2 sidecar)"
        )
    tagged = magic == SIDECAR_MAGIC_V2
    (manifest_len,) = reader.take("<I")
    manifest = ArtifactManifest.from_dict(
        json.loads(bytes(reader.take_bytes(manifest_len)).decode("utf-8"))
    )
    (tensor_count,) = reader.take("<I")
    state: "OrderedDict[str, np.ndarray]" = OrderedDict()
    seen_dtypes = set()
    for _ in range(tensor_count):
        (name_len,) = reader.take("<H")
        name = bytes(reader.take_bytes(name_len)).decode("utf-8")
        if tagged:
            (tag,) = reader.take("<B")
            dtype = dtype_from_tag(tag)
        else:
            dtype = SIDECAR_DTYPES["float64"]
        (ndim,) = reader.take("<B")
        shape = reader.take(f"<{ndim}I") if ndim else ()
        count = int(np.prod(shape)) if shape else 1
        payload = reader.take_bytes(count * dtype.itemsize)
        state[name] = (
            np.frombuffer(payload, dtype=dtype)
            .reshape(shape)
            .astype(np.promote_types(dtype, np.float32))
        )
        seen_dtypes.add(dtype)
    if not tagged or not seen_dtypes:
        sidecar_dtype = "float64"
    elif len(seen_dtypes) > 1:
        sidecar_dtype = "mixed"
    else:
        only = seen_dtypes.pop()
        sidecar_dtype = next(
            name for name, dt in SIDECAR_DTYPES.items() if dt == only
        )
    return manifest, state, sidecar_dtype


# ----------------------------------------------------------------------
# The artifact
# ----------------------------------------------------------------------
@dataclass
class ServingArtifact:
    """Parsed artifact plus the lazily built serving-model prototype."""

    manifest: ArtifactManifest
    export: QuantizedExport
    state: Dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    content_key: str = ""
    """SHA-256 (truncated) of the serialized bytes — the cache identity."""

    nbytes: int = 0
    data: Optional[Union[bytes, memoryview]] = field(default=None, repr=False)
    """The exact serialized bytes this artifact was parsed from.

    A ``bytes`` object for process-private loads; a ``memoryview`` over
    an attached shared-memory segment for zero-copy loads — the view
    keeps the mapping alive, and the parse reads straight out of it.
    """

    shared_nbytes: int = 0
    """Bytes of :attr:`data` backed by a shared-memory mapping rather
    than process-private memory. ``nbytes`` for zero-copy loads, 0 for
    plain byte loads; reconstructed float weights are always a private
    copy per process and are not counted here."""

    payload_nbytes: int = 0
    """Bytes of the CQW1 frames (the paper's storage figure, physical)."""

    sidecar_nbytes: int = 0
    """Bytes of the CQS1/CQS2 sidecar (manifest + non-payload state)."""

    sidecar_dtype: str = "float64"
    """Storage dtype the sidecar tensors were framed in."""

    _model: Optional[Module] = field(default=None, repr=False)  # guarded-by: _model_lock
    _integer_model: Optional[object] = field(default=None, repr=False)  # guarded-by: _model_lock
    _model_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def compute_dtype(self) -> np.dtype:
        """The dtype the float serving model computes in (see
        :data:`COMPUTE_DTYPES`); the integer backend always runs float64."""
        return COMPUTE_DTYPES.get(self.sidecar_dtype, np.dtype(np.float64))

    def model(self) -> Module:
        """The reconstructed serving model (built once, then reused).

        This is the cache's **prototype**: the clone source for leases.
        Do not hand it to an engine while other leases may be cut from
        it — serve :meth:`clone_model_for` copies instead.
        """
        with self._model_lock:
            if self._model is None:
                self._model = build_serving_model(self)
            return self._model

    def integer_model(self):
        """The compiled integer-backend prototype (built once, lazily).

        An :class:`~repro.serve.integer.IntegerServingModel` whose layer
        specs execute the packed CQW1 codes directly — no float weight
        reconstruction. Built on the first integer lease (float-only
        deployments never pay for it); the same prototype/clone contract
        as :meth:`model` applies.
        """
        with self._model_lock:
            if self._integer_model is None:
                from repro.serve.integer import compile_integer_serving

                self._integer_model = compile_integer_serving(self)
            return self._integer_model

    def clone_model_for(self, backend: str):
        """A private, bit-identical clone of the ``backend`` prototype.

        This is the copy-on-lease primitive behind
        :meth:`ArtifactCache.lease`. A float clone deep-copies parameter
        and buffer arrays; an integer clone shares the immutable code
        arrays and keeps per-spec accumulator statistics private. The
        parsed codes, manifest and serialized bytes stay shared through
        this artifact (they are immutable after parse).
        """
        if backend == "float":
            return clone_module(self.model())
        if backend == "integer":
            return self.integer_model().clone()
        raise ValueError(f"unknown serving backend {backend!r}")

    @property
    def private_nbytes(self) -> int:
        """Process-private bytes of the serialized form (complement of
        :attr:`shared_nbytes`)."""
        return self.nbytes - self.shared_nbytes

    def size_breakdown(self) -> str:
        """One-line payload-vs-sidecar byte accounting."""
        return (
            f"{self.nbytes} bytes (payload {self.payload_nbytes} + "
            f"sidecar {self.sidecar_nbytes} @ {self.sidecar_dtype})"
        )

    def save(self, path: PathLike) -> int:
        """Write the artifact's serialized bytes to ``path``.

        Byte-identical with what was parsed (same content key), so a
        compiled artifact can be persisted without re-serializing.
        """
        if self.data is None:
            raise ValueError("artifact holds no serialized bytes")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(self.data)
        return len(self.data)


def serialize_artifact(
    model: Module,
    manifest: ArtifactManifest,
    verify: bool = True,
    sidecar_dtype: str = DEFAULT_SIDECAR_DTYPE,
) -> bytes:
    """Frame a quantized model as CQW1 frames + serving sidecar.

    ``sidecar_dtype`` picks the storage form of the non-payload state
    (default float32; ``"float64"`` emits the legacy lossless CQS1
    layout, ``"float16"`` the aggressive tail option). Narrow dtypes
    round the stored state — the served model then computes from the
    rounded values, deterministically on every load.
    """
    export = export_quantized_weights(model)
    if verify:
        verify_export(model, export, strict=True)
    return serialize_export(export) + _pack_sidecar(
        manifest, _serving_state(model), sidecar_dtype=sidecar_dtype
    )


def save_artifact(
    path: PathLike,
    model: Module,
    manifest: ArtifactManifest,
    verify: bool = True,
    sidecar_dtype: str = DEFAULT_SIDECAR_DTYPE,
) -> int:
    """Write a serving artifact to ``path``; returns the byte count."""
    data = serialize_artifact(
        model, manifest, verify=verify, sidecar_dtype=sidecar_dtype
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return len(data)


def load_artifact_bytes(data: Union[bytes, bytearray, memoryview]) -> ServingArtifact:
    """Parse serialized artifact bytes (CQW1 frames + CQS1/CQS2 sidecar).

    Zero-copy: a ``memoryview`` is parsed in place (and assumed to
    reference a shared mapping such as a shm segment — so the
    artifact reports its bytes as :attr:`ServingArtifact.shared_nbytes`);
    ``bytes`` are kept as-is without a defensive copy. A ``bytearray``
    is snapshotted to ``bytes`` once, because the content key must not
    be able to drift from the data after parse.
    """
    if isinstance(data, bytearray):
        data = bytes(data)
    elif isinstance(data, memoryview):
        if data.format != "B" or data.ndim != 1:
            data = data.cast("B")
    shared = isinstance(data, memoryview)
    reader = ByteReader(data)
    export = read_export(reader)
    payload_nbytes = reader.offset
    manifest, state, sidecar_dtype = _unpack_sidecar(reader)
    return ServingArtifact(
        manifest=manifest,
        export=export,
        state=state,
        content_key=hashlib.sha256(data).hexdigest()[:16],
        nbytes=len(data),
        data=data,
        shared_nbytes=len(data) if shared else 0,
        payload_nbytes=payload_nbytes,
        sidecar_nbytes=len(data) - payload_nbytes,
        sidecar_dtype=sidecar_dtype,
    )


def load_artifact(path: PathLike) -> ServingArtifact:
    """Read and parse a serving artifact file (uncached; see ArtifactCache)."""
    return load_artifact_bytes(Path(path).read_bytes())


class SharedArtifactSegment:
    """One shared-memory segment holding an artifact's serialized bytes.

    The parent serving process :meth:`create`\\ s the segment (one copy
    of the bytes, into the segment, ever) and owns its name: it calls
    :meth:`unlink` when the pool closes. Worker processes
    :meth:`attach` by name and :meth:`load` the artifact zero-copy —
    the CQW1/CQS2 parse reads straight out of the mapping, so N workers
    share one physical copy of the serialized form while their
    reconstructed float weights (or compiled integer specs) stay
    process-private.

    Attaching can unregister the segment from the worker's
    ``resource_tracker`` (``untrack=True``): the parent owns the
    lifetime, and in spawn/forkserver contexts — where workers get a
    tracker daemon of their own — a dying worker's tracker would
    otherwise unlink the name out from under its siblings (CPython's
    bpo-38119 behaviour). Fork-context workers share the parent's
    tracker daemon, whose registration set is idempotent, so they must
    *not* untrack (that would cancel the parent's own registration).
    """

    def __init__(self, shm, nbytes: int, owner: bool):
        self._shm = shm
        self.nbytes = nbytes
        """Logical byte length (the segment may be page-rounded)."""
        self.owner = owner
        """Whether this handle created the segment (and must unlink it)."""
        self._unlinked = False

    @property
    def name(self) -> str:
        """The attachable system-wide segment name."""
        return self._shm.name

    @classmethod
    def create(cls, data: Union[bytes, memoryview]) -> "SharedArtifactSegment":
        """Create a segment and copy ``data`` into it (the one copy)."""
        from multiprocessing import shared_memory

        nbytes = len(data)
        shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        shm.buf[:nbytes] = data
        return cls(shm, nbytes, owner=True)

    @classmethod
    def attach(
        cls, name: str, nbytes: int, untrack: bool = False
    ) -> "SharedArtifactSegment":
        """Attach to an existing segment by name (worker side).

        Pass ``untrack=True`` from spawn/forkserver workers only — see
        the class docstring for the tracker-ownership rules.
        """
        from multiprocessing import resource_tracker, shared_memory

        shm = shared_memory.SharedMemory(name=name)
        if untrack:
            try:  # parent owns the lifetime; see class docstring
                resource_tracker.unregister(shm._name, "shared_memory")
            # Best-effort against private stdlib API drift: a failed
            # untrack only risks tracker noise, never correctness.
            except Exception:  # repro: allow(bare-except)
                pass
        return cls(shm, nbytes, owner=False)

    def view(self) -> memoryview:
        """A zero-copy view of the artifact bytes inside the segment."""
        return memoryview(self._shm.buf)[: self.nbytes]

    def load(self) -> ServingArtifact:
        """Parse the mapped bytes into a zero-copy artifact."""
        return load_artifact_bytes(self.view())

    def close(self) -> None:
        """Release this process's mapping (best-effort).

        Live views handed out by :meth:`view`/:meth:`load` keep the
        mapping pinned; in that case the close is skipped — process
        exit reclaims the mapping regardless, and :meth:`unlink` (the
        part that matters system-wide) does not need it.
        """
        try:
            self._shm.close()
        except BufferError:
            pass  # a loaded artifact still references the mapping

    def unlink(self) -> None:
        """Remove the segment name (owner side; idempotent).

        Existing mappings survive until their processes drop them; new
        attaches fail — the leak check in the pool tests asserts exactly
        this after ``close()``.
        """
        if self.owner and not self._unlinked:
            self._unlinked = True
            self._shm.unlink()


def build_serving_model(
    artifact: ServingArtifact, reconstruct_weights: bool = True, dtype=None
) -> Module:
    """Reconstruct the mixed-precision model behind an artifact.

    The model computes in ``dtype``, by default the artifact's
    :attr:`~ServingArtifact.compute_dtype`. Weights are reconstructed in
    float64 and rounded once to ``dtype``. The returned model is in
    ``eval()`` mode with weight
    fake-quantization **disabled**: each quantized layer's weight holds
    the dequantized codes directly, which is bit-exact with the
    fake-quantized forward (see the module docstring's parity contract).
    Activation quantization stays active, driven by the calibrated
    ranges from the sidecar.

    With ``reconstruct_weights=False`` the quantized layers get zero
    placeholder weights instead of dequantized codes: the *shell* the
    integer backend shadows with :func:`~repro.quant.integer.integer_forward`
    closures — the packed codes never round-trip through float weight
    reconstruction there, and an accidental use of the shell's weights
    produces loudly wrong (all-zero-weight) outputs rather than subtly
    stale ones.
    """
    manifest = artifact.manifest
    from repro.experiments.presets import build_preset_model

    model = build_preset_model(
        manifest.model,
        num_classes=manifest.num_classes,
        image_size=manifest.image_size,
        scale=manifest.scale,
        seed=manifest.seed,
    )
    quantize_model(model, max_bits=manifest.max_bits, act_bits=manifest.act_bits)
    layers = quantized_layers(model)
    if set(layers) != set(artifact.export.layers):
        raise ValueError(
            f"artifact layers {sorted(artifact.export.layers)} do not match the "
            f"{manifest.model!r} architecture's quantized layers {sorted(layers)}"
        )
    state = dict(artifact.state)
    for name, layer_export in artifact.export.layers.items():
        if tuple(layer_export.weight_shape) != tuple(layers[name].weight.shape):
            raise ValueError(
                f"layer {name!r}: artifact shape {layer_export.weight_shape} vs "
                f"model shape {tuple(layers[name].weight.shape)}"
            )
        state[f"{name}.weight"] = (
            layer_export.reconstruct()
            if reconstruct_weights
            else np.zeros(tuple(layer_export.weight_shape))
        )
    model.load_state_dict(state, strict=True)
    for layer in layers.values():
        layer.weight_quant_enabled = False  # weights already hold the codes' values
    model.astype(artifact.compute_dtype if dtype is None else dtype)
    model.eval()
    return model


# ----------------------------------------------------------------------
# Compilation from pipeline outputs
# ----------------------------------------------------------------------
def compile_artifact(
    model: Module,
    manifest: ArtifactManifest,
    verify: bool = True,
    sidecar_dtype: str = DEFAULT_SIDECAR_DTYPE,
) -> ServingArtifact:
    """In-memory compile: serialize then parse, so the content key (and
    every load-path check) matches a save/load round trip exactly."""
    return load_artifact_bytes(
        serialize_artifact(
            model, manifest, verify=verify, sidecar_dtype=sidecar_dtype
        )
    )


def artifact_from_result(
    result,
    model_name: str,
    dataset_name: str,
    dataset,
    scale: str = "tiny",
    seed: int = 0,
    extra: Optional[Dict[str, object]] = None,
    sidecar_dtype: str = DEFAULT_SIDECAR_DTYPE,
) -> ServingArtifact:
    """Compile a :class:`~repro.core.pipeline.CQResult` into an artifact."""
    if result.config is None:
        raise ValueError(
            "CQResult carries no config (hand-built result?); construct an "
            "ArtifactManifest yourself and use compile_artifact()"
        )
    figures = {
        "average_bits": float(result.average_bits),
        "accuracy_fp": float(result.accuracy_fp),
        "accuracy_after_refine": float(result.accuracy_after_refine),
    }
    figures.update(extra or {})
    manifest = ArtifactManifest(
        model=model_name,
        dataset=dataset_name,
        scale=scale,
        seed=seed,
        num_classes=dataset.num_classes,
        image_size=dataset.config.image_size,
        max_bits=result.config.max_bits,
        act_bits=result.config.act_bits,
        extra=figures,
    )
    return compile_artifact(result.model, manifest, sidecar_dtype=sidecar_dtype)


# ----------------------------------------------------------------------
# Content-hash-keyed LRU artifact cache (copy-on-lease)
# ----------------------------------------------------------------------
@dataclass
class ArtifactCacheStats:
    hits: int = 0
    misses: int = 0
    races: int = 0
    """Duplicate builds that lost a concurrent-load race: the work was
    done but thrown away, so it is neither a hit (no work saved) nor a
    miss (the build did not enter the cache)."""

    evictions: int = 0
    leases: int = 0
    releases: int = 0

    shared_nbytes: int = 0
    """Serialized bytes of resident entries backed by shared-memory
    segments — one physical copy system-wide."""

    private_nbytes: int = 0
    """Serialized bytes of resident entries held as process-private
    ``bytes`` objects."""

    @property
    def loads(self) -> int:
        """Load calls answered; ``hits + misses + races`` by identity."""
        return self.hits + self.misses + self.races

    def summary(self) -> str:
        return (
            f"artifact cache: {self.hits} hits, {self.misses} misses, "
            f"{self.races} races, {self.evictions} evictions, "
            f"{self.leases} leases ({self.leases - self.releases} active), "
            f"{self.shared_nbytes} shared / {self.private_nbytes} private bytes"
        )


class ModelLease:
    """One engine's private claim on a cached artifact.

    ``artifact`` is the shared, immutable :class:`ServingArtifact`;
    ``model`` is a private clone of its prototype — the holder owns it
    outright (hand it to an :class:`~repro.serve.engine.InferenceEngine`
    worker, mutate it, whatever). :meth:`release` returns the claim to
    the cache; idempotent, and usable as a context manager.
    """

    __slots__ = ("artifact", "model", "backend", "_cache", "_released")

    def __init__(
        self,
        cache: "ArtifactCache",
        artifact: ServingArtifact,
        model: Module,
        backend: str = "float",
    ):
        self.artifact = artifact
        self.model = model
        self.backend = backend
        """Which execution backend the leased model runs (``"float"``
        reconstructed-weight forwards or ``"integer"`` packed-code MACs)."""
        self._cache = cache
        self._released = False

    @property
    def content_key(self) -> str:
        return self.artifact.content_key

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Return the claim (idempotent); the model stays usable but the
        cache no longer counts it against eviction protection."""
        if not self._released:
            self._released = True
            self._cache._release(self.artifact.content_key)

    def __enter__(self) -> "ModelLease":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class ArtifactCache:
    """LRU cache of built serving artifacts, keyed by content hash.

    The key is the SHA-256 of the serialized bytes, so identical
    bitstreams are recognised wherever they live on disk. A miss parses
    the artifact **and** eagerly builds its serving-model prototype, so
    a hit is genuinely free — no re-quantization, no reconstruction.

    Concurrent engines go through :meth:`lease`: each lease clones the
    prototype (copy-on-lease) and bumps a per-entry refcount; eviction
    skips entries with active leases (temporarily exceeding
    ``capacity`` if every entry is leased) so the clone source is never
    rebuilt while tenants hold it.
    """

    def __init__(self, capacity: int = 4):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.stats = ArtifactCacheStats()  # guarded-by: _lock
        self._entries: "OrderedDict[str, ServingArtifact]" = OrderedDict()  # guarded-by: _lock
        self._refcounts: Dict[str, int] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def load(self, path: PathLike) -> ServingArtifact:
        """Load ``path`` through the cache."""
        return self.load_bytes(Path(path).read_bytes())

    def load_bytes(self, data: Union[bytes, bytearray, memoryview]) -> ServingArtifact:
        key = hashlib.sha256(data).hexdigest()[:16]
        return self._insert(key, lambda: load_artifact_bytes(data))

    def lease(
        self,
        source: Union[PathLike, bytes, "ServingArtifact"],
        backend: str = "float",
    ) -> ModelLease:
        """Claim a private model clone of ``source`` through the cache.

        ``source`` may be an artifact path, serialized bytes, or an
        already-parsed :class:`ServingArtifact` (adopted into the cache
        by content key). The first lease of an uncached artifact pays
        the parse+build once; every further lease is a cache hit plus a
        cheap parameter-array clone. ``backend`` picks what the lease's
        model executes: ``"float"`` clones the reconstructed-weight
        prototype, ``"integer"`` clones the compiled integer model
        (built lazily on the first integer lease of an entry; float and
        integer prototypes share the cache entry and its refcount).
        Release with :meth:`ModelLease.release` (or use the lease as a
        context manager) so eviction can reclaim the entry.
        """
        if backend not in ("float", "integer"):
            raise ValueError(
                f"unknown serving backend {backend!r}; "
                "expected 'float' or 'integer'"
            )
        if isinstance(source, ServingArtifact):
            artifact = self._adopt(source)
        elif isinstance(source, (bytes, bytearray, memoryview)):
            artifact = self.load_bytes(source)
        elif isinstance(source, (str, Path)):
            artifact = self.load(source)
        else:
            raise TypeError(
                f"lease source must be a path, bytes or ServingArtifact, "
                f"got {type(source)}"
            )
        key = artifact.content_key
        with self._lock:
            self._refcounts[key] = self._refcounts.get(key, 0) + 1
            self.stats.leases += 1
        try:
            model = artifact.clone_model_for(backend)
        except BaseException:
            self._release(key)
            raise
        return ModelLease(self, artifact, model, backend=backend)

    def active_leases(self) -> int:
        """Total outstanding (unreleased) leases across all entries."""
        with self._lock:
            return sum(self._refcounts.values())

    def _adopt(self, artifact: ServingArtifact) -> ServingArtifact:
        """Insert an already-parsed artifact under its content key."""
        if not artifact.content_key:
            raise ValueError("artifact has no content key (not load-path built)")
        return self._insert(artifact.content_key, lambda: artifact)

    def _insert(self, key: str, parse) -> ServingArtifact:
        """The one insert path: a hit returns the cached entry; a miss
        gets the artifact from ``parse()`` and builds its prototype
        outside the lock (so hits skip reconstruction), then re-checks
        for a racing insert — keeping the first build — before
        inserting, accounting and evicting."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
        artifact = parse()
        artifact.model()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                self.stats.races += 1
                return existing
            self._entries[key] = artifact
            self.stats.misses += 1
            self._account_locked(artifact, 1)
            self._evict_locked()
        return artifact

    def _account_locked(self, artifact: ServingArtifact, sign: int) -> None:
        """Track resident shared-vs-private serialized bytes."""
        self.stats.shared_nbytes += sign * artifact.shared_nbytes
        self.stats.private_nbytes += sign * artifact.private_nbytes

    def _release(self, key: str) -> None:
        with self._lock:
            count = self._refcounts.get(key, 0)
            if count <= 0:
                raise ValueError(f"no active lease on artifact {key!r}")
            if count == 1:
                del self._refcounts[key]
            else:
                self._refcounts[key] = count - 1
            self.stats.releases += 1
            self._evict_locked()

    def _evict_locked(self) -> None:
        while len(self._entries) > self.capacity:
            victim = next(
                (
                    key
                    for key in self._entries  # OrderedDict: LRU first
                    if self._refcounts.get(key, 0) == 0
                ),
                None,
            )
            if victim is None:
                break  # every entry is leased: overshoot rather than orphan
            self._account_locked(self._entries[victim], -1)
            del self._entries[victim]
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every cached entry (outstanding leases stay valid — they
        hold their own artifact and model references)."""
        with self._lock:
            for artifact in self._entries.values():
                self._account_locked(artifact, -1)
            self._entries.clear()


#: Process-wide default cache used by :class:`repro.serve.session.ServingSession`
#: when constructed from a path.
DEFAULT_CACHE = ArtifactCache()
