"""Bitstream packing: the literal on-disk artifact of a quantized model.

:mod:`repro.quant.export` computes the deployed size of a mixed-precision
model in bits; this module makes that number physical. Integer codes are
packed into a contiguous bitstream (LSB-first within each byte, codes of
``bits[f]`` bits back to back per filter) and framed with a small binary
header, so a CQ model can be written to a file whose size *is* the
storage figure the paper's motivation promises, then read back and
reconstructed bit-exactly.

Format (version 1, little-endian):

```
magic   4s   b"CQW1"
layers  u32
per layer:
  name_len u16, name utf-8
  ndim     u8,  shape u32 * ndim
  lower    f64, upper f64
  filters  u32, bits_per_filter u8 * filters
  payload_bytes u64, payload (packed codes, filter-major)
```

The per-layer payload is byte-aligned (each layer starts on a byte
boundary); within a layer, codes are packed without padding.
"""

from __future__ import annotations

import struct
from typing import Dict

import numpy as np

from repro.quant.export import LayerExport, QuantizedExport

MAGIC = b"CQW1"

#: Storage dtypes a tagged (CQS2) sidecar tensor can be framed in:
#: tag byte -> little-endian numpy format. The numbering is part of the
#: on-disk format — append, never renumber.
TENSOR_DTYPES: Dict[int, str] = {0: "<f8", 1: "<f4", 2: "<f2"}

_TAG_OF_DTYPE = {np.dtype(fmt): tag for tag, fmt in TENSOR_DTYPES.items()}


def dtype_tag(dtype) -> int:
    """The sidecar tag byte of a storable tensor dtype."""
    try:
        return _TAG_OF_DTYPE[np.dtype(dtype).newbyteorder("<")]
    except KeyError:
        raise ValueError(
            f"dtype {dtype!r} is not a storable sidecar tensor dtype; "
            f"supported: {sorted(str(d) for d in _TAG_OF_DTYPE)}"
        ) from None


def dtype_from_tag(tag: int) -> np.dtype:
    """Inverse of :func:`dtype_tag` (raises on unknown tag bytes)."""
    try:
        return np.dtype(TENSOR_DTYPES[int(tag)])
    except KeyError:
        raise ValueError(f"unknown sidecar tensor dtype tag {tag!r}") from None


def pack_bits(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack non-negative integer ``codes`` of ``bits`` bits into bytes.

    LSB-first: the first code occupies the lowest bits of the first
    byte. ``bits == 0`` (pruned filters store nothing) returns an empty
    buffer.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    if bits < 0:
        raise ValueError(f"bits must be non-negative, got {bits}")
    if bits == 0 or codes.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if bits > 57:
        # 57 bits keeps (code << 7) inside uint64 during the shift loop.
        raise ValueError(f"bit-widths above 57 are not supported, got {bits}")
    if (codes >> np.uint64(bits)).any():
        raise ValueError(f"codes exceed {bits} bits")
    total_bits = codes.size * bits
    out = np.zeros((total_bits + 7) // 8, dtype=np.uint8)
    bit_positions = np.arange(codes.size, dtype=np.uint64) * np.uint64(bits)
    for offset in range(bits):
        positions = bit_positions + np.uint64(offset)
        bit_values = ((codes >> np.uint64(offset)) & np.uint64(1)).astype(np.uint8)
        np.bitwise_or.at(
            out,
            (positions // 8).astype(np.int64),
            (bit_values << (positions % 8).astype(np.uint8)).astype(np.uint8),
        )
    return out


def unpack_bits(buffer: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: read ``count`` codes of ``bits`` bits."""
    if bits < 0:
        raise ValueError(f"bits must be non-negative, got {bits}")
    if bits == 0 or count == 0:
        return np.zeros(count, dtype=np.int64)
    buffer = np.asarray(buffer, dtype=np.uint8)
    total_bits = count * bits
    if buffer.size * 8 < total_bits:
        raise ValueError(
            f"buffer holds {buffer.size * 8} bits, need {total_bits}"
        )
    codes = np.zeros(count, dtype=np.uint64)
    bit_positions = np.arange(count, dtype=np.uint64) * np.uint64(bits)
    for offset in range(bits):
        positions = bit_positions + np.uint64(offset)
        byte_values = buffer[(positions // 8).astype(np.int64)]
        bit_values = (byte_values >> (positions % 8).astype(np.uint8)) & 1
        codes |= bit_values.astype(np.uint64) << np.uint64(offset)
    return codes.astype(np.int64)


def _pack_layer(layer: LayerExport) -> bytes:
    chunks = []
    name_bytes = layer.name.encode("utf-8")
    chunks.append(struct.pack("<H", len(name_bytes)))
    chunks.append(name_bytes)
    chunks.append(struct.pack("<B", len(layer.weight_shape)))
    chunks.append(struct.pack(f"<{len(layer.weight_shape)}I", *layer.weight_shape))
    chunks.append(struct.pack("<dd", layer.lower, layer.upper))
    bits = np.asarray(layer.bits_per_filter, dtype=np.uint8)
    chunks.append(struct.pack("<I", len(bits)))
    chunks.append(bits.tobytes())

    payload_parts = []
    for f, filter_bits in enumerate(layer.bits_per_filter):
        filter_bits = int(filter_bits)
        if filter_bits == 0:
            continue
        payload_parts.append(pack_bits(layer.codes[f], filter_bits).tobytes())
    payload = b"".join(payload_parts)
    chunks.append(struct.pack("<Q", len(payload)))
    chunks.append(payload)
    return b"".join(chunks)


class ByteReader:
    """Cursor over a byte buffer with struct-format reads.

    Shared by the CQW1 frame parser below and by container formats that
    append further sections after the frames (the serving sidecar in
    :mod:`repro.serve.artifact`).

    Accepts any C-contiguous byte buffer (``bytes``, ``memoryview``,
    ``bytearray``, an ``mmap`` …). Slices returned by :meth:`take_bytes`
    are zero-copy views into the backing buffer whenever the buffer
    supports it (everything except ``bytes``), which is what lets the
    serving layer parse artifacts straight out of shared memory without
    a private copy.
    """

    def __init__(self, data):
        if not isinstance(data, (bytes, memoryview)):
            data = memoryview(data)
        self.data = data
        self.offset = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.offset + size > len(self.data):
            raise ValueError("truncated bitstream")
        values = struct.unpack_from(fmt, self.data, self.offset)
        self.offset += size
        return values

    def take_bytes(self, count: int):
        """Read ``count`` raw bytes (a zero-copy slice of the buffer).

        The return type mirrors the backing buffer: ``bytes`` in, slice
        of ``bytes`` out; ``memoryview`` in, sub-view out. Callers that
        need a real ``bytes`` object (e.g. to ``.decode()``) must wrap
        the result in ``bytes(...)`` themselves.
        """
        chunk = self.data[self.offset : self.offset + count]
        if len(chunk) != count:
            raise ValueError("truncated bitstream")
        self.offset += count
        return chunk

    def remaining(self) -> int:
        return len(self.data) - self.offset


#: Backward-compatible alias (pre-serving name).
_Reader = ByteReader


def _unpack_layer(reader: ByteReader) -> LayerExport:
    (name_len,) = reader.take("<H")
    name = bytes(reader.take_bytes(name_len)).decode("utf-8")
    (ndim,) = reader.take("<B")
    shape = reader.take(f"<{ndim}I")
    lower, upper = reader.take("<dd")
    (filters,) = reader.take("<I")
    bits = np.frombuffer(reader.take_bytes(filters), dtype=np.uint8).astype(np.int64)
    (payload_bytes,) = reader.take("<Q")
    payload = np.frombuffer(reader.take_bytes(payload_bytes), dtype=np.uint8)

    per_filter = int(np.prod(shape[1:])) if len(shape) > 1 else 1
    codes = []
    cursor_bits = 0
    for filter_bits in bits:
        filter_bits = int(filter_bits)
        if filter_bits == 0:
            codes.append(np.zeros(0, dtype=np.int64))
            continue
        start_byte = cursor_bits // 8
        # Each filter's codes were packed independently (byte-aligned).
        needed_bits = per_filter * filter_bits
        needed_bytes = (needed_bits + 7) // 8
        chunk = payload[start_byte : start_byte + needed_bytes]
        codes.append(unpack_bits(chunk, filter_bits, per_filter))
        cursor_bits += needed_bytes * 8
    return LayerExport(
        name=name,
        lower=lower,
        upper=upper,
        bits_per_filter=bits,
        codes=codes,
        weight_shape=tuple(int(d) for d in shape),
    )


def serialize_export(export: QuantizedExport) -> bytes:
    """Frame a :class:`QuantizedExport` as a deployable bitstream."""
    chunks = [MAGIC, struct.pack("<I", len(export.layers))]
    for layer in export.layers.values():
        chunks.append(_pack_layer(layer))
    return b"".join(chunks)


def read_export(reader: ByteReader) -> QuantizedExport:
    """Parse the CQW1 magic + layer frames at the reader's cursor.

    The cursor is left on the first byte after the frames, so container
    formats can append (and then parse) trailing sections — the serving
    artifact (:mod:`repro.serve.artifact`) appends a model sidecar.
    """
    if reader.take_bytes(4) != MAGIC:
        raise ValueError("not a CQW1 bitstream")
    (layer_count,) = reader.take("<I")
    export = QuantizedExport()
    for _ in range(layer_count):
        layer = _unpack_layer(reader)
        export.layers[layer.name] = layer
    return export


def deserialize_export(data: bytes) -> QuantizedExport:
    """Parse a bitstream produced by :func:`serialize_export`.

    The unquantized-layer accounting is not stored in the stream (it is
    a reporting figure, not deployable payload), so it reads back as 0.
    Trailing bytes after the layer frames are ignored (containers may
    append sidecar sections). ``data`` may be any byte buffer; views
    are parsed in place without a private copy.
    """
    return read_export(ByteReader(data))


def write_bitstream(export: QuantizedExport, path) -> int:
    """Write the bitstream to ``path``; returns the byte count."""
    data = serialize_export(export)
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def read_bitstream(path) -> QuantizedExport:
    """Read a bitstream written by :func:`write_bitstream`."""
    with open(path, "rb") as handle:
        return deserialize_export(handle.read())
