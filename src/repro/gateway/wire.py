"""Wire format of the serving gateway: strict JSON + tensor payloads.

Every byte the gateway emits goes through :func:`canonical_dumps` —
sorted keys, compact separators, ``allow_nan=False`` — so responses
are **byte-stable** for a given payload (the golden-fixture contract
of ``tests/test_gateway.py``) and can never smuggle a NaN/Infinity
through a JSON parser that would mangle it.

Tensors cross the wire in one of two encodings, both exact:

``"b64"``
    ``{"b64": <base64 of the raw buffer>, "dtype": ..., "shape": ...}``
    — the C-order bytes of the array, bit-identical by construction.
``"list"``
    Nested Python lists. Exact for float64 (``repr`` round-trips every
    finite double) and for float32/integers (decoded via the declared
    dtype, whose values are exactly representable as doubles). NaN and
    Infinity are rejected — strict JSON carries finite numbers only.

The over-the-wire parity replay uses ``"b64"``; ``"list"`` is the
curl-friendly encoding.
"""

from __future__ import annotations

import base64
import json
from typing import Dict, Tuple

import numpy as np

ENCODINGS = ("b64", "list")

#: Dtypes a client may declare for a tensor payload — the closed set
#: keeps ``np.dtype(...)`` from being an arbitrary-string constructor.
WIRE_DTYPES = (
    "float64",
    "float32",
    "int64",
    "int32",
    "int16",
    "int8",
    "uint8",
)


class WireError(ValueError):
    """A malformed request body (HTTP 400).

    ``code`` is the machine-readable error identifier echoed in the
    response's ``{"error": {"code": ..., "message": ...}}`` envelope.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def canonical_dumps(obj) -> str:
    """The gateway's only JSON serializer: byte-stable, strict."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _reject_constant(token: str):
    raise WireError(
        "non_finite_json",
        f"request JSON carries {token}; strict JSON allows finite numbers only",
    )


def canonical_loads(raw: bytes) -> object:
    """Parse a request body: UTF-8, valid JSON, finite numbers only."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError("bad_encoding", f"request body is not UTF-8: {exc}")
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except WireError:
        raise
    except json.JSONDecodeError as exc:
        raise WireError("bad_json", f"request body is not valid JSON: {exc}")


def encode_tensor(array: np.ndarray, encoding: str = "b64") -> object:
    """Encode ``array`` for the wire (see module docstring)."""
    array = np.ascontiguousarray(array)
    if encoding == "b64":
        return {
            "b64": base64.b64encode(array.tobytes()).decode("ascii"),
            "dtype": str(array.dtype),
            "shape": [int(dim) for dim in array.shape],
        }
    if encoding == "list":
        if np.issubdtype(array.dtype, np.floating) and not np.all(
            np.isfinite(array)
        ):
            raise WireError(
                "non_finite_tensor",
                "tensor holds NaN/Infinity; the list encoding cannot carry it",
            )
        return array.tolist()
    raise WireError(
        "bad_encoding", f"unknown tensor encoding {encoding!r}; expected {ENCODINGS}"
    )


def _decode_b64_tensor(payload: Dict[str, object]) -> np.ndarray:
    for field in ("b64", "dtype", "shape"):
        if field not in payload:
            raise WireError(
                "bad_tensor", f"b64 tensor payload is missing {field!r}"
            )
    dtype_name = payload["dtype"]
    if dtype_name not in WIRE_DTYPES:
        raise WireError(
            "bad_dtype",
            f"unsupported tensor dtype {dtype_name!r}; expected one of "
            f"{WIRE_DTYPES}",
        )
    shape = payload["shape"]
    if not isinstance(shape, list) or not all(
        isinstance(dim, int) and dim >= 0 for dim in shape
    ):
        raise WireError("bad_shape", f"tensor shape must be a list of ints, got {shape!r}")
    if not isinstance(payload["b64"], str):
        raise WireError("bad_tensor", "b64 field must be a base64 string")
    try:
        buffer = base64.b64decode(payload["b64"], validate=True)
    except Exception as exc:
        raise WireError("bad_tensor", f"b64 field is not valid base64: {exc}")
    dtype = np.dtype(dtype_name)
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if len(buffer) != expected:
        raise WireError(
            "bad_tensor",
            f"b64 buffer holds {len(buffer)} bytes but shape {shape} at "
            f"{dtype_name} needs {expected}",
        )
    return np.frombuffer(buffer, dtype=dtype).reshape(shape).copy()


def decode_tensor(payload: object) -> np.ndarray:
    """Decode a wire tensor (either encoding) into an ndarray.

    List payloads must be rectangular and numeric; b64 payloads carry
    their own dtype/shape. Raises :class:`WireError` on anything else.
    """
    if isinstance(payload, dict):
        return _decode_b64_tensor(payload)
    if isinstance(payload, list):
        try:
            array = np.asarray(payload, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise WireError(
                "bad_tensor", f"list tensor is not a rectangular numeric array: {exc}"
            )
        if array.dtype == object or not np.all(np.isfinite(array)):
            raise WireError(
                "bad_tensor", "list tensor must hold finite numbers only"
            )
        return array
    raise WireError(
        "bad_tensor",
        f"tensor payload must be a nested list or a b64 object, "
        f"got {type(payload).__name__}",
    )


def coerce_batch(
    array: np.ndarray, input_shape: Tuple[int, ...], dtype: np.dtype
) -> np.ndarray:
    """Validate a decoded tensor against the artifact's input shape.

    Accepts one example (``input_shape``) or a batch
    (``(N, *input_shape)``) and returns a batch in the session's input
    dtype — the exact bytes the engines will see.
    """
    shape = tuple(int(dim) for dim in array.shape)
    expected = tuple(int(dim) for dim in input_shape)
    if shape == expected:
        array = array[np.newaxis]
    elif len(shape) != len(expected) + 1 or shape[1:] != expected:
        raise WireError(
            "bad_shape",
            f"inputs have shape {list(shape)}; expected {list(expected)} "
            f"(one example) or [N, {', '.join(str(d) for d in expected)}]",
        )
    if len(array) == 0:
        raise WireError("bad_shape", "inputs carry an empty batch")
    return np.ascontiguousarray(array.astype(dtype, copy=False))


def error_body(code: str, message: str) -> str:
    """The canonical error envelope every non-2xx response carries."""
    return canonical_dumps({"error": {"code": code, "message": message}})
