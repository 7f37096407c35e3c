"""Network serving gateway: registry, HTTP front end, replay client.

The gateway is the network face of :mod:`repro.serve`: a stdlib-only
(``asyncio`` + hand-rolled HTTP/1.1) front end that serves **multiple**
CQW1 artifacts from one process. Each artifact name maps — through the
content-hash :class:`~repro.serve.artifact.ArtifactCache` — to a leased
engine pool with its own backend/engines/autoscale configuration and
its own admission budget (shed with HTTP 429 + ``Retry-After`` instead
of queueing unboundedly). The parity contract survives the socket:
tensors cross the wire base64-encoded (bit-identical buffers), so a
trace replayed over HTTP with
:class:`~repro.gateway.client.GatewayReplayClient` verifies against the
server-side session with :func:`~repro.serve.replay.verify_replay`.

Layout::

    wire.py      strict-JSON wire format + exact tensor encodings
    registry.py  ArtifactRegistry: names -> sessions, admission, unload
    server.py    GatewayServer: asyncio HTTP front end + graceful drain
    client.py    GatewayClient / GatewayReplayClient (replay transport)

CLI: ``repro gateway`` serves; ``repro predict --url`` calls one.
"""

from repro.gateway.client import (
    GatewayClient,
    GatewayHTTPError,
    GatewayReplayClient,
    stats_from_wire,
)
from repro.gateway.registry import (
    DEFAULT_PENDING_BUDGET,
    AdmissionRejected,
    ArtifactRegistry,
    ArtifactSpec,
    RegistryBusy,
    UnknownArtifact,
)
from repro.gateway.server import GatewayServer
from repro.gateway.wire import (
    ENCODINGS,
    WIRE_DTYPES,
    WireError,
    canonical_dumps,
    canonical_loads,
    coerce_batch,
    decode_tensor,
    encode_tensor,
    error_body,
)

__all__ = [
    "AdmissionRejected",
    "ArtifactRegistry",
    "ArtifactSpec",
    "DEFAULT_PENDING_BUDGET",
    "ENCODINGS",
    "GatewayClient",
    "GatewayHTTPError",
    "GatewayReplayClient",
    "GatewayServer",
    "RegistryBusy",
    "UnknownArtifact",
    "WIRE_DTYPES",
    "WireError",
    "canonical_dumps",
    "canonical_loads",
    "coerce_batch",
    "decode_tensor",
    "encode_tensor",
    "error_body",
    "stats_from_wire",
]
