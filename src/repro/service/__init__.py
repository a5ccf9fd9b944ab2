"""``repro.service`` — persistent fill sessions served over a socket.

The production-facing layer over the one-shot engine: load a layout
once into a :class:`FillSession` that caches its density analysis,
then serve many requests against it — full ``fill``, ``score``,
``drc_audit``, and ``eco_delta`` patches that re-analyze and re-fill
only the windows a wire change dirtied.  Each request runs on the
thread that received it, one at a time per session, so results are
byte-identical to serial CLI runs.

Two front doors:

* :class:`ServiceClient` — in-process, for tests and benchmarks,
* ``repro serve`` + :class:`SocketClient` — newline-delimited JSON
  over a Unix-domain or localhost TCP socket
  (:mod:`repro.service.protocol`).

See ``docs/SERVICE.md`` for the API, protocol and session lifecycle.
"""

from .api import (
    COMPUTE_OPS,
    CONTROL_OPS,
    FillService,
    ServiceClient,
    rules_from_mapping,
)
from .protocol import (
    ProtocolError,
    ServiceError,
    SocketClient,
    decode_message,
    encode_message,
    from_wire,
    to_wire,
)
from .server import ServiceServer
from .session import (
    FillSession,
    SessionClosedError,
    SessionStore,
    UnknownSessionError,
)

__all__ = [
    "COMPUTE_OPS",
    "CONTROL_OPS",
    "FillService",
    "ServiceClient",
    "rules_from_mapping",
    "ProtocolError",
    "ServiceError",
    "SocketClient",
    "decode_message",
    "encode_message",
    "from_wire",
    "to_wire",
    "ServiceServer",
    "FillSession",
    "SessionClosedError",
    "SessionStore",
    "UnknownSessionError",
]
