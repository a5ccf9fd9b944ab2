"""Newline-delimited JSON protocol for ``repro serve``.

One request per line, one response per line, UTF-8 JSON — the least
machinery that composes with everything (``nc``, a five-line Python
client, CI shell steps) and needs no dependencies:

    -> {"id": 1, "op": "open_session", "gds_b64": "...", "windows": 4}
    <- {"id": 1, "ok": true, "result": {"session": "s1", ...}}
    -> {"id": 2, "op": "fill", "session": "s1"}
    <- {"id": 2, "ok": true, "result": {"gds_b64": "...", ...}}

Binary payloads (GDSII streams) travel base64-encoded under keys with
a ``_b64`` suffix; :func:`to_wire`/:func:`from_wire` convert between
that form and the raw ``bytes`` values the in-process API uses, so
handler code never sees base64.  Responses to failed requests carry
``"ok": false`` and an ``error`` object instead of ``result``.

:class:`SocketClient` is the reference client, speaking the protocol
over a Unix-domain or localhost TCP socket.
"""

from __future__ import annotations

import base64
import binascii
import json
import socket
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = [
    "MAX_LINE_BYTES",
    "ProtocolError",
    "ServiceError",
    "SocketClient",
    "encode_message",
    "decode_message",
    "to_wire",
    "from_wire",
]

#: one protocol line may not exceed this (a die-sized GDSII in base64
#: fits comfortably; anything bigger points at a runaway client)
MAX_LINE_BYTES = 256 * 1024 * 1024

_B64_SUFFIX = "_b64"


class ProtocolError(ValueError):
    """A protocol line is malformed (bad JSON, bad base64, not a dict)."""


class ServiceError(RuntimeError):
    """The server answered a request with an error response."""

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message


def to_wire(value: Any) -> Any:
    """Replace ``bytes`` values with base64 strings under ``*_b64`` keys.

    Recurses through dicts and lists so nested payloads (batch
    responses) encode too.  Non-bytes values pass through unchanged.
    """
    if isinstance(value, dict):
        out: Dict[str, Any] = {}
        for key, item in value.items():
            if isinstance(item, (bytes, bytearray)):
                out[f"{key}{_B64_SUFFIX}"] = base64.b64encode(
                    bytes(item)
                ).decode("ascii")
            else:
                out[key] = to_wire(item)
        return out
    if isinstance(value, (list, tuple)):
        return [to_wire(item) for item in value]
    return value


def from_wire(value: Any) -> Any:
    """Decode ``*_b64`` string values back to ``bytes`` keys; inverse of
    :func:`to_wire`."""
    if isinstance(value, dict):
        out: Dict[str, Any] = {}
        for key, item in value.items():
            if key.endswith(_B64_SUFFIX) and isinstance(item, str):
                try:
                    out[key[: -len(_B64_SUFFIX)]] = base64.b64decode(
                        item, validate=True
                    )
                except (binascii.Error, ValueError) as exc:
                    raise ProtocolError(f"bad base64 under {key!r}: {exc}") from exc
            else:
                out[key] = from_wire(item)
        return out
    if isinstance(value, list):
        return [from_wire(item) for item in value]
    return value


def encode_message(message: Mapping[str, Any]) -> bytes:
    """One wire line: compact sorted JSON plus the newline terminator."""
    payload = json.dumps(
        to_wire(dict(message)), sort_keys=True, separators=(",", ":")
    )
    return payload.encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire line back into a dict with raw ``bytes`` payloads.

    Anything that is not a JSON object line, nesting too deep for the
    decoder included, raises :class:`ProtocolError`.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
        if not isinstance(message, dict):
            raise ProtocolError("protocol messages must be JSON objects")
        decoded: Dict[str, Any] = from_wire(message)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"not a JSON line: {exc}") from exc
    except RecursionError:
        raise ProtocolError("JSON nested too deeply") from None
    return decoded


class SocketClient:
    """Blocking NDJSON client over a Unix-domain or TCP socket.

    Thread-safe: one request/response exchange at a time (requests are
    serialized on a lock; the server answers in request order per
    connection).  Use one client per concurrent caller for pipelining.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        timeout: Optional[float] = 600.0,
    ):
        if (socket_path is None) == (port is None):
            raise ValueError("connect with exactly one of socket_path/port")
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        else:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._lock = threading.Lock()
        self._next_id = 0

    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """One exchange; returns the result or raises :class:`ServiceError`."""
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
            self._sock.sendall(
                encode_message({"id": request_id, "op": op, **params})
            )
            line = self._rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        response = decode_message(line)
        if response.get("id") != request_id:
            raise ProtocolError(
                f"response id {response.get('id')!r} != request id {request_id}"
            )
        if response.get("ok"):
            result = response.get("result")
            return result if isinstance(result, dict) else {}
        error = response.get("error") or {}
        raise ServiceError(
            str(error.get("type", "ServiceError")),
            str(error.get("message", "request failed")),
        )

    def batch(self, requests: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
        """Submit a batch op; per-request response dicts in order."""
        result = self.request("batch", requests=[dict(r) for r in requests])
        responses = result.get("responses")
        return list(responses) if isinstance(responses, list) else []

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to stop (it responds before stopping)."""
        return self.request("shutdown")

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "SocketClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
