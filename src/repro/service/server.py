"""Socket server: `repro serve`'s accept loop and connection handling.

Listens on a Unix-domain socket (default) or localhost TCP, speaks the
NDJSON protocol of :mod:`repro.service.protocol`, and forwards every
decoded request to :meth:`repro.service.api.FillService.handle`.  Each
connection gets a thread that reads its requests and runs them one at
a time, in order; separate connections run concurrently.

The ``shutdown`` op is handled here, not in the service: the server
answers it (so the client sees the acknowledgement), then signals
:meth:`wait_shutdown` — the CLI's serve loop wakes, stops the server
and the service, and lets the surrounding ``--trace-out`` record close
cleanly with every request span inside.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
from typing import Any, BinaryIO, Dict, Optional

from .api import FillService
from .protocol import MAX_LINE_BYTES, ProtocolError, decode_message, encode_message

__all__ = ["ServiceServer"]

logger = logging.getLogger(__name__)


class ServiceServer:
    """Accepts protocol connections and dispatches to a service."""

    def __init__(
        self,
        service: FillService,
        *,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
    ):
        if (socket_path is None) == (port is None):
            raise ValueError("serve on exactly one of socket_path/port")
        self.service = service
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        #: open connections and the threads serving them
        self._conns: Dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()
        self._shutdown = threading.Event()
        self._started = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServiceServer":
        if self._started:
            raise RuntimeError("server already started")
        if self.socket_path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            listener.bind(self.socket_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port or 0))
            self.port = listener.getsockname()[1]
        listener.listen(16)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        self._started = True
        return self

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return self.socket_path
        return f"{self.host}:{self.port}"

    def client_args(self) -> Dict[str, Any]:
        """Keyword arguments that connect a ``SocketClient`` here."""
        if self.socket_path is not None:
            return {"socket_path": self.socket_path}
        return {"host": self.host, "port": self.port}

    def request_shutdown(self) -> None:
        self._shutdown.set()

    def wait_shutdown(self, timeout: Optional[float] = None) -> bool:
        """Block until a client sent ``shutdown`` (or timeout)."""
        return self._shutdown.wait(timeout)

    def stop(self) -> None:
        """Shut the listener and every open connection down, join handlers.

        Closing a socket does not wake a thread blocked in ``accept()``
        or ``readline`` on it (on Linux), so each is shut down first:
        the accept loop and every connection thread return at once.
        """
        self._shutdown.set()
        if self._listener is not None:
            _shut(self._listener)
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(5.0)
        with self._lock:
            conns = list(self._conns.items())
        for conn, _ in conns:
            _shut(conn)
        for _, thread in conns:
            thread.join(5.0)
        if self.socket_path is not None and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        self._started = False

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- connection handling -------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._shutdown.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._handle_connection,
                args=(conn,),
                name="repro-serve-conn",
                daemon=True,
            )
            with self._lock:
                self._conns[conn] = thread
            thread.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        rfile = conn.makefile("rb")
        try:
            while True:
                line = rfile.readline(MAX_LINE_BYTES + 1)
                if not line:
                    return
                response = self._respond(line)
                stopping = bool(response.pop("_shutdown", False))
                try:
                    conn.sendall(encode_message(response))
                except OSError:
                    return
                if stopping:
                    self.request_shutdown()
                    return
                _skip_rest_of_line(rfile, line)
        finally:
            with self._lock:
                del self._conns[conn]
            try:
                rfile.close()
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def _respond(self, line: bytes) -> Dict[str, Any]:
        try:
            request = decode_message(line)
        except ProtocolError as exc:
            return {
                "id": None,
                "ok": False,
                "error": {"type": "ProtocolError", "message": str(exc)},
            }
        request_id = request.get("id")
        op = request.get("op")
        if op == "shutdown":
            # answered here, then the serve loop tears everything down
            return {
                "id": request_id,
                "ok": True,
                "result": {"stopping": True},
                "_shutdown": True,
            }
        try:
            body = self.service.handle(request)
        except Exception as exc:  # handle() shouldn't raise; belt and braces
            logger.exception("unhandled error in request dispatch")
            body = {
                "ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
        return {"id": request_id, **body}


def _skip_rest_of_line(rfile: BinaryIO, chunk: bytes) -> None:
    """Read past the rest of an oversized line, up to its newline.

    ``chunk`` is what the last ``readline`` returned; a line over the
    limit was answered once, so its tail must not count as requests.
    """
    while len(chunk) > MAX_LINE_BYTES and not chunk.endswith(b"\n"):
        chunk = rfile.readline(MAX_LINE_BYTES + 1)


def _shut(sock: socket.socket) -> None:
    """Shut both directions down, waking any thread blocked on ``sock``."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # not connected, or the peer already left
