"""Wire transports for the distributed serving path.

The edge and its workers speak a tiny message protocol: every message is
one dict, every request gets exactly one reply, and the edge is the only
initiator (strict request/reply keeps the lock-step tick loop
deterministic regardless of process scheduling).

There is one frame format, for every message::

    +----------+---------------------------+---------+---------+----
    | H (>u4)  | header: H bytes of JSON   | column0 | column1 | ...
    +----------+---------------------------+---------+---------+----
                 [fields, [[key, dtype, count], ...]]

Every top-level value of the message that is a one-dimensional
``np.ndarray`` travels as a *column*: its raw little-endian buffer after
the header, named in the header's ``[key, dtype, count]`` table.  Every
other field travels inside the JSON header.  The header is padded with
spaces, and each column with zero bytes, to a multiple of 8 bytes, so
the decoded columns — read-only ``np.frombuffer`` views of the payload —
are aligned.  A control message (``hello``, ``capture``, ``restore``,
``telemetry``, ``healthz``) is the same frame with an empty table.

The decoder trusts nothing (the TCP transport reads from a socket):
dtypes come from the fixed allow-list :data:`WIRE_DTYPES`, never from
``pickle`` or ``np.dtype(<wire string>)``; every length is checked
against the payload before a buffer is touched; a frame longer than
``_MAX_FRAME`` is refused by the sender and by the receiver; trailing
bytes are an error.  A raw ``float64`` column carries exactly the value
its JSON ``repr`` round trip would, so what the wire carries is
bit-identical to the JSON rows it replaced.

Two real transports carry the frames:

* :class:`PipeTransport` — a :func:`multiprocessing.Pipe` connection
  pair, one frame per ``send_bytes``/``recv_bytes``.  The default:
  cheap, inherits cleanly through the ``spawn`` start method, and the
  kernel reaps it with the process.
* :class:`TcpTransport` — length-prefixed frames (4-byte big-endian
  size + payload) over a localhost socket.  Exercises a genuine network
  edge: partial reads, EOFs on crash, bind collisions.

Both raise :class:`~repro.errors.TransportError` on any failure —
timeout, truncated or malformed frame, dead peer — so the edge can
convert a broken worker into per-request 500s and breaker evidence
instead of crashing.

:data:`PROTOCOL_VERSION` names the frame format *and* the message
schema (the ``step`` columns of :mod:`repro.serve.worker`); both hello
messages carry it and the edge refuses a fleet that disagrees.

:func:`retry_on_bind_failure` is the shared helper for flaky port
allocation (``EADDRINUSE`` from a lingering TIME_WAIT socket): the
edge's TCP listener and the HTTP server both bind through
:func:`bind_listener`, which uses it.
"""

from __future__ import annotations

import errno
import json
import socket
import struct
import time
from typing import Callable, Dict, Optional, TypeVar

import numpy as np

from repro.errors import TransportError
from repro.telemetry.perf import maybe_span

#: Default per-reply wait; a worker that takes longer than this to
#: answer one tick is treated as dead (the soak ticks are milliseconds).
DEFAULT_TIMEOUT_S = 60.0

#: Version of the wire: the frame format and the message schema.  1 was
#: JSON rows (and sent no version); 2 is the columnar frame; 3 adds the
#: ``accepted`` column to the ``step`` reply; 4 moves the worker's
#: telemetry delta into that reply, off a command of its own; 5: a step
#: carries only what the other side lacks — arrival times (and trace
#: ids) out, the worker's decisions on each posted row, in posted
#: order, back.
PROTOCOL_VERSION = 5

#: The dtypes a column may have, by their wire name (``dtype.str`` of
#: the little-endian type).  Nothing else is ever constructed from a
#: string read off the wire.
WIRE_DTYPES = {
    name: np.dtype(name) for name in ("<f8", "<i8", "<i4", "|i1", "|u1")
}

_LEN = struct.Struct(">I")
_MAX_FRAME = 256 * 1024 * 1024  # corrupt length prefixes fail loudly
_ALIGN = 8  # header and columns are padded to this many bytes

T = TypeVar("T")

#: Errnos that mean "the port was not available right now" — the retry
#: class, as opposed to genuine misconfiguration (EACCES and friends).
_BIND_RETRY_ERRNOS = (errno.EADDRINUSE, errno.EADDRNOTAVAIL)


def retry_on_bind_failure(
    bind: Callable[[], T], *, retries: int = 5, delay_s: float = 0.05
) -> T:
    """Call ``bind()`` retrying transient address-in-use failures.

    Port allocation races (a test that just released a port still in
    TIME_WAIT, two jobs grabbing ephemeral ports at once) surface as
    ``EADDRINUSE``/``EADDRNOTAVAIL`` and deserve a short backoff and
    another try; every other ``OSError`` propagates immediately.
    """
    last: Optional[OSError] = None
    for attempt in range(max(1, retries)):
        try:
            return bind()
        except OSError as exc:
            if exc.errno not in _BIND_RETRY_ERRNOS:
                raise
            last = exc
            time.sleep(delay_s * (attempt + 1))
    raise TransportError(
        f"could not bind after {retries} attempts: {last}"
    ) from last


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class PipeTransport:
    """Frames over one end of a :func:`multiprocessing.Pipe`.

    ``timeout_s=None`` blocks forever on receive — the worker side uses
    it to idle between ticks (EOF from a dead edge still wakes it up).
    """

    def __init__(
        self, conn, timeout_s: Optional[float] = DEFAULT_TIMEOUT_S
    ) -> None:
        self.conn = conn
        self.timeout_s = timeout_s

    def send(self, message: Dict[str, object]) -> None:
        try:
            self.conn.send_bytes(_encode(message))
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise TransportError(f"pipe send failed: {exc}") from exc

    def recv(self, timeout_s: Optional[float] = None) -> Dict[str, object]:
        wait = self.timeout_s if timeout_s is None else timeout_s
        try:
            if not self.conn.poll(wait):
                raise TransportError(f"pipe recv timed out after {wait:g}s")
            payload = self.conn.recv_bytes(_MAX_FRAME)
        except TransportError:
            raise
        except (OSError, EOFError, ValueError) as exc:
            raise TransportError(f"pipe recv failed: {exc}") from exc
        return _decode(payload)

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - double close
            pass


class TcpTransport:
    """Length-prefixed frames over a connected socket."""

    def __init__(
        self, sock: socket.socket, timeout_s: Optional[float] = DEFAULT_TIMEOUT_S
    ) -> None:
        self.sock = sock
        self.timeout_s = timeout_s
        sock.settimeout(timeout_s)

    def send(self, message: Dict[str, object]) -> None:
        payload = _encode(message)
        try:
            self.sock.sendall(_LEN.pack(len(payload)) + payload)
        except OSError as exc:
            raise TransportError(f"tcp send failed: {exc}") from exc

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            try:
                chunk = self.sock.recv(remaining)
            except socket.timeout as exc:
                raise TransportError(
                    f"tcp recv timed out after {self.timeout_s:g}s"
                ) from exc
            except OSError as exc:
                raise TransportError(f"tcp recv failed: {exc}") from exc
            if not chunk:
                raise TransportError("tcp peer closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self, timeout_s: Optional[float] = None) -> Dict[str, object]:
        if timeout_s is not None:
            self.sock.settimeout(timeout_s)
        try:
            (length,) = _LEN.unpack(self._recv_exact(_LEN.size))
            if length > _MAX_FRAME:
                raise TransportError(f"tcp frame length {length} is implausible")
            return _decode(self._recv_exact(length))
        finally:
            if timeout_s is not None:
                self.sock.settimeout(self.timeout_s)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - double close
            pass


def _encode(message: Dict[str, object]) -> bytes:
    # The perf span times serialization only, never the socket wait —
    # idle blocking would drown the signal the span exists to surface.
    with maybe_span("transport.encode"):
        fields: Dict[str, object] = {}
        table = []
        buffers = []
        for key, value in message.items():
            if not isinstance(value, np.ndarray):
                fields[key] = value
                continue
            dtype = value.dtype.newbyteorder("<")
            if dtype.str not in WIRE_DTYPES or value.ndim != 1:
                raise TransportError(
                    f"cannot send column {key!r}: dtype {value.dtype} with "
                    f"{value.ndim} dimensions is not a wire column"
                )
            table.append([key, dtype.str, len(value)])
            column = np.ascontiguousarray(value, dtype=dtype)
            buffers.append(column.data)
            buffers.append(bytes(-column.nbytes % _ALIGN))
        try:
            header = json.dumps([fields, table], separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise TransportError(f"cannot send message: {exc}") from exc
        header += b" " * (-(_LEN.size + len(header)) % _ALIGN)
        payload = b"".join([_LEN.pack(len(header)), header, *buffers])
    if len(payload) > _MAX_FRAME:
        raise TransportError(
            f"frame of {len(payload)} bytes exceeds the {_MAX_FRAME}-byte limit"
        )
    return payload


def _decode(payload: bytes) -> Dict[str, object]:
    with maybe_span("transport.decode"):
        size = len(payload)
        if size > _MAX_FRAME:
            raise TransportError(
                f"frame of {size} bytes exceeds the {_MAX_FRAME}-byte limit"
            )
        if size < _LEN.size:
            raise TransportError(f"malformed frame: {size} bytes hold no header length")
        (header_len,) = _LEN.unpack_from(payload)
        offset = _LEN.size + header_len
        if offset > size:
            raise TransportError(
                f"malformed frame: header of {header_len} bytes in a {size}-byte frame"
            )
        try:
            header = json.loads(payload[_LEN.size : offset].decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError) as exc:
            raise TransportError(f"malformed frame header: {exc}") from exc
        if (
            not isinstance(header, list)
            or len(header) != 2
            or not isinstance(header[0], dict)
            or not isinstance(header[1], list)
        ):
            raise TransportError("malformed frame header: expected [fields, columns]")
        message: Dict[str, object] = header[0]
        for entry in header[1]:
            if not isinstance(entry, list) or len(entry) != 3:
                raise TransportError(f"malformed column entry {entry!r}")
            key, dtype_name, count = entry
            dtype = WIRE_DTYPES.get(dtype_name) if isinstance(dtype_name, str) else None
            if not isinstance(key, str) or key in message or dtype is None:
                raise TransportError(f"malformed column entry {entry!r}")
            if type(count) is not int or not 0 <= count <= (size - offset) // dtype.itemsize:
                raise TransportError(
                    f"column {key!r} claims {count!r} items; "
                    f"{size - offset} bytes of the frame are left"
                )
            message[key] = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
            nbytes = count * dtype.itemsize
            offset += nbytes + -nbytes % _ALIGN
        if offset != size:
            raise TransportError(
                f"malformed frame: columns end at byte {offset} of {size}"
            )
    return message


# ----------------------------------------------------------------------
# TCP rendezvous (edge listens, workers dial in and say hello)
# ----------------------------------------------------------------------
def bind_listener(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    """Bound+listening TCP socket, retrying transient bind failures."""

    def bind() -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen()
        except OSError:
            sock.close()
            raise
        return sock

    return retry_on_bind_failure(bind)


def connect_transport(
    host: str, port: int, timeout_s: float = DEFAULT_TIMEOUT_S
) -> TcpTransport:
    """Dial the edge's listener (worker side of the TCP rendezvous)."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout_s)
    except OSError as exc:
        raise TransportError(f"connect to {host}:{port} failed: {exc}") from exc
    return TcpTransport(sock, timeout_s)


def accept_transport(
    listener: socket.socket, timeout_s: float = DEFAULT_TIMEOUT_S
) -> TcpTransport:
    """Accept one worker connection on the edge's listener."""
    listener.settimeout(timeout_s)
    try:
        sock, _ = listener.accept()
    except socket.timeout as exc:
        raise TransportError(
            f"no worker connected within {timeout_s:g}s"
        ) from exc
    except OSError as exc:
        raise TransportError(f"accept failed: {exc}") from exc
    return TcpTransport(sock, timeout_s)
