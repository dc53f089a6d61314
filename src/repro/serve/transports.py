"""Wire transports: JSON-lines over TCP and text frames over websocket.

Both transports speak the same message protocol — one JSON object per
message — through one shared :class:`JsonConnection` dispatcher, so every op
behaves identically whichever socket it arrived on:

* ``{"op": "tenants"}`` — the tenant table, each with its full scenario
  document (so a client can rebuild the deployment and verify the stream).
* ``{"op": "submit", "tenant": t, "request": {...}}`` — ingest one
  :class:`~repro.serve.ingest.PacketRequest`; acked with its per-tenant
  sequence number.  ``"requests": [...]`` submits a burst in order; a
  burst naming a client or attacker the scenario lacks is rejected whole.
* ``{"op": "subscribe", "tenant": t, "from_seq": n|null}`` — start
  streaming ``{"op": "event", ...}`` messages (decision, bearings, fence
  verdict) from the tenant's backlog; drop-oldest losses surface as
  ``{"op": "lag", "dropped": n}`` and a closed backlog as ``{"op": "end"}``.
* ``{"op": "stats"}`` / ``{"op": "ping"}`` — counters and liveness.

The websocket side is a deliberately small RFC 6455 implementation over
``asyncio`` streams (the container has no third-party websocket package):
HTTP upgrade handshake, masked client text frames, fragmentation,
ping/pong, close.  It exists so a browser dashboard can watch live verdicts
without a protocol bridge.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
from typing import (
    TYPE_CHECKING,
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.api.events import EVENT_SCHEMA_VERSION
from repro.serve.ingest import PacketRequest, check_request
from repro.serve.tenants import Tenant

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.service import SecureAngleService

__all__ = ["JsonConnection", "serve_tcp_connection", "serve_ws_connection"]

#: ``send(payload)`` delivers one protocol message to the peer.
SendJson = Callable[[Dict[str, Any]], Awaitable[None]]

#: Fixed GUID every websocket handshake concatenates (RFC 6455 section 1.3).
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


class JsonConnection:
    """One client's protocol session, independent of the carrying socket."""

    def __init__(self, service: "SecureAngleService", send: SendJson) -> None:
        self.service = service
        self._send = send
        self._streams: Dict[str, "asyncio.Task[None]"] = {}

    async def hello(self) -> None:
        """The greeting every connection receives before any request."""
        await self._send({
            "op": "hello",
            "schema_version": EVENT_SCHEMA_VERSION,
            "tenants": sorted(self.service.tenants),
        })

    async def handle(self, message: Any) -> None:
        """Dispatch one decoded client message (errors go to the peer)."""
        if not isinstance(message, dict) or "op" not in message:
            await self._error("every message is an object with an 'op' key")
            return
        op = message["op"]
        try:
            if op == "ping":
                await self._send({"op": "pong"})
            elif op == "tenants":
                await self._send({
                    "op": "tenants",
                    "tenants": [tenant.config.describe() for tenant
                                in self.service.tenants.values()],
                })
            elif op == "stats":
                await self._send({"op": "stats",
                                  "stats": self.service.stats()})
            elif op == "submit":
                await self._handle_submit(message)
            elif op == "subscribe":
                await self._handle_subscribe(message)
            else:
                await self._error(f"unknown op {op!r}")
        except (KeyError, TypeError, ValueError) as error:
            await self._error(str(error), op=op)

    async def aclose(self) -> None:
        """Cancel this connection's subscription streams."""
        streams = list(self._streams.values())
        self._streams.clear()
        for stream in streams:
            stream.cancel()
        for stream in streams:
            try:
                await stream
            except asyncio.CancelledError:
                pass

    # -------------------------------------------------------------------- ops
    async def _handle_submit(self, message: Dict[str, Any]) -> None:
        tenant = self._tenant(message)
        if "requests" in message:
            documents = message["requests"]
        elif "request" in message:
            documents = [message["request"]]
        else:
            raise ValueError("submit needs 'request' or 'requests'")
        requests = [PacketRequest.from_dict(document)
                    for document in documents]
        # Check the whole burst before any request takes a sequence number,
        # so a bad burst is rejected whole.
        for request in requests:
            check_request(tenant.deployment, request)
        seqs = [await tenant.submit(request) for request in requests]
        await self._send({"op": "ack", "tenant": tenant.name, "seqs": seqs})

    async def _handle_subscribe(self, message: Dict[str, Any]) -> None:
        tenant = self._tenant(message)
        if tenant.name in self._streams:
            raise ValueError(f"already subscribed to {tenant.name!r}")
        from_seq = message.get("from_seq")
        subscription = tenant.backlog.subscribe(
            None if from_seq is None else int(from_seq))
        self._streams[tenant.name] = asyncio.get_running_loop().create_task(
            self._stream(tenant, subscription))
        await self._send({"op": "subscribed", "tenant": tenant.name,
                          "from_seq": subscription.cursor})

    async def _stream(self, tenant: Tenant, subscription: Any) -> None:
        while True:
            events = await subscription.next_batch()
            lag = subscription.consume_lag()
            if lag:
                await self._send({"op": "lag", "tenant": tenant.name,
                                  "dropped": lag})
            if not events:
                await self._send({"op": "end", "tenant": tenant.name})
                self._streams.pop(tenant.name, None)
                return
            for event in events:
                await self._send({"op": "event", "tenant": tenant.name,
                                  "event": event.to_dict()})

    # -------------------------------------------------------------- internals
    def _tenant(self, message: Dict[str, Any]) -> Tenant:
        name = message.get("tenant")
        if not isinstance(name, str):
            raise ValueError("missing tenant name")
        try:
            return self.service.tenants[name]
        except KeyError:
            raise KeyError(f"unknown tenant {name!r}; "
                           f"known: {sorted(self.service.tenants)}") from None

    async def _error(self, text: str, op: Optional[str] = None) -> None:
        payload: Dict[str, Any] = {"op": "error", "error": text}
        if op is not None:
            payload["request_op"] = op
        await self._send(payload)


# ------------------------------------------------------------------ TCP lines
async def serve_tcp_connection(service: "SecureAngleService",
                               reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
    """Speak the protocol as newline-delimited JSON over a TCP stream."""
    lock = asyncio.Lock()

    async def send(payload: Dict[str, Any]) -> None:
        # One lock per connection: subscription streams and replies
        # interleave on the same socket, and a torn line is unparseable.
        async with lock:
            writer.write(_encode_line(payload))
            await writer.drain()

    connection = JsonConnection(service, send)
    try:
        await connection.hello()
        while True:
            line = await reader.readline()
            if not line:
                break
            text = line.strip()
            if not text:
                continue
            try:
                message = json.loads(text)
            except json.JSONDecodeError as error:
                await send({"op": "error", "error": f"bad JSON line: {error}"})
                continue
            await connection.handle(message)
    except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
        pass
    finally:
        await connection.aclose()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _encode_line(payload: Dict[str, Any]) -> bytes:
    # sort_keys pins the byte form, so "byte-identical" is testable on the
    # wire, not just after a client-side re-serialisation.
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


# ------------------------------------------------------------------ websocket
async def serve_ws_connection(service: "SecureAngleService",
                              reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
    """Speak the protocol as JSON text frames over a websocket."""
    try:
        if not await _handshake(reader, writer):
            return
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return
    lock = asyncio.Lock()

    async def send(payload: Dict[str, Any]) -> None:
        async with lock:
            writer.write(_ws_frame(0x1, json.dumps(payload,
                                                   sort_keys=True).encode()))
            await writer.drain()

    connection = JsonConnection(service, send)
    try:
        await connection.hello()
        while True:
            text = await _read_text_message(reader, writer, lock)
            if text is None:
                break
            try:
                message = json.loads(text)
            except json.JSONDecodeError as error:
                await send({"op": "error", "error": f"bad JSON frame: {error}"})
                continue
            await connection.handle(message)
    except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
        pass
    finally:
        await connection.aclose()
        try:
            async with lock:
                writer.write(_ws_frame(0x8, b""))  # close frame
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _handshake(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> bool:
    """The HTTP/1.1 upgrade exchange; True once 101 has been sent."""
    request_line = await reader.readline()
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    key = headers.get("sec-websocket-key")
    if (not request_line.startswith(b"GET")
            or "websocket" not in headers.get("upgrade", "").lower()
            or key is None):
        writer.write(b"HTTP/1.1 400 Bad Request\r\n"
                     b"Connection: close\r\n\r\n"
                     b"expected a websocket upgrade\n")
        await writer.drain()
        writer.close()
        return False
    accept = base64.b64encode(
        hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()).decode("ascii")
    writer.write(("HTTP/1.1 101 Switching Protocols\r\n"
                  "Upgrade: websocket\r\n"
                  "Connection: Upgrade\r\n"
                  f"Sec-WebSocket-Accept: {accept}\r\n\r\n").encode("ascii"))
    await writer.drain()
    return True


async def _read_text_message(reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter,
                             lock: asyncio.Lock) -> Optional[str]:
    """The next complete text message; None on close or connection end.

    Handles fragmentation and answers pings inline.  Binary messages are
    rejected by closing — the protocol is JSON text only.
    """
    fragments: List[bytes] = []
    while True:
        try:
            opcode, payload, fin = await _read_frame(reader)
        except asyncio.IncompleteReadError:
            return None
        if opcode == 0x8:  # close
            return None
        if opcode == 0x9:  # ping -> pong, same payload
            async with lock:
                writer.write(_ws_frame(0xA, payload))
                await writer.drain()
            continue
        if opcode == 0xA:  # unsolicited pong
            continue
        if opcode == 0x2:  # binary unsupported
            return None
        if opcode in (0x0, 0x1):
            fragments.append(payload)
            if fin:
                return b"".join(fragments).decode("utf-8")


async def _read_frame(
        reader: asyncio.StreamReader) -> Tuple[int, bytes, bool]:
    header = await reader.readexactly(2)
    fin = bool(header[0] & 0x80)
    opcode = header[0] & 0x0F
    masked = bool(header[1] & 0x80)
    length = header[1] & 0x7F
    if length == 126:
        (length,) = struct.unpack("!H", await reader.readexactly(2))
    elif length == 127:
        (length,) = struct.unpack("!Q", await reader.readexactly(8))
    mask = await reader.readexactly(4) if masked else b""
    payload = await reader.readexactly(length) if length else b""
    if masked and payload:
        payload = bytes(byte ^ mask[i % 4] for i, byte in enumerate(payload))
    return opcode, payload, fin


def _ws_frame(opcode: int, payload: bytes) -> bytes:
    """One server->client frame (FIN set, never masked)."""
    header = bytearray([0x80 | opcode])
    length = len(payload)
    if length < 126:
        header.append(length)
    elif length < 1 << 16:
        header.append(126)
        header += struct.pack("!H", length)
    else:
        header.append(127)
        header += struct.pack("!Q", length)
    return bytes(header) + payload
