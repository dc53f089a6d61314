"""The streaming service end to end: live events == offline replay, bytewise.

The acceptance claim of the service layer is that for a seeded scenario the
decisions streamed over a socket are byte-identical to an offline
``run_batch`` over the same requests.  These tests stand up a real
:class:`SecureAngleService` on ephemeral ports inside ``asyncio.run`` and
check exactly that — over TCP, over the websocket, and across different
micro-batch chops — plus the protocol's error and lag surfaces.
"""

import asyncio
import base64
import hashlib
import json
import os
import struct

import pytest

from repro.api.spec import ScenarioSpec
from repro.serve import (
    PacketRequest,
    SecureAngleService,
    ServeConfig,
    TenantConfig,
    replay_events,
    resolve_scenario,
)
from repro.serve.smoke import SmokeClient, canonical_event, seeded_requests


def tenant_config(name="main", scenario="figure5", train=(7,)):
    return TenantConfig(name=name, spec=resolve_scenario(scenario), train=train)


async def start_service(configs, **overrides):
    options = {"port": 0, "max_batch": 4, "max_delay_s": 0.005}
    options.update(overrides)
    service = SecureAngleService(configs, ServeConfig(**options))
    await service.start()
    return service


async def open_client(service):
    host, port = service.tcp_address
    reader, writer = await asyncio.open_connection(host, port)
    client = SmokeClient(reader, writer)
    await client.receive_op("hello")
    return client, writer


async def close_client(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass


def collect_stream(config, num_packets, **service_overrides):
    """Streamed canonical events for the tenant's seeded burst, over TCP."""

    async def scenario():
        service = await start_service([config], **service_overrides)
        client, writer = await open_client(service)
        try:
            requests = seeded_requests(config, num_packets)
            await client.send({"op": "subscribe", "tenant": config.name,
                               "from_seq": 0})
            await client.receive_op("subscribed")
            await client.send({
                "op": "submit", "tenant": config.name,
                "requests": [request.to_dict() for request in requests]})
            streamed = []
            while len(streamed) < num_packets:
                message = await client.receive()
                if message["op"] == "event":
                    streamed.append(message["event"])
            return streamed
        finally:
            await close_client(writer)
            await service.stop()

    return [canonical_event(event) for event in asyncio.run(scenario())]


class TestByteIdentity:
    def test_streamed_events_match_offline_run_batch(self):
        config = tenant_config()
        streamed = collect_stream(config, 8)
        reference = replay_events(config.build(), seeded_requests(config, 8),
                                  update_signatures=config.update_signatures)
        offline = [canonical_event(event.to_dict()) for event in reference]
        assert streamed == offline

    def test_identity_holds_across_micro_batch_chops(self):
        # One packet per batch vs everything in one batch: the partition
        # must be invisible in the decisions (only latency may differ, and
        # canonical_event strips it).
        config = tenant_config()
        one_by_one = collect_stream(config, 6, max_batch=1)
        all_at_once = collect_stream(config, 6, max_batch=64,
                                     max_delay_s=0.05)
        assert one_by_one == all_at_once

    def test_event_indices_are_submission_seqs(self):
        config = tenant_config()
        streamed = collect_stream(config, 5, max_batch=2)
        assert [json.loads(event)["index"] for event in streamed] == [0, 1, 2, 3, 4]

    def test_multi_tenant_streams_are_independent_and_identical(self):
        alpha = tenant_config(name="alpha", scenario="fence", train=(5,))
        beta = tenant_config(name="beta", scenario="figure5", train=(7,))

        async def scenario():
            service = await start_service([alpha, beta])
            client, writer = await open_client(service)
            try:
                streamed = {"alpha": [], "beta": []}
                for config in (alpha, beta):
                    await client.send({"op": "subscribe", "tenant": config.name,
                                       "from_seq": 0})
                    await client.receive_op("subscribed")
                requests = {config.name: seeded_requests(config, 6)
                            for config in (alpha, beta)}
                # Interleave submissions across tenants.
                for index in range(6):
                    for config in (alpha, beta):
                        await client.send({
                            "op": "submit", "tenant": config.name,
                            "request": requests[config.name][index].to_dict()})
                while any(len(events) < 6 for events in streamed.values()):
                    message = await client.receive()
                    if message["op"] == "event":
                        streamed[message["tenant"]].append(message["event"])
                return streamed, requests
            finally:
                await close_client(writer)
                await service.stop()

        streamed, requests = asyncio.run(scenario())
        for config in (alpha, beta):
            live = [canonical_event(event) for event in streamed[config.name]]
            offline = [canonical_event(event.to_dict()) for event in
                       replay_events(config.build(), requests[config.name])]
            assert live == offline, f"tenant {config.name} diverged"


class TestProtocolSurfaces:
    def test_error_surfaces_for_bad_requests(self):
        config = tenant_config()

        async def scenario():
            service = await start_service([config])
            client, writer = await open_client(service)
            try:
                errors = []
                for payload in (
                        "not json at all",
                        json.dumps(["no", "op"]),
                        json.dumps({"op": "warp"}),
                        json.dumps({"op": "submit", "tenant": "ghost",
                                    "request": {"client_id": 7}}),
                        json.dumps({"op": "submit", "tenant": "main",
                                    "request": {"client_id": 7,
                                                "attacker": "both"}}),
                        json.dumps({"op": "submit", "tenant": "main"}),
                        # Well-formed, but the scenario has no such attacker:
                        # the whole burst is refused, its valid head included.
                        json.dumps({"op": "submit", "tenant": "main",
                                    "requests": [
                                        {"client_id": 7},
                                        {"attacker": "ghost",
                                         "victim_client_id": 7}]})):
                    writer.write((payload + "\n").encode())
                    await writer.drain()
                    line = await client.reader.readline()
                    errors.append(json.loads(line))
                # The tenant survives: a valid request afterwards takes the
                # first sequence number and is published.
                await client.send({"op": "subscribe", "tenant": "main",
                                   "from_seq": 0})
                await client.receive_op("subscribed")
                await client.send({"op": "submit", "tenant": "main",
                                   "request": {"client_id": 7}})
                replies = {}

                async def ack_and_event():
                    while len(replies) < 2:
                        message = await client.receive()
                        if message["op"] in ("ack", "event"):
                            replies[message["op"]] = message

                await asyncio.wait_for(ack_and_event(), timeout=30.0)
                return errors, replies["ack"], replies["event"]
            finally:
                await close_client(writer)
                await service.stop()

        errors, ack, event = asyncio.run(scenario())
        assert all(message["op"] == "error" for message in errors)
        assert "bad JSON line" in errors[0]["error"]
        assert "'op' key" in errors[1]["error"]
        assert "unknown op" in errors[2]["error"]
        assert "unknown tenant" in errors[3]["error"]
        assert "exactly one" in errors[4]["error"]
        assert "request" in errors[5]["error"]
        assert "unknown attacker 'ghost'" in errors[6]["error"]
        assert ack["seqs"] == [0]
        assert event["event"]["index"] == 0

    def test_slow_subscriber_gets_lag_notice(self):
        config = tenant_config()

        async def scenario():
            # A 4-slot ring with a 12-packet burst: a subscriber that only
            # starts reading afterwards must be told what it missed.
            service = await start_service([config], backlog_capacity=4,
                                          max_batch=16, max_delay_s=0.01)
            client, writer = await open_client(service)
            try:
                requests = seeded_requests(config, 12)
                await client.send({
                    "op": "submit", "tenant": config.name,
                    "requests": [request.to_dict() for request in requests]})
                await client.receive_op("ack")
                # Wait until the worker published everything.
                while True:
                    await client.send({"op": "stats"})
                    stats = await client.receive_op("stats")
                    if stats["stats"][config.name]["published"] == 12:
                        break
                await client.send({"op": "subscribe", "tenant": config.name,
                                   "from_seq": 0})
                await client.receive_op("subscribed")
                lag = await client.receive_op("lag")
                events = [await client.receive_op("event") for _ in range(4)]
                return lag, events
            finally:
                await close_client(writer)
                await service.stop()

        lag, events = asyncio.run(scenario())
        assert lag["dropped"] == 8
        assert [message["event"]["index"] for message in events] == [8, 9, 10, 11]

    def test_double_subscribe_is_rejected(self):
        config = tenant_config()

        async def scenario():
            service = await start_service([config])
            client, writer = await open_client(service)
            try:
                for _ in range(2):
                    await client.send({"op": "subscribe",
                                       "tenant": config.name})
                first = await client.reader.readline()
                second = await client.reader.readline()
                return json.loads(first), json.loads(second)
            finally:
                await close_client(writer)
                await service.stop()

        first, second = asyncio.run(scenario())
        assert first["op"] == "subscribed"
        assert second["op"] == "error"
        assert "already subscribed" in second["error"]

    def test_stop_flushes_pending_and_ends_streams(self):
        config = tenant_config()

        async def scenario():
            service = await start_service([config], max_batch=64,
                                          max_delay_s=30.0)
            client, writer = await open_client(service)
            try:
                await client.send({"op": "subscribe", "tenant": config.name})
                await client.receive_op("subscribed")
                requests = seeded_requests(config, 3)
                await client.send({
                    "op": "submit", "tenant": config.name,
                    "requests": [request.to_dict() for request in requests]})
                await client.receive_op("ack")
                # The 30s budget means nothing has flushed yet; stopping
                # must drain the pending batch, not drop it.
                await service.stop()
                events = [await client.receive_op("event") for _ in range(3)]
                end = await client.receive_op("end")
                return events, end
            finally:
                await close_client(writer)

        events, end = asyncio.run(scenario())
        assert [message["event"]["index"] for message in events] == [0, 1, 2]
        assert end["tenant"] == config.name

    def test_announce_file_is_published_with_bound_ports(self, tmp_path):
        config = tenant_config()
        announce = tmp_path / "serve.json"

        async def scenario():
            service = await start_service([config], announce_path=announce)
            try:
                return service.tcp_address, json.loads(
                    announce.read_text(encoding="utf-8"))
            finally:
                await service.stop()

        (host, port), document = asyncio.run(scenario())
        assert document["host"] == host
        assert document["tcp_port"] == port
        assert document["ws_port"] is None
        assert document["tenants"] == ["main"]
        assert document["pid"] == os.getpid()


class TestWebsocketTransport:
    @staticmethod
    def _mask(opcode, payload):
        mask = b"\x01\x02\x03\x04"
        header = bytearray([0x80 | opcode])
        length = len(payload)
        if length < 126:
            header.append(0x80 | length)
        else:
            header.append(0x80 | 126)
            header += struct.pack("!H", length)
        return bytes(header) + mask + bytes(
            byte ^ mask[i % 4] for i, byte in enumerate(payload))

    @staticmethod
    async def _read_frame(reader):
        head = await reader.readexactly(2)
        length = head[1] & 0x7F
        if length == 126:
            (length,) = struct.unpack("!H", await reader.readexactly(2))
        elif length == 127:
            (length,) = struct.unpack("!Q", await reader.readexactly(8))
        return head[0] & 0x0F, await reader.readexactly(length)

    def test_ws_stream_matches_offline_replay(self):
        config = tenant_config()

        async def scenario():
            service = await start_service([config], ws_port=0)
            host, port = service.ws_address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                key = base64.b64encode(b"0123456789abcdef").decode()
                writer.write((
                    f"GET /stream HTTP/1.1\r\nHost: {host}\r\n"
                    "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                    f"Sec-WebSocket-Key: {key}\r\n"
                    "Sec-WebSocket-Version: 13\r\n\r\n").encode())
                await writer.drain()
                status = await reader.readline()
                assert b"101" in status
                while (await reader.readline()) not in (b"\r\n", b""):
                    pass
                guid = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
                expected = base64.b64encode(
                    hashlib.sha1((key + guid).encode()).digest()).decode()

                async def receive():
                    while True:
                        opcode, payload = await self._read_frame(reader)
                        if opcode == 0x1:
                            return json.loads(payload)

                async def send(payload):
                    writer.write(self._mask(0x1, json.dumps(payload).encode()))
                    await writer.drain()

                hello = await receive()
                assert hello["op"] == "hello"
                requests = seeded_requests(config, 4)
                await send({"op": "subscribe", "tenant": config.name,
                            "from_seq": 0})
                await send({"op": "submit", "tenant": config.name,
                            "requests": [request.to_dict()
                                         for request in requests]})
                events = []
                while len(events) < 4:
                    message = await receive()
                    if message["op"] == "event":
                        events.append(message["event"])
                writer.write(self._mask(0x8, b""))
                await writer.drain()
                return expected, events, requests
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
                await service.stop()

        _, events, requests = asyncio.run(scenario())
        live = [canonical_event(event) for event in events]
        offline = [canonical_event(event.to_dict()) for event in
                   replay_events(config.build(), requests)]
        assert live == offline

    def test_non_websocket_request_gets_400(self):
        config = tenant_config()

        async def scenario():
            service = await start_service([config], ws_port=0)
            host, port = service.ws_address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                return await reader.readline()
            finally:
                writer.close()
                await service.stop()

        assert b"400" in asyncio.run(scenario())


class TestConfiguration:
    def test_tenant_cli_arg_parses_name_and_scenario(self):
        config = TenantConfig.from_cli_arg("edge=figure5", train=(7,))
        assert config.name == "edge"
        assert config.spec.name == "figure5"
        assert config.train == (7,)

    def test_tenant_cli_arg_rejects_bad_forms(self):
        with pytest.raises(ValueError, match="NAME=SCENARIO"):
            TenantConfig.from_cli_arg("just-a-name")
        with pytest.raises(KeyError, match="unknown scenario"):
            TenantConfig.from_cli_arg("x=not-a-scenario")

    def test_resolve_scenario_loads_spec_json(self, tmp_path):
        path = tmp_path / "custom.json"
        ScenarioSpec(name="custom-spec", seed=99).save_json(path)
        spec = resolve_scenario(str(path))
        assert spec.name == "custom-spec"
        assert spec.seed == 99

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SecureAngleService([tenant_config(), tenant_config()])

    def test_service_needs_a_tenant(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            SecureAngleService([])

    def test_packet_request_round_trips_and_validates(self):
        request = PacketRequest(client_id=7, timestamp_s=12.5)
        assert PacketRequest.from_json(request.to_json()) == request
        attacker = PacketRequest(attacker="evil", victim_client_id=5)
        assert PacketRequest.from_dict(attacker.to_dict()) == attacker
        with pytest.raises(ValueError, match="exactly one"):
            PacketRequest()
        with pytest.raises(ValueError, match="victim_client_id"):
            PacketRequest(attacker="evil")
