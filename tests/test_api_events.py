"""The v1 event schema: versioning, JSON round-trips, the process() contract.

The redesigned API's promises, each pinned here:

* every event carries ``schema_version`` and refuses to decode any other
  version (fail loudly, never misread);
* a full event — decision, spoofing/fence verdicts, triangulated location —
  survives ``to_json``/``from_json`` exactly;
* ``process()`` is the one contract; ``run_batch`` is a faithful v0 shim of
  its batch mode.
"""

import dataclasses
import json
import warnings

import pytest

from repro.api import EVENT_SCHEMA_VERSION, Deployment, Packet, PacketEvent, ScenarioSpec
from repro.api import fence_scenario


@pytest.fixture(scope="module")
def fenced_events():
    """Events with everything populated: location, fence, multi-AP bearings."""
    deployment = Deployment(fence_scenario())
    address = deployment.clients[5].address
    deployment.train(address, 5, num_packets=4)
    events = deployment.run_batch(
        list(deployment.client_packets(5, num_packets=2, start_s=30.0)))
    assert events[0].location is not None and events[0].fence is not None
    return events


class TestSchemaVersioning:
    def test_events_carry_the_current_version(self, fenced_events):
        assert fenced_events[0].schema_version == EVENT_SCHEMA_VERSION
        assert fenced_events[0].to_dict()["schema_version"] == EVENT_SCHEMA_VERSION

    def test_newer_schema_version_is_rejected_on_decode(self, fenced_events):
        document = fenced_events[0].to_dict()
        document["schema_version"] = EVENT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            PacketEvent.from_dict(document)

    def test_wrong_version_is_rejected_at_construction(self, fenced_events):
        with pytest.raises(ValueError, match="schema_version"):
            dataclasses.replace(fenced_events[0], schema_version=0)

    def test_version_constant_is_re_exported(self):
        import repro.api

        assert "EVENT_SCHEMA_VERSION" in repro.api.__all__
        from repro.api.events import EVENT_SCHEMA_VERSION as canonical

        assert canonical == EVENT_SCHEMA_VERSION


class TestJsonRoundTrip:
    def test_full_event_round_trips_exactly(self, fenced_events):
        for event in fenced_events:
            rebuilt = PacketEvent.from_json(event.to_json())
            assert rebuilt == event

    def test_wire_document_is_plain_json(self, fenced_events):
        document = json.loads(fenced_events[0].to_json())
        assert set(document) == {
            "index", "timestamp_s", "source", "decision", "bearings_deg",
            "location", "fence", "packet_latency_s", "batch_latency_s",
            "metadata", "schema_version"}
        # Nested types lower to primitives: the MAC address to its dict
        # form, the verdict enums to their string values.
        assert document["source"] == {"value": str(fenced_events[0].source)}
        assert document["decision"]["verdict"] in ("accept", "drop", "flag")
        assert isinstance(document["bearings_deg"], dict)

    def test_streamed_event_round_trips_with_packet_latency(self):
        deployment = Deployment(ScenarioSpec(name="events-stream"))
        events = list(deployment.process(
            deployment.client_packets(7, num_packets=1, start_s=30.0),
            update_signatures=False))
        rebuilt = PacketEvent.from_json(events[0].to_json())
        assert rebuilt == events[0]
        assert rebuilt.packet_latency_s == events[0].packet_latency_s
        assert rebuilt.batch_latency_s is None


class TestLatencyFields:
    def test_decision_latency_prefers_the_measured_value(self, fenced_events):
        event = fenced_events[0]
        assert event.packet_latency_s is None
        assert event.decision_latency_s == event.batch_latency_s
        streamed = dataclasses.replace(event, packet_latency_s=0.25,
                                       batch_latency_s=None)
        assert streamed.decision_latency_s == 0.25

    def test_explicit_fields_do_not_warn(self, fenced_events):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _ = fenced_events[0].packet_latency_s
            _ = fenced_events[0].batch_latency_s
            _ = fenced_events[0].decision_latency_s


class TestProcessContract:
    def test_process_modes_match_the_v0_shims(self):
        def build():
            deployment = Deployment(ScenarioSpec(name="events-process"))
            return deployment, list(deployment.client_packets(
                7, num_packets=3, start_s=30.0))

        outcomes = {}
        for mode in ("stream", "batch"):
            deployment, packets = build()
            events = list(deployment.process(packets, mode=mode,
                                             update_signatures=False))
            outcomes[mode] = events
        deployment, packets = build()
        batch_events = deployment.run_batch(packets, update_signatures=False)

        strip = lambda e: dataclasses.replace(e, packet_latency_s=None,
                                              batch_latency_s=None)
        assert [strip(e) for e in outcomes["batch"]] == [strip(e) for e in batch_events]
        # And the modes agree with each other (the invariance guarantee).
        assert [strip(e) for e in outcomes["stream"]] == \
            [strip(e) for e in outcomes["batch"]]

    def test_unknown_mode_is_rejected(self):
        deployment = Deployment(ScenarioSpec(name="events-mode"))
        packets = list(deployment.client_packets(7, num_packets=1))
        with pytest.raises(ValueError, match="unknown processing mode"):
            list(deployment.process(packets, mode="turbo"))

    def test_stream_mode_is_lazy(self):
        deployment = Deployment(ScenarioSpec(name="events-lazy"))

        def exploding_packets():
            yield next(deployment.client_packets(7, num_packets=1))
            raise AssertionError("second packet must not be pulled")

        iterator = deployment.process(exploding_packets(), mode="stream",
                                      update_signatures=False)
        first = next(iterator)
        assert first.index == 0

    def test_packet_needs_a_capture(self):
        deployment = Deployment(ScenarioSpec(name="events-capture"))
        packet = next(deployment.client_packets(7, num_packets=1))
        with pytest.raises(ValueError, match="at least one capture"):
            Packet(frame=packet.frame, captures={}, timestamp_s=0.0)
