"""Tests for the testbed environment, clients, and the capture simulator."""

import pytest

from repro.geometry.point import Point
from repro.mac.address import MacAddress
from repro.testbed.clients import make_clients
from repro.testbed.scenario import SimulatorConfig, TestbedSimulator
from repro.utils.angles import angular_difference


class TestEnvironment:
    def test_has_twenty_clients(self, environment):
        assert environment.client_ids == list(range(1, 21))

    def test_all_clients_are_inside_the_building(self, environment):
        for client_id in environment.client_ids:
            assert environment.is_inside_building(environment.client_position(client_id))

    def test_outdoor_positions_are_outside_the_building(self, environment):
        for position in environment.outdoor_positions.values():
            assert not environment.is_inside_building(position)

    def test_client_11_is_blocked_by_the_pillar(self, environment):
        assert not environment.line_of_sight(11)

    def test_most_clients_have_line_of_sight(self, environment):
        visible = sum(environment.line_of_sight(cid) for cid in environment.client_ids)
        assert visible >= 15

    def test_client_2_is_in_another_room(self, environment):
        # Client 2 sits on the far side of the partition wall (x < 8).
        assert environment.client_position(2).x < 8.0
        assert not environment.line_of_sight(2)

    def test_ground_truth_bearings_cover_the_full_circle(self, environment):
        bearings = [environment.ground_truth_bearing(cid) for cid in range(1, 13)]
        quadrants = {int(b // 90) for b in bearings}
        assert quadrants == {0, 1, 2, 3}

    def test_unknown_client_rejected(self, environment):
        with pytest.raises(KeyError):
            environment.client_position(99)

    def test_ap_is_inside_the_main_room(self, environment):
        assert environment.is_inside_building(environment.ap_position)
        assert environment.ap_position.x > 8.0


class TestClients:
    def test_make_clients_is_deterministic(self, environment):
        first = make_clients(environment, rng=7)
        second = make_clients(environment, rng=7)
        assert set(first) == set(range(1, 21))
        assert all(first[cid].address == second[cid].address for cid in first)

    def test_clients_have_unique_addresses(self, environment):
        clients = make_clients(environment)
        addresses = {client.address for client in clients.values()}
        assert len(addresses) == len(clients)

    def test_client_frames_increment_sequence_numbers(self, environment):
        clients = make_clients(environment)
        client = clients[1]
        ap = MacAddress.random(rng=1)
        first = client.make_frame(ap)
        second = client.make_frame(ap)
        assert first.source == client.address
        assert second.sequence_number == first.sequence_number + 1

    def test_moved_client_keeps_identity(self, environment):
        client = make_clients(environment)[3]
        moved = client.moved_to(Point(1.0, 1.0))
        assert moved.address == client.address
        assert moved.position == Point(1.0, 1.0)


class TestTestbedSimulator:
    def test_capture_shape_and_metadata(self, circular_simulator):
        capture = circular_simulator.capture_from_client(3)
        assert capture.num_antennas == 8
        assert capture.metadata["client_id"] == 3
        assert "ground_truth_bearing_deg" in capture.metadata
        assert capture.metadata["num_paths"] >= 1
        assert not capture.calibrated

    def test_calibration_table_is_cached(self, circular_simulator):
        assert circular_simulator.calibration_table() is circular_simulator.calibration_table()

    def test_capture_burst_spacing(self, circular_simulator):
        captures = circular_simulator.capture_burst_batch(4, num_packets=3,
                                                          inter_packet_gap_s=0.25)
        assert len(captures) == 3
        assert captures[1].timestamp_s == pytest.approx(0.25)

    def test_expected_bearing_matches_geometry_for_circular_arrays(self, circular_simulator,
                                                                   environment):
        expected = circular_simulator.expected_client_bearing(7)
        truth = environment.ground_truth_bearing(7)
        assert float(angular_difference(expected, truth)) < 1e-9

    def test_expected_bearing_folds_for_linear_arrays(self, linear_simulator):
        bearing = linear_simulator.expected_client_bearing(14)
        assert -90.0 <= bearing <= 90.0

    def test_received_power_decreases_with_distance(self, environment, octagon_array):
        simulator = TestbedSimulator(environment, octagon_array, rng=5)
        near = simulator.capture_from_client(5)    # 3 m away
        far = simulator.capture_from_client(6)     # 6.5 m away, other room
        assert near.power_dbm() > far.power_dbm()

    def test_attacker_shaping_changes_received_power(self, environment, octagon_array):
        from repro.attacks.attacker import DirectionalAntennaAttacker

        simulator = TestbedSimulator(environment, octagon_array, rng=6)
        position = environment.outdoor_positions["street-east"]
        plain = simulator.capture_from_position(position)
        attacker = DirectionalAntennaAttacker(position=position,
                                              address=MacAddress.random(rng=2),
                                              aim_point=environment.ap_position)
        boosted = simulator.capture_from_position(position, attacker=attacker)
        assert boosted.power_dbm() > plain.power_dbm()
        assert boosted.metadata["attacker"] == attacker.name

    def test_validation(self, circular_simulator):
        with pytest.raises(ValueError):
            circular_simulator.capture_burst_batch(1, num_packets=0)
        with pytest.raises(ValueError):
            circular_simulator.capture_burst_batch(1, num_packets=2,
                                                   inter_packet_gap_s=-0.5)
        with pytest.raises(ValueError):
            SimulatorConfig(payload_symbols=0)
        with pytest.raises(KeyError):
            circular_simulator.capture_from_client(99)
