"""Tests for the OFDM PHY: modulation, preambles, packets, detection, buffers."""

import numpy as np
import pytest

from repro.mac.address import MacAddress
from repro.mac.frames import Dot11Frame
from repro.phy.ofdm import OfdmConfig, OfdmModulator
from repro.phy.packet import PhyPacket, make_packet_waveform
from repro.phy.preamble import (
    legacy_preamble,
    long_training_field,
    short_training_field,
    stf_period,
)
from repro.phy.sampling import SampleBuffer
from repro.phy.schmidl_cox import SchmidlCoxDetector


class TestOfdmModulator:
    def test_symbol_length_includes_cyclic_prefix(self):
        modulator = OfdmModulator()
        values = np.ones(52, dtype=complex)
        symbol = modulator.modulate_symbol(values)
        assert symbol.size == 80  # 64-point FFT + 16-sample CP

    def test_cyclic_prefix_repeats_the_symbol_tail(self):
        modulator = OfdmModulator()
        rng = np.random.default_rng(0)
        values = rng.normal(size=52) + 1j * rng.normal(size=52)
        symbol = modulator.modulate_symbol(values)
        np.testing.assert_allclose(symbol[:16], symbol[-16:])

    def test_payload_length_scales_with_bits(self):
        modulator = OfdmModulator()
        one_symbol, two_symbols = modulator.modulate_payload_batch(
            [np.zeros(104, dtype=int), np.zeros(105, dtype=int)])
        assert one_symbol.size == 80
        assert two_symbols.size == 160

    def test_invalid_inputs_rejected(self):
        modulator = OfdmModulator()
        with pytest.raises(ValueError):
            modulator.modulate_symbol(np.ones(10))
        with pytest.raises(ValueError):
            modulator.modulate_payload_batch([np.array([0, 2])])
        with pytest.raises(ValueError):
            modulator.modulate_payload_batch([np.zeros(104), np.array([])])
        with pytest.raises(ValueError):
            OfdmConfig(cyclic_prefix=100)

    def test_random_payload_is_reproducible(self):
        modulator = OfdmModulator()
        a = modulator.random_payload(3, rng=5)
        b = modulator.random_payload(3, rng=5)
        np.testing.assert_allclose(a, b)


class TestPreambles:
    def test_preamble_lengths_match_the_standard(self):
        assert short_training_field().size == 160
        assert long_training_field().size == 160
        assert legacy_preamble().size == 320

    def test_stf_is_periodic_with_16_samples(self):
        stf = short_training_field()
        period = stf_period()
        assert period == 16
        np.testing.assert_allclose(stf[:period], stf[period:2 * period], atol=1e-12)

    def test_ltf_contains_two_identical_symbols(self):
        ltf = long_training_field()
        np.testing.assert_allclose(ltf[32:96], ltf[96:160], atol=1e-12)


class TestPackets:
    def test_packet_has_unit_power_and_carries_the_frame(self):
        frame = Dot11Frame(source=MacAddress("02:00:00:00:00:01"),
                           destination=MacAddress("02:00:00:00:00:02"))
        packet = make_packet_waveform(frame, num_payload_symbols=10, rng=1)
        assert packet.frame is frame
        assert np.mean(np.abs(packet.waveform) ** 2) == pytest.approx(1.0)
        assert packet.num_samples == 320 + 10 * 80

    def test_packet_without_frame_is_random_but_reproducible(self):
        a = make_packet_waveform(num_payload_symbols=5, rng=3)
        b = make_packet_waveform(num_payload_symbols=5, rng=3)
        np.testing.assert_allclose(a.waveform, b.waveform)

    def test_packet_duration(self):
        packet = make_packet_waveform(num_payload_symbols=20, rng=1)
        assert packet.duration_s(20e6) == pytest.approx((320 + 1600) / 20e6)

    def test_invalid_packet_rejected(self):
        with pytest.raises(ValueError):
            PhyPacket(np.array([], dtype=complex))
        with pytest.raises(ValueError):
            make_packet_waveform(num_payload_symbols=0)


class TestSchmidlCox:
    def test_detects_a_packet_at_a_known_offset(self):
        detector = SchmidlCoxDetector()
        packet = make_packet_waveform(num_payload_symbols=10, rng=2)
        buffer = np.zeros(4000, dtype=complex)
        offset = 1000
        buffer[offset:offset + packet.num_samples] = packet.waveform
        buffer += (np.random.default_rng(0).normal(0, 0.01, 4000)
                   + 1j * np.random.default_rng(1).normal(0, 0.01, 4000))
        results = detector.detect(buffer)
        assert len(results) == 1
        assert abs(results[0].start_index - offset) <= 32
        assert results[0].metric > 0.9

    def test_no_detection_in_noise(self):
        detector = SchmidlCoxDetector()
        rng = np.random.default_rng(3)
        noise = rng.normal(0, 1.0, 5000) + 1j * rng.normal(0, 1.0, 5000)
        assert detector.detect(noise) == []

    def test_detects_two_separated_packets(self):
        detector = SchmidlCoxDetector()
        packet = make_packet_waveform(num_payload_symbols=5, rng=4)
        buffer = np.zeros(8000, dtype=complex)
        buffer[500:500 + packet.num_samples] = packet.waveform
        buffer[5000:5000 + packet.num_samples] = packet.waveform
        buffer += 0.01 * (np.random.default_rng(5).normal(size=8000)
                          + 1j * np.random.default_rng(6).normal(size=8000))
        results = detector.detect(buffer)
        assert len(results) == 2

    def test_cfo_estimate_recovers_injected_offset(self):
        detector = SchmidlCoxDetector(sample_rate_hz=20e6)
        packet = make_packet_waveform(num_payload_symbols=10, rng=7)
        cfo_hz = 25e3
        t = np.arange(packet.num_samples) / 20e6
        shifted = packet.waveform * np.exp(2j * np.pi * cfo_hz * t)
        buffer = np.zeros(4000, dtype=complex)
        buffer[100:100 + packet.num_samples] = shifted
        buffer += 0.01 * (np.random.default_rng(8).normal(size=4000)
                          + 1j * np.random.default_rng(9).normal(size=4000))
        result = detector.detect_first(buffer)
        assert result is not None
        assert result.cfo_hz == pytest.approx(cfo_hz, rel=0.1)

    def test_short_input_yields_no_detection(self):
        detector = SchmidlCoxDetector()
        assert detector.detect(np.ones(10, dtype=complex)) == []

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            SchmidlCoxDetector(threshold=1.5)


class TestSampleBuffer:
    def test_default_buffer_matches_the_prototype(self):
        buffer = SampleBuffer(num_antennas=8)
        assert buffer.num_samples == 8000  # 0.4 ms at 20 MHz

    def test_placement_and_assembly(self):
        buffer = SampleBuffer(num_antennas=2, duration_s=1e-4, sample_rate_hz=20e6, rng=1)
        packet = np.ones((2, 100), dtype=complex)
        offset = buffer.place(packet, offset=50)
        assembled = buffer.assemble()
        assert offset == 50
        np.testing.assert_allclose(assembled[:, 50:150], packet)
        np.testing.assert_allclose(assembled[:, :50], 0.0)

    def test_random_offset_fits_in_buffer(self):
        buffer = SampleBuffer(num_antennas=1, duration_s=1e-4, rng=2)
        packet = np.ones((1, 500), dtype=complex)
        offset = buffer.place(packet)
        assert 0 <= offset <= buffer.num_samples - 500

    def test_noise_floor_fills_idle_samples(self):
        buffer = SampleBuffer(num_antennas=1, duration_s=1e-4, noise_floor_power=1e-6, rng=3)
        assembled = buffer.assemble()
        assert np.mean(np.abs(assembled) ** 2) == pytest.approx(1e-6, rel=0.2)

    def test_invalid_placements_rejected(self):
        buffer = SampleBuffer(num_antennas=2, duration_s=1e-5)
        with pytest.raises(ValueError):
            buffer.place(np.ones((3, 10), dtype=complex))
        with pytest.raises(ValueError):
            buffer.place(np.ones((2, 10**6), dtype=complex))
        with pytest.raises(ValueError):
            buffer.place(np.ones((2, 10), dtype=complex), offset=10**6)
