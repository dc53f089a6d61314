"""Tests for the radio-hardware models: captures, oscillators, chains, receiver.

The receiver's noise law and front-end arithmetic are checked in
``test_receiver_noise_law.py``.
"""

import numpy as np
import pytest

from repro.arrays.geometry import OctagonalArray
from repro.hardware.capture import Capture
from repro.hardware.oscillator import LocalOscillator, OscillatorBank
from repro.hardware.radiochain import RadioChainConfig
from repro.hardware.receiver import ArrayReceiver, ReceiverConfig
from repro.hardware.reference import CalibrationSource
from repro.hardware.switch import RFSwitch, SwitchPosition


class TestCapture:
    def test_basic_properties(self):
        capture = Capture(samples=np.ones((4, 100), dtype=complex), sample_rate_hz=20e6)
        assert capture.num_antennas == 4
        assert capture.num_samples == 100
        assert capture.duration_s == pytest.approx(5e-6)
        assert not capture.calibrated

    def test_power_dbm_of_unit_amplitude_samples(self):
        capture = Capture(samples=np.ones((1, 1000), dtype=complex))
        assert capture.power_dbm() == pytest.approx(30.0)  # 1 W = 30 dBm

    def test_slicing_and_antenna_selection(self):
        samples = np.arange(20, dtype=complex).reshape(4, 5)
        capture = Capture(samples=samples)
        sliced = capture.slice_time(1, 3)
        assert sliced.num_samples == 2
        selected = capture.select_antennas([0, 2])
        assert selected.num_antennas == 2
        np.testing.assert_array_equal(selected.samples, samples[[0, 2]])

    def test_metadata_merging_keeps_original(self):
        capture = Capture(samples=np.ones((1, 4), dtype=complex), metadata={"a": 1})
        updated = capture.with_metadata(b=2)
        assert updated.metadata == {"a": 1, "b": 2}
        assert capture.metadata == {"a": 1}

    def test_invalid_captures_rejected(self):
        with pytest.raises(ValueError):
            Capture(samples=np.ones(10, dtype=complex))
        with pytest.raises(ValueError):
            Capture(samples=np.ones((2, 5), dtype=complex), sample_rate_hz=0.0)
        capture = Capture(samples=np.ones((2, 5), dtype=complex))
        with pytest.raises(ValueError):
            capture.slice_time(3, 2)
        with pytest.raises(IndexError):
            capture.select_antennas([5])


class TestOscillators:
    def test_phase_offset_is_applied_to_samples(self):
        oscillator = LocalOscillator(phase_offset_rad=np.pi / 2.0)
        output = oscillator.mixer_conjugate(8, 20e6)
        np.testing.assert_allclose(output, np.exp(-1j * np.pi / 2.0), atol=1e-12)

    def test_unlocked_oscillator_rotates_over_time(self):
        oscillator = LocalOscillator(phase_offset_rad=0.0, frequency_offset_hz=1e3)
        output = oscillator.mixer_conjugate(2000, 20e6)
        assert not oscillator.is_phase_locked
        assert np.angle(output[-1]) != pytest.approx(np.angle(output[0]))

    def test_bank_relative_offsets_are_relative_to_chain_zero(self):
        bank = OscillatorBank(4, phase_offsets_rad=[0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(bank.relative_phase_offsets_rad(), [0.0, 0.5, 1.0, 1.5])
        assert len(bank) == 4

    def test_bank_random_offsets_are_reproducible(self):
        a = OscillatorBank(8, rng=5).phase_offsets_rad
        b = OscillatorBank(8, rng=5).phase_offsets_rad
        np.testing.assert_allclose(a, b)

    def test_bank_validates_offsets_length(self):
        with pytest.raises(ValueError):
            OscillatorBank(4, phase_offsets_rad=[0.0, 1.0])


class TestRadioChain:
    def test_noise_power_matches_noise_figure(self):
        config = RadioChainConfig(noise_figure_db=6.0, bandwidth_hz=20e6)
        # kTB in 20 MHz is about -101 dBm; +6 dB NF gives about -95 dBm.
        noise_dbm = 10 * np.log10(config.noise_power_watts * 1e3)
        assert noise_dbm == pytest.approx(-95.0, abs=0.5)


class TestSwitchAndCalibrationSource:
    def test_switch_routes_selected_input(self):
        switch = RFSwitch(2, insertion_loss_db=0.0)
        antenna = np.ones((2, 4), dtype=complex)
        calibration = 2.0 * np.ones((2, 4), dtype=complex)
        switch.set_all(SwitchPosition.CALIBRATION)
        np.testing.assert_allclose(switch.route(antenna, calibration), calibration)
        switch.set_position(0, SwitchPosition.ANTENNA)
        mixed = switch.route(antenna, calibration)
        np.testing.assert_allclose(mixed[0], antenna[0])
        np.testing.assert_allclose(mixed[1], calibration[1])

    def test_switch_validation(self):
        switch = RFSwitch(2)
        with pytest.raises(IndexError):
            switch.set_position(5, SwitchPosition.ANTENNA)
        with pytest.raises(TypeError):
            switch.set_all("antenna")
        with pytest.raises(ValueError):
            switch.route(np.ones((3, 4)), np.ones((3, 4)))

    def test_calibration_source_outputs_identical_tones(self):
        source = CalibrationSource(num_outputs=8)
        signal = source.generate(256, 20e6)
        assert signal.shape == (8, 256)
        for row in signal[1:]:
            np.testing.assert_allclose(row, signal[0])

    def test_calibration_source_power_includes_attenuator_and_splitter(self):
        source = CalibrationSource(output_power_dbm=10.0, attenuation_db=36.0, num_outputs=8)
        assert source.delivered_power_dbm < 10.0 - 36.0
        signal = source.generate(1024, 20e6)
        measured_dbm = 10 * np.log10(np.mean(np.abs(signal[0]) ** 2) * 1e3)
        assert measured_dbm == pytest.approx(source.delivered_power_dbm, abs=0.1)


class TestArrayReceiver:
    def test_capture_shape_and_metadata(self):
        array = OctagonalArray()
        receiver = ArrayReceiver(array, rng=3)
        signals = np.ones((8, 64), dtype=complex) * 1e-5
        capture = receiver.capture(signals, timestamp_s=1.5, metadata={"client": 4})
        assert capture.num_antennas == 8
        assert capture.num_samples == 64
        assert capture.timestamp_s == 1.5
        assert capture.metadata["client"] == 4
        assert not capture.calibrated

    def test_each_chain_applies_its_own_phase_offset(self):
        array = OctagonalArray()
        receiver = ArrayReceiver(array, config=ReceiverConfig(add_noise=False), rng=3)
        signals = np.ones((8, 32), dtype=complex)
        capture = receiver.capture(signals, add_noise=False)
        measured = np.angle(capture.samples[:, 0] / capture.samples[0, 0])
        expected = receiver.true_phase_offsets_rad
        expected_relative = -np.angle(np.exp(1j * (expected - expected[0])))
        np.testing.assert_allclose(np.angle(np.exp(1j * (measured - expected_relative))), 0.0,
                                   atol=1e-6)

    def test_calibration_capture_uses_the_reference_source(self):
        array = OctagonalArray()
        receiver = ArrayReceiver(array, rng=4)
        source = CalibrationSource(num_outputs=8)
        capture = receiver.capture_calibration(source, num_samples=128)
        assert capture.num_samples == 128
        assert capture.metadata["source"] == "calibration"
        # After the calibration capture the switches return to the antennas.
        assert all(pos is SwitchPosition.ANTENNA for pos in receiver.switch.positions)

    def test_mismatched_source_rejected(self):
        array = OctagonalArray()
        receiver = ArrayReceiver(array, rng=4)
        with pytest.raises(ValueError):
            receiver.capture_calibration(CalibrationSource(num_outputs=4))

    def test_wrong_signal_shape_rejected(self):
        array = OctagonalArray()
        receiver = ArrayReceiver(array, rng=4)
        with pytest.raises(ValueError):
            receiver.capture(np.ones((4, 16), dtype=complex))
