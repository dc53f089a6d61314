"""The array receiver splits a batch's packets across two threads.

:meth:`ArrayReceiver.capture_batch` receives a batch on the calling thread and
one helper thread when every packet has its own generator and the batch has
at least ``SPLIT_MIN_ROWS`` rows.  A packet's bytes must not depend on that:
each split batch is compared with the same packets received one at a time,
and with a plain reference (one broadcast front-end multiply, then each
packet's noise drawn in row order).  Batches that share a generator or have
fewer rows stay on the calling thread, an error on the helper reaches
the caller, no thread outlives the call, and nothing the benchmark tracer
wraps ever runs off the calling thread — on a one-AP burst and on the
three-AP fence, whose every (AP, packet) row goes through one receive.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import Deployment, fence_scenario, single_ap_scenario
from repro.arrays.geometry import OctagonalArray
from repro.attacks.attacker import Attacker, DirectionalAntennaAttacker
from repro.channel.channel import ArrayChannel
from repro.hardware import receiver as receiver_module
from repro.hardware.receiver import SPLIT_MIN_ROWS, ArrayReceiver
from repro.kernels.backend import NumpyBackend
from repro.testbed import scenario as scenario_module
from repro.testbed.scenario import TestbedSimulator as Simulator
from repro.utils.rng import keyed_noise_rng

NUM_SAMPLES = 1920
ROOT = 77


@pytest.fixture
def receiver():
    return ArrayReceiver(OctagonalArray(), rng=5)


@pytest.fixture
def two_cpus(monkeypatch):
    """Split as on a two-CPU host, whatever host runs the tests."""
    monkeypatch.setattr(receiver_module.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(receiver_module.os, "cpu_count", lambda: 2)


def _signals(batch_size, seed=1):
    rng = np.random.default_rng(seed)
    shape = (batch_size, 8, NUM_SAMPLES)
    return 1e-4 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _noise_rngs(batch_size):
    return [keyed_noise_rng(ROOT, ordinal, 24) for ordinal in range(batch_size)]


def _samples(captures):
    return np.stack([capture.samples for capture in captures])


def _reference(receiver, signals, generators):
    """The receive arithmetic written out plainly, one packet after another."""
    received = signals * receiver._frontend_table(signals.shape[-1])[None]
    sigmas = np.array([chain.noise_sigma for chain in receiver.chains])
    for row, generator in zip(received, generators):
        draws = generator.standard_normal(2 * row.size)
        row += (draws.reshape(row.shape[0], -1) * sigmas[:, None]).view(complex)
    return received


class _ThreadLog:
    """Thread ids seen by ``_receive_rows`` while it is spied on."""

    def __init__(self, monkeypatch):
        self.ids = set()
        original = receiver_module._receive_rows

        def spy(*args, **kwargs):
            self.ids.add(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(receiver_module, "_receive_rows", spy)


@pytest.mark.parametrize("batch_size", [SPLIT_MIN_ROWS, SPLIT_MIN_ROWS + 1, 64])
def test_a_split_batch_equals_one_packet_receives(receiver, batch_size, monkeypatch,
                                                 two_cpus):
    signals = _signals(batch_size)
    log = _ThreadLog(monkeypatch)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        batch = _samples(receiver.capture_batch(signals, rngs=_noise_rngs(batch_size)))
    finally:
        sys.setswitchinterval(interval)
    assert len(log.ids) == 2
    assert threading.active_count() == threads  # the helper was joined
    for index, generator in enumerate(_noise_rngs(batch_size)):
        alone = receiver.capture_batch(signals[index:index + 1], rngs=[generator])[0]
        assert alone.samples.tobytes() == batch[index].tobytes()
    expected = _reference(receiver, signals, _noise_rngs(batch_size))
    assert batch.tobytes() == expected.tobytes()


def test_a_noiseless_split_batch_is_the_front_end_alone(receiver, two_cpus):
    signals = _signals(SPLIT_MIN_ROWS)
    batch = _samples(receiver.capture_batch(signals, add_noise=False,
                                            rngs=_noise_rngs(SPLIT_MIN_ROWS)))
    frontend = receiver._frontend_table(NUM_SAMPLES)
    assert batch.tobytes() == (signals * frontend[None]).tobytes()


@pytest.mark.parametrize("case", ["own generator", "repeated generator",
                                  "shared bit generator", "one cpu", "few rows"])
def test_batches_that_stay_on_the_calling_thread(case, monkeypatch, two_cpus):
    rows = SPLIT_MIN_ROWS - 1 if case == "few rows" else SPLIT_MIN_ROWS
    signals = _signals(rows)
    receiver = ArrayReceiver(OctagonalArray(), rng=5)
    twin = ArrayReceiver(OctagonalArray(), rng=5)  # draws the reference
    if case == "own generator":
        rngs, reference = None, [twin._rng] * rows
    elif case == "repeated generator":
        rngs = [keyed_noise_rng(ROOT, 0, 24)] * rows
        reference = [keyed_noise_rng(ROOT, 0, 24)] * rows
    elif case == "shared bit generator":
        bit_generator = np.random.SFC64(3)
        rngs = [np.random.Generator(bit_generator) for _ in range(rows)]
        reference = [np.random.Generator(np.random.SFC64(3))] * rows
    elif case == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        rngs, reference = _noise_rngs(rows), _noise_rngs(rows)
    else:
        rngs, reference = _noise_rngs(rows), _noise_rngs(rows)
    log = _ThreadLog(monkeypatch)
    batch = _samples(receiver.capture_batch(signals, rngs=rngs))
    assert log.ids == {threading.get_ident()}
    assert batch.tobytes() == _reference(twin, signals, reference).tobytes()


@pytest.mark.parametrize("rows", [1, SPLIT_MIN_ROWS - 1])
def test_a_batch_below_the_minimum_starts_no_thread(receiver, monkeypatch, two_cpus,
                                                    rows):
    started = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread))
    receiver.capture_batch(_signals(rows), rngs=_noise_rngs(rows))
    assert started == []


def test_an_error_on_the_helper_reaches_the_caller(receiver, monkeypatch, two_cpus):
    caller = threading.get_ident()
    original = ArrayReceiver._packet_noise

    def failing_off_the_caller(generator, sigmas, out):
        if threading.get_ident() != caller:
            raise RuntimeError("helper failed")
        time.sleep(0.05)  # leave packets for the helper to take
        original(generator, sigmas, out)

    monkeypatch.setattr(ArrayReceiver, "_packet_noise",
                        staticmethod(failing_off_the_caller))
    baseline = threading.active_count()
    rows = SPLIT_MIN_ROWS
    with pytest.raises(RuntimeError, match="helper failed"):
        receiver.capture_batch(_signals(rows), rngs=_noise_rngs(rows))
    assert threading.active_count() == baseline
    # The receiver keeps working after the failure.
    monkeypatch.setattr(ArrayReceiver, "_packet_noise", staticmethod(original))
    batch = _samples(receiver.capture_batch(_signals(rows), rngs=_noise_rngs(rows)))
    expected = _reference(receiver, _signals(rows), _noise_rngs(rows))
    assert batch.tobytes() == expected.tobytes()


def _spy_on_entry_points(monkeypatch):
    """Thread ids seen by every kernel and by each synthesis entry point the
    benchmark tracer wraps, keyed by attribute name."""
    seen = {}

    def spy_on(owner, attribute):
        original = vars(owner)[attribute]

        def spy(*args, **kwargs):
            seen.setdefault(attribute, set()).add(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, spy)

    kernels = [name for name, value in vars(NumpyBackend).items()
               if callable(value) and not name.startswith("_")]
    for name in kernels:
        spy_on(NumpyBackend, name)
    spy_on(Simulator, "capture_batch")
    spy_on(ArrayChannel, "propagate_batch")
    spy_on(ArrayReceiver, "capture_batch")
    spy_on(scenario_module, "make_packet_waveforms")
    spy_on(Attacker, "shape_waveform")
    spy_on(DirectionalAntennaAttacker, "shape_paths")
    return seen


def test_traced_entry_points_run_on_the_calling_thread_only(monkeypatch, two_cpus):
    """The tracer's span stack is single-threaded, so every kernel and layer
    entry point must run on the thread that called the burst."""
    deployment = Deployment(single_ap_scenario(name="figure5"))
    for client_id in (1, 2):
        deployment.train(deployment.clients[client_id].address, client_id,
                         num_packets=2)
    seen = _spy_on_entry_points(monkeypatch)
    log = _ThreadLog(monkeypatch)

    packets = deployment.traffic(1, num_packets=16, start_s=5.0)
    packets += deployment.traffic(2, num_packets=16, start_s=9.0)
    events = list(deployment.process(packets, mode="batch"))

    assert len(events) == len(packets)
    assert len(log.ids) == 2  # the burst really was split
    assert {"propagate_batch", "capture_batch", "fractional_delay"} <= set(seen)
    caller = {threading.get_ident()}
    for attribute, ids in seen.items():
        assert ids == caller, attribute


def test_the_fence_pass_runs_its_entry_points_on_the_calling_thread_only(
        monkeypatch, two_cpus):
    """The same rule for the three-AP fence: a burst's (AP, packet) rows are
    received on two threads, while each packet streamed alone (three rows,
    below the split minimum) and every kernel and wrapped entry point stay
    on the calling thread."""
    deployment = Deployment(fence_scenario())
    victim = deployment.clients[5].address
    seen = _spy_on_entry_points(monkeypatch)
    log = _ThreadLog(monkeypatch)

    packets = deployment.traffic(3, num_packets=8, start_s=5.0)
    packets += deployment.traffic(attacker="directional-attacker",
                                  victim_address=victim, num_packets=4,
                                  start_s=9.0)
    assert len(log.ids) == 2  # the bursts' rows really were split
    log.ids.clear()
    streamed = list(deployment.client_packets(4, num_packets=2, start_s=12.0))
    streamed += list(deployment.attacker_packets("directional-attacker", victim,
                                                 num_packets=2, start_s=14.0))
    # A streamed packet's three rows are too few to split.
    assert log.ids == {threading.get_ident()}
    events = list(deployment.process(packets + streamed, mode="stream"))

    assert len(events) == len(packets) + len(streamed)
    assert all(len(packet.captures) == 3 for packet in packets + streamed)
    assert {"capture_batch", "propagate_batch", "fractional_delay", "fft",
            "phase_walk", "matmul", "make_packet_waveforms", "shape_waveform",
            "shape_paths"} <= set(seen)
    caller = {threading.get_ident()}
    for attribute, ids in seen.items():
        assert ids == caller, attribute
