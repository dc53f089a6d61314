"""Figure 7: pseudospectrum resolution versus number of antennas.

The paper processes the *same* packet from client 12 (the one partially
blocked by the cement pillar, with strong multipath) with 2, 4, 6 and 8
antennas of the linear arrangement, and shows that more antennas give sharper
peaks, separate the direct path from reflections, and land closer to the true
bearing.

``run_figure7`` reproduces that: one capture is simulated with the full
8-antenna linear array, the first 2/4/6/8 antenna rows are selected (which is
exactly what ignoring trailing radio chains does on the prototype), and MUSIC
is run on each subarray.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.aoa.batch import BatchAoAEstimator
from repro.aoa.estimator import EstimatorConfig
from repro.aoa.spectrum import Pseudospectrum
from repro.api import Deployment, single_ap_scenario
from repro.arrays.geometry import UniformLinearArray
from repro.arrays.subarray import subarray_samples
from repro.campaign.spec import CampaignSpec, ShardSpec, require_param_at_least
from repro.experiments.reporting import format_table
from repro.hardware.capture import Capture
from repro.utils.serde import JsonSerializable

#: The antenna counts Figure 7 compares.
DEFAULT_ANTENNA_COUNTS = (2, 4, 6, 8)

#: The paper uses client 12 (blocked by the pillar, strong multipath).
DEFAULT_CLIENT = 12

#: Packets the sweep medians over.
DEFAULT_NUM_PACKETS = 3


@dataclass(frozen=True)
class AntennaCountRow(JsonSerializable):
    """Result of processing the capture with one antenna count."""

    num_antennas: int
    spectrum: Pseudospectrum
    bearing_deg: float
    bearing_error_deg: float
    num_peaks: int


@dataclass(frozen=True)
class Figure7Result(JsonSerializable):
    """The full antenna-count sweep for one capture."""

    client_id: int
    expected_bearing_deg: float
    rows: List[AntennaCountRow]

    @property
    def errors_by_antenna_count(self) -> Dict[int, float]:
        """Bearing error keyed by antenna count."""
        return {row.num_antennas: row.bearing_error_deg for row in self.rows}

    @property
    def peaks_by_antenna_count(self) -> Dict[int, int]:
        """Number of resolved peaks keyed by antenna count."""
        return {row.num_antennas: row.num_peaks for row in self.rows}

    def as_table(self) -> str:
        """Text rendering of the sweep."""
        return format_table(
            ["antennas", "bearing (deg)", "error (deg)", "resolved peaks"],
            [(row.num_antennas, row.bearing_deg, row.bearing_error_deg, row.num_peaks)
             for row in self.rows],
        )


def run_figure7(rng: int = 42, **params: Any) -> Figure7Result:
    """Reproduce Figure 7: the same packet processed with growing subarrays.

    :func:`figure7_campaign` run in-process at one worker; ``params`` are
    its keyword arguments, ``rng`` its seed.  Each of ``num_packets``
    captures is processed with every antenna count (so the per-count
    comparison always uses the same packet, as in the paper); the reported
    bearing error per antenna count is the median over the packets, which
    keeps the sweep representative rather than hostage to one fading
    realisation.  The returned pseudospectra are those of the first packet.
    """
    from repro.campaign.engine import run_serial

    return run_serial(figure7_campaign(seed=rng, **params))


def _antenna_count_row(captures: Sequence[Capture], count: int,
                       spacing_m: float, expected: float) -> AntennaCountRow:
    """Process the shared captures with the first ``count`` antenna rows."""
    array = UniformLinearArray(num_elements=count, spacing_m=spacing_m)
    engine = BatchAoAEstimator(array, EstimatorConfig(
        source_count_method="gap", max_sources=min(3, count - 1),
        forward_backward=True, loading_factor=1e-6))
    estimates = engine.process_samples_batch([
        subarray_samples(capture.samples, num_elements=count) for capture in captures
    ])
    errors: List[float] = []
    bearings: List[float] = []
    peak_counts: List[int] = []
    first_spectrum: Pseudospectrum = estimates[0].pseudospectrum
    for estimate in estimates:
        spectrum = estimate.pseudospectrum
        peaks = spectrum.peak_bearings(min_relative_height=0.1, min_separation_deg=8.0)
        bearing = peaks[0] if peaks else spectrum.peak_bearing()
        bearings.append(float(bearing))
        errors.append(float(abs(bearing - expected)))
        peak_counts.append(len(peaks))
    median_index = int(np.argsort(errors)[len(errors) // 2])
    return AntennaCountRow(
        num_antennas=count,
        spectrum=first_spectrum,
        bearing_deg=bearings[median_index],
        bearing_error_deg=float(np.median(errors)),
        num_peaks=int(np.max(peak_counts)),
    )


# ------------------------------------------------------------------- campaign
def figure7_campaign(client_id: int = DEFAULT_CLIENT,
                     antenna_counts: Sequence[int] = DEFAULT_ANTENNA_COUNTS,
                     num_packets: int = DEFAULT_NUM_PACKETS,
                     seed: int = 42,
                     name: str = "figure7") -> CampaignSpec:
    """Figure 7 as a campaign: one shard per antenna count.

    Every shard re-simulates the same shared captures from the same seed
    (the paper compares antenna counts on the *same* packet).
    """
    return CampaignSpec(
        name=name,
        experiment="figure7",
        seeds=(int(seed),),
        base={"client_id": int(client_id), "num_packets": int(num_packets)},
        axes={"num_antennas": tuple(sorted(set(int(count)
                                               for count in antenna_counts)))},
    )


def check_figure7_params(spec: CampaignSpec) -> None:
    """Reject antenna counts the prototype array cannot select, and an
    empty packet set."""
    counts = [int(count) for count in spec.axes.get("num_antennas", ())]
    if counts and min(counts) < 2:
        raise ValueError("antenna counts must be at least 2")
    if counts and max(counts) > 8:
        raise ValueError("the prototype array has at most 8 antennas")
    require_param_at_least(spec, "num_packets", DEFAULT_NUM_PACKETS)


def _figure7_captures(spec: CampaignSpec, seed: int):
    """The shared captures every Figure 7 shard processes (seed-exact)."""
    deployment = Deployment(single_ap_scenario(
        geometry="linear", num_elements=8, name="figure7"), rng=seed)
    simulator = deployment.simulator()
    calibration = deployment.ap().calibration
    client_id = int(spec.param("client_id", DEFAULT_CLIENT))
    num_packets = int(spec.param("num_packets", DEFAULT_NUM_PACKETS))
    captures = [calibration.apply(simulator.capture_from_client(client_id, elapsed_s=i * 0.5))
                for i in range(num_packets)]
    expected = simulator.expected_client_bearing(client_id)
    return captures, deployment.ap().array.spacing, float(expected)


def run_figure7_shard(spec: CampaignSpec, shard: ShardSpec) -> AntennaCountRow:
    """One Figure 7 campaign shard: the shared captures at one antenna count."""
    captures, spacing_m, expected = _figure7_captures(spec, shard.seed)
    return _antenna_count_row(captures, int(shard.params["num_antennas"]),
                              spacing_m, expected)


def merge_figure7(spec: CampaignSpec,
                  rows: Sequence[AntennaCountRow]) -> Figure7Result:
    """Reduce one replicate's shard rows into the figure's result.

    The expected bearing is pure geometry (environment and array layout, no
    randomness), so the merge recomputes it from a bare simulator instead of
    compiling — and calibrating — a whole deployment.
    """
    from repro.api import ENVIRONMENTS
    from repro.api.spec import ArraySpec
    from repro.testbed.scenario import TestbedSimulator

    client_id = int(spec.param("client_id", DEFAULT_CLIENT))
    simulator = TestbedSimulator(ENVIRONMENTS.get("figure4")(),
                                 ArraySpec(geometry="linear",
                                           num_elements=8).build(), rng=0)
    expected = simulator.expected_client_bearing(client_id)
    return Figure7Result(client_id=client_id,
                         expected_bearing_deg=float(expected), rows=list(rows))
