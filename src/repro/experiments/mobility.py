"""Mobility tracking experiment (Section 5, future work).

A client walks a straight line across the main office at roughly walking
speed while transmitting a packet every few hundred milliseconds.  Each
packet is transmitted once and captured by three APs; each AP estimates its
direct-path bearing, the :class:`~repro.core.tracking.MobilityTracker`
smooths and triangulates them, and the experiment reports the position error
along the trace.

The expensive part — capture synthesis and AoA estimation per sample — is
embarrassingly parallel, so the campaign adapter shards per trace sample and
replays the (cheap, strictly sequential) tracker over the gathered bearings
at merge time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aoa.estimator import EstimatorConfig
from repro.api import Deployment, three_ap_scenario
from repro.campaign.spec import (
    CampaignSpec,
    ShardSpec,
    estimator_from_params,
    require_param_at_least,
)
from repro.core.tracking import MobilityTracker
from repro.experiments.reporting import format_table
from repro.geometry.point import Point
from repro.testbed.scenario import CaptureRequest
from repro.utils.serde import JsonSerializable


#: Defaults of the campaign builder, its shards and its merge.
DEFAULT_START = (9.0, 3.5)
DEFAULT_END = (22.0, 11.0)
DEFAULT_NUM_SAMPLES = 15
DEFAULT_PACKET_INTERVAL_S = 0.4
DEFAULT_TRACKER_ALPHA = 0.8
DEFAULT_TRACKER_BETA = 0.3
DEFAULT_TRACKER_OUTLIER_DEG = 100.0


@dataclass(frozen=True)
class MobilityResult(JsonSerializable):
    """Per-sample tracking errors along a mobility trace."""

    true_positions: List[Point]
    estimated_positions: List[Point]
    errors_m: List[float]

    @property
    def median_error_m(self) -> float:
        """Median position error along the trace."""
        return float(np.median(self.errors_m))

    @property
    def worst_error_m(self) -> float:
        """Largest position error along the trace."""
        return float(np.max(self.errors_m))

    def as_table(self) -> str:
        """Text rendering of the trace."""
        rows = []
        for index, (truth, estimate, error) in enumerate(
                zip(self.true_positions, self.estimated_positions, self.errors_m)):
            rows.append((index,
                         f"({truth.x:.1f}, {truth.y:.1f})",
                         f"({estimate.x:.1f}, {estimate.y:.1f})",
                         error))
        return format_table(["sample", "true position", "estimated", "error (m)"], rows)


@dataclass(frozen=True)
class MobilitySample(JsonSerializable):
    """One trace sample: per-AP bearings for one transmitted packet.

    Doubles as the campaign shard payload: it carries everything the tracker
    replay needs, so the merge is pure arithmetic over gathered samples.
    """

    sample: int
    timestamp_s: float
    true_position: Point
    #: AP name -> global-frame direct-path bearing for this packet.
    bearings_deg: Dict[str, float]


def _trace_positions(start: Tuple[float, float], end: Tuple[float, float],
                     num_samples: int) -> List[Point]:
    """The walk's ground-truth positions (endpoints included)."""
    xs = np.linspace(start[0], end[0], num_samples)
    ys = np.linspace(start[1], end[1], num_samples)
    return [Point(float(x), float(y)) for x, y in zip(xs, ys)]


def _sample_bearings(deployment: Deployment, position: Point,
                     timestamp: float) -> Dict[str, float]:
    """Every AP's direct-path bearing for one packet from ``position``.

    The packet is transmitted once and every AP captures it
    (:meth:`Deployment.capture`), which consumes one capture ordinal per AP
    simulator (the shard-skip unit).
    """
    captures = deployment.capture([
        CaptureRequest(position=position, elapsed_s=timestamp,
                       timestamp_s=timestamp)])
    # Circular arrays report local azimuth; the APs are mounted with
    # orientation 0 so the local azimuth is already the global bearing.
    return {name: deployment.aps[name].analyze(batch[0]).bearing_deg
            for name, batch in captures.items()}


def run_mobility_tracking(estimator_config: Optional[EstimatorConfig] = None,
                          rng: int = 42, **params: Any) -> MobilityResult:
    """Track a client walking from ``start`` to ``end`` across the main office.

    :func:`mobility_campaign` run in-process at one worker; ``params`` are
    its keyword arguments, ``rng`` its seed.
    """
    from repro.campaign.engine import run_serial

    return run_serial(mobility_campaign(seed=rng, **params), estimator_config)


# ------------------------------------------------------------------- campaign
def mobility_campaign(start: Tuple[float, float] = DEFAULT_START,
                      end: Tuple[float, float] = DEFAULT_END,
                      num_samples: int = DEFAULT_NUM_SAMPLES,
                      packet_interval_s: float = DEFAULT_PACKET_INTERVAL_S,
                      tracker_alpha: float = DEFAULT_TRACKER_ALPHA,
                      tracker_beta: float = DEFAULT_TRACKER_BETA,
                      tracker_outlier_threshold_deg: float = DEFAULT_TRACKER_OUTLIER_DEG,
                      seed: int = 42,
                      name: str = "mobility") -> CampaignSpec:
    """Mobility tracking as a campaign: one shard per trace sample.

    Shards estimate bearings (the expensive part) independently; the
    sequential tracker replays over the gathered samples at merge time.  The
    tracker gains default to values suited to walking-speed dynamics: a
    client passing close to an AP legitimately changes bearing by tens of
    degrees between packets, so the outlier gate is opened well beyond the
    stationary-client default.
    """
    return CampaignSpec(
        name=name,
        experiment="mobility",
        seeds=(int(seed),),
        base={"start": [float(start[0]), float(start[1])],
              "end": [float(end[0]), float(end[1])],
              "num_samples": int(num_samples),
              "packet_interval_s": float(packet_interval_s),
              "tracker_alpha": float(tracker_alpha),
              "tracker_beta": float(tracker_beta),
              "tracker_outlier_threshold_deg": float(tracker_outlier_threshold_deg)},
        axes={"sample": tuple(range(int(num_samples)))},
    )


def check_mobility_params(spec: CampaignSpec) -> None:
    """Reject a trace too short to track, a non-positive packet interval,
    and a ``num_samples`` that does not cover the ``sample`` axis.

    ``num_samples`` sizes the trace the shards index, while the axis
    enumerates the samples to run; overriding one without the other would
    leave shards indexing past the trace.
    """
    require_param_at_least(spec, "num_samples", DEFAULT_NUM_SAMPLES, minimum=2)
    if not float(spec.param("packet_interval_s", DEFAULT_PACKET_INTERVAL_S)) > 0:
        raise ValueError("packet_interval_s must be positive")
    num_samples = spec.param("num_samples", DEFAULT_NUM_SAMPLES)
    outside = [sample for sample in spec.axes.get("sample", ())
               if sample not in range(int(num_samples))]
    if outside:
        raise ValueError(
            f"num_samples={num_samples} does not cover the sample axis "
            f"(samples {outside} fall outside 0..{int(num_samples) - 1}); "
            f"override num_samples and the sample axis together")


def _base_trace(spec: CampaignSpec) -> List[Point]:
    start = spec.param("start", list(DEFAULT_START))
    end = spec.param("end", list(DEFAULT_END))
    num_samples = int(spec.param("num_samples", DEFAULT_NUM_SAMPLES))
    return _trace_positions((float(start[0]), float(start[1])),
                            (float(end[0]), float(end[1])), num_samples)


def run_mobility_shard(spec: CampaignSpec, shard: ShardSpec) -> MobilitySample:
    """One mobility campaign shard: a single trace sample's bearings."""
    deployment = Deployment(
        three_ap_scenario(estimator=estimator_from_params(spec.base),
                          name="mobility"), rng=shard.seed)
    sample = int(shard.params["sample"])
    positions = _base_trace(spec)
    timestamp = sample * float(spec.param("packet_interval_s",
                                          DEFAULT_PACKET_INTERVAL_S))
    # Jump every AP's simulator past the earlier samples' packets (one
    # capture per AP per sample).
    for simulator in deployment.simulators.values():
        simulator.skip_captures(shard.point)
    return MobilitySample(
        sample=sample,
        timestamp_s=timestamp,
        true_position=positions[sample],
        bearings_deg=_sample_bearings(deployment, positions[sample], timestamp),
    )


def merge_mobility(spec: CampaignSpec,
                   samples: Sequence[MobilitySample]) -> MobilityResult:
    """Replay the tracker over one replicate's gathered samples.

    The tracker is strictly sequential, so it runs here, after the
    (parallelisable) bearing estimation, feeding the samples in trace order.
    """
    from repro.api import ENVIRONMENTS

    scenario = three_ap_scenario(name="mobility")
    environment = ENVIRONMENTS.get(scenario.environment)()
    ap_positions = {
        ap_spec.name: ap_spec.resolve_position(environment)
        for ap_spec in scenario.resolved_access_points()
    }
    tracker = MobilityTracker(
        ap_positions,
        alpha=float(spec.param("tracker_alpha", DEFAULT_TRACKER_ALPHA)),
        beta=float(spec.param("tracker_beta", DEFAULT_TRACKER_BETA)),
        outlier_threshold_deg=float(spec.param("tracker_outlier_threshold_deg",
                                               DEFAULT_TRACKER_OUTLIER_DEG)))
    ordered = sorted(samples, key=lambda item: item.sample)
    for item in ordered:
        tracker.update(dict(item.bearings_deg), item.timestamp_s)
    true_positions = [item.true_position for item in ordered]
    return MobilityResult(true_positions=true_positions,
                          estimated_positions=tracker.positions(),
                          errors_m=tracker.track_error_m(true_positions))
