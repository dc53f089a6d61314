"""Figure 6: stability of AoA signatures over time.

The paper records pseudospectra of the same client 0, 1, 10, 100 and 1000
seconds, one hour, and one day after a reference packet (linear antenna
arrangement), for three representative clients: one in another room nearby
(client 2), one close to the AP (client 5), and one far from it (client 10).
The observation is that the direct-path peak stays put while the weaker
reflection peaks wander.

``run_figure6`` reproduces that: it simulates the same client at the same
logarithmically spaced intervals (the environment-dynamics model perturbs
reflections more the longer the elapsed time), collects the pseudospectra,
and summarises the drift of the direct-path peak versus the secondary peaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.aoa.estimator import EstimatorConfig
from repro.aoa.spectrum import Pseudospectrum
from repro.api import Deployment, single_ap_scenario
from repro.campaign.spec import CampaignSpec, ShardSpec, estimator_from_params
from repro.core.metrics import peak_set_distance_deg, spectral_correlation
from repro.core.signature import signatures_from_pseudospectra
from repro.experiments.reporting import format_table
from repro.utils.serde import JsonSerializable

#: The time offsets (seconds) of the paper's Figure 6, including one hour and one day.
DEFAULT_TIME_OFFSETS_S = (0.0, 1.0, 10.0, 100.0, 1000.0, 3600.0, 86400.0)

#: The paper's three representative clients: another room / near / far.
DEFAULT_CLIENTS = (2, 5, 10)


@dataclass(frozen=True)
class ClientStability(JsonSerializable):
    """Stability data for one client across the time offsets."""

    client_id: int
    time_offsets_s: List[float]
    spectra: List[Pseudospectrum]
    #: Absolute drift (degrees) of the direct-path (strongest) peak at each offset.
    direct_peak_drift_deg: List[float]
    #: Mean drift (degrees) of the secondary (reflection) peaks at each offset.
    reflection_peak_drift_deg: List[float]
    #: Signature similarity (spectral correlation) against the reference spectrum.
    similarity_to_reference: List[float]

    @property
    def max_direct_drift_deg(self) -> float:
        """Largest direct-path drift over all offsets."""
        return float(max(self.direct_peak_drift_deg))

    @property
    def max_reflection_drift_deg(self) -> float:
        """Largest mean reflection drift over all offsets."""
        return float(max(self.reflection_peak_drift_deg))


@dataclass(frozen=True)
class Figure6Result(JsonSerializable):
    """Stability data for all measured clients."""

    clients: Dict[int, ClientStability]
    time_offsets_s: List[float]

    def as_table(self) -> str:
        """Text rendering: one row per (client, offset)."""
        rows = []
        for client_id, stability in sorted(self.clients.items()):
            for offset, direct, reflection, similarity in zip(
                    stability.time_offsets_s, stability.direct_peak_drift_deg,
                    stability.reflection_peak_drift_deg, stability.similarity_to_reference):
                rows.append((client_id, _format_offset(offset), direct, reflection, similarity))
        return format_table(
            ["client", "elapsed", "direct drift (deg)", "reflection drift (deg)", "similarity"],
            rows,
        )


def run_figure6(estimator_config: Optional[EstimatorConfig] = None,
                rng: int = 42, **params: Any) -> Figure6Result:
    """Reproduce Figure 6 on the simulated testbed (linear antenna arrangement).

    :func:`figure6_campaign` run in-process at one worker; ``params`` are
    its keyword arguments, ``rng`` its seed.
    """
    from repro.campaign.engine import run_serial

    return run_serial(figure6_campaign(seed=rng, **params), estimator_config)


def _client_stability(deployment: Deployment, client_id: int,
                      time_offsets: List[float]) -> ClientStability:
    """One client's stability data (consumes one capture per offset)."""
    simulator = deployment.simulator()
    ap = deployment.ap()
    captures = [
        simulator.capture_from_client(client_id, elapsed_s=offset, timestamp_s=offset)
        for offset in time_offsets
    ]
    estimates = ap.analyze_batch(captures)
    spectra = [estimate.pseudospectrum for estimate in estimates]
    signatures = signatures_from_pseudospectra(spectra, captured_at_s=time_offsets)
    reference = signatures[0]
    direct_drift: List[float] = []
    reflection_drift: List[float] = []
    similarity: List[float] = []
    for signature in signatures:
        direct_drift.append(abs(signature.direct_path_bearing_deg
                                - reference.direct_path_bearing_deg))
        reflection_drift.append(peak_set_distance_deg(
            reference.multipath_bearings_deg or [reference.direct_path_bearing_deg],
            signature.multipath_bearings_deg or [signature.direct_path_bearing_deg]))
        similarity.append(spectral_correlation(reference, signature))
    return ClientStability(
        client_id=client_id,
        time_offsets_s=time_offsets,
        spectra=spectra,
        direct_peak_drift_deg=direct_drift,
        reflection_peak_drift_deg=reflection_drift,
        similarity_to_reference=similarity,
    )


# ------------------------------------------------------------------- campaign
def figure6_campaign(client_ids: Sequence[int] = DEFAULT_CLIENTS,
                     time_offsets_s: Sequence[float] = DEFAULT_TIME_OFFSETS_S,
                     seed: int = 42,
                     name: str = "figure6") -> CampaignSpec:
    """Figure 6 as a campaign: one shard per client."""
    return CampaignSpec(
        name=name,
        experiment="figure6",
        seeds=(int(seed),),
        base={"time_offsets_s": [float(t) for t in time_offsets_s]},
        axes={"client_id": tuple(int(client) for client in client_ids)},
    )


def check_figure6_params(spec: CampaignSpec) -> None:
    """Reject time offsets that do not start with the reference capture."""
    time_offsets = spec.param("time_offsets_s", list(DEFAULT_TIME_OFFSETS_S))
    if not time_offsets or float(time_offsets[0]) != 0.0:
        raise ValueError("time_offsets_s must start with 0 (the reference capture)")


def run_figure6_shard(spec: CampaignSpec, shard: ShardSpec) -> ClientStability:
    """One Figure 6 campaign shard: a single client's stability sweep."""
    time_offsets = [float(t) for t in
                    spec.param("time_offsets_s", list(DEFAULT_TIME_OFFSETS_S))]
    deployment = Deployment(single_ap_scenario(
        geometry="linear", num_elements=8,
        estimator=estimator_from_params(spec.base), name="figure6"),
        rng=shard.seed)
    deployment.simulator().skip_captures(shard.point * len(time_offsets))
    return _client_stability(deployment, int(shard.params["client_id"]),
                             time_offsets)


def merge_figure6(spec: CampaignSpec,
                  records: Sequence[ClientStability]) -> Figure6Result:
    """Reduce one replicate's shard records into the figure's result."""
    time_offsets = [float(t) for t in
                    spec.param("time_offsets_s", list(DEFAULT_TIME_OFFSETS_S))]
    return Figure6Result(
        clients={record.client_id: record for record in records},
        time_offsets_s=time_offsets,
    )


def _format_offset(offset_s: float) -> str:
    if offset_s >= 86400:
        return f"{offset_s / 86400:g} day"
    if offset_s >= 3600:
        return f"{offset_s / 3600:g} hour"
    return f"{offset_s:g} s"
