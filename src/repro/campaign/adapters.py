"""Campaign adapters: the glue between experiments and the campaign engine.

A :class:`CampaignAdapter` packages everything the engine needs to run one
experiment as a sharded sweep: how to execute a single shard, how to reduce
one replicate's shard records into the experiment's result dataclass, the
record/result types (for JSON revival across process and disk boundaries),
and the experiment's default campaign grid.

The :data:`CAMPAIGNS` registry maps experiment names to adapters; the
``python -m repro`` command line and the engine both resolve names through
it, with the registries' usual did-you-mean errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple, Type

from repro.api.registry import Registry
from repro.campaign.spec import CampaignSpec, ShardSpec
from repro.experiments.ablations import (
    CalibrationAblation,
    CalibrationShard,
    EstimatorComparison,
    EstimatorComparisonShard,
    PacketsPerSignatureShard,
    PacketsPerSignatureSweep,
    SnrShard,
    SnrSweep,
    calibration_ablation_campaign,
    check_packets_per_signature_params,
    estimator_comparison_campaign,
    merge_calibration,
    merge_estimator_comparison,
    merge_packets_per_signature,
    merge_snr_sweep,
    packets_per_signature_campaign,
    run_calibration_shard,
    run_estimator_comparison_shard,
    run_packets_per_signature_shard,
    run_snr_shard,
    snr_sweep_campaign,
)
from repro.experiments.attack_matrix import (
    AttackMatrixResult,
    AttackMatrixShard,
    cfo_drift_eval_campaign,
    check_attack_matrix_params,
    merge_attack_matrix,
    reflector_eval_campaign,
    replay_eval_campaign,
    run_attack_matrix_shard,
    swarm_eval_campaign,
)
from repro.experiments.beamforming_eval import (
    BeamformingResult,
    BeamformingShard,
    beamforming_campaign,
    merge_beamforming,
    run_beamforming_shard,
)
from repro.experiments.fence_eval import (
    FenceCase,
    FenceEvaluation,
    check_fence_eval_params,
    fence_eval_campaign,
    merge_fence_eval,
    run_fence_shard,
)
from repro.experiments.figure5 import (
    ClientBearingRow,
    Figure5Result,
    check_figure5_params,
    figure5_campaign,
    merge_figure5,
    run_figure5_shard,
)
from repro.experiments.figure6 import (
    ClientStability,
    Figure6Result,
    check_figure6_params,
    figure6_campaign,
    merge_figure6,
    run_figure6_shard,
)
from repro.experiments.figure7 import (
    AntennaCountRow,
    Figure7Result,
    check_figure7_params,
    figure7_campaign,
    merge_figure7,
    run_figure7_shard,
)
from repro.experiments.mobility import (
    MobilityResult,
    MobilitySample,
    check_mobility_params,
    merge_mobility,
    mobility_campaign,
    run_mobility_shard,
)
from repro.experiments.roc import (
    RocShardScores,
    SpoofingRoc,
    check_roc_params,
    merge_roc,
    roc_campaign,
    run_roc_shard,
)
from repro.experiments.spoofing_eval import (
    SpoofingEvalShard,
    SpoofingEvaluation,
    check_spoofing_eval_params,
    merge_spoofing_eval,
    run_spoofing_eval_shard,
    spoofing_eval_campaign,
)

__all__ = ["CAMPAIGNS", "CampaignAdapter"]


@dataclass(frozen=True)
class CampaignAdapter:
    """One experiment's campaign wiring."""

    #: Canonical experiment name (matches the registry key).
    name: str
    #: Execute one shard; returns the shard's record payload.
    run_shard: Callable[[CampaignSpec, ShardSpec], Any]
    #: Reduce one replicate's records (in point order) into the result.
    merge: Callable[[CampaignSpec, Sequence[Any]], Any]
    #: Dataclass type of the per-shard record (for JSON revival).
    shard_type: Type
    #: Dataclass type of the merged result (for JSON revival).
    result_type: Type
    #: Build the experiment's default campaign spec.
    default_spec: Callable[..., CampaignSpec]
    #: The axis names this experiment shards over.  A spec gridding any
    #: other axis is rejected before execution: the shard runners slice the
    #: experiment's capture sequence by grid-point index, so an unknown axis
    #: would silently multiply shards and desynchronise that slice
    #: arithmetic.
    axis_names: Tuple[str, ...] = ()
    #: The experiment's argument checks, run before any shard: counts the
    #: shards would loop over zero times, and base parameters that
    #: contradict the axes (a parameter that sizes an axis, overridden
    #: without the axis, would leave shards indexing past it).  The serial
    #: ``run_*`` runners and ``python -m repro campaign`` both pass through
    #: it.  ``None`` when the experiment has no such argument.
    check_params: Optional[Callable[[CampaignSpec], None]] = None

    def validate_axes(self, spec: CampaignSpec) -> None:
        """Reject axes the experiment's shard runner does not understand."""
        unknown = sorted(set(spec.axes) - set(self.axis_names))
        if unknown:
            raise ValueError(
                f"campaign experiment {self.name!r} does not shard over "
                f"axis(es) {unknown}; supported: {sorted(self.axis_names)}")

    def validate(self, spec: CampaignSpec) -> None:
        """Reject a spec the shard runner cannot execute: unknown axes, or
        base parameters ``check_params`` rejects."""
        self.validate_axes(spec)
        if self.check_params is not None:
            self.check_params(spec)


CAMPAIGNS: Registry[CampaignAdapter] = Registry("campaign experiment")

CAMPAIGNS.register("figure5", CampaignAdapter(
    name="figure5",
    run_shard=run_figure5_shard,
    merge=merge_figure5,
    shard_type=ClientBearingRow,
    result_type=Figure5Result,
    default_spec=figure5_campaign,
    axis_names=("client_id",),
    check_params=check_figure5_params,
))
CAMPAIGNS.register("figure6", CampaignAdapter(
    name="figure6",
    run_shard=run_figure6_shard,
    merge=merge_figure6,
    shard_type=ClientStability,
    result_type=Figure6Result,
    default_spec=figure6_campaign,
    axis_names=("client_id",),
    check_params=check_figure6_params,
))
CAMPAIGNS.register("figure7", CampaignAdapter(
    name="figure7",
    run_shard=run_figure7_shard,
    merge=merge_figure7,
    shard_type=AntennaCountRow,
    result_type=Figure7Result,
    default_spec=figure7_campaign,
    axis_names=("num_antennas",),
    check_params=check_figure7_params,
))
CAMPAIGNS.register("roc", CampaignAdapter(
    name="roc",
    run_shard=run_roc_shard,
    merge=merge_roc,
    shard_type=RocShardScores,
    result_type=SpoofingRoc,
    default_spec=roc_campaign,
    axis_names=("population",),
    check_params=check_roc_params,
), aliases=("spoofing_roc",))
CAMPAIGNS.register("spoofing_eval", CampaignAdapter(
    name="spoofing_eval",
    run_shard=run_spoofing_eval_shard,
    merge=merge_spoofing_eval,
    shard_type=SpoofingEvalShard,
    result_type=SpoofingEvaluation,
    default_spec=spoofing_eval_campaign,
    axis_names=("population",),
    check_params=check_spoofing_eval_params,
), aliases=("spoofing",))
CAMPAIGNS.register("calibration_ablation", CampaignAdapter(
    name="calibration_ablation",
    run_shard=run_calibration_shard,
    merge=merge_calibration,
    shard_type=CalibrationShard,
    result_type=CalibrationAblation,
    default_spec=calibration_ablation_campaign,
    axis_names=("client_id",),
))
CAMPAIGNS.register("estimator_comparison", CampaignAdapter(
    name="estimator_comparison",
    run_shard=run_estimator_comparison_shard,
    merge=merge_estimator_comparison,
    shard_type=EstimatorComparisonShard,
    result_type=EstimatorComparison,
    default_spec=estimator_comparison_campaign,
    axis_names=("client_id",),
))
CAMPAIGNS.register("snr_sweep", CampaignAdapter(
    name="snr_sweep",
    run_shard=run_snr_shard,
    merge=merge_snr_sweep,
    shard_type=SnrShard,
    result_type=SnrSweep,
    default_spec=snr_sweep_campaign,
    axis_names=("tx_power_dbm",),
))
CAMPAIGNS.register("packets_per_signature", CampaignAdapter(
    name="packets_per_signature",
    run_shard=run_packets_per_signature_shard,
    merge=merge_packets_per_signature,
    shard_type=PacketsPerSignatureShard,
    result_type=PacketsPerSignatureSweep,
    default_spec=packets_per_signature_campaign,
    axis_names=("training_size",),
    check_params=check_packets_per_signature_params,
))
CAMPAIGNS.register("fence_eval", CampaignAdapter(
    name="fence_eval",
    run_shard=run_fence_shard,
    merge=merge_fence_eval,
    shard_type=FenceCase,
    result_type=FenceEvaluation,
    default_spec=fence_eval_campaign,
    axis_names=("transmitter",),
    check_params=check_fence_eval_params,
), aliases=("fence",))
CAMPAIGNS.register("mobility", CampaignAdapter(
    name="mobility",
    run_shard=run_mobility_shard,
    merge=merge_mobility,
    shard_type=MobilitySample,
    result_type=MobilityResult,
    default_spec=mobility_campaign,
    axis_names=("sample",),
    check_params=check_mobility_params,
))
CAMPAIGNS.register("replay_eval", CampaignAdapter(
    name="replay_eval",
    run_shard=run_attack_matrix_shard,
    merge=merge_attack_matrix,
    shard_type=AttackMatrixShard,
    result_type=AttackMatrixResult,
    default_spec=replay_eval_campaign,
    axis_names=("population",),
    check_params=check_attack_matrix_params,
), aliases=("replay",))
CAMPAIGNS.register("reflector_eval", CampaignAdapter(
    name="reflector_eval",
    run_shard=run_attack_matrix_shard,
    merge=merge_attack_matrix,
    shard_type=AttackMatrixShard,
    result_type=AttackMatrixResult,
    default_spec=reflector_eval_campaign,
    axis_names=("population",),
    check_params=check_attack_matrix_params,
), aliases=("reflector", "multipath_mirror_eval"))
CAMPAIGNS.register("swarm_eval", CampaignAdapter(
    name="swarm_eval",
    run_shard=run_attack_matrix_shard,
    merge=merge_attack_matrix,
    shard_type=AttackMatrixShard,
    result_type=AttackMatrixResult,
    default_spec=swarm_eval_campaign,
    axis_names=("population",),
    check_params=check_attack_matrix_params,
), aliases=("swarm", "coordinated_swarm_eval"))
CAMPAIGNS.register("cfo_drift_eval", CampaignAdapter(
    name="cfo_drift_eval",
    run_shard=run_attack_matrix_shard,
    merge=merge_attack_matrix,
    shard_type=AttackMatrixShard,
    result_type=AttackMatrixResult,
    default_spec=cfo_drift_eval_campaign,
    axis_names=("population",),
    check_params=check_attack_matrix_params,
), aliases=("cfo_eval",))
CAMPAIGNS.register("beamforming", CampaignAdapter(
    name="beamforming",
    run_shard=run_beamforming_shard,
    merge=merge_beamforming,
    shard_type=BeamformingShard,
    result_type=BeamformingResult,
    default_spec=beamforming_campaign,
    axis_names=("client_id",),
), aliases=("beamforming_eval",))


def get_adapter(experiment: str) -> CampaignAdapter:
    """Resolve a campaign adapter by name (did-you-mean on miss)."""
    return CAMPAIGNS.get(experiment)
