"""Experiment runners that regenerate the paper's figures and claims.

Each experiment is a campaign: a builder (``*_campaign``) expresses its grid
as a :class:`~repro.campaign.spec.CampaignSpec`, a shard runner
(``run_*_shard``) measures one grid point, and a merge reduces the shards
into the result.  The ``run_*`` entry points run that campaign in-process at
one worker (:func:`repro.campaign.engine.run_serial`);
:func:`evaluate_accuracy_claim` reduces :func:`run_figure5`'s per-packet
bearings.
"""

from repro.experiments.figure5 import Figure5Result, figure5_campaign, run_figure5
from repro.experiments.accuracy import AccuracyClaim, evaluate_accuracy_claim
from repro.experiments.figure6 import Figure6Result, figure6_campaign, run_figure6
from repro.experiments.figure7 import Figure7Result, figure7_campaign, run_figure7
from repro.experiments.fence_eval import FenceEvaluation, run_fence_evaluation
from repro.experiments.spoofing_eval import (
    SpoofingEvaluation,
    run_spoofing_evaluation,
    spoofing_eval_campaign,
)
from repro.experiments.ablations import (
    calibration_ablation_campaign,
    estimator_comparison_campaign,
    packets_per_signature_campaign,
    run_calibration_ablation,
    run_estimator_comparison,
    run_packets_per_signature_sweep,
    run_snr_sweep,
    snr_sweep_campaign,
)
from repro.experiments.attack_matrix import (
    AttackMatrixResult,
    attack_matrix_campaign,
    run_attack_matrix,
)
from repro.experiments.roc import SpoofingRoc, roc_campaign, run_spoofing_roc
from repro.experiments.mobility import MobilityResult, run_mobility_tracking
from repro.experiments.beamforming_eval import BeamformingResult, run_beamforming_evaluation

__all__ = [
    "SpoofingRoc",
    "run_spoofing_roc",
    "MobilityResult",
    "run_mobility_tracking",
    "BeamformingResult",
    "run_beamforming_evaluation",
    "Figure5Result",
    "run_figure5",
    "AccuracyClaim",
    "evaluate_accuracy_claim",
    "Figure6Result",
    "run_figure6",
    "Figure7Result",
    "run_figure7",
    "FenceEvaluation",
    "run_fence_evaluation",
    "SpoofingEvaluation",
    "run_spoofing_evaluation",
    "AttackMatrixResult",
    "run_attack_matrix",
    "attack_matrix_campaign",
    "run_calibration_ablation",
    "run_estimator_comparison",
    "run_snr_sweep",
    "run_packets_per_signature_sweep",
    "figure5_campaign",
    "figure6_campaign",
    "figure7_campaign",
    "roc_campaign",
    "spoofing_eval_campaign",
    "calibration_ablation_campaign",
    "estimator_comparison_campaign",
    "snr_sweep_campaign",
    "packets_per_signature_campaign",
]
