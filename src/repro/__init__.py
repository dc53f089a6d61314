"""SecureAngle reproduction.

A from-scratch Python reproduction of *SecureAngle: Improving wireless
security using angle-of-arrival information* (Xiong & Jamieson, HotNets 2010):
a multi-antenna access point profiles the directions each client's signal
arrives from (MUSIC pseudospectra), uses them as per-client signatures, and
builds two applications on top — virtual fences (drop frames from clients
localised outside a boundary) and link-layer address-spoofing detection.

The public API is organised in layers:

* ``repro.geometry``, ``repro.arrays``, ``repro.channel``, ``repro.hardware``,
  ``repro.phy``, ``repro.mac`` — the simulated substrate (floor plans,
  antenna arrays, multipath propagation, WARP-like radio chains, OFDM
  packets, 802.11 frames);
* ``repro.calibration``, ``repro.aoa`` — phase calibration and AoA
  estimation (MUSIC and baselines);
* ``repro.core`` — SecureAngle itself: signatures, the signature database and
  tracker, spoofing detection, localisation, virtual fences, and the
  access-point / controller pipelines;
* ``repro.attacks``, ``repro.baselines``, ``repro.testbed``,
  ``repro.experiments`` — threat models, RSS baselines, the Figure 4 testbed,
  and the scripts that regenerate the paper's figures;
* ``repro.api`` — the unified front door: declarative ``ScenarioSpec``
  (JSON-serialisable), component registries, and the ``Deployment`` facade
  with its ``process`` packet front door (streaming or batched);
* ``repro.campaign`` — sharded multi-process Monte-Carlo sweeps: declarative
  ``CampaignSpec`` grids over the experiments, a resumable on-disk result
  store, and the ``python -m repro`` command line.
"""

from repro.aoa import AoAEstimate, AoAEstimator, EstimatorConfig
from repro.api import Deployment, Packet, PacketEvent, ScenarioSpec
from repro.campaign import CampaignSpec, run_campaign
from repro.arrays import OctagonalArray, UniformCircularArray, UniformLinearArray
from repro.core import (
    AccessPointConfig,
    AoASignature,
    SecureAngleAP,
    SecureAngleController,
    SignatureDatabase,
    SpoofingDetector,
    VirtualFence,
)
from repro.testbed import TestbedSimulator, figure4_environment

__version__ = "0.1.0"

__all__ = [
    "AoAEstimate",
    "AoAEstimator",
    "EstimatorConfig",
    "UniformLinearArray",
    "UniformCircularArray",
    "OctagonalArray",
    "AoASignature",
    "SignatureDatabase",
    "SpoofingDetector",
    "VirtualFence",
    "SecureAngleAP",
    "SecureAngleController",
    "AccessPointConfig",
    "TestbedSimulator",
    "figure4_environment",
    "ScenarioSpec",
    "CampaignSpec",
    "run_campaign",
    "Deployment",
    "Packet",
    "PacketEvent",
    "__version__",
]
