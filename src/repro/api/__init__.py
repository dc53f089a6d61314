"""The unified scenario & deployment API.

One front door for driving SecureAngle: describe a deployment declaratively
with :class:`ScenarioSpec` (serialisable to/from JSON), name components via
the registries (:data:`AOA_METHODS`, :data:`ARRAY_GEOMETRIES`,
:data:`ATTACK_TYPES`, :data:`ENVIRONMENTS`), compile it with
:class:`Deployment`, and drive packets through :meth:`Deployment.process`
(``mode="stream"`` or ``mode="batch"``; :meth:`Deployment.run_batch` is the
v0 spelling of the batch mode).  Every decision is a
versioned, JSON-round-trippable :class:`PacketEvent`
(:data:`EVENT_SCHEMA_VERSION`) — the schema the live service
(:mod:`repro.serve`) streams to network clients.

>>> from repro.api import Deployment, ScenarioSpec
>>> deployment = Deployment(ScenarioSpec(name="quickstart"))
>>> for event in deployment.process(deployment.client_packets(7, num_packets=3)):
...     print(event.verdict, event.bearings_deg)

The preset builders in :mod:`repro.api.scenarios` reproduce the paper's
experiment wiring (including exact random streams); every experiment runner
under :mod:`repro.experiments` builds its setup through them.
"""

from repro.api.components import (
    AOA_METHODS,
    ARRAY_GEOMETRIES,
    ATTACK_TYPES,
    ENVIRONMENTS,
    AoAMethod,
)
from repro.api.deployment import Deployment
from repro.api.events import EVENT_SCHEMA_VERSION, Packet, PacketEvent
from repro.api.registry import Registry
from repro.api.scenarios import (
    SCENARIOS,
    cfo_drift_scenario,
    fence_scenario,
    reflector_scenario,
    replay_scenario,
    single_ap_scenario,
    spoofing_scenario,
    swarm_scenario,
    three_ap_scenario,
)
from repro.api.spec import (
    AccessPointSpec,
    ArraySpec,
    AttackerSpec,
    FenceSpec,
    PolicySpec,
    ScenarioSpec,
)

__all__ = [
    "AOA_METHODS",
    "ARRAY_GEOMETRIES",
    "ATTACK_TYPES",
    "ENVIRONMENTS",
    "EVENT_SCHEMA_VERSION",
    "SCENARIOS",
    "AoAMethod",
    "Registry",
    "ScenarioSpec",
    "AccessPointSpec",
    "ArraySpec",
    "AttackerSpec",
    "FenceSpec",
    "PolicySpec",
    "Deployment",
    "Packet",
    "PacketEvent",
    "single_ap_scenario",
    "three_ap_scenario",
    "fence_scenario",
    "spoofing_scenario",
    "replay_scenario",
    "reflector_scenario",
    "swarm_scenario",
    "cfo_drift_scenario",
]
