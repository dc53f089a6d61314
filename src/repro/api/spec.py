"""The declarative scenario specification.

A :class:`ScenarioSpec` describes a whole SecureAngle deployment — the
environment, the access points (position, orientation, array geometry), the
estimator and policy configuration, the clients, the attackers, and the
virtual fence — as one dataclass tree of plain values and registry names.
Every spec serialises losslessly to a dictionary or JSON document and back
(``to_dict``/``from_dict``/``to_json``/``from_json``), so experiments and
sweeps can be driven from configuration files instead of bespoke wiring code.

Compiling a spec into live objects is the job of
:class:`repro.api.deployment.Deployment`; building the individual components
(arrays, attackers) lives here next to their validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.aoa.estimator import EstimatorConfig
from repro.api.components import ARRAY_GEOMETRIES, ATTACK_TYPES, ENVIRONMENTS
from repro.arrays.geometry import AntennaArray
from repro.attacks.attacker import Attacker, DirectionalAntennaAttacker
from repro.core.access_point import AccessPointConfig
from repro.core.spoofing import SpoofingDetectorConfig
from repro.core.tracker import TrackerConfig
from repro.geometry.point import Point
from repro.mac.address import MacAddress
from repro.testbed.environment import TestbedEnvironment
from repro.testbed.scenario import SimulatorConfig
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.serde import JsonSerializable
from repro.utils.validation import require_non_negative_int

__all__ = [
    "AccessPointSpec",
    "ArraySpec",
    "AttackerSpec",
    "FenceSpec",
    "PolicySpec",
    "ScenarioSpec",
]


def _coerce_xy(spec: object, field_name: str) -> None:
    """Normalise an optional (x, y) field to a finite float tuple (frozen-safe).

    Specs are naturally built with lists (JSON, hand-written configs); the
    canonical tuple form keeps the documented round-trip equality and the
    dataclasses hashable.  Non-finite coordinates are rejected here — found
    by the scenario fuzzer: a NaN position used to sail through construction
    and only surface as NaN captures deep inside synthesis.
    """
    value = getattr(spec, field_name)
    if value is None:
        return
    coerced = tuple(float(coordinate) for coordinate in value)
    if len(coerced) != 2:
        raise ValueError(f"{field_name} must be an (x, y) pair, got {value!r}")
    if not all(math.isfinite(coordinate) for coordinate in coerced):
        raise ValueError(f"{field_name} must be finite, got {value!r}")
    # Shared canonicalisation helper invoked only from the frozen specs' own
    # __post_init__ methods — construction-time, never post-hoc mutation.
    object.__setattr__(spec, field_name, coerced)  # repro-lint: disable=frozen-config-mutation


def _require_positive_finite(value: Optional[float], name: str) -> None:
    """Reject non-positive or non-finite optional numeric spec knobs."""
    if value is None:
        return
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class ArraySpec(JsonSerializable):
    """An antenna arrangement, by registry name plus geometry knobs.

    Only the knobs that apply to the chosen geometry may be set: ``spacing_m``
    for linear arrays, ``radius_m`` for circular ones, ``side_length_m`` for
    the octagon, ``element_positions`` for arbitrary layouts.
    """

    geometry: str = "octagon"
    num_elements: Optional[int] = None
    spacing_m: Optional[float] = None
    radius_m: Optional[float] = None
    side_length_m: Optional[float] = None
    element_positions: Optional[Tuple[Tuple[float, float], ...]] = None
    carrier_frequency_hz: Optional[float] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        ARRAY_GEOMETRIES.canonical(self.geometry)  # raises with did-you-mean
        # Found by the scenario fuzzer: zero/negative element counts and
        # non-positive geometry knobs used to pass spec construction and only
        # fail (or, worse, degenerate) inside the array factories at build.
        if self.num_elements is not None and self.num_elements < 2:
            raise ValueError(
                f"num_elements must be at least 2, got {self.num_elements!r}")
        _require_positive_finite(self.spacing_m, "spacing_m")
        _require_positive_finite(self.radius_m, "radius_m")
        _require_positive_finite(self.side_length_m, "side_length_m")
        _require_positive_finite(self.carrier_frequency_hz, "carrier_frequency_hz")
        if self.element_positions is not None:
            coerced = tuple(
                tuple(float(coordinate) for coordinate in position)
                for position in self.element_positions)
            for position in coerced:
                if len(position) != 2 or not all(
                        math.isfinite(coordinate) for coordinate in position):
                    raise ValueError(
                        "element_positions must be finite (x, y) pairs, "
                        f"got {position!r}")
            if len(coerced) < 2:
                raise ValueError(
                    "element_positions needs at least 2 elements, "
                    f"got {len(coerced)}")
            object.__setattr__(self, "element_positions", coerced)

    def build(self) -> AntennaArray:
        """Instantiate the antenna array this spec describes."""
        factory = ARRAY_GEOMETRIES.get(self.geometry)
        kwargs = {
            key: getattr(self, key)
            for key in ("num_elements", "spacing_m", "radius_m", "side_length_m",
                        "element_positions", "carrier_frequency_hz", "name")
            if getattr(self, key) is not None
        }
        try:
            return factory(**kwargs)
        except TypeError as exc:
            raise ValueError(
                f"array geometry {self.geometry!r} rejected {sorted(kwargs)}: {exc}"
            ) from None


@dataclass(frozen=True)
class AccessPointSpec(JsonSerializable):
    """One SecureAngle access point.

    ``position`` of ``None`` places the AP at the environment's default AP
    position.  ``estimator`` of ``None`` inherits the scenario-wide estimator
    configuration.  The simulator randomness is derived from the scenario
    seed: ``seed`` pins an independent generator, ``rng_stream`` spawns a
    numbered child stream, and leaving both unset uses the scenario generator
    directly for a single-AP scenario (numbered streams otherwise).
    """

    name: str = "ap"
    position: Optional[Tuple[float, float]] = None
    orientation_deg: float = 0.0
    array: ArraySpec = field(default_factory=ArraySpec)
    estimator: Optional[EstimatorConfig] = None
    rng_stream: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("access points need a non-empty name")
        if self.rng_stream is not None and self.seed is not None:
            raise ValueError(f"AP {self.name!r}: set rng_stream or seed, not both")
        for field_name in ("rng_stream", "seed"):
            if getattr(self, field_name) is not None:
                require_non_negative_int(getattr(self, field_name),
                                         f"AP {self.name!r} {field_name}")
        _coerce_xy(self, "position")

    def resolve_position(self, environment: TestbedEnvironment) -> Point:
        """The AP's floor-plan position (environment default when unset)."""
        if self.position is None:
            return environment.ap_position
        return Point(float(self.position[0]), float(self.position[1]))


@dataclass(frozen=True)
class AttackerSpec(JsonSerializable):
    """One attacker of the threat model, by registry name.

    Exactly one of ``position`` (explicit coordinates), ``at_client`` (a
    numbered client position), or ``outdoor`` (a named outdoor position of the
    environment) locates the transmitter.  Directional attackers aim either at
    an access point (``aim_ap``) or at explicit coordinates (``aim_point``).
    An unset ``address`` is drawn from the deployment's attacker stream.

    The per-family knob fields (beam shape, recording SNR, mirror bearing,
    swarm offsets, CFO walk) may only be set when the chosen attack type
    declares them in its ``spec_knobs`` — a knob the type would silently
    ignore is rejected at construction.
    """

    type: str = "omnidirectional"
    name: Optional[str] = None
    position: Optional[Tuple[float, float]] = None
    at_client: Optional[int] = None
    outdoor: Optional[str] = None
    aim_ap: Optional[str] = None
    aim_point: Optional[Tuple[float, float]] = None
    address: Optional[str] = None
    tx_power_dbm: float = 15.0
    # Directional / array beam knobs.
    beamwidth_deg: Optional[float] = None
    boresight_gain_db: Optional[float] = None
    sidelobe_suppression_db: Optional[float] = None
    # Replay knobs.
    recording_snr_db: Optional[float] = None
    playback_gain_db: Optional[float] = None
    # Reflector / multipath-mirror knobs.
    mirror_bearing_deg: Optional[float] = None
    mirror_gain_db: Optional[float] = None
    leak_suppression_db: Optional[float] = None
    # Coordinated-swarm knobs.
    member_offsets: Optional[Tuple[Tuple[float, float], ...]] = None
    # CFO-drift knobs.
    cfo_start_hz: Optional[float] = None
    cfo_drift_hz_per_s: Optional[float] = None

    #: Every per-family knob field above, in declaration order.  Validated
    #: against the attack class's ``spec_knobs`` and forwarded in ``build``.
    _KNOB_FIELDS = (
        "beamwidth_deg", "boresight_gain_db", "sidelobe_suppression_db",
        "recording_snr_db", "playback_gain_db",
        "mirror_bearing_deg", "mirror_gain_db", "leak_suppression_db",
        "member_offsets",
        "cfo_start_hz", "cfo_drift_hz_per_s",
    )

    def __post_init__(self) -> None:
        ATTACK_TYPES.canonical(self.type)
        placements = [value is not None
                      for value in (self.position, self.at_client, self.outdoor)]
        if sum(placements) != 1:
            raise ValueError(
                "an attacker needs exactly one of position / at_client / outdoor")
        if not math.isfinite(self.tx_power_dbm):
            raise ValueError(
                f"tx_power_dbm must be finite, got {self.tx_power_dbm!r}")
        cls = ATTACK_TYPES.get(self.type)
        directional = issubclass(cls, DirectionalAntennaAttacker)
        if self.aim_ap is not None and self.aim_point is not None:
            raise ValueError("set aim_ap or aim_point, not both")
        if directional and self.aim_ap is None and self.aim_point is None:
            # An unaimed directional antenna degenerates to an omni attacker,
            # which would silently mislabel an evaluation.
            raise ValueError(
                f"attacker type {self.type!r} needs aim_ap or aim_point")
        if not directional and (self.aim_ap is not None
                                or self.aim_point is not None):
            raise ValueError(
                f"attacker type {self.type!r} is not directional and has no "
                "beam to aim (aim_ap / aim_point)")
        allowed = tuple(getattr(cls, "spec_knobs", ()))
        unknown = [knob for knob in self._KNOB_FIELDS
                   if getattr(self, knob) is not None and knob not in allowed]
        if unknown:
            accepted = ", ".join(allowed) if allowed else "none"
            raise ValueError(
                f"attacker type {self.type!r} does not accept knob(s) "
                f"{unknown}; accepted knobs: {accepted}")
        _coerce_xy(self, "position")
        _coerce_xy(self, "aim_point")
        if self.member_offsets is not None:
            coerced = tuple(
                tuple(float(coordinate) for coordinate in offset)
                for offset in self.member_offsets)
            for offset in coerced:
                if len(offset) != 2 or not all(
                        math.isfinite(coordinate) for coordinate in offset):
                    raise ValueError(
                        f"member_offsets must be finite (dx, dy) pairs, "
                        f"got {offset!r}")
            if not coerced:
                raise ValueError("member_offsets must name at least one member")
            object.__setattr__(self, "member_offsets", coerced)  # repro-lint: disable=frozen-config-mutation

    def build(self, environment: TestbedEnvironment,
              ap_positions: Mapping[str, Point], rng: RngLike = None) -> Attacker:
        """Instantiate the attacker in a concrete environment.

        ``ap_positions`` maps AP names to :class:`Point` (for ``aim_ap``);
        ``rng`` supplies the MAC address when the spec does not pin one.
        """
        cls = ATTACK_TYPES.get(self.type)
        if self.position is not None:
            position = Point(float(self.position[0]), float(self.position[1]))
        elif self.at_client is not None:
            position = environment.client_position(self.at_client)
        else:
            try:
                position = environment.outdoor_positions[self.outdoor]
            except KeyError:
                raise KeyError(
                    f"environment {environment.name!r} has no outdoor position "
                    f"{self.outdoor!r}; known: {sorted(environment.outdoor_positions)}"
                ) from None
        if self.address is not None:
            address = MacAddress(self.address)
        else:
            address = MacAddress.random(ensure_rng(rng))
        kwargs = dict(position=position, address=address,
                      tx_power_dbm=self.tx_power_dbm)
        if self.name is not None:
            kwargs["name"] = self.name
        if issubclass(cls, DirectionalAntennaAttacker):
            if self.aim_ap is not None:
                try:
                    kwargs["aim_point"] = ap_positions[self.aim_ap]
                except KeyError:
                    raise KeyError(
                        f"attacker aims at unknown AP {self.aim_ap!r}; "
                        f"known: {sorted(ap_positions)}") from None
            elif self.aim_point is not None:
                kwargs["aim_point"] = Point(float(self.aim_point[0]),
                                            float(self.aim_point[1]))
        # __post_init__ already rejected any knob the class does not declare,
        # so every remaining non-None knob field is one the class accepts.
        kwargs.update({knob: getattr(self, knob) for knob in self._KNOB_FIELDS
                       if getattr(self, knob) is not None})
        return cls(**kwargs)

    def effective_name(self) -> str:
        """The attacker's name after applying the attack class's default.

        Attacker dataclasses expose their ``name`` default as a class
        attribute; third-party classes without one fall back to the type
        name, so unnamed attackers of one custom type still collide loudly
        at spec time rather than crashing here.
        """
        if self.name is not None:
            return self.name
        default = getattr(ATTACK_TYPES.get(self.type), "name", None)
        return default if isinstance(default, str) else self.type


@dataclass(frozen=True)
class FenceSpec(JsonSerializable):
    """Virtual-fence policy over the environment's building boundary."""

    margin_m: float = 1.0
    max_residual_m: float = 2.5
    fail_open: bool = False

    def __post_init__(self) -> None:
        # Found by the scenario fuzzer: a NaN margin or non-positive residual
        # gate produced a fence that never (or always) rejected, with nothing
        # failing loudly anywhere.
        if not math.isfinite(self.margin_m):
            raise ValueError(f"margin_m must be finite, got {self.margin_m!r}")
        if not (math.isfinite(self.max_residual_m) and self.max_residual_m > 0):
            raise ValueError(
                "max_residual_m must be positive and finite, "
                f"got {self.max_residual_m!r}")


@dataclass(frozen=True)
class PolicySpec(JsonSerializable):
    """Packet-policy configuration shared by every AP of the scenario.

    Scalar defaults are read off :class:`AccessPointConfig` itself, so tuning
    the AP defaults cannot silently diverge from spec-built deployments.
    """

    spoofing: SpoofingDetectorConfig = field(default_factory=SpoofingDetectorConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    #: Bearing uncertainty (degrees) attached to localisation observations.
    bearing_sigma_deg: float = \
        AccessPointConfig.__dataclass_fields__["bearing_sigma_deg"].default
    #: Packets averaged when training a certified signature.
    training_packets: int = \
        AccessPointConfig.__dataclass_fields__["training_packets"].default


@dataclass(frozen=True)
class ScenarioSpec(JsonSerializable):
    """A complete, serialisable description of a SecureAngle deployment."""

    name: str = "scenario"
    #: Environment registry name.
    environment: str = "figure4"
    #: Master seed; every stochastic component derives from it.
    seed: int = 42
    #: Capture-simulation knobs shared by every AP's testbed simulator.
    simulator: SimulatorConfig = field(default_factory=SimulatorConfig)
    #: Scenario-wide AoA estimator configuration (APs may override).
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    #: Packet policy (spoofing detector, tracker, localisation sigma).
    policy: PolicySpec = field(default_factory=PolicySpec)
    #: Access points; empty means one default AP at the environment position.
    access_points: Tuple[AccessPointSpec, ...] = ()
    #: Client ids to expose; empty means every environment client.
    clients: Tuple[int, ...] = ()
    #: Attackers of the threat model.
    attackers: Tuple[AttackerSpec, ...] = ()
    #: Virtual fence; ``None`` disables fencing.
    fence: Optional[FenceSpec] = None
    #: Seed for client MAC addresses (kept separate from ``seed`` so address
    #: assignment never perturbs the capture simulation).
    client_address_seed: int = 7
    #: Child-stream number for attacker MAC addresses drawn from the master.
    attacker_address_stream: int = 4

    def __post_init__(self) -> None:
        for field_name in ("seed", "client_address_seed",
                           "attacker_address_stream"):
            require_non_negative_int(getattr(self, field_name), field_name)
        ENVIRONMENTS.canonical(self.environment)
        object.__setattr__(self, "access_points", tuple(self.access_points))
        object.__setattr__(self, "attackers", tuple(self.attackers))
        object.__setattr__(self, "clients",
                           tuple(int(client) for client in self.clients))
        names = [ap.name for ap in self.access_points]
        if len(set(names)) != len(names):
            raise ValueError(f"access point names must be unique, got {names}")
        # Uniqueness over *effective* names (class defaults applied), so two
        # unnamed attackers of the same type fail here rather than lazily on
        # the first Deployment.attackers access mid-run.
        attacker_names = [attacker.effective_name() for attacker in self.attackers]
        if len(set(attacker_names)) != len(attacker_names):
            raise ValueError(
                f"attacker names must be unique, got {attacker_names}; "
                "give unnamed attackers of the same type distinct names")
        # Environment-aware placement checks — found by the scenario fuzzer: a
        # client id or outdoor name the environment does not define used to
        # pass construction and only fail on the first Deployment access.
        # Environment factories are cheap pure builders, so constructing one
        # here costs microseconds and buys construction-time failure.
        environment = ENVIRONMENTS.get(self.environment)()
        known_clients = set(environment.client_positions)
        unknown_clients = [client for client in self.clients
                           if client not in known_clients]
        if unknown_clients:
            raise ValueError(
                f"environment {self.environment!r} has no client(s) "
                f"{unknown_clients}; known: {sorted(known_clients)}")
        for attacker in self.attackers:
            if (attacker.at_client is not None
                    and attacker.at_client not in known_clients):
                raise ValueError(
                    f"attacker {attacker.effective_name()!r} is placed at "
                    f"client {attacker.at_client!r}, which environment "
                    f"{self.environment!r} does not define; known: "
                    f"{sorted(known_clients)}")
            if (attacker.outdoor is not None
                    and attacker.outdoor not in environment.outdoor_positions):
                raise ValueError(
                    f"attacker {attacker.effective_name()!r} is placed at "
                    f"outdoor position {attacker.outdoor!r}, which environment "
                    f"{self.environment!r} does not define; known: "
                    f"{sorted(environment.outdoor_positions)}")
        ap_names = set(names) if names else {"ap-main"}
        for attacker in self.attackers:
            if attacker.aim_ap is not None and attacker.aim_ap not in ap_names:
                raise ValueError(
                    f"attacker {attacker.effective_name()!r} aims at unknown "
                    f"AP {attacker.aim_ap!r}; known: {sorted(ap_names)}")

    # ------------------------------------------------------------- convenience
    def resolved_access_points(self) -> Tuple[AccessPointSpec, ...]:
        """The AP specs, with the single-default-AP fallback applied."""
        if self.access_points:
            return self.access_points
        return (AccessPointSpec(name="ap-main"),)
