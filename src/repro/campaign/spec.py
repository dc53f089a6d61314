"""Declarative Monte-Carlo campaign specifications.

A :class:`CampaignSpec` describes a whole experiment sweep as data: which
experiment to run, the parameter axes to grid over (SNR points, client ids,
attacker placements, AoA methods, ...), shared base parameters, and the seed
replicates.  ``compile()`` expands the spec into a canonical list of
:class:`ShardSpec` — one independent unit of work per (replicate, grid point)
— with every shard's seed derived from the campaign master seed in canonical
order at compile time.  Because seed assignment happens before any work is
scheduled, the merged campaign result is bit-identical regardless of how many
workers execute the shards or in which order they finish.

Like :class:`~repro.api.spec.ScenarioSpec`, campaign specs serialise
losslessly to JSON (``to_json``/``from_json``), so sweeps can live in
configuration files and be driven from the ``python -m repro`` command line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.aoa.estimator import EstimatorConfig

from repro.utils.rng import derive_seed, ensure_rng
from repro.utils.serde import JsonSerializable, from_jsonable
from repro.utils.validation import require_non_negative_int

__all__ = ["CampaignSpec", "ShardSpec", "estimator_from_params",
           "require_param_at_least"]


def estimator_from_params(params: Dict[str, Any],
                          key: str = "estimator") -> Optional[EstimatorConfig]:
    """Revive an optional ``EstimatorConfig`` embedded in campaign parameters.

    Campaign base parameters are plain JSON values; an estimator override
    travels as the config's ``to_dict`` form and is rebuilt here (an already
    typed config is passed through, so in-process callers can use either).
    """
    from repro.aoa.estimator import EstimatorConfig

    value = params.get(key)
    if value is None or isinstance(value, EstimatorConfig):
        return value
    return from_jsonable(EstimatorConfig, value)


@dataclass(frozen=True)
class ShardSpec(JsonSerializable):
    """One independent unit of campaign work.

    ``index`` is the shard's global position in the campaign's canonical
    order; ``point`` is its grid-point index within one seed replicate and
    ``replicate`` the replicate's index.  ``seed`` is the scenario seed the
    shard runs under and ``params`` holds the resolved axis values of its
    grid point.
    """

    index: int
    point: int
    replicate: int
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.index < 0 or self.point < 0 or self.replicate < 0:
            raise ValueError("shard indices must be non-negative")


@dataclass(frozen=True)
class CampaignSpec(JsonSerializable):
    """A sharded Monte-Carlo sweep over one experiment's parameter space."""

    name: str = "campaign"
    #: Campaign-experiment registry name (see :data:`repro.campaign.CAMPAIGNS`).
    experiment: str = "figure5"
    #: Master seed; replicate seeds are derived from it in canonical order.
    seed: int = 42
    #: Number of seed replicates when ``seeds`` is not pinned explicitly.
    num_seeds: int = 1
    #: Explicit replicate seeds; overrides the master-seed derivation.  The
    #: paper-figure campaigns pin their ``seed`` argument (42 by default) as
    #: the lone replicate.
    seeds: Optional[Tuple[int, ...]] = None
    #: Parameters shared by every shard (the experiment's keyword arguments).
    base: Dict[str, Any] = field(default_factory=dict)
    #: Parameter axes; the grid is their cartesian product in declaration
    #: order (the last axis varies fastest).
    axes: Dict[str, Tuple[Any, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaigns need a non-empty name")
        if not self.experiment:
            raise ValueError("campaigns need an experiment name")
        if self.num_seeds < 1:
            raise ValueError("num_seeds must be at least 1")
        require_non_negative_int(self.seed, "seed")
        if self.seeds is not None:
            seeds = tuple(require_non_negative_int(seed, "seeds")
                          for seed in self.seeds)
            if not seeds:
                raise ValueError("explicit seeds must be non-empty")
            object.__setattr__(self, "seeds", seeds)
        axes = {}
        for axis, values in self.axes.items():
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
            axes[axis] = values
        object.__setattr__(self, "axes", axes)

    # ------------------------------------------------------------- compilation
    def replicate_seeds(self) -> Tuple[int, ...]:
        """The per-replicate scenario seeds, in canonical replicate order."""
        if self.seeds is not None:
            return self.seeds
        master = ensure_rng(self.seed)
        return tuple(derive_seed(master) for _ in range(self.num_seeds))

    def grid(self) -> List[Dict[str, Any]]:
        """Every grid point (axis-name to value), in canonical point order."""
        if not self.axes:
            return [{}]
        names = list(self.axes)
        return [
            dict(zip(names, values))
            for values in itertools.product(*(self.axes[name] for name in names))
        ]

    def compile(self) -> List[ShardSpec]:
        """Expand the spec into its canonical shard list (replicate-major)."""
        shards: List[ShardSpec] = []
        grid = self.grid()
        for replicate, seed in enumerate(self.replicate_seeds()):
            for point, params in enumerate(grid):
                shards.append(ShardSpec(index=len(shards), point=point,
                                        replicate=replicate, seed=seed,
                                        params=dict(params)))
        return shards

    @property
    def num_shards(self) -> int:
        """Total shard count (replicates times grid points)."""
        num_seeds = len(self.seeds) if self.seeds is not None else self.num_seeds
        return num_seeds * len(self.grid())

    # ------------------------------------------------------------- convenience
    def param(self, name: str, default: Any = None) -> Any:
        """A base parameter with a default (the experiment's own default)."""
        return self.base.get(name, default)

    def with_overrides(self, *, name: Optional[str] = None,
                       base: Optional[Dict[str, Any]] = None,
                       axes: Optional[Dict[str, Tuple[Any, ...]]] = None,
                       seeds: Optional[Tuple[int, ...]] = None,
                       num_seeds: Optional[int] = None) -> "CampaignSpec":
        """A copy with base params merged and axes/seeds replaced."""
        updates: Dict[str, Any] = {}
        if name is not None:
            updates["name"] = name
        if base:
            updates["base"] = {**self.base, **base}
        if axes:
            updates["axes"] = {**self.axes, **axes}
        if seeds is not None:
            updates["seeds"] = seeds
            updates["num_seeds"] = len(seeds)
        elif num_seeds is not None:
            updates["num_seeds"] = num_seeds
            updates["seeds"] = None
        return replace(self, **updates)


def require_param_at_least(spec: CampaignSpec, name: str, default: Any,
                           minimum: int = 1) -> None:
    """Reject base parameter ``name`` (``default`` when unset) below ``minimum``.

    The building block of the adapters' ``check_params``: a count the shards
    would loop over zero times must fail before any shard runs.
    """
    value = spec.param(name, default)
    if int(value) < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
