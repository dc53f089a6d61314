"""The ``python -m repro`` command line.

One entry point for the whole results pipeline:

* ``run`` — run one experiment in-process (its campaign at one worker) and
  print its table;
* ``campaign`` — run a sharded campaign (by experiment name or from a spec
  JSON file) in-process (``--workers 1``) or on a file queue drained by
  forked local workers (``--workers N``) and/or external workers
  (``--workers 0``), persisting to a result store;
* ``worker`` — a file-queue worker: claim shards from a campaign store on a
  shared filesystem, execute them, write records (run any number of these,
  on any host that mounts the store);
* ``resume`` — continue a stored campaign, skipping completed shards;
* ``report`` — print the merged results of a stored campaign;
* ``serve`` — stand up the real-time streaming decision service
  (:mod:`repro.serve`): named tenants, JSON-lines TCP + websocket endpoints,
  micro-batched ingest (verify a live stream with
  ``python -m repro.serve.smoke``);
* ``list-scenarios`` — the registered scenarios, campaign experiments, and
  serial runners.

Parameter overrides use ``key=value`` with JSON-literal values
(``--param num_packets=2 --axis client_id=1,2,3``), so anything a campaign
spec can express is reachable from the shell.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
from pathlib import Path
from types import FrameType
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.api import SCENARIOS
from repro.campaign.adapters import CAMPAIGNS, get_adapter
from repro.campaign.backends import (
    ExecutorBackend,
    FileQueueBackend,
    SerialBackend,
)
from repro.campaign.engine import ProgressCallback, run_campaign
from repro.campaign.progress import CampaignProgress
from repro.campaign.retry import RetryPolicy
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore, ShardRecord
from repro.utils.validation import require_non_negative_int

__all__ = ["main", "serial_runners"]

#: Rows printed by ``run --profile``'s cumulative-time summary.
PROFILE_TOP_N = 15


def serial_runners() -> Dict[str, Callable[..., Any]]:
    """The ``run_*`` experiment runners, by campaign-compatible name (each
    its campaign at one worker), plus the accuracy claim."""
    from repro import experiments
    from repro.experiments.attack_matrix import (
        run_cfo_drift_eval,
        run_reflector_eval,
        run_replay_eval,
        run_swarm_eval,
    )
    from repro.experiments.fence_eval import run_fence_evaluation
    from repro.experiments.mobility import run_mobility_tracking

    return {
        "replay_eval": run_replay_eval,
        "reflector_eval": run_reflector_eval,
        "swarm_eval": run_swarm_eval,
        "cfo_drift_eval": run_cfo_drift_eval,
        "figure5": experiments.run_figure5,
        "figure6": experiments.run_figure6,
        "figure7": experiments.run_figure7,
        "accuracy": experiments.evaluate_accuracy_claim,
        "roc": experiments.run_spoofing_roc,
        "spoofing_eval": experiments.run_spoofing_evaluation,
        "fence_eval": run_fence_evaluation,
        "mobility": run_mobility_tracking,
        "beamforming": experiments.run_beamforming_evaluation,
        "calibration_ablation": experiments.run_calibration_ablation,
        "estimator_comparison": experiments.run_estimator_comparison,
        "snr_sweep": experiments.run_snr_sweep,
        "packets_per_signature": experiments.run_packets_per_signature_sweep,
    }


# ------------------------------------------------------------------- parsing
def _parse_value(text: str) -> Any:
    """A CLI value: JSON literal when it parses, bare string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_assignments(pairs: Sequence[str], option: str) -> Dict[str, Any]:
    """Parse repeated ``key=value`` options."""
    values: Dict[str, Any] = {}
    for pair in pairs:
        key, separator, text = pair.partition("=")
        if not separator or not key:
            raise SystemExit(f"{option} expects key=value, got {pair!r}")
        values[key] = _parse_value(text)
    return values


def _parse_axes(pairs: Sequence[str]) -> Dict[str, tuple]:
    """Parse repeated ``--axis name=v1,v2,...`` options."""
    axes: Dict[str, tuple] = {}
    for key, text in _parse_assignments(pairs, "--axis").items():
        if isinstance(text, str):
            values = tuple(_parse_value(part) for part in text.split(","))
        elif isinstance(text, list):
            values = tuple(text)
        else:
            values = (text,)
        axes[key] = values
    return axes


def _load_or_build_spec(args: argparse.Namespace) -> CampaignSpec:
    """The campaign spec: from a JSON file or an experiment's default grid.

    Only a ``.json`` path is treated as a spec file, so a stray local file
    that happens to share an experiment's name cannot shadow the registry.
    """
    target = args.experiment
    if target.endswith(".json"):
        try:
            spec = CampaignSpec.load_json(target)
        except FileNotFoundError:
            raise SystemExit(f"campaign spec file not found: {target}") from None
        except (TypeError, ValueError, KeyError) as error:
            raise SystemExit(
                f"cannot load campaign spec {target}: {error}") from error
    else:
        spec = get_adapter(target).default_spec()
    overrides: Dict[str, Any] = {}
    if args.param:
        overrides["base"] = _parse_assignments(args.param, "--param")
    if args.axis:
        overrides["axes"] = _parse_axes(args.axis)
    if args.seeds is not None:
        try:
            overrides["seeds"] = tuple(require_non_negative_int(int(seed), "seed")
                                       for seed in args.seeds.split(","))
        except ValueError as error:
            raise SystemExit(f"--seeds: {error}") from None
    elif args.num_seeds is not None:
        overrides["num_seeds"] = int(args.num_seeds)
    if args.name is not None:
        overrides["name"] = args.name
    if overrides:
        spec = spec.with_overrides(**overrides)
    return spec


# ------------------------------------------------------------------ printing
def _print(text: str = "") -> None:
    print(text)


def _print_result(result: Any, heading: str) -> None:
    _print(heading)
    table = getattr(result, "as_table", None)
    if callable(table):
        _print(table())
    else:
        _print(result.to_json() if hasattr(result, "to_json")
               else json.dumps(result, indent=2))


def _progress(completed: int, total: int, record: ShardRecord) -> None:
    sys.stderr.write(
        f"[{completed}/{total}] shard {record.index} "
        f"(replicate {record.replicate}, point {record.point}) "
        f"done in {record.elapsed_s:.2f}s\n")


def _eta_progress(spec: CampaignSpec, completed_at_start: int,
                  total: int) -> ProgressCallback:
    """Campaign-level progress lines: completed/total, throughput, ETA."""
    tracker = CampaignProgress(spec.name, spec.experiment, total=total,
                               completed=completed_at_start)

    def callback(completed: int, total_shards: int, record: ShardRecord) -> None:
        tracker.total = total_shards
        tracker.record_completed(completed)
        sys.stderr.write(tracker.format_line() + "\n")

    return callback


def _choose_progress(spec: CampaignSpec,
                     args: argparse.Namespace) -> Optional[ProgressCallback]:
    if args.quiet:
        return None
    if getattr(args, "progress", False):
        completed = 0
        if args.out:
            completed = len(ResultStore(args.out).completed_indices())
        return _eta_progress(spec, completed, spec.num_shards)
    return _progress


def _retry_policy(args: argparse.Namespace) -> Optional[RetryPolicy]:
    """The --max-attempts override as a policy (None keeps the default)."""
    attempts = getattr(args, "max_attempts", None)
    if attempts is None:
        return None
    try:
        return RetryPolicy(max_attempts=attempts)
    except ValueError as error:
        raise SystemExit(f"--max-attempts: {error}") from error


def _backend(args: argparse.Namespace) -> ExecutorBackend:
    """The executor ``--workers`` picks; bad execution flags exit here.

    Called before the result store is touched, so a rejected flag leaves
    nothing behind.
    """
    retry = _retry_policy(args)
    if args.workers < 0:
        raise SystemExit("--workers: must be non-negative")
    if args.workers == 0 and not args.out:
        raise SystemExit("--workers 0: external workers share the queue "
                         "through the result store; pass --out DIR")
    if args.lease_timeout <= 0:
        raise SystemExit("--lease-timeout: must be positive")
    if args.workers == 1:
        return SerialBackend(retry=retry)
    return FileQueueBackend(workers=args.workers,
                            lease_timeout_s=args.lease_timeout, retry=retry)


@contextlib.contextmanager
def _terminate_as_interrupt() -> Iterator[None]:
    """Shut a campaign down on SIGTERM exactly as on Ctrl-C.

    SIGTERM's default action ends the coordinator without unwinding, which
    leaves its local workers running and a private store on disk.  Raised
    as ``KeyboardInterrupt`` it takes the interrupt's path instead: the
    executor reaps its workers and removes the private store.
    """
    def interrupt(signum: int, frame: Optional[FrameType]) -> None:
        raise KeyboardInterrupt(f"terminated by signal {signum}")

    previous = signal.signal(signal.SIGTERM, interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _finish_campaign(spec: CampaignSpec, args: argparse.Namespace) -> int:
    # Like the execution flags, a spec the shard runners cannot execute
    # exits with one line before the store is touched.
    try:
        get_adapter(spec.experiment).validate(spec)
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error.args[0])) from None
    backend = _backend(args)
    store = ResultStore(args.out) if args.out else None
    with _terminate_as_interrupt():
        run = run_campaign(spec, store=store,
                           progress=_choose_progress(spec, args),
                           backend=backend,
                           strict=getattr(args, "strict", False))
    _print(f"campaign {spec.name!r} ({spec.experiment}): "
           f"{len(run.records)} shard(s), {run.executed} executed, "
           f"{len(run.results)} replicate(s)")
    if store is not None:
        _print(f"result store: {store.root}")
        if run.complete:
            _print(f"merged result: {store.merged_path}")
    if run.quarantined:
        _print(f"QUARANTINED: {len(run.quarantined)} shard(s) exhausted "
               "their retry budget; merged.json withheld")
        for entry in run.quarantined:
            where = (store.quarantine_path(entry.index) if store is not None
                     else "(in-memory)")
            _print(f"  shard {entry.index}: {entry.attempts} attempt(s) "
                   f"[{where}]")
        if store is not None:
            _print(f"re-attempt them with: python -m repro resume {store.root}")
        # Replicate numbering no longer lines up once replicates are
        # skipped; the partial results stay available programmatically.
        return 1
    for replicate, result in enumerate(run.results):
        seed = spec.replicate_seeds()[replicate]
        _print_result(result, f"--- replicate {replicate} (seed {seed}) ---")
    return 0


# ------------------------------------------------------------------ commands
def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    _print("scenarios (repro.api.SCENARIOS):")
    for name in SCENARIOS.names():
        _print(f"  {name}")
    _print("campaign experiments (python -m repro campaign <name>):")
    for name in CAMPAIGNS.names():
        _print(f"  {name}")
    _print("serial experiments (python -m repro run <name>):")
    for name in sorted(serial_runners()):
        _print(f"  {name}")
    return 0


def _check_run_params(name: str, kwargs: Dict[str, Any]) -> None:
    """Build and validate the campaign ``run <name>`` executes, as
    ``campaign`` does, so a bad parameter exits with one line before any
    shard runs; a failure inside a shard keeps its traceback."""
    from repro.experiments.accuracy import accuracy_campaign

    build = accuracy_campaign if name == "accuracy" else get_adapter(name).default_spec
    params = {key: value for key, value in kwargs.items()
              if key not in ("rng", "estimator_config")}
    try:
        spec = build(seed=kwargs.get("rng", 42), **params)
        get_adapter(spec.experiment).validate(spec)
    except (TypeError, ValueError) as error:
        raise SystemExit(str(error)) from None


def _cmd_run(args: argparse.Namespace) -> int:
    runners = serial_runners()
    if args.experiment not in runners:
        known = ", ".join(sorted(runners))
        raise SystemExit(f"unknown experiment {args.experiment!r}; known: {known}")
    kwargs = _parse_assignments(args.param or (), "--param")
    if args.seed is not None:
        kwargs["rng"] = int(args.seed)
    _check_run_params(args.experiment, kwargs)
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = runners[args.experiment](**kwargs)
        finally:
            profiler.disable()
        profile_path = Path(args.profile)
        profiler.dump_stats(profile_path)
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        _print(f"saved profile: {profile_path} "
               f"(inspect with: python -m pstats {profile_path})")
        _print(f"top {PROFILE_TOP_N} functions by cumulative time:")
        rows = sorted(stats.stats.items(), key=lambda item: item[1][3],
                      reverse=True)
        for (filename, lineno, function), row in rows[:PROFILE_TOP_N]:
            calls, _, _, cumulative = row[:4]
            _print(f"  {cumulative:9.4f}s  {calls:>8} calls  "
                   f"{filename}:{lineno}({function})")
    else:
        result = runners[args.experiment](**kwargs)
    _print_result(result, f"--- {args.experiment} ---")
    if args.json:
        path = Path(args.json)
        result.save_json(path)
        _print(f"saved JSON result: {path}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    return _finish_campaign(_load_or_build_spec(args), args)


def _cmd_resume(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    spec = store.require_spec()
    args.out = args.store
    return _finish_campaign(spec, args)


def _cmd_worker(args: argparse.Namespace) -> int:
    import os

    from repro.campaign.faults import ENV_FAULT_PLAN
    from repro.campaign.worker import EXIT_STARTUP_TIMEOUT, run_worker

    if args.poll <= 0:
        raise SystemExit("--poll: must be positive")
    if args.heartbeat <= 0:
        raise SystemExit("--heartbeat: must be positive")
    if args.fault_plan:
        # The env var is the activation mechanism (inherited by everything
        # the worker runs); the flag is its CLI spelling.
        os.environ[ENV_FAULT_PLAN] = args.fault_plan
    try:
        result = run_worker(args.queue, poll_s=args.poll,
                            max_shards=args.max_shards,
                            exit_when_empty=args.exit_when_empty,
                            startup_timeout_s=args.startup_timeout,
                            heartbeat_s=args.heartbeat,
                            worker_id=args.worker_id, quiet=args.quiet)
    except TimeoutError as error:
        # A typo'd --queue must not look like a successful drain.
        sys.stderr.write(f"worker: {error}\n")
        return EXIT_STARTUP_TIMEOUT
    return result.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, TenantConfig, run_service

    train = tuple(int(part) for part in args.train.split(",")) \
        if args.train else ()
    try:
        tenants = [TenantConfig.from_cli_arg(text, train=train)
                   for text in args.tenant]
    except (KeyError, ValueError, FileNotFoundError) as error:
        raise SystemExit(f"--tenant: {error}") from error
    config = ServeConfig(
        host=args.host,
        port=args.port,
        ws_port=args.ws_port,
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms / 1000.0,
        backlog_capacity=args.backlog,
        announce_path=Path(args.announce) if args.announce else None,
    )
    if not args.quiet:
        names = ", ".join(tenant.name for tenant in tenants)
        sys.stderr.write(f"serving tenant(s) {names} on {config.host}:"
                         f"{config.port or '<ephemeral>'}"
                         + (f" (ws {config.ws_port or '<ephemeral>'})"
                            if config.ws_port is not None else "")
                         + "\n")
        if config.announce_path is not None:
            sys.stderr.write(f"announce file: {config.announce_path}\n")
    run_service(tenants, config)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    spec = store.require_spec()
    merged = store.load_merged()
    if merged is None:
        completed = len(store.completed_indices())
        raise SystemExit(
            f"campaign {spec.name!r} has no merged result yet "
            f"({completed}/{spec.num_shards} shard(s) completed); "
            f"run: python -m repro resume {store.root}")
    adapter = get_adapter(spec.experiment)
    _print(f"campaign {merged.name!r} ({merged.experiment}): "
           f"{merged.num_shards} shard(s), seeds {list(merged.seeds)}")
    for replicate, data in enumerate(merged.results):
        result = adapter.result_type.from_dict(data)
        seed = merged.seeds[replicate]
        _print_result(result, f"--- replicate {replicate} (seed {seed}) ---")
    return 0


def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``campaign`` and ``resume``."""
    parser.add_argument("--workers", type=int, default=1,
                        help="1 runs in-process; N >= 2 forks N local "
                             "workers draining a file queue (under --out, "
                             "else a private temporary store); 0 queues for "
                             "external 'python -m repro worker' processes "
                             "only (needs --out)")
    parser.add_argument("--lease-timeout", type=float, default=60.0,
                        help="file queue: seconds a claim may go without a "
                             "heartbeat before it is re-queued (default 60)")
    parser.add_argument("--max-attempts", type=int, default=None,
                        metavar="N",
                        help="executions allowed per shard before it is "
                             "quarantined (default 3; 1 disables retrying)")
    parser.add_argument("--strict", action="store_true",
                        help="fail the campaign when any shard exhausts its "
                             "retry budget, instead of quarantining it and "
                             "merging what completed")
    parser.add_argument("--progress", action="store_true",
                        help="campaign-level progress lines "
                             "(completed/total, throughput, ETA)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")


# --------------------------------------------------------------------- main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SecureAngle reproduction: experiments, campaigns, reports.")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run one experiment in-process (its campaign at one worker)")
    run.add_argument("experiment", help="experiment name (see list-scenarios)")
    run.add_argument("--seed", type=int, default=None, help="scenario seed")
    run.add_argument("--param", action="append", metavar="KEY=VALUE",
                     help="experiment keyword override (JSON literal value)")
    run.add_argument("--json", metavar="PATH",
                     help="also save the result as JSON")
    run.add_argument("--profile", metavar="PATH", default=None,
                     help="profile the run with cProfile: dump stats to PATH "
                          "and print the top functions by cumulative time")
    run.set_defaults(handler=_cmd_run)

    campaign = commands.add_parser(
        "campaign", help="run a sharded multi-process campaign")
    campaign.add_argument("experiment",
                          help="campaign experiment name or spec JSON path")
    campaign.add_argument("--out", metavar="DIR", default=None,
                          help="result-store directory (enables resume)")
    campaign.add_argument("--param", action="append", metavar="KEY=VALUE",
                          help="base parameter override (JSON literal value)")
    campaign.add_argument("--axis", action="append", metavar="NAME=V1,V2,...",
                          help="replace one parameter axis")
    campaign.add_argument("--seeds", default=None,
                          help="explicit replicate seeds, comma-separated")
    campaign.add_argument("--num-seeds", type=int, default=None,
                          help="derive this many replicate seeds from the master")
    campaign.add_argument("--name", default=None, help="campaign name override")
    _add_execution_options(campaign)
    campaign.set_defaults(handler=_cmd_campaign)

    resume = commands.add_parser(
        "resume", help="continue a stored campaign (skips completed shards)")
    resume.add_argument("store", help="result-store directory")
    _add_execution_options(resume)
    resume.set_defaults(handler=_cmd_resume)

    worker = commands.add_parser(
        "worker",
        help="file-queue worker: claim and execute shards from a campaign store",
        description="File-queue worker: claim and execute shards from a "
                    "campaign store. Exit codes: 0 queue drained cleanly; "
                    "3 the queue never became ready within --startup-timeout; "
                    "4 at least one shard exhausted its retry budget and was "
                    "quarantined by this worker.")
    worker.add_argument("--queue", required=True, metavar="DIR",
                        help="the campaign's result-store directory (its --out)")
    worker.add_argument("--poll", type=float, default=0.2,
                        help="seconds between polls when idle (default 0.2)")
    worker.add_argument("--max-shards", type=int, default=None,
                        help="exit after executing this many shards")
    worker.add_argument("--exit-when-empty", action="store_true",
                        help="exit once the queue is ready and drained "
                             "(instead of waiting for more work)")
    worker.add_argument("--startup-timeout", type=float, default=60.0,
                        help="with --exit-when-empty, how long to wait for "
                             "the queue to appear (default 60s; expiry exits "
                             "with code 3)")
    worker.add_argument("--heartbeat", type=float, default=1.0,
                        metavar="SECONDS",
                        help="interval between lease-heartbeat touches while "
                             "executing a shard (default 1.0; keep well "
                             "under the coordinator's --lease-timeout)")
    worker.add_argument("--worker-id", default=None, metavar="ID",
                        help="identity recorded in quarantine entries and "
                             "matched by worker-addressed faults "
                             "(default: $REPRO_WORKER_ID or <host>-<pid>)")
    worker.add_argument("--fault-plan", default=None, metavar="PATH",
                        help="activate a deterministic fault-injection plan "
                             "(JSON; equivalent to setting $REPRO_FAULT_PLAN) "
                             "— chaos testing only")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-shard worker logs")
    worker.set_defaults(handler=_cmd_worker)

    report = commands.add_parser(
        "report", help="print the merged results of a stored campaign")
    report.add_argument("store", help="result-store directory")
    report.set_defaults(handler=_cmd_report)

    serve = commands.add_parser(
        "serve",
        help="run the real-time streaming decision service (repro.serve)",
        description="Stand up the streaming decision service: each --tenant "
                    "NAME=SCENARIO compiles a named deployment (scenario "
                    "registry name or a ScenarioSpec .json path), packets "
                    "are ingested as JSON-lines requests over TCP (and "
                    "optionally websocket), micro-batched through the "
                    "run_batch fast path, and decisions stream back live. "
                    "Verify a stream with: python -m repro.serve.smoke "
                    "--announce FILE")
    serve.add_argument("--tenant", action="append", required=True,
                       metavar="NAME=SCENARIO",
                       help="add a tenant (repeatable); SCENARIO is a "
                            "registered scenario name or a spec .json path")
    serve.add_argument("--train", default="", metavar="ID1,ID2,...",
                       help="client ids to train at startup (applies to "
                            "every tenant; default: none)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP JSON-lines port (0 = ephemeral; default 8765)")
    serve.add_argument("--ws-port", type=int, default=None, metavar="PORT",
                       help="also serve websocket on this port (0 = ephemeral; "
                            "default: no websocket endpoint)")
    serve.add_argument("--announce", default=None, metavar="PATH",
                       help="atomically write the bound addresses to this "
                            "JSON file once listening")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="micro-batch size cap (default 16)")
    serve.add_argument("--max-delay-ms", type=float, default=20.0,
                       help="micro-batching latency budget in milliseconds "
                            "(default 20)")
    serve.add_argument("--backlog", type=int, default=1024,
                       help="per-tenant event ring capacity (default 1024)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress startup logs")
    serve.set_defaults(handler=_cmd_serve)

    listing = commands.add_parser(
        "list-scenarios", help="list scenarios, campaigns, and experiments")
    listing.set_defaults(handler=_cmd_list_scenarios)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    return args.handler(args)
