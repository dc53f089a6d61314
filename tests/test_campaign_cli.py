"""The ``python -m repro`` command line, driven in-process."""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, ResultStore, ShardFailure, engine, get_adapter
from repro.campaign.faults import FaultPlan, FaultSpec
from repro.campaign.cli import main
from repro.experiments.figure5 import run_figure5


def run_cli(*argv):
    return main(list(argv))


class TestListScenarios:
    def test_lists_scenarios_campaigns_and_runners(self, capsys):
        assert run_cli("list-scenarios") == 0
        output = capsys.readouterr().out
        for expected in ("figure5", "spoofing_eval", "snr_sweep", "three_ap"):
            assert expected in output


class TestRun:
    def test_runs_serial_experiment_and_saves_json(self, tmp_path, capsys):
        out = tmp_path / "figure5.json"
        assert run_cli("run", "figure5", "--param", "num_packets=2",
                       "--param", "client_ids=[1,2]", "--json", str(out)) == 0
        assert "figure5" in capsys.readouterr().out
        saved = json.loads(out.read_text())
        expected = run_figure5(num_packets=2, client_ids=(1, 2))
        assert saved == expected.to_dict()

    def test_unknown_experiment_fails_loudly(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            run_cli("run", "figure99")


class TestCampaignCommand:
    def test_campaign_resume_report_round_trip(self, tmp_path, capsys):
        store_dir = tmp_path / "campaign"
        assert run_cli("campaign", "figure5",
                       "--axis", "client_id=1,2,3,4",
                       "--param", "num_packets=2",
                       "--workers", "2", "--quiet",
                       "--out", str(store_dir)) == 0
        store = ResultStore(store_dir)
        merged = store.merged_path.read_bytes()
        assert len(store.completed_indices()) == 4

        # Kill one shard record and resume: merged result must not change.
        store.shard_path(2).unlink()
        assert run_cli("resume", str(store_dir), "--workers", "2",
                       "--quiet") == 0
        assert store.merged_path.read_bytes() == merged

        capsys.readouterr()
        assert run_cli("report", str(store_dir)) == 0
        output = capsys.readouterr().out
        assert "4 shard(s)" in output
        assert "client" in output  # the merged figure5 table

    def test_campaign_from_spec_file(self, tmp_path, capsys):
        from repro.campaign import get_adapter

        spec = get_adapter("figure5").default_spec(client_ids=(1, 2),
                                                   num_packets=2)
        spec_path = tmp_path / "spec.json"
        spec.save_json(spec_path)
        assert run_cli("campaign", str(spec_path), "--quiet") == 0
        assert "2 shard(s)" in capsys.readouterr().out

    def test_campaign_overrides_change_the_spec(self, tmp_path):
        store_dir = tmp_path / "campaign"
        assert run_cli("campaign", "figure5", "--axis", "client_id=5",
                       "--param", "num_packets=2", "--name", "tiny",
                       "--quiet", "--out", str(store_dir)) == 0
        stored = CampaignSpec.load_json(store_dir / "campaign.json")
        assert stored.name == "tiny"
        assert stored.axes["client_id"] == (5,)
        assert stored.base["num_packets"] == 2

    def test_report_without_merged_result_explains(self, tmp_path):
        store_dir = tmp_path / "campaign"
        run_cli("campaign", "figure5", "--axis", "client_id=1",
                "--param", "num_packets=2", "--quiet",
                "--out", str(store_dir))
        ResultStore(store_dir).merged_path.unlink()
        with pytest.raises(SystemExit, match="no merged result"):
            run_cli("report", str(store_dir))


#: Every argument check an experiment makes, as ``campaign`` argv: each must
#: exit with one line before any shard runs (the serial ``run_*`` runners go
#: through the same ``check_params``).
BAD_PARAMETERS = {
    "figure5-no-packets": (("figure5", "--param", "num_packets=0"),
                           ("num_packets",)),
    "figure6-no-reference": (("figure6", "--param", "time_offsets_s=[1,10]"),
                             ("time_offsets_s",)),
    "figure7-one-antenna": (("figure7", "--axis", "num_antennas=1,2"),
                            ("antenna counts",)),
    "figure7-too-many-antennas": (("figure7", "--axis", "num_antennas=4,16"),
                                  ("8 antennas",)),
    "figure7-no-packets": (("figure7", "--param", "num_packets=0"),
                           ("num_packets",)),
    "roc-no-training": (("roc", "--param", "num_training_packets=0"),
                        ("num_training_packets",)),
    "roc-no-probes": (("roc", "--param", "num_probe_packets=0"),
                      ("num_probe_packets",)),
    "spoofing-no-training": (("spoofing_eval", "--param",
                              "num_training_packets=0"),
                             ("num_training_packets",)),
    "spoofing-no-tests": (("spoofing_eval", "--param", "num_test_packets=0"),
                          ("num_test_packets",)),
    "fence-no-packets": (("fence_eval", "--param", "packets_per_transmitter=0"),
                         ("packets_per_transmitter",)),
    "mobility-one-sample": (("mobility", "--param", "num_samples=1",
                             "--axis", "sample=0"), ("num_samples",)),
    "mobility-no-interval": (("mobility", "--param", "packet_interval_s=0"),
                             ("packet_interval_s",)),
    "packets-per-signature-empty-training": (
        ("packets_per_signature", "--axis", "training_size=0,2"),
        ("training sizes",)),
    "replay-no-training": (("replay_eval", "--param", "num_training_packets=0"),
                           ("num_training_packets",)),
    "reflector-no-tests": (("reflector_eval", "--param", "num_test_packets=0"),
                           ("num_test_packets",)),
    "swarm-no-tests": (("swarm_eval", "--param", "num_test_packets=0"),
                       ("num_test_packets",)),
    "cfo-drift-no-training": (("cfo_drift_eval", "--param",
                               "num_training_packets=0"),
                              ("num_training_packets",)),
    "mobility-param-only": (("mobility", "--param", "num_samples=6"),
                            ("num_samples", "sample axis")),
    "mobility-axis-past-param": (("mobility", "--param", "num_samples=4",
                                  "--axis", "sample=0,1,5"),
                                 ("num_samples", "sample axis")),
    "attack-matrix-scenario": (("replay_eval", "--param", "scenario=swarm"),
                               ("scenario", "population axis")),
    "population-no-legitimate": (
        ("spoofing_eval", "--axis", 'population=[{"role": "attacker", '
         '"attacker_index": 0, "attacker": "omni-indoor"}]'),
        ("legitimate",)),
    "population-two-legitimate": (
        ("spoofing", "--axis",
         'population=[{"role": "legitimate"}, {"role": "legitimate"}]'),
        ("legitimate",)),
    "unknown-axis": (("figure5", "--axis", "client=1,2"), ("axis", "client_id")),
}

#: The ``--param``-only rows as ``run`` argv, checked for the parameter's
#: name.  ``mobility-param-only`` is no error for ``run``: the mobility
#: campaign it builds sizes its sample axis from ``num_samples``.
RUN_BAD_PARAMETERS = {
    case: (argv, names[:1]) for case, (argv, names) in BAD_PARAMETERS.items()
    if "--axis" not in argv and case != "mobility-param-only"}
RUN_BAD_PARAMETERS["unknown-keyword"] = (("figure5", "--param", "bogus=1"),
                                         ("bogus",))


class TestSpecChecks:
    @pytest.mark.parametrize("argv,names", list(BAD_PARAMETERS.values()),
                             ids=list(BAD_PARAMETERS))
    def test_a_rejected_parameter_exits_with_one_line(
            self, tmp_path, argv, names):
        out = tmp_path / "campaign"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("campaign", *argv, "--out", str(out), "--quiet")
        message = str(exit_info.value.code)
        assert all(name in message for name in names)
        assert "\n" not in message
        assert not out.exists()  # rejected before the store was touched

    def test_a_matching_axis_runs_the_resized_trace(self, tmp_path):
        from repro.experiments.mobility import run_mobility_tracking

        out = tmp_path / "campaign"
        assert run_cli("campaign", "mobility", "--param", "num_samples=3",
                       "--axis", "sample=0,1,2", "--quiet",
                       "--out", str(out)) == 0
        merged = json.loads(ResultStore(out).merged_path.read_text())
        serial = run_mobility_tracking(num_samples=3)
        assert merged["results"][0] == serial.to_dict()

    @pytest.mark.parametrize("argv,names", list(RUN_BAD_PARAMETERS.values()),
                             ids=list(RUN_BAD_PARAMETERS))
    def test_a_rejected_run_parameter_exits_with_one_line(
            self, monkeypatch, argv, names):
        def no_shards(*args, **kwargs):
            raise AssertionError("a shard ran before the parameters were checked")

        monkeypatch.setattr(engine, "run_campaign", no_shards)
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", *argv)
        message = str(exit_info.value.code)
        assert all(name in message for name in names)
        assert "\n" not in message

    def test_a_failure_inside_the_run_keeps_its_traceback(self, monkeypatch):
        def failing(spec, shard):
            raise ValueError("shard fault")

        real_get_adapter = engine.get_adapter
        monkeypatch.setattr(engine, "get_adapter", lambda name: replace(
            real_get_adapter(name), run_shard=failing))
        with pytest.raises(ShardFailure, match="shard fault"):
            run_cli("run", "figure5", "--param", "num_packets=1")


REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _children(pid):
    """Direct child processes of ``pid`` (Linux ``/proc``)."""
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(child) for child in text.split()]


@pytest.mark.skipif(not Path("/proc/self/task").exists(),
                    reason="needs /proc to find the coordinator's workers")
class TestTermination:
    def test_sigterm_reaps_workers_and_removes_the_private_store(self, tmp_path):
        # Every shard hangs for ~30 s before it runs, so the campaign is
        # still running when the SIGTERM lands.
        plan = tmp_path / "hang-plan.json"
        num_shards = get_adapter("figure5").default_spec().num_shards
        FaultPlan(faults=(FaultSpec(kind="hang", shard=None, times=num_shards,
                                    delay_s=30.0),)).save_json(plan)
        env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=REPO_SRC,
                   REPRO_FAULT_PLAN=str(plan))
        coordinator = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "figure5",
             "--param", "num_packets=6", "--workers", "2", "--quiet"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            workers = []
            while time.monotonic() < deadline and coordinator.poll() is None:
                workers = _children(coordinator.pid)
                if len(workers) >= 2 and any(tmp_path.glob("repro-campaign-*")):
                    break
                time.sleep(0.05)
            assert len(workers) >= 2, "the local workers never started"
            coordinator.send_signal(signal.SIGTERM)
            _, stderr = coordinator.communicate(timeout=60)
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait()
        assert coordinator.returncode != 0
        assert b"KeyboardInterrupt" in stderr
        assert not list(tmp_path.glob("repro-campaign-*"))
        assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]


class TestBackendsAndProgress:
    def test_progress_flag_reports_throughput_and_eta(self, tmp_path, capsys):
        assert run_cli("campaign", "figure5", "--axis", "client_id=1,2",
                       "--param", "num_packets=1", "--progress",
                       "--out", str(tmp_path / "campaign")) == 0
        err = capsys.readouterr().err
        assert "[2/2]" in err
        assert "shard/s" in err
        assert "ETA" in err
        heartbeat = ResultStore(tmp_path / "campaign").load_progress()
        assert heartbeat["done"] is True

    def test_file_queue_matches_serial_through_the_cli(self, tmp_path):
        common = ("figure5", "--axis", "client_id=1,2",
                  "--param", "num_packets=1", "--quiet")
        assert run_cli("campaign", *common, "--workers", "1",
                       "--out", str(tmp_path / "serial")) == 0
        assert run_cli("campaign", *common, "--workers", "2",
                       "--lease-timeout", "60",
                       "--out", str(tmp_path / "fq")) == 0
        assert ((tmp_path / "serial" / "merged.json").read_bytes()
                == (tmp_path / "fq" / "merged.json").read_bytes())

    @pytest.mark.parametrize("argv,flag", [
        (("campaign", "figure5", "--workers", "0"), "--workers 0"),
        (("campaign", "figure5", "--workers", "-1", "--out", "{out}"),
         "--workers"),
        (("campaign", "figure5", "--workers", "2", "--lease-timeout", "0",
          "--out", "{out}"), "--lease-timeout"),
        (("campaign", "figure5", "--max-attempts", "0", "--out", "{out}"),
         "--max-attempts"),
        (("worker", "--queue", "{out}", "--poll", "0"), "--poll"),
        (("worker", "--queue", "{out}", "--heartbeat", "0"), "--heartbeat"),
    ], ids=["workers-0-no-out", "workers-negative", "lease-timeout-0",
            "max-attempts-0", "poll-0", "heartbeat-0"])
    def test_bad_execution_options_exit_naming_the_flag(self, tmp_path,
                                                        argv, flag):
        out = tmp_path / "campaign"
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*(arg.format(out=out) for arg in argv))
        message = str(exit_info.value.code)
        assert message.startswith(flag)
        assert "\n" not in message
        assert not out.exists()  # rejected before the store was touched

    def test_worker_subcommand_drains_a_prebuilt_queue(self, tmp_path):
        from repro.campaign import get_adapter
        from repro.campaign.backends import FileQueue

        spec = get_adapter("figure5").default_spec(client_ids=(1, 2),
                                                   num_packets=1)
        store = ResultStore(tmp_path / "campaign")
        store.save_spec(spec)
        FileQueue(store.root).build(spec.compile())
        assert run_cli("worker", "--queue", str(store.root),
                       "--exit-when-empty", "--quiet", "--poll", "0.05") == 0
        assert store.completed_indices() == (0, 1)
        # Resuming merges the worker-written records without re-executing.
        assert run_cli("resume", str(store.root), "--quiet") == 0
        assert store.merged_path.exists()
