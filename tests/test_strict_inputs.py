"""External inputs decode strictly and range-check their seeds.

Spec documents and serve request lines are typed by the dataclasses they
decode into: a JSON value of the wrong scalar type is an error naming the
value, never a lenient coercion (``bool("false")`` is ``True``).  Seeds and
stream numbers must be non-negative integers, checked where the spec is
built so the error names the field instead of failing inside numpy.
"""

import asyncio
import json

import pytest

from repro.aoa.estimator import EstimatorConfig
from repro.api.spec import AccessPointSpec, ScenarioSpec
from repro.campaign import CampaignSpec
from repro.campaign.cli import main
from repro.serve import SecureAngleService, ServeConfig, TenantConfig, resolve_scenario
from repro.serve.smoke import SmokeClient


def _submit_reply(request):
    """The service's reply to one submit line carrying ``request``."""

    async def scenario():
        config = TenantConfig(name="main", spec=resolve_scenario("figure5"))
        service = SecureAngleService([config], ServeConfig(port=0))
        await service.start()
        reader, writer = await asyncio.open_connection(*service.tcp_address)
        try:
            client = SmokeClient(reader, writer)
            await client.receive_op("hello")
            writer.write((json.dumps({"op": "submit", "tenant": "main",
                                      "request": request}) + "\n").encode())
            await writer.drain()
            return json.loads(await reader.readline())
        finally:
            writer.close()
            await service.stop()

    return asyncio.run(scenario())


def _decode_error(via, document):
    """The error text for ``document`` decoded through ``via``."""
    if via == "serve":
        reply = _submit_reply(document)
        assert reply["op"] == "error"
        return reply["error"]
    decoder = {"scenario": ScenarioSpec, "campaign": CampaignSpec}[via]
    with pytest.raises((TypeError, ValueError)) as error:
        decoder.from_json(json.dumps(document))
    return str(error.value)


@pytest.mark.parametrize("via, document, value", [
    ("scenario", {"fence": {"fail_open": "false"}}, "'false'"),
    ("scenario", {"fence": {"fail_open": 0}}, "0"),
    ("scenario", {"seed": 2.9}, "2.9"),
    ("scenario", {"seed": "7"}, "'7'"),
    ("scenario", {"seed": True}, "True"),
    ("scenario", {"fence": {"margin_m": "1.0"}}, "'1.0'"),
    ("scenario", {"name": 5}, "5"),
    ("campaign", {"seeds": [1, 2.5]}, "2.5"),
    ("campaign", {"num_seeds": "3"}, "'3'"),
    ("campaign", {"experiment": False}, "False"),
    ("serve", {"client_id": "7"}, "'7'"),
    ("serve", {"client_id": 7, "timestamp_s": "1.5"}, "'1.5'"),
], ids=["bool-from-string", "bool-from-int", "int-from-float",
        "int-from-string", "int-from-bool", "float-from-string",
        "str-from-int", "campaign-seeds-float", "campaign-int-from-string",
        "campaign-str-from-bool", "serve-int-from-string",
        "serve-float-from-string"])
def test_wrong_scalar_types_are_errors_naming_the_value(via, document, value):
    assert value in _decode_error(via, document)


def test_exact_scalar_types_still_decode():
    spec = ScenarioSpec.from_json(json.dumps(
        {"seed": 3, "fence": {"margin_m": 2, "fail_open": True}}))
    assert spec.seed == 3
    assert spec.fence.fail_open is True
    assert isinstance(spec.fence.margin_m, float) and spec.fence.margin_m == 2.0


def _campaign_cli(seeds):
    return main(["campaign", "figure5", f"--seeds={seeds}",
                 "--param", "num_packets=1", "--axis", "client_id=1"])


@pytest.mark.parametrize("build, field", [
    (lambda: ScenarioSpec(seed=-1), "seed"),
    (lambda: ScenarioSpec(client_address_seed=-1), "client_address_seed"),
    (lambda: ScenarioSpec(attacker_address_stream=-3), "attacker_address_stream"),
    (lambda: AccessPointSpec(name="a", seed=-1), "seed"),
    (lambda: AccessPointSpec(name="a", rng_stream=-2), "rng_stream"),
    (lambda: CampaignSpec(seed=-1), "seed"),
    (lambda: CampaignSpec(seeds=(3, -1)), "seeds"),
    (lambda: _campaign_cli("-1"), "--seeds"),
    (lambda: _campaign_cli("4,-7"), "--seeds"),
], ids=["scenario-seed", "client-address-seed", "attacker-address-stream",
        "ap-seed", "ap-rng-stream", "campaign-seed", "campaign-seeds",
        "cli-seeds", "cli-seeds-list"])
def test_negative_seeds_and_streams_name_their_field(build, field):
    with pytest.raises((ValueError, SystemExit)) as error:
        build()
    message = str(error.value)
    assert field in message
    assert "non-negative integer" in message
    assert "\n" not in message
    if field == "--seeds":
        assert error.type is SystemExit and message.startswith("--seeds")


@pytest.mark.parametrize("build", [
    lambda: EstimatorConfig(source_count_method="mld"),
    lambda: ScenarioSpec.from_json(json.dumps(
        {"estimator": {"source_count_method": "mld"}})),
    lambda: ScenarioSpec.from_json(json.dumps(
        {"access_points": [{"name": "a", "estimator": {"source_count_method": "mld"}}]})),
], ids=["config", "scenario-estimator", "ap-estimator"])
def test_unknown_source_count_method_fails_when_built(build):
    # Not at the first analysed packet: the config itself refuses it.
    with pytest.raises(ValueError,
                       match=r"unknown source-count method 'mld'; did you mean 'mdl'\?"):
        build()
