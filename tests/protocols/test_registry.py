"""The protocol plugin registry: lookup, registration, n(f) rules.

The registration contract shared by every axis is also checked in
``tests/test_registry_contract.py``.
"""

import pytest

import repro.protocols as protocols
from repro import ProtocolConfig
from repro.errors import ConfigError
from repro.harness.cluster import build_cluster
from repro.protocols import OrderProtocol, check_n_rule


def test_builtins_register_in_paper_order():
    assert protocols.names()[:4] == ("sc", "scr", "bft", "ct")


def test_get_returns_singleton_plugins():
    assert protocols.get("sc") is protocols.get("sc")
    assert protocols.get("sc").name == "sc"


def test_unknown_protocol_is_config_error():
    with pytest.raises(ConfigError, match="unknown protocol 'paxos'"):
        protocols.get("paxos")


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigError, match="already registered"):
        protocols.register(protocols.get("sc"))


def test_registration_requires_a_name():
    with pytest.raises(ConfigError, match="no name"):
        protocols.register(OrderProtocol())


def test_replace_allows_shadowing():
    original = protocols.get("sc")
    shadow = protocols.ScPlugin()
    try:
        protocols.register(shadow, replace=True)
        assert protocols.get("sc") is shadow
        assert protocols.get("sc") is not original
    finally:
        protocols.register(original, replace=True)
    assert protocols.get("sc") is original


@pytest.mark.parametrize(
    ("name", "expected"),
    [("sc", 3 * 2 + 1), ("scr", 3 * 2 + 2), ("bft", 3 * 2 + 1), ("ct", 2 * 2 + 1)],
)
def test_n_rules_at_f2(name, expected):
    assert protocols.get(name).n(2) == expected


@pytest.mark.parametrize("name", ["sc", "scr", "bft", "ct"])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_n_rule_matches_deployed_process_names(name, f):
    plugin = protocols.get(name)
    config = plugin.default_config(f=f)
    check_n_rule(plugin, config)
    assert len(plugin.process_names(config)) == plugin.n(f)


def test_failover_capable_names():
    assert set(protocols.failover_capable()) == {"sc", "scr"}


def test_validate_rejects_variant_mismatch():
    with pytest.raises(ConfigError, match="variant"):
        protocols.get("scr").validate(ProtocolConfig(f=1, variant="sc"))
    with pytest.raises(ConfigError, match="variant"):
        protocols.get("sc").validate(ProtocolConfig(f=1, variant="scr"))


def test_configure_builds_validated_config():
    config = protocols.get("scr").configure(scheme="md5-rsa1024", f=3)
    assert config.variant == "scr"
    assert config.f == 3
    assert config.scheme.name == "md5-rsa1024"


def test_ct_resolves_every_scheme_to_plain():
    plugin = protocols.get("ct")
    assert plugin.resolve_scheme("md5-rsa1024").name == "plain"
    assert plugin.reported_scheme("sha1-dsa1024") == "plain"


def test_custom_plugin_is_buildable_by_name():
    """A registered plugin immediately works through build_cluster —
    the registry is the only protocol dispatch point."""

    class TinyCt(protocols.CtPlugin):
        name = "tiny-ct"
        description = "CT with a fixed single-fault deployment"

    protocols.register(TinyCt())
    try:
        cluster = build_cluster("tiny-ct", ProtocolConfig(f=1))
        assert cluster.protocol == "tiny-ct"
        assert set(cluster.processes) == {"p1", "p2", "p3"}
        assert cluster.coordinator_name == "p1"
        assert "tiny-ct" in protocols.names()
    finally:
        protocols.unregister("tiny-ct")
    with pytest.raises(ConfigError):
        protocols.get("tiny-ct")
