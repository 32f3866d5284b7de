"""Tests for the declarative policy layer (``repro.security.policy_file``)."""

import json

import pytest

from repro import analyze, workloads
from repro.errors import PolicyError
from repro.security.policy import PUBLIC, SECRET, Clearance, TwoLevelPolicy, check_policy
from repro.security.policy_file import (
    POLICY_KEYS,
    DeclaredPolicy,
    PolicyFileError,
    load_policy_file,
    policy_from_dict,
    policy_to_dict,
)

TWO_LEVEL_TOML = """\
name = "two-level"
mode = "channel-control"
default = "public"

[levels]
public = 0
secret = 1

[resources]
key = "secret"

[[allow]]
from = "public"
to = "secret"
"""


@pytest.fixture
def toml_policy(tmp_path):
    path = tmp_path / "two_level.toml"
    path.write_text(TWO_LEVEL_TOML, encoding="utf-8")
    return path


class TestLoading:
    def test_toml_file_loads(self, toml_policy):
        policy = load_policy_file(toml_policy)
        assert isinstance(policy, DeclaredPolicy)
        assert policy.name == "two-level"
        assert policy.transitive is False
        assert policy.level_of("key").name == "secret"
        assert policy.level_of("anything_else").name == "public"
        assert policy.allows(policy.level_of("x"), policy.level_of("key"))
        assert not policy.allows(policy.level_of("key"), policy.level_of("x"))

    def test_json_file_loads(self, tmp_path):
        document = {
            "levels": {"low": 0, "high": 1},
            "resources": {"k": "high"},
            "allow": [{"from": "low", "to": "high"}],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        policy = load_policy_file(path)
        assert policy.level_of("k").name == "high"
        assert policy.default_level.name == "low"  # lowest rank is the default

    def test_malformed_toml_carries_file_context(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("levels = [not toml", encoding="utf-8")
        with pytest.raises(PolicyFileError) as excinfo:
            load_policy_file(path)
        assert "broken.toml" in str(excinfo.value)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_policy_file(tmp_path / "nope.toml")


class TestValidation:
    def base(self, **overrides):
        document = {
            "levels": {"public": 0, "secret": 1},
            "resources": {"key": "secret"},
            "allow": [{"from": "public", "to": "secret"}],
        }
        document.update(overrides)
        return document

    def test_unknown_top_level_key(self):
        with pytest.raises(PolicyFileError) as excinfo:
            policy_from_dict(self.base(surprise=1), context="doc")
        message = str(excinfo.value)
        assert "doc" in message and "surprise" in message

    def test_unknown_level_in_resources_names_the_key(self):
        with pytest.raises(PolicyFileError) as excinfo:
            policy_from_dict(self.base(resources={"key": "pubic"}))
        message = str(excinfo.value)
        assert "resources.'key'" in message and "pubic" in message

    def test_unknown_level_in_allow_names_the_position(self):
        with pytest.raises(PolicyFileError) as excinfo:
            policy_from_dict(self.base(allow=[{"from": "public", "to": "nope"}]))
        assert "allow[0].to" in str(excinfo.value)

    def test_bad_mode(self):
        with pytest.raises(PolicyFileError) as excinfo:
            policy_from_dict(self.base(mode="sideways"))
        assert "mode" in str(excinfo.value)

    def test_levels_required_and_nonempty(self):
        with pytest.raises(PolicyFileError):
            policy_from_dict({"resources": {}})
        with pytest.raises(PolicyFileError):
            policy_from_dict({"levels": {}})

    def test_boolean_rank_is_rejected(self):
        with pytest.raises(PolicyFileError):
            policy_from_dict(self.base(levels={"public": 0, "secret": True}))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"levels": {"public": 0, "secret\ud800": 1}},
            {"resources": {"key\udc80": "secret"}},
            {"description": "\udfff"},
        ],
        ids=["level", "resource", "description"],
    )
    def test_a_lone_surrogate_is_rejected(self, tmp_path, overrides):
        # No document can carry such a string as UTF-8 text, so a policy
        # whose names a check document would echo must not load.
        with pytest.raises(PolicyFileError, match="lone surrogate"):
            policy_from_dict(self.base(**overrides))
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(self.base(**overrides)), encoding="utf-8")
        with pytest.raises(PolicyFileError, match="lone surrogate"):
            load_policy_file(path)

    def test_policy_file_error_is_a_policy_error(self):
        with pytest.raises(PolicyError):
            policy_from_dict({"levels": {}})


class TestPatterns:
    def test_fnmatch_wildcards_apply_in_order(self):
        policy = policy_from_dict(
            {
                "levels": {"public": 0, "secret": 1},
                "resources": {"debug_*": "public", "*": "secret"},
            }
        )
        assert policy.level_of("debug_port").name == "public"
        assert policy.level_of("key").name == "secret"

    def test_exact_names_beat_patterns(self):
        policy = policy_from_dict(
            {
                "levels": {"public": 0, "secret": 1},
                "resources": {"k*": "secret", "klaxon": "public"},
            }
        )
        assert policy.level_of("klaxon").name == "public"
        assert policy.level_of("key").name == "secret"

    def test_environment_nodes_share_the_base_level(self):
        policy = policy_from_dict(
            {"levels": {"public": 0, "secret": 1}, "resources": {"key*": "secret"}}
        )
        assert policy.level_of("key○").name == "secret"  # key○


class TestRoundTrip:
    def test_declared_policy_round_trips(self, toml_policy):
        policy = load_policy_file(toml_policy)
        document = policy_to_dict(policy)
        again = policy_from_dict(document)
        assert policy_to_dict(again) == document
        assert again.levels == policy.levels
        assert again.permitted == policy.permitted
        assert again.default_level == policy.default_level
        assert again.transitive == policy.transitive

    def test_two_level_policy_serialises(self):
        document = policy_to_dict(TwoLevelPolicy(secret_resources=["key", "iv"]))
        assert document["levels"] == {"public": 0, "secret": 1}
        assert document["resources"] == {"iv": "secret", "key": "secret"}
        assert document["allow"] == [{"from": "public", "to": "secret"}]
        rebuilt = policy_from_dict(document)
        assert rebuilt.level_of("key") == Clearance(1, "secret")

    def test_transitive_mode_round_trips(self):
        policy = policy_from_dict(
            {"mode": "transitive", "levels": {"l": 0, "h": 1}}
        )
        assert policy.transitive is True
        assert policy_to_dict(policy)["mode"] == "transitive"


class TestEquivalenceWithInCodePolicy:
    """A policy expressed only as data matches the in-code FlowPolicy."""

    def test_same_violations_on_the_flow_graph(self, toml_policy):
        result = analyze(workloads.challenge_f_program())
        declared = check_policy(result.graph, load_policy_file(toml_policy))
        in_code = check_policy(
            result.graph, TwoLevelPolicy(secret_resources=["key"])
        )
        assert declared == in_code
        assert declared  # the design does leak key into t

    def test_key_order_in_policy_keys_is_stable(self):
        # docs/api.md's key table is gated against this tuple.
        assert POLICY_KEYS == (
            "name", "description", "mode", "default", "levels", "resources", "allow",
            "lint",
        )


class TestSerialisationConflicts:
    def test_conflicting_ranks_for_one_level_name_are_refused(self):
        from repro.security.policy import FlowPolicy

        policy = FlowPolicy(
            levels={"x": Clearance(2, "l")}, default_level=Clearance(0, "l")
        )
        with pytest.raises(PolicyFileError) as excinfo:
            policy_to_dict(policy)
        assert "conflicting ranks" in str(excinfo.value)
