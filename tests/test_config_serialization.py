"""Canonical CoreConfig (de)serialization and validation.

CoreConfig.to_dict/from_dict/digest are the single source of truth for a
*design point*; fuzz artifacts, campaign manifests and the sweep CLI all
call them directly. The validation tests pin the actionable-error contract of
``__post_init__`` for every axis a config file can carry.
"""

import pytest

from repro.core.config import (
    CoreConfig,
    FREE_LIST_DISCIPLINES,
    RECOVERY_STRATEGIES,
    paper_rrs_config,
)
from repro.isa.instructions import Opcode


class TestRoundTrip:
    def test_default_round_trips(self):
        config = CoreConfig()
        assert CoreConfig.from_dict(config.to_dict()) == config

    def test_custom_round_trips(self):
        config = CoreConfig(
            width=2,
            num_physical_regs=64,
            rob_entries=32,
            latencies={Opcode.MUL: 5, Opcode.LD: 3},
            zero_idiom_elimination=True,
            free_list_discipline="stack",
            recovery_strategy="rob-walk",
        )
        clone = CoreConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.latencies == {Opcode.MUL: 5, Opcode.LD: 3}

    def test_issue_width_emitted_resolved(self):
        """The 0 sentinel never reaches disk: to_dict emits the resolved
        value, so a round trip compares equal."""
        config = CoreConfig(width=4)  # issue_width resolves to 4
        data = config.to_dict()
        assert data["issue_width"] == 4
        assert CoreConfig.from_dict(data) == config

    def test_latency_keys_are_opcode_names(self):
        data = CoreConfig().to_dict()
        assert all(isinstance(k, str) for k in data["latencies"])
        assert data["latencies"][Opcode.DIV.value] == 12

    def test_unknown_keys_ignored(self):
        data = CoreConfig().to_dict()
        data["some_future_axis"] = "whatever"
        assert CoreConfig.from_dict(data) == CoreConfig()

    def test_absent_keys_default(self):
        """A file written before an axis existed loads as the default."""
        data = CoreConfig().to_dict()
        del data["free_list_discipline"]
        del data["recovery_strategy"]
        del data["latencies"]
        config = CoreConfig.from_dict(data)
        assert config.free_list_discipline == "fifo"
        assert config.recovery_strategy == "checkpoint"
        assert config.latencies == CoreConfig().latencies

    def test_json_safe(self):
        import json

        payload = json.dumps(CoreConfig().to_dict(), sort_keys=True)
        assert CoreConfig.from_dict(json.loads(payload)) == CoreConfig()


class TestDigest:
    def test_stable(self):
        assert CoreConfig().digest() == CoreConfig().digest()

    def test_sensitive_to_every_policy_axis(self):
        base = CoreConfig().digest()
        assert CoreConfig(width=2).digest() != base
        assert CoreConfig(free_list_discipline="stack").digest() != base
        assert CoreConfig(recovery_strategy="rob-walk").digest() != base
        assert CoreConfig(latencies={Opcode.MUL: 7}).digest() != base


class TestArtifactDelegation:
    """Fuzz artifacts store configs through CoreConfig itself."""

    def test_old_artifact_config_loads(self):
        """Corpus artifacts written before the policy axes existed carry
        neither key; they must load as the paper's defaults."""
        data = CoreConfig().to_dict()
        data.pop("free_list_discipline")
        data.pop("recovery_strategy")
        config = CoreConfig.from_dict(data)
        assert config == CoreConfig()


class TestValidation:
    def test_width_must_be_positive(self):
        with pytest.raises(ValueError, match="width must be >= 1"):
            CoreConfig(width=0)

    def test_issue_width_capped_by_width(self):
        with pytest.raises(ValueError, match="issue_width 8 exceeds width 4"):
            CoreConfig(width=4, issue_width=8)

    def test_issue_width_equal_to_width_ok(self):
        assert CoreConfig(width=4, issue_width=4).issue_width == 4

    @pytest.mark.parametrize(
        "name",
        [
            "issue_queue_entries",
            "fetch_buffer_entries",
            "store_queue_entries",
            "recovery_walk_width",
            "memory_limit",
            "predictor_entries",
            "predictor_history_bits",
            "deadlock_cycles",
        ],
    )
    def test_structural_axes_require_at_least_one(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
            CoreConfig(**{name: 0})

    def test_recovery_walk_width_error_names_value(self):
        with pytest.raises(
            ValueError, match="recovery_walk_width must be >= 1, got -3"
        ):
            CoreConfig(recovery_walk_width=-3)

    def test_unknown_discipline_rejected(self):
        with pytest.raises(
            ValueError, match="unknown free_list_discipline 'lifo'"
        ):
            CoreConfig(free_list_discipline="lifo")

    def test_unknown_recovery_rejected(self):
        with pytest.raises(
            ValueError, match="unknown recovery_strategy 'walk'"
        ):
            CoreConfig(recovery_strategy="walk")

    def test_known_axis_values_all_construct(self):
        for discipline in FREE_LIST_DISCIPLINES:
            for recovery in RECOVERY_STRATEGIES:
                config = paper_rrs_config(
                    free_list_discipline=discipline,
                    recovery_strategy=recovery,
                )
                assert config.free_list_discipline == discipline
                assert config.recovery_strategy == recovery
