"""Tests for Calibration JSON round-tripping (strict schema).

The serialised form is what ``--calibration FILE`` loads and what the
online calibrator could persist; the schema is strict — unknown fields,
wrong kinds and wrong value types are all rejected loudly, so a stale
or hand-mangled file never silently half-applies.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.apps import get_app
from repro.core.calibration import (
    CALIBRATION_KIND,
    CALIBRATION_SCHEMA,
    Calibration,
    DEFAULT_CALIBRATION,
)
from repro.errors import ConfigurationError


class TestRoundTrip:
    def test_default_round_trips(self):
        restored = Calibration.from_json(DEFAULT_CALIBRATION.to_json())
        assert restored == DEFAULT_CALIBRATION

    def test_modified_round_trips(self):
        calibration = DEFAULT_CALIBRATION.with_options(
            core_speed_up=0.9, task_overhead_up=1.61, scheduler_policy="fair"
        )
        restored = Calibration.from_json(calibration.to_json())
        assert restored == calibration
        assert restored.core_speed_up == 0.9
        assert restored.scheduler_policy == "fair"

    def test_json_is_deterministic(self):
        assert DEFAULT_CALIBRATION.to_json() == DEFAULT_CALIBRATION.to_json()
        # sort_keys: byte-identical regardless of construction order.
        a = DEFAULT_CALIBRATION.with_options(core_speed_up=0.9, heap_up=2.0)
        b = DEFAULT_CALIBRATION.with_options(heap_up=2.0, core_speed_up=0.9)
        assert a.to_json() == b.to_json()

    def test_payload_is_versioned(self):
        payload = DEFAULT_CALIBRATION.to_dict()
        assert payload["kind"] == CALIBRATION_KIND
        assert payload["schema"] == CALIBRATION_SCHEMA

    def test_missing_fields_keep_defaults(self):
        payload = {
            "kind": CALIBRATION_KIND,
            "schema": CALIBRATION_SCHEMA,
            "fields": {"core_speed_up": 0.8},
        }
        restored = Calibration.from_dict(payload)
        assert restored.core_speed_up == 0.8
        assert restored.task_overhead_up == DEFAULT_CALIBRATION.task_overhead_up


class TestStrictRejection:
    def base_payload(self, **fields):
        return {
            "kind": CALIBRATION_KIND,
            "schema": CALIBRATION_SCHEMA,
            "fields": fields,
        }

    def test_unknown_field_rejected(self):
        payload = self.base_payload(core_speed_up=0.9, warp_factor=9.0)
        with pytest.raises(ConfigurationError, match="warp_factor"):
            Calibration.from_dict(payload)

    def test_wrong_kind_rejected(self):
        payload = self.base_payload()
        payload["kind"] = "something-else"
        with pytest.raises(ConfigurationError, match="kind"):
            Calibration.from_dict(payload)

    def test_wrong_schema_rejected(self):
        payload = self.base_payload()
        payload["schema"] = CALIBRATION_SCHEMA + 1
        with pytest.raises(ConfigurationError, match="schema"):
            Calibration.from_dict(payload)

    def test_fields_must_be_object(self):
        payload = self.base_payload()
        payload["fields"] = [1, 2, 3]
        with pytest.raises(ConfigurationError):
            Calibration.from_dict(payload)

    def test_wrong_value_type_rejected(self):
        with pytest.raises(ConfigurationError, match="core_speed_up"):
            Calibration.from_dict(self.base_payload(core_speed_up="fast"))

    def test_bool_is_not_a_number(self):
        # bool is an int subclass; the schema must still reject it.
        with pytest.raises(ConfigurationError, match="core_speed_up"):
            Calibration.from_dict(self.base_payload(core_speed_up=True))

    def test_int_field_rejects_bool_and_float(self):
        with pytest.raises(ConfigurationError, match="replication"):
            Calibration.from_dict(self.base_payload(replication=True))
        with pytest.raises(ConfigurationError, match="replication"):
            Calibration.from_dict(self.base_payload(replication=2.5))

    def test_float_field_accepts_int(self):
        restored = Calibration.from_dict(self.base_payload(core_speed_up=1))
        assert restored.core_speed_up == 1.0
        assert isinstance(restored.core_speed_up, float)

    def test_not_an_object_rejected(self):
        with pytest.raises(ConfigurationError):
            Calibration.from_dict(["not", "a", "dict"])

    def test_invalid_json_text_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            Calibration.from_json("{not json")


class TestSaveLoad:
    def test_save_then_load(self, tmp_path):
        calibration = DEFAULT_CALIBRATION.with_options(core_speed_up=0.9)
        path = calibration.save(tmp_path / "cal.json")
        assert path.exists()
        assert Calibration.load(path) == calibration

    def test_saved_file_is_valid_json(self, tmp_path):
        path = DEFAULT_CALIBRATION.save(tmp_path / "cal.json")
        payload = json.loads(path.read_text())
        assert payload["kind"] == CALIBRATION_KIND

    def test_cli_loads_saved_calibration(self, tmp_path, capsys):
        """--calibration FILE is honoured by the run command."""
        from repro.cli import main

        path = DEFAULT_CALIBRATION.with_options(core_speed_up=0.9).save(
            tmp_path / "cal.json"
        )
        code = main([
            "run", "--app", "wordcount", "--size", "1GB",
            "--arch", "Hybrid", "--calibration", str(path),
        ])
        assert code == 0
        assert "execution time" in capsys.readouterr().out

    def test_cli_rejects_mangled_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "repro-calibration", "schema": 1, '
                       '"fields": {"warp_factor": 9}}')
        code = main([
            "run", "--size", "1GB", "--calibration", str(bad),
        ])
        assert code == 1
        assert "warp_factor" in capsys.readouterr().err


class TestCalibrateToolStartsFromTheFrozenModel:
    """``tools/calibrate.py --quick`` scores exactly what ships."""

    @pytest.fixture(scope="class")
    def tool(self):
        path = Path(__file__).parents[1] / "tools" / "calibrate.py"
        spec = importlib.util.spec_from_file_location("calibrate_tool", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_start_is_the_default_calibration(self, tool):
        assert tool.make_calibration(tool.START) == DEFAULT_CALIBRATION

    def test_start_is_the_registered_apps(self, tool):
        apps = tool.make_apps(tool.START)
        assert apps == {name: get_app(name) for name in apps}
