"""Atomic persistence (``repro.utils.persist``).

The dispatch-table files are written atomically: a crash mid-write
leaves the old payload intact (temp file + ``os.replace``) and a
reader never sees a torn file.
"""

import json
import os

import pytest

from repro.utils.persist import load_versioned_json, save_versioned_json


def read_json(path):
    return json.loads(path.read_text())


def temp_files(directory):
    return [name for name in os.listdir(directory)
            if name.endswith(".tmp")]


class TestAtomicSave:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "table.json"
        save_versioned_json(path, "table", 1, {"k": {"v": 1}})
        assert load_versioned_json(path, "table", 1) == {"k": {"v": 1}}
        assert temp_files(tmp_path) == []

    def test_serialisation_error_leaves_old_payload_intact(self, tmp_path):
        """Simulated mid-write crash #1: the payload cannot serialise.

        json.dumps raises before any file is touched, so the old
        payload must survive byte for byte and no temp file may
        remain.
        """
        path = tmp_path / "table.json"
        save_versioned_json(path, "table", 1, {"k": {"v": 1}})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_versioned_json(path, "table", 1, {"bad": object()})
        assert path.read_bytes() == before
        assert temp_files(tmp_path) == []

    def test_replace_failure_leaves_old_payload_intact(self, tmp_path,
                                                       monkeypatch):
        """Simulated mid-write crash #2: the rename itself dies.

        The temp file was fully written but never moved into place —
        the destination must hold the old payload and the temp file
        must be cleaned up.
        """
        path = tmp_path / "table.json"
        save_versioned_json(path, "table", 1, {"k": {"v": 1}})
        before = path.read_bytes()

        def broken_replace(src, dst):
            raise OSError("disk pulled")

        import repro.utils.persist as persist
        monkeypatch.setattr(persist.os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk pulled"):
            save_versioned_json(path, "table", 1, {"k": {"v": 2}})
        assert path.read_bytes() == before
        assert temp_files(tmp_path) == []

    def test_payload_is_sorted_and_versioned(self, tmp_path):
        path = tmp_path / "table.json"
        save_versioned_json(path, "table", 3, {"b": {}, "a": {}})
        payload = read_json(path)
        assert payload["version"] == 3
        assert list(payload["entries"]) == ["a", "b"]
