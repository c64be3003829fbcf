"""Versioned JSON persistence shared by the dispatch-table artifacts.

:class:`~repro.kernels.autotuner.TuningTable` and
:class:`~repro.registry.selector.SelectionTable` both ship as JSON
files a deployment carries between runs, and both need the same
failure semantics: a schema ``version`` field, and
:class:`~repro.errors.ConfigError` naming the path on unreadable,
corrupt, version-drifted or malformed payloads — never a raw
``json.JSONDecodeError``/``KeyError`` traceback.  This module is that
contract, written once.

Writes are **atomic**: the payload is serialised first, written to a
temporary file in the destination directory, and moved into place
with :func:`os.replace` — a concurrent reader sees either the old
payload or the new one, never a torn file, and a crash mid-write
leaves the old payload intact.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable

from repro.errors import ConfigError


def save_versioned_json(path: "str | Path", kind: str, version: int,
                        entries: dict) -> None:
    """Atomically write ``{"version": ..., "entries": ...}``.

    The payload is serialised (sorted, indented) *before* any file is
    touched, then written to a same-directory temp file and renamed
    over ``path`` with :func:`os.replace`.  Serialisation errors and
    interrupted writes therefore leave an existing file exactly as it
    was; no reader can ever observe a partially-written payload.
    """
    payload = {"version": version, "entries": entries}
    text = json.dumps(payload, indent=2, sort_keys=True)
    path = Path(path)
    directory = path.parent if str(path.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(dir=directory,
                                    prefix=f".{path.name}.",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        # Crash containment: never leave the temp file behind (and
        # never touch the destination, which os.replace guarantees).
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_versioned_json(path: "str | Path", kind: str, version: int, *,
                        allow_legacy: bool = False,
                        entry_ok: "Callable[[object], bool] | None" = None
                        ) -> dict:
    """Load and validate a versioned payload, returning its entries.

    ``allow_legacy`` accepts pre-version files (a bare entries
    mapping); ``entry_ok`` additionally validates each entry value.
    Every failure raises :class:`ConfigError` as ``"{kind} {path}:
    reason"``.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{kind} {path}: unreadable ({exc})") from None
    if not isinstance(payload, dict):
        raise ConfigError(
            f"{kind} {path}: expected a JSON object, got "
            f"{type(payload).__name__}")
    if "version" in payload:
        if payload["version"] != version:
            raise ConfigError(
                f"{kind} {path}: schema version {payload['version']!r} "
                f"!= supported {version}")
        entries = payload.get("entries")
    elif allow_legacy:
        entries = payload                   # legacy: bare entries map
    else:
        raise ConfigError(
            f"{kind} {path}: missing schema version (expected a "
            f"{{'version': {version}, 'entries': ...}} payload)")
    ok = entry_ok or (lambda value: isinstance(value, dict))
    if not isinstance(entries, dict) or not all(
            ok(value) for value in entries.values()):
        raise ConfigError(f"{kind} {path}: malformed entries")
    return entries
