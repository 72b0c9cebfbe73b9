"""On-disk content-hash cache for ``repro-lint``.

Whole-program analysis is the expensive part of the linter; the cache
makes warm full-tree runs effectively free.  Two tables, both keyed by
content hashes so stale entries are structurally impossible:

- ``per_file``: ``sha256(file bytes) + selected rule IDs`` -> the
  per-file diagnostics of that exact content.  Any edit changes the
  hash; an unchanged file skips parsing entirely.
- ``project``: ``sha256 over the sorted (path, file-hash) pairs of every
  package file + selected rule IDs`` -> the flow diagnostics.  Editing,
  adding, renaming, or deleting *any* package file changes the key, so
  interprocedural results can never go stale.

Both tables are additionally namespaced by a *version token* — a hash of
every source file of the lint package itself — so upgrading the linter
(new rules, fixed analyses) invalidates everything at once.  The cache
file is a single JSON document; a corrupt or unreadable cache degrades
to a cold run, never to an error.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

from ..diagnostics import Diagnostic

#: Default cache directory, resolved relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-lint-cache"

#: Entries beyond this count are dropped wholesale on save (the cache is
#: content-addressed, so eviction correctness is trivial).
MAX_FILE_ENTRIES = 4096


def content_hash(data: bytes | str) -> str:
    """sha256 hex digest of file content."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@functools.lru_cache(maxsize=1)
def version_token() -> str:
    """Hash of the lint package's own sources (cached per process)."""
    digest = hashlib.sha256()
    package_root = Path(__file__).resolve().parents[1]
    for source in sorted(package_root.rglob("*.py")):
        digest.update(source.name.encode())
        digest.update(source.read_bytes())
    return digest.hexdigest()


def rules_token(rule_ids) -> str:
    """Stable token for a rule selection (None means "all")."""
    return ",".join(sorted(rule_ids)) if rule_ids is not None else "*"


def project_hash(pairs) -> str:
    """Hash over sorted ``(path, file_hash)`` pairs of the package files."""
    digest = hashlib.sha256()
    for path, file_hash in sorted(pairs):
        digest.update(str(path).encode())
        digest.update(file_hash.encode())
    return digest.hexdigest()


def _encode(diagnostics) -> list[list]:
    return [
        [d.path, d.line, d.col, d.rule_id, d.message, d.hint]
        for d in diagnostics
    ]


def _decode(rows) -> list[Diagnostic]:
    return [
        Diagnostic(
            path=row[0], line=row[1], col=row[2], rule_id=row[3],
            message=row[4], hint=row[5],
        )
        for row in rows
    ]


class LintCache:
    """The cache file plus its in-memory working copy."""

    def __init__(self, directory: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.directory = Path(directory)
        self.path = self.directory / "cache.json"
        self._dirty = False
        self._data = {"version": version_token(), "per_file": {}, "project": {}}
        try:
            loaded = json.loads(self.path.read_text(encoding="utf-8"))
            if (
                isinstance(loaded, dict)
                and loaded.get("version") == self._data["version"]
                and isinstance(loaded.get("per_file"), dict)
                and isinstance(loaded.get("project"), dict)
            ):
                self._data = loaded
        except (OSError, ValueError):
            pass  # cold start

    # ------------------------------------------------------------------
    def get_file(self, file_hash: str, token: str) -> list[Diagnostic] | None:
        """Cached per-file diagnostics, or None on a miss."""
        rows = self._data["per_file"].get(f"{file_hash}:{token}")
        if rows is None:
            return None
        try:
            return _decode(rows)
        except (IndexError, TypeError):
            return None

    def put_file(self, file_hash: str, token: str, diagnostics) -> None:
        """Store per-file diagnostics under ``file_hash`` + rule token."""
        self._data["per_file"][f"{file_hash}:{token}"] = _encode(diagnostics)
        self._dirty = True

    def get_project(self, tree_hash: str, token: str) -> list[Diagnostic] | None:
        """Cached whole-program diagnostics, or None on a miss."""
        rows = self._data["project"].get(f"{tree_hash}:{token}")
        if rows is None:
            return None
        try:
            return _decode(rows)
        except (IndexError, TypeError):
            return None

    def put_project(self, tree_hash: str, token: str, diagnostics) -> None:
        """Store whole-program diagnostics under ``tree_hash`` + rule token."""
        self._data["project"][f"{tree_hash}:{token}"] = _encode(diagnostics)
        self._dirty = True

    # ------------------------------------------------------------------
    def save(self) -> None:
        """Persist if anything changed; I/O failures are non-fatal."""
        if not self._dirty:
            return
        if len(self._data["per_file"]) > MAX_FILE_ENTRIES:
            self._data["per_file"] = {}
        if len(self._data["project"]) > MAX_FILE_ENTRIES:
            self._data["project"] = {}
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self._data), encoding="utf-8")
            tmp.replace(self.path)
            self._dirty = False
        except OSError:
            pass
