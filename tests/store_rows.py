"""Read and edit a ``SessionStore``'s rows directly, as damage or another build would.

Rows are named ``(fingerprint, key)``: ``key`` is ``"manifest"`` or
``"derived"`` for a graph's own payloads, or an entry's key digest.  Every
edit goes through a connection of its own, so the store's triggers move
the graph's generation exactly as another writer's would.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sqlite3
import time
from pathlib import Path
from typing import Any, Iterator

from repro.service.store import DATABASE_NAME
from repro.utils.canonical import canonical_json

GRAPH_KEYS = ("manifest", "derived")


@contextlib.contextmanager
def connect(root: Path) -> Iterator[sqlite3.Connection]:
    """An autocommit connection to the store database under ``root``."""
    db = sqlite3.connect(Path(root) / DATABASE_NAME, isolation_level=None)
    try:
        yield db
    finally:
        db.close()


def rows(root: Path) -> dict[tuple[str, str], tuple[str, str, str]]:
    """Every row's kind, payload text and checksum, by ``(fingerprint, key)``.

    A store that has no database yet (it is created by the first save) has none.
    """
    if not (Path(root) / DATABASE_NAME).exists():
        return {}
    with connect(root) as db:
        found = db.execute(
            "SELECT fingerprint, 'manifest', 'manifest', manifest, manifest_checksum FROM graphs "
            "UNION ALL SELECT fingerprint, 'derived', 'derived', derived, derived_checksum "
            "FROM graphs WHERE derived IS NOT NULL "
            "UNION ALL SELECT fingerprint, key, kind, payload, checksum "
            "FROM entries JOIN graphs ON graphs.id = entries.graph"
        ).fetchall()
    return {(fingerprint, key): (kind, text, checksum) for fingerprint, key, kind, text, checksum in found}


def written(root: Path) -> dict[tuple[str, str], float]:
    """Every entry row's write time, by ``(fingerprint, key)``."""
    if not (Path(root) / DATABASE_NAME).exists():
        return {}
    with connect(root) as db:
        found = db.execute(
            "SELECT fingerprint, key, entries.written FROM entries JOIN graphs ON graphs.id = entries.graph"
        ).fetchall()
    return {(fingerprint, key): when for fingerprint, key, when in found}


def entries(root: Path, kind: str | None = None) -> list[tuple[str, str]]:
    """Every entry row (of ``kind``, if given), sorted."""
    return sorted(
        name for name, row in rows(root).items() if name[1] not in GRAPH_KEYS and kind in (None, row[0])
    )


def payload(root: Path, name: tuple[str, str]) -> dict[str, Any]:
    """The payload a row holds."""
    return json.loads(rows(root)[name][1])


def edit_row(
    root: Path,
    name: tuple[str, str],
    document: Any = None,
    *,
    text: str | None = None,
    checksum: str | None = None,
    lie: bool = False,
    kind: str | None = None,
) -> None:
    """Store ``document`` (canonically encoded) or ``text`` in the row ``name``.

    The row's checksum becomes ``checksum`` if given, its old one with
    ``lie`` (so the checksum no longer matches), or else the SHA-256 of the
    text.  An entry row that does not exist is inserted with ``kind``.
    """
    fingerprint, key = name
    if text is None:
        text = canonical_json(document)
    if lie:
        checksum = rows(root)[name][2]
    elif checksum is None:
        checksum = hashlib.sha256(text.encode("utf-8")).hexdigest()
    with connect(root) as db:
        if key in GRAPH_KEYS:
            db.execute(
                f"UPDATE graphs SET {key} = ?, {key}_checksum = ? WHERE fingerprint = ?",
                (text, checksum, fingerprint),
            )
        elif kind is None:
            db.execute(
                "UPDATE entries SET payload = ?, checksum = ? "
                "WHERE key = ? AND graph = (SELECT id FROM graphs WHERE fingerprint = ?)",
                (text, checksum, key, fingerprint),
            )
        else:
            db.execute(
                "INSERT INTO entries (graph, key, kind, payload, checksum, written) "
                "VALUES ((SELECT id FROM graphs WHERE fingerprint = ?), ?, ?, ?, ?, ?)",
                (fingerprint, key, kind, text, checksum, time.time()),
            )


def tamper(root: Path, name: tuple[str, str], change) -> None:
    """Apply ``change`` to a row's payload and leave its checksum lying."""
    document = payload(root, name)
    change(document)
    edit_row(root, name, document, lie=True)


def delete_row(root: Path, name: tuple[str, str]) -> None:
    """Delete one row; deleting a manifest drops the whole graph."""
    fingerprint, key = name
    with connect(root) as db:
        if key == "manifest":
            db.execute("DELETE FROM graphs WHERE fingerprint = ?", (fingerprint,))
        elif key == "derived":
            db.execute(
                "UPDATE graphs SET derived = NULL, derived_checksum = NULL WHERE fingerprint = ?",
                (fingerprint,),
            )
        else:
            db.execute(
                "DELETE FROM entries WHERE key = ? AND graph = (SELECT id FROM graphs WHERE fingerprint = ?)",
                (key, fingerprint),
            )


def age_rows(root: Path, when: float, names: list[tuple[str, str]] | None = None) -> None:
    """Set the write time of entry rows ``names`` (every entry if ``None``) to ``when``."""
    with connect(root) as db:
        if names is None:
            db.execute("UPDATE entries SET written = ?", (when,))
            return
        db.executemany(
            "UPDATE entries SET written = ? "
            "WHERE key = ? AND graph = (SELECT id FROM graphs WHERE fingerprint = ?)",
            [(when, key, fingerprint) for fingerprint, key in names],
        )
