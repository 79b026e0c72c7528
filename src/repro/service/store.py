"""Persistent session store: warm per-graph state shared across processes.

A :class:`~repro.session.DDSSession` accumulates expensive derived state —
whole answers, degree arrays, [x, y]-cores, density bounds — but only for
the lifetime of one process.  :class:`SessionStore` keeps that warm state
in one SQLite database so a service tier can share it across workers and
restarts: compute once (``dds-repro warm``), serve everywhere.

Keying
------
In memory, session caches key on :attr:`~repro.graph.digraph.DiGraph.state_token`
— a process-local counter that can never collide but also never survives the
process.  The store keys on its durable analogue,
:meth:`DiGraph.content_fingerprint() <repro.graph.digraph.DiGraph.content_fingerprint>`:
a SHA-256 over the graph's labels (in insertion order), edge set, and
self-loop policy.  Same content ⇒ same fingerprint ⇒ the stored state is
valid; any structural difference ⇒ different fingerprint ⇒ the store simply
has nothing for that graph.

The database (``STORE_SCHEMA_VERSION`` = 2)
-------------------------------------------
A store is the file ``<root>/store.sqlite3``, in WAL mode with
``synchronous=NORMAL`` (a commit survives a process crash, not a power cut),
and ``PRAGMA user_version`` holds its schema version::

    graphs(id, fingerprint, generation, manifest, manifest_checksum,
           derived, derived_checksum, written)
    entries(graph, key, kind, payload, checksum, written)

A ``graphs`` row holds one graph's manifest (its shape and delta lineage)
and derived state (degree arrays, cores, bounds); an ``entries`` row holds
one cached answer under its key digest, with its kind: ``densest``,
``fixed-ratio`` or ``top-k``.  Every payload is compact canonical JSON
stored beside the SHA-256 of that text; reads verify the checksum, and the
manifest's shape against the live graph, and a row that fails is skipped
and *counted*, never silently served.  Result payloads hold the
schema-versioned :meth:`DDSResult.to_dict()
<repro.core.results.DDSResult.to_dict>` documents (schema version 2
guarantees JSON-native stats) or every field of a
:class:`~repro.core.results.FixedRatioOutcome`, so a loaded answer is
bit-identical to the one saved; answers whose node labels would not survive
a JSON round trip are skipped at save time (``results_skipped``) rather than
persisted lossily.  A fixed-ratio or top-k entry names its kind as its
``method``, which no registered method is called, so a build without the
kind counts it ``results_incompatible``.  ``written`` is the time a row's
payload last changed; eviction orders by it.

Saves that cost what changed
----------------------------
Triggers move a graph's ``generation`` on at every insert, update or delete
of its rows, whichever connection makes it, and graph ids are never reused.
A store remembers, weakly keyed by each live
:class:`~repro.graph.digraph.DiGraph`, the generation at which it last
saved or warmed the graph, each row's checksum and decoded answer, and the
session whose whole state those rows hold, with its
:attr:`~repro.session.DDSSession.warm_state_version`.  A save of that
session at an unchanged version and generation returns the same counters
after one generation read; a full save encodes only the payloads that
differ from what their rows hold and writes only the rows whose checksum
changed, in one transaction; a warm at an unchanged generation seeds the
remembered answers without parsing a row.  A row deleted or tampered with
in between moves the generation, so the next save reads the rows again and
repairs it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import sqlite3
import tempfile
import threading
import time
import weakref
from pathlib import Path
from typing import Any, Iterator

from repro.core.config import ApproxConfig, ExactConfig, MethodConfig
from repro.core.method_registry import get_method_spec
from repro.core.results import DDSResult, FixedRatioOutcome, json_native_label
from repro.core.xycore import XYCore
from repro.exceptions import AlgorithmError, ConfigError, GraphError, StoreError
from repro.graph.digraph import DiGraph
from repro.session import DDSSession
from repro.session.session import FIXED_RATIO_ENTRY, TOP_K_ENTRY
from repro.utils.canonical import canonical_json as _canonical_json

#: Version of the database schema, kept in ``PRAGMA user_version``.  Bump on
#: any incompatible change; a store of another version is refused outright.
STORE_SCHEMA_VERSION = 2

#: The database file under a store's root.
DATABASE_NAME = "store.sqlite3"

#: The ``kind`` of a densest-result entry (the other kinds are named after
#: their ``method``: ``fixed-ratio`` and ``top-k``).
DENSEST_ENTRY = "densest"

#: The fields of a stored fixed-ratio query, in the order of the session's
#: cache key.
_FIXED_RATIO_QUERY = ("ratio", "lower", "upper", "tolerance")

#: The schema, created in one transaction when a database is made (see
#: :meth:`SessionStore._create`).  Graph ids are AUTOINCREMENT, so never
#: reused: a graph's ``(id, generation)`` names one state of its rows for
#: good, even across a clear.
_SCHEMA = f"""
BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS graphs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    fingerprint TEXT NOT NULL UNIQUE,
    generation INTEGER NOT NULL DEFAULT 0,
    manifest TEXT NOT NULL,
    manifest_checksum TEXT NOT NULL,
    derived TEXT,
    derived_checksum TEXT,
    written REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    graph INTEGER NOT NULL,
    key TEXT NOT NULL,
    kind TEXT NOT NULL,
    payload TEXT NOT NULL,
    checksum TEXT NOT NULL,
    written REAL NOT NULL,
    PRIMARY KEY (graph, key)
);
CREATE TRIGGER IF NOT EXISTS entry_inserted AFTER INSERT ON entries BEGIN
    UPDATE graphs SET generation = generation + 1 WHERE id = NEW.graph;
END;
CREATE TRIGGER IF NOT EXISTS entry_updated AFTER UPDATE ON entries BEGIN
    UPDATE graphs SET generation = generation + 1 WHERE id IN (OLD.graph, NEW.graph);
END;
CREATE TRIGGER IF NOT EXISTS entry_deleted AFTER DELETE ON entries BEGIN
    UPDATE graphs SET generation = generation + 1 WHERE id = OLD.graph;
END;
CREATE TRIGGER IF NOT EXISTS graph_updated AFTER UPDATE ON graphs
WHEN NEW.generation = OLD.generation BEGIN
    UPDATE graphs SET generation = generation + 1 WHERE id = NEW.id;
END;
CREATE TRIGGER IF NOT EXISTS graph_deleted AFTER DELETE ON graphs BEGIN
    DELETE FROM entries WHERE graph = OLD.id;
END;
PRAGMA user_version = {STORE_SCHEMA_VERSION};
COMMIT;
"""

#: The stored payload bytes of a graph's own row and of an entry row.
_GRAPH_BYTES = "length(CAST(manifest AS BLOB)) + coalesce(length(CAST(derived AS BLOB)), 0)"
_ENTRY_BYTES = "length(CAST(payload AS BLOB))"

#: Connections a forked child inherited from its parent.  The child never
#: uses them, and never closes them either: SQLite's close can clean up
#: files the parent's connection still uses.
_INHERITED: list[sqlite3.Connection] = []


class _IncompatibleConfig(StoreError):
    """A stored entry names a config class or a field this build does not define."""


def _method_config_document(config: MethodConfig) -> dict[str, Any] | None:
    """The stored form of a method config, or ``None`` if it cannot be rebuilt.

    Custom config subclasses cannot be reconstructed from the class name
    alone, so only the two built-in config classes are stored, and only
    when every field is JSON-native: anything else would come back as an
    approximation of itself, so the caller skips the entry instead.
    """
    if type(config) not in (ExactConfig, ApproxConfig):
        return None
    data = dataclasses.asdict(config)
    if not all(value is None or isinstance(value, (str, int, float, bool)) for value in data.values()):
        return None
    return json.loads(_canonical_json(data))  # canonical floats


def _config_from_jsonable(config_type: type, data: dict[str, Any]) -> MethodConfig:
    """Rebuild a method config of ``config_type`` from its serialised fields.

    A field the config class does not define raises
    :class:`_IncompatibleConfig`: the entry was written by a build whose
    configs had that field (the nested ``flow`` config, ``leaf_ratio_count``,
    ``node_limit`` or ``ratios`` of older builds).
    """
    if not isinstance(data, dict):
        raise StoreError(f"config document must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - {field.name for field in dataclasses.fields(config_type)})
    if unknown:
        raise _IncompatibleConfig(
            f"stored {config_type.__name__} has fields this build lacks: {', '.join(unknown)}"
        )
    try:
        return config_type(**data)
    except (TypeError, ConfigError) as error:
        raise StoreError(f"cannot rebuild {config_type.__name__} from stored fields: {error}")


def _stored_config(document: dict[str, Any], method: str) -> tuple[str, MethodConfig]:
    """The registry name of ``method`` and the config ``document`` stores for it.

    An unregistered method raises :class:`~repro.exceptions.AlgorithmError`
    and a foreign config class :class:`_IncompatibleConfig`, before any
    other field is read: intact entries this build cannot use.
    """
    spec = get_method_spec(method)
    config_type = document.get("config_type")
    if config_type != spec.config_type.__name__:
        raise _IncompatibleConfig(f"stored config class {config_type!r} is not {spec.config_type.__name__}")
    return spec.name, _config_from_jsonable(spec.config_type, document["config"])


def _outcome_from_jsonable(data: Any) -> FixedRatioOutcome:
    """Rebuild a stored :class:`FixedRatioOutcome` (sharing the document's lists)."""
    if not isinstance(data, dict):
        raise StoreError(f"outcome document must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - {field.name for field in dataclasses.fields(FixedRatioOutcome)})
    if unknown:
        raise _IncompatibleConfig(f"stored outcome has fields this build lacks: {', '.join(unknown)}")
    try:
        return FixedRatioOutcome(**data)
    except TypeError as error:
        raise StoreError(f"cannot rebuild a fixed-ratio outcome from stored fields: {error}")


def _labels_survive(result: DDSResult) -> bool:
    """Whether every node label of ``result`` survives a JSON round trip."""
    return all(json_native_label(label) for label in result.s_nodes + result.t_nodes)


def _entry_key(method: str, config_document: dict[str, Any]) -> str:
    """The key digest of one ``(method, config)`` entry: deterministic across processes."""
    return _digest(_canonical_json({"method": method, "config": config_document}))[:32]


def _entry_document(method: str, config: Any, value: Any) -> tuple[str, str, dict[str, Any]] | None:
    """Kind, key digest and payload of one cached answer, or ``None`` if it cannot round trip.

    A densest result is stored as ``{"method", "config_type", "config",
    "result"}`` under the digest of its method and config; a fixed-ratio
    outcome as ``{"method": "fixed-ratio", "query", "outcome"}`` and a top-k
    list as ``{"method": "top-k", "query", "results"}``, each under the
    digest of its kind and query.
    """
    if method == FIXED_RATIO_ENTRY:
        query = dict(zip(_FIXED_RATIO_QUERY, config))
        # ``value`` is the session's export copy, so its lists can be shared.
        payload = {"method": method, "query": query, "outcome": dict(vars(value))}
    elif method == TOP_K_ENTRY:
        k, min_density, inner, inner_config = config
        config_document = _method_config_document(inner_config)
        if config_document is None or not all(_labels_survive(result) for result in value):
            return None
        query = {
            "k": k,
            "min_density": min_density,
            "method": inner,
            "config_type": type(inner_config).__name__,
            "config": config_document,
        }
        payload = {"method": method, "query": query, "results": [r.to_dict() for r in value]}
    else:
        config_document = _method_config_document(config)
        if config_document is None or not _labels_survive(value):
            return None
        payload = {
            "method": method,
            "config_type": type(config).__name__,
            "config": config_document,
            "result": value.to_dict(),
        }
        return DENSEST_ENTRY, _entry_key(method, config_document), payload
    return method, _entry_key(method, query), payload


def _entry_from_document(entry: dict[str, Any]) -> tuple[str, Any, Any]:
    """The ``(method, config, answer)`` triple of a stored entry, for ``seed_result``.

    Raises :class:`~repro.exceptions.AlgorithmError` or
    :class:`_IncompatibleConfig` for an intact entry this build cannot use
    (an unknown kind or method, a config class, or a field such as the flow
    solver that fixed-ratio queries and flow configs once named), and
    :class:`StoreError`, ``KeyError``, ``TypeError`` or ``ValueError`` for a
    malformed one.
    """
    method = entry["method"]
    if method == FIXED_RATIO_ENTRY:
        query = entry["query"]
        unknown = sorted(set(query) - set(_FIXED_RATIO_QUERY))
        if unknown:
            raise _IncompatibleConfig(
                f"stored fixed-ratio query has fields this build lacks: {', '.join(unknown)}"
            )
        config = tuple(float(query[name]) for name in _FIXED_RATIO_QUERY)
        return method, config, _outcome_from_jsonable(entry["outcome"])
    if method == TOP_K_ENTRY:
        query = entry["query"]
        inner, inner_config = _stored_config(query, query["method"])
        config = (query["k"], float(query["min_density"]), inner, inner_config)
        return method, config, [DDSResult.from_dict(document) for document in entry["results"]]
    method, config = _stored_config(entry, method)
    return method, config, DDSResult.from_dict(entry["result"])


def _core_to_jsonable(core: XYCore) -> dict[str, Any]:
    return {"x": core.x, "y": core.y, "s_nodes": list(core.s_nodes), "t_nodes": list(core.t_nodes)}


def _core_from_jsonable(data: dict[str, Any]) -> XYCore:
    try:
        return XYCore(
            x=int(data["x"]),
            y=int(data["y"]),
            s_nodes=[int(i) for i in data["s_nodes"]],
            t_nodes=[int(i) for i in data["t_nodes"]],
        )
    except (KeyError, TypeError, ValueError) as error:
        raise StoreError(f"malformed stored [x, y]-core: {error!r}")


def _digest(text: str) -> str:
    """SHA-256 hex digest of ``text``'s UTF-8 bytes: a payload's checksum."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _graph_row(db: sqlite3.Connection | None, fingerprint: str) -> tuple[int, int] | None:
    """The graph's ``(id, generation)``, or ``None`` if the store (or its database) has no such graph."""
    if db is None:
        return None
    return db.execute("SELECT id, generation FROM graphs WHERE fingerprint = ?", (fingerprint,)).fetchone()


def _intact(text: Any, checksum: Any) -> bool:
    """Whether a row's payload ``text`` hashes to its ``checksum``."""
    return isinstance(text, str) and _digest(text) == checksum


def _decode(where: str, text: str) -> dict[str, Any]:
    """The payload object in a row's (checksum-verified) text; StoreError if it is not one."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise StoreError(f"store row {where} is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise StoreError(f"store row {where} payload is not an object")
    return payload


@dataclasses.dataclass(frozen=True)
class _Row:
    """One stored row as this store wrote or read it.

    Shared between threads and saves, so nothing in it is ever mutated.
    """

    #: The checksum of its payload text, or ``None`` if the text fails it.
    checksum: str | None
    #: Its decoded answer — the manifest or derived payload, or an entry's
    #: ``(method, config, answer)`` — or ``None`` if not decoded (or unusable).
    answer: Any = None


@dataclasses.dataclass(frozen=True)
class _Memory:
    """What a store last saved or warmed for one live graph.

    Shared between threads and saves, so nothing in it is ever mutated.
    """

    fingerprint: str
    #: The graph row's ``(id, generation)`` when ``rows`` described it, or
    #: ``None`` for no row.
    generation: tuple[int, int] | None = None
    #: Every row of the graph at that generation, by key: ``"manifest"``,
    #: ``"derived"`` or an entry's key digest.
    rows: dict[str, _Row] = dataclasses.field(default_factory=dict)
    #: The session whose whole state the rows hold (weakly), if one does.
    session: weakref.ReferenceType | None = None
    #: That session's ``warm_state_version`` when they held it.
    version: int = 0
    #: The counters a save of that session reports while nothing changed.
    counters: dict[str, int] | None = None


def _verified_rows(rows: dict[str, tuple[str, str]], remembered: dict[str, _Row]) -> dict[str, _Row]:
    """What the read ``rows`` hold, reusing each remembered row whose checksum they still carry.

    Every row's text is hashed; none is parsed.
    """
    known = {}
    for key, (text, checksum) in rows.items():
        if not _intact(text, checksum):
            known[key] = _Row(None)
            continue
        row = remembered.get(key)
        known[key] = row if row is not None and row.checksum == checksum else _Row(checksum)
    return known


def _checked_manifest(graph: DiGraph, row: _Row | None, rows: dict[str, tuple[str, str]]) -> _Row | None:
    """The manifest row decoded and matching ``graph``'s shape, or ``None`` if missing or corrupt."""
    if row is None or row.checksum is None:
        return None
    if row.answer is not None:
        return row  # remembered, so checked when it was decoded
    try:
        manifest = _decode("manifest", rows["manifest"][0])
    except StoreError:
        return None
    shape = (graph.num_nodes, graph.num_edges, graph.allow_self_loops)
    if tuple(manifest.get(key) for key in ("num_nodes", "num_edges", "allow_self_loops")) != shape:
        return None
    return _Row(row.checksum, manifest)


def _stage(
    writes: dict[str, tuple[str, str, str]],
    rows: dict[str, _Row],
    key: str,
    kind: str,
    payload: dict[str, Any],
    answer: Any,
    stored: _Row | None,
) -> bool:
    """Encode ``payload`` for ``key`` and stage its write unless ``stored`` holds it; whether staged."""
    text = _canonical_json(payload)
    checksum = _digest(text)
    rows[key] = _Row(checksum, answer)
    if stored is not None and stored.checksum == checksum:
        return False
    writes[key] = (kind, text, checksum)
    return True


def _repeat_counters(skipped: int, unchanged: int) -> dict[str, int]:
    """The counters of a save that finds every row current."""
    return {
        "results_saved": 0,
        "results_skipped": skipped,
        "results_unchanged": unchanged,
        "derived_saved": 0,
    }


class SessionStore:
    """Versioned SQLite store of per-graph session warm state.

    Parameters
    ----------
    root:
        Directory holding the store's database, ``store.sqlite3``.  The
        first save creates both; until then reads find an empty store and
        create nothing.  A root that is not a directory, a database that
        cannot be opened or has another :data:`STORE_SCHEMA_VERSION`, or a
        version-1 directory store (``store.json`` or ``graphs/`` under the
        root) raises :class:`~repro.exceptions.StoreError` immediately
        rather than misreading it.

    The store is a cache: every read re-verifies integrity (graph shape,
    per-row checksums), and a row that fails verification is reported in the
    returned counters and otherwise ignored.  Each save writes in one SQLite
    transaction, so concurrent writers — threads, worker processes, other
    stores — serialise on SQLite's write lock and readers always see whole
    saves.  One store may serve many threads: its connection and what it
    remembers per live graph sit behind one lock, and each process (a
    ``fork`` child too) opens its own connection on first use.
    :meth:`close` releases it; a later use opens a new one.  Every
    :class:`sqlite3.Error` surfaces as :class:`~repro.exceptions.StoreError`.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self._path = self.root / DATABASE_NAME
        self._known: weakref.WeakKeyDictionary[DiGraph, _Memory] = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        self._db: sqlite3.Connection | None = None
        self._pid: int | None = None
        legacy = [name for name in ("store.json", "graphs") if (self.root / name).exists()]
        if legacy:
            raise StoreError(
                f"{self.root} holds a version-1 directory store ({', '.join(legacy)}); this "
                f"build keeps version {STORE_SCHEMA_VERSION} stores in {DATABASE_NAME}: clear "
                "the directory or choose another root"
            )
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store root {self.root} is not a directory")
        if self._path.exists():
            # Refuse another schema version now, but hold no connection
            # until the store is used.
            with self._database():
                pass
            self.close()

    # ------------------------------------------------------------------
    # the database
    # ------------------------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        """A new connection to the store's database, creating the database on first use."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise StoreError(f"cannot create store root {self.root}: {error}")
        if not self._path.exists():
            try:
                self._create()
            except OSError as error:
                raise StoreError(f"cannot create store database {self._path}: {error}")
        db = sqlite3.connect(self._path, isolation_level=None, check_same_thread=False)
        try:
            db.execute("PRAGMA journal_mode=WAL")
            db.execute("PRAGMA synchronous=NORMAL")
            version = db.execute("PRAGMA user_version").fetchone()[0]
            if version != STORE_SCHEMA_VERSION:
                raise StoreError(
                    f"store at {self.root} has schema version {version!r}; "
                    f"this build reads version {STORE_SCHEMA_VERSION}"
                )
        except BaseException:
            db.close()
            raise
        return db

    def _create(self) -> None:
        """Make the database appear whole: built in WAL mode in a temporary file, then linked in.

        SQLite does not wait for the lock that switching a new database to
        WAL mode takes, so two processes creating the same database at once
        could fail with "database is locked".  Here each builds its own copy
        and only the first link to :data:`DATABASE_NAME` wins; the others
        open the winner's file, which is in WAL mode already.
        """
        handle, temporary = tempfile.mkstemp(prefix=".store-", suffix=".sqlite3", dir=self.root)
        os.close(handle)
        try:
            db = sqlite3.connect(temporary, isolation_level=None)
            try:
                db.execute("PRAGMA journal_mode=WAL")
                db.executescript(_SCHEMA)
            finally:
                db.close()
            with contextlib.suppress(FileExistsError):
                os.link(temporary, self._path)
        finally:
            os.unlink(temporary)

    def _release(self) -> None:
        """Drop the connection (lock held): closed by the process that opened it, never by a fork child."""
        db, self._db = self._db, None
        if db is None:
            return
        if self._pid == os.getpid():
            db.close()
        else:
            _INHERITED.append(db)

    def close(self) -> None:
        """Release this process's connection to the database; the next use opens a new one."""
        with self._lock:
            try:
                self._release()
            except sqlite3.Error as error:
                raise StoreError(f"store database {self._path}: {error}") from error

    @contextlib.contextmanager
    def _database(
        self, begin: str | None = None, *, create: bool = False
    ) -> Iterator[sqlite3.Connection | None]:
        """This process's connection, under the store's lock, in a ``BEGIN <begin>`` transaction if given.

        The connection is opened on first use in each process, so a
        ``fork`` child never uses its parent's.  Without ``create``, a
        database that does not exist yet is not created: the caller gets
        ``None`` and reads an empty store.
        """
        with self._lock:
            try:
                if self._pid != os.getpid():
                    self._release()
                if self._db is None:
                    if not create and not self._path.exists():
                        yield None
                        return
                    self._db = self._open()
                    self._pid = os.getpid()
                db = self._db
                if begin is None:
                    yield db
                    return
                db.execute(f"BEGIN {begin}")
                try:
                    yield db
                except BaseException:
                    db.rollback()
                    raise
                db.execute("COMMIT")
            except sqlite3.Error as error:
                raise StoreError(f"store database {self._path}: {error}") from error

    def _generation(self, fingerprint: str) -> tuple[int, int] | None:
        """The graph row's ``(id, generation)``, or ``None`` if the store has no such graph."""
        with self._database() as db:
            return _graph_row(db, fingerprint)

    def _read(
        self, fingerprint: str, remembered: tuple[int, int] | None
    ) -> tuple[tuple[int, int] | None, dict[str, tuple[str, str]] | None]:
        """The graph's ``(id, generation)`` and, unless it is ``remembered``, its rows.

        Rows map a key (``"manifest"``, ``"derived"`` or an entry's digest)
        to its payload text and checksum, read in one snapshot.
        """
        with self._database("DEFERRED") as db:
            generation = _graph_row(db, fingerprint)
            if generation is None:
                return None, {}
            if generation == remembered:
                return generation, None
            manifest, manifest_checksum, derived, derived_checksum = db.execute(
                "SELECT manifest, manifest_checksum, derived, derived_checksum FROM graphs WHERE id = ?",
                (generation[0],),
            ).fetchone()
            rows = {"manifest": (manifest, manifest_checksum)}
            if derived is not None:
                rows["derived"] = (derived, derived_checksum)
            for key, text, checksum in db.execute(
                "SELECT key, payload, checksum FROM entries WHERE graph = ? ORDER BY key",
                (generation[0],),
            ):
                rows[key] = (text, checksum)
        return generation, rows

    def _write(
        self,
        fingerprint: str,
        generation: tuple[int, int] | None,
        writes: dict[str, tuple[str, str, str]],
    ) -> tuple[int, int] | None:
        """Write the staged rows in one transaction if the graph is still at ``generation``.

        ``writes`` maps a key to its kind, payload text and checksum.
        Returns the graph's new ``(id, generation)``, or ``None`` — writing
        nothing — if another writer changed the graph since it was read.
        """
        now = time.time()
        with self._database("IMMEDIATE", create=True) as db:
            if _graph_row(db, fingerprint) != generation:
                return None
            if not writes:
                return generation
            columns = [column for column in ("manifest", "derived") if column in writes]
            if generation is None:
                # A new graph: its manifest is always staged.
                _, text, checksum = writes["manifest"]
                graph_id = db.execute(
                    "INSERT INTO graphs (fingerprint, manifest, manifest_checksum, written) "
                    "VALUES (?, ?, ?, ?)",
                    (fingerprint, text, checksum, now),
                ).lastrowid
                columns.remove("manifest")
            else:
                graph_id = generation[0]
            for column in columns:
                _, text, checksum = writes[column]
                db.execute(
                    f"UPDATE graphs SET {column} = ?, {column}_checksum = ?, written = ? WHERE id = ?",
                    (text, checksum, now, graph_id),
                )
            db.executemany(
                "INSERT OR REPLACE INTO entries (graph, key, kind, payload, checksum, written) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                [
                    (graph_id, key, *staged, now)
                    for key, staged in writes.items()
                    if key not in ("manifest", "derived")
                ],
            )
            return db.execute("SELECT id, generation FROM graphs WHERE id = ?", (graph_id,)).fetchone()

    def _recall(self, graph: DiGraph, fingerprint: str) -> _Memory:
        """What this store last saved or warmed for ``graph`` at ``fingerprint``.

        Remembered per live graph (weakly, so no longer than a session or a
        daemon holds the graph) and only for the state of its last full save
        or warm; empty for anything else.  Read-only: a save or warm installs
        a new one.
        """
        with self._lock:
            memory = self._known.get(graph)
        if memory is None or memory.fingerprint != fingerprint:
            return _Memory(fingerprint)
        return memory

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------
    def save_session(self, session: DDSSession) -> dict[str, int]:
        """Persist ``session``'s warm state; returns save counters.

        Persists every cached answer — densest results, fixed-ratio outcomes
        and top-k lists — whose labels and config survive a JSON round trip
        (others count as ``results_skipped``), the degree
        arrays and density bounds (cheap — computed now if the session has
        not needed them yet), and whatever [x, y]-cores the session has
        already computed (never forces a core decomposition).  Rows whose
        stored payload already matches are left untouched and counted as
        ``results_unchanged`` / ``derived_saved: 0``; a corrupt manifest is
        rewritten from the live graph (the fingerprint, not the manifest, is
        the graph's identity).  An answer equal to one this store remembers
        writing or reading for the graph's unchanged row is not encoded
        again; the changed rows are written in one transaction, which
        starts over if another writer changed the graph since its rows were
        read.

        If the store's last save or complete warm of the graph was of
        ``session``, and neither its
        :attr:`~repro.session.DDSSession.warm_state_version` nor the graph's
        generation has changed since, the save returns the counters of that
        save with every result counted as unchanged, after one generation
        read: it builds, encodes and parses no payload.
        """
        graph = session.graph
        fingerprint = graph.content_fingerprint()
        # Read before any state is snapshotted: a change made while this
        # save runs leaves the remembered version behind, never ahead.
        version = session.warm_state_version
        memory = self._recall(graph, fingerprint)
        if (
            memory.session is not None
            and memory.session() is session
            and memory.version == version
            and self._generation(fingerprint) == memory.generation
        ):
            return dict(memory.counters)
        while True:
            generation, rows = self._read(fingerprint, memory.generation)
            known = memory.rows if rows is None else _verified_rows(rows, memory.rows)
            writes, after, counters = self._stage_session(session, known, rows or {})
            saved = self._write(fingerprint, generation, writes)
            if saved is not None:
                break
        repeat = _repeat_counters(
            counters["results_skipped"], counters["results_unchanged"] + counters["results_saved"]
        )
        with self._lock:
            self._known[graph] = _Memory(fingerprint, saved, after, weakref.ref(session), version, repeat)
        return counters

    @staticmethod
    def _stage_session(
        session: DDSSession, known: dict[str, _Row], rows: dict[str, tuple[str, str]]
    ) -> tuple[dict[str, tuple[str, str, str]], dict[str, _Row], dict[str, int]]:
        """The rows a save of ``session`` writes over ``known``, the graph's rows after it, its counters."""
        graph = session.graph
        counters = {
            "results_saved": 0,
            "results_skipped": 0,
            "results_unchanged": 0,
            "derived_saved": 0,
        }
        writes: dict[str, tuple[str, str, str]] = {}
        after = dict(known)
        # Delta lineage: the content fingerprints of the graph states this
        # session's entries evolved from (one per apply_updates).  A session
        # that never applied updates has none — in that case a valid stored
        # lineage is preserved rather than clobbered, so history recorded by
        # an earlier updated session survives saves from cold sessions of
        # the same (final) graph.
        lineage = session.lineage()
        stored = _checked_manifest(graph, known.get("manifest"), rows)
        if stored is not None and not lineage:
            lineage = [str(fingerprint) for fingerprint in stored.answer.get("lineage") or []]
        manifest = {
            "store_schema_version": STORE_SCHEMA_VERSION,
            "fingerprint": graph.content_fingerprint(),
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "allow_self_loops": graph.allow_self_loops,
            "lineage": lineage,
        }
        if stored is None or stored.answer != manifest:
            _stage(writes, after, "manifest", "manifest", manifest, manifest, stored)
        else:
            after["manifest"] = stored

        derived: dict[str, Any] = {
            "out_degrees": session.out_degrees(),
            "in_degrees": session.in_degrees(),
            "density_upper_bound": session.density_upper_bound(),
            "exactness_tolerance": session.exactness_tolerance(),
            "xy_cores": [_core_to_jsonable(core) for core in session.cached_xy_cores()],
        }
        max_core = session.cached_max_core()
        if max_core is not None:
            derived["max_core"] = _core_to_jsonable(max_core)
        stored = known.get("derived")
        if stored is None or stored.answer != derived:
            counters["derived_saved"] = int(
                _stage(writes, after, "derived", "derived", derived, derived, stored)
            )

        # An answer equal to the one a known row holds is not encoded again.
        holders = {
            row.answer[:2]: key for key, row in known.items() if isinstance(row.answer, tuple)
        }
        for method, config, value in session.cached_results():
            key = holders.get((method, config))
            if key is not None and known[key].answer[2] == value:
                counters["results_unchanged"] += 1
                continue
            document = _entry_document(method, config, value)
            if document is None:
                counters["results_skipped"] += 1
                continue
            kind, key, payload = document
            staged = _stage(writes, after, key, kind, payload, (method, config, value), known.get(key))
            counters["results_saved" if staged else "results_unchanged"] += 1
        return writes, after, counters

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def warm_session(self, session: DDSSession) -> dict[str, int]:
        """Seed ``session`` from the store; returns load counters.

        Counters: ``results_loaded`` / ``results_corrupt`` /
        ``results_incompatible`` (entry is intact but names an unknown kind,
        an unregistered method, a foreign config class or a field this build
        lacks, such as a flow solver), ``derived_loaded`` /
        ``derived_corrupt``, and ``manifest_corrupt`` (the graph's manifest
        fails verification — none of its rows is trusted or loaded).
        Results count every kind of cached answer: densest results,
        fixed-ratio outcomes and top-k lists.  A graph the store has never
        seen loads nothing and returns all-zero counters — warming is always
        safe to attempt and never raises for a damaged row; serving must
        not die because a cache entry rotted.  The graph's rows are read in
        one snapshot, so a concurrent eviction cannot tear a warm.  A row
        whose checksum matches a row this store wrote or decoded for the
        graph is not parsed again, and at an unchanged generation no row is
        read at all.

        A complete warm of a session that held no saved state
        (:attr:`~repro.session.DDSSession.warm_state_version` 0) — manifest,
        derived state and every entry loaded, every loaded result still
        cached — remembers that session, so its next save costs what a
        repeat save costs.
        """
        graph = session.graph
        fresh = session.warm_state_version == 0
        counters = {
            "results_loaded": 0,
            "results_corrupt": 0,
            "results_incompatible": 0,
            "derived_loaded": 0,
            "derived_corrupt": 0,
            "manifest_corrupt": 0,
        }
        fingerprint = graph.content_fingerprint()
        memory = self._recall(graph, fingerprint)
        decoded = all(row.answer is not None for row in memory.rows.values())
        generation, rows = self._read(fingerprint, memory.generation if decoded else None)
        if generation is None:
            return counters
        known = dict(memory.rows) if rows is None else _verified_rows(rows, memory.rows)
        manifest = _checked_manifest(graph, known.get("manifest"), rows)
        if manifest is None:
            counters["manifest_corrupt"] = 1
            return counters
        known["manifest"] = manifest
        stored_lineage = manifest.answer.get("lineage") or []
        if stored_lineage:
            session.seed_lineage(str(fingerprint_) for fingerprint_ in stored_lineage)

        derived = known.get("derived")
        if derived is not None:
            try:
                payload = derived.answer
                if payload is None:
                    if derived.checksum is None:
                        raise StoreError("derived state fails its integrity checksum")
                    payload = _decode("derived", rows["derived"][0])
                session.seed_derived(
                    out_degrees=payload["out_degrees"],
                    in_degrees=payload["in_degrees"],
                    xy_cores=[_core_from_jsonable(core) for core in payload.get("xy_cores", [])],
                    max_core=(
                        _core_from_jsonable(payload["max_core"])
                        if "max_core" in payload
                        else None
                    ),
                    density_upper_bound=payload["density_upper_bound"],
                    exactness_tolerance=payload["exactness_tolerance"],
                )
                counters["derived_loaded"] = 1
                known["derived"] = _Row(derived.checksum, payload)
            except (StoreError, GraphError, KeyError, TypeError, ValueError):
                counters["derived_corrupt"] = 1

        entries = sorted(key for key in known if key not in ("manifest", "derived"))
        for key in entries:
            row = known[key]
            try:
                answer = row.answer
                if answer is None:
                    if row.checksum is None:
                        raise StoreError(f"entry {key} fails its integrity checksum")
                    answer = _entry_from_document(_decode(key, rows[key][0]))
                    known[key] = _Row(row.checksum, answer)
                seeded = session.seed_result(*answer)
            except (AlgorithmError, _IncompatibleConfig):
                # Unknown kind, method or config field — a store written by
                # a build with extra registered ones (or with a field since
                # removed, such as the flow solver); intact but unusable
                # here.
                counters["results_incompatible"] += 1
                continue
            except (StoreError, KeyError, TypeError, ValueError):
                counters["results_corrupt"] += 1
                continue
            if seeded:
                counters["results_loaded"] += 1
        memory = _Memory(fingerprint, generation, known)
        # A fresh session caches only what this warm loaded, so a full cache
        # means every entry loaded and none was pushed out again.
        if (
            fresh
            and counters["derived_loaded"]
            and session.cache_stats()["result_cache_entries"] == len(entries)
        ):
            memory = dataclasses.replace(
                memory,
                session=weakref.ref(session),
                version=session.warm_state_version,
                counters=_repeat_counters(0, len(entries)),
            )
        with self._lock:
            self._known[graph] = memory
        return counters

    # ------------------------------------------------------------------
    # management
    # ------------------------------------------------------------------
    def inventory(self) -> list[dict[str, Any]]:
        """One row per stored graph: fingerprint, shape, entry counts, bytes.

        Entries are counted by kind: ``results`` (densest results),
        ``fixed_ratio`` (fixed-ratio outcomes) and ``top_k`` (top-k lists).
        ``bytes`` counts the graph's stored payload bytes: its manifest,
        derived state and entries.
        """
        with self._database("DEFERRED") as db:
            if db is None:
                return []
            graphs = db.execute(
                f"SELECT id, fingerprint, manifest, manifest_checksum, derived IS NOT NULL, "
                f"{_GRAPH_BYTES} FROM graphs ORDER BY fingerprint"
            ).fetchall()
            kinds = db.execute(
                f"SELECT graph, kind, count(*), sum({_ENTRY_BYTES}) FROM entries GROUP BY graph, kind"
            ).fetchall()
        counts: dict[tuple[int, str], int] = {}
        sizes: dict[int, int] = {}
        for graph_id, kind, count, size in kinds:
            counts[graph_id, kind] = count
            sizes[graph_id] = sizes.get(graph_id, 0) + size
        rows: list[dict[str, Any]] = []
        for graph_id, fingerprint, text, checksum, derived, size in graphs:
            row: dict[str, Any] = {"fingerprint": fingerprint}
            try:
                if not _intact(text, checksum):
                    raise StoreError("manifest fails its integrity checksum")
                manifest = _decode("manifest", text)
                row["num_nodes"] = manifest.get("num_nodes")
                row["num_edges"] = manifest.get("num_edges")
                row["lineage_depth"] = len(manifest.get("lineage") or [])
            except StoreError:
                row["num_nodes"] = row["num_edges"] = None
                row["lineage_depth"] = 0
            row["fixed_ratio"] = counts.get((graph_id, FIXED_RATIO_ENTRY), 0)
            row["top_k"] = counts.get((graph_id, TOP_K_ENTRY), 0)
            row["results"] = counts.get((graph_id, DENSEST_ENTRY), 0)
            row["derived"] = bool(derived)
            row["bytes"] = size + sizes.get(graph_id, 0)
            rows.append(row)
        return rows

    def verify(self) -> list[str]:
        """Integrity-check every row (manifests included); returns problem strings."""
        with self._database("DEFERRED") as db:
            if db is None:
                return []
            rows = db.execute(
                "SELECT fingerprint, 'manifest', manifest, manifest_checksum FROM graphs "
                "UNION ALL SELECT fingerprint, 'derived', derived, derived_checksum FROM graphs "
                "WHERE derived IS NOT NULL "
                "UNION ALL SELECT fingerprint, kind || ' ' || key, payload, checksum "
                "FROM entries JOIN graphs ON graphs.id = entries.graph ORDER BY 1, 2"
            ).fetchall()
        problems: list[str] = []
        for fingerprint, name, text, checksum in rows:
            where = f"{fingerprint}/{name}"
            try:
                if not _intact(text, checksum):
                    raise StoreError(f"store row {where} fails its integrity checksum")
                _decode(where, text)
            except StoreError as error:
                problems.append(str(error))
        return problems

    def evict(
        self,
        *,
        older_than_days: float | None = None,
        max_bytes: int | None = None,
        now: float | None = None,
    ) -> dict[str, int]:
        """Age + LRU sweep over the stored result entries (a stored-bytes cap).

        Two independent policies, applied in order:

        * ``older_than_days`` — delete every entry whose ``written`` time is
          older than the cutoff.  A save leaves a row whose payload is
          unchanged alone and a warm never writes, so ``written`` is the
          last time an entry's *content* changed — age eviction removes
          state no recent workload has refreshed.
        * ``max_bytes`` — while the store's stored payload bytes (the
          ``bytes`` of :meth:`inventory`, summed) exceed the budget, delete
          entries oldest-written first, ties broken by fingerprint and key
          (LRU under the same reading); graphs whose entries are all gone
          are then dropped whole (manifest and derived state included),
          oldest-written first, if the budget is still exceeded.

        The sweep is one transaction, so it never tears a concurrent save.
        Returns counters: ``results_evicted``, ``graphs_evicted``,
        ``bytes_freed``, ``bytes_remaining``.  At least one policy must be
        given.
        """
        if older_than_days is None and max_bytes is None:
            raise StoreError("evict requires older_than_days and/or max_bytes")
        if older_than_days is not None and older_than_days < 0:
            raise StoreError(f"older_than_days must be >= 0, got {older_than_days!r}")
        if max_bytes is not None and max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes!r}")
        counters = {
            "results_evicted": 0,
            "graphs_evicted": 0,
            "bytes_freed": 0,
            "bytes_remaining": 0,
        }
        current_time = time.time() if now is None else float(now)
        with self._database("IMMEDIATE") as db:
            if db is None:
                return counters
            if older_than_days is not None:
                cutoff = current_time - float(older_than_days) * 86400.0
                count, size = db.execute(
                    f"SELECT count(*), coalesce(sum({_ENTRY_BYTES}), 0) FROM entries WHERE written < ?",
                    (cutoff,),
                ).fetchone()
                db.execute("DELETE FROM entries WHERE written < ?", (cutoff,))
                counters["results_evicted"] += count
                counters["bytes_freed"] += size
            remaining = db.execute(
                f"SELECT (SELECT coalesce(sum({_ENTRY_BYTES}), 0) FROM entries) "
                f"+ (SELECT coalesce(sum({_GRAPH_BYTES}), 0) FROM graphs)"
            ).fetchone()[0]
            if max_bytes is not None and remaining > max_bytes:
                doomed = []
                for graph_id, key, size in db.execute(
                    f"SELECT graph, key, {_ENTRY_BYTES} FROM entries JOIN graphs ON graphs.id = "
                    "entries.graph ORDER BY entries.written, fingerprint, key"
                ).fetchall():
                    if remaining <= max_bytes:
                        break
                    doomed.append((graph_id, key))
                    counters["bytes_freed"] += size
                    remaining -= size
                db.executemany("DELETE FROM entries WHERE graph = ? AND key = ?", doomed)
                counters["results_evicted"] += len(doomed)
                # Entries alone could not meet the budget only if none is
                # left: drop whole graphs until it fits.
                for graph_id, size in db.execute(
                    f"SELECT id, {_GRAPH_BYTES} FROM graphs ORDER BY written, fingerprint"
                ).fetchall():
                    if remaining <= max_bytes:
                        break
                    db.execute("DELETE FROM graphs WHERE id = ?", (graph_id,))
                    counters["graphs_evicted"] += 1
                    counters["bytes_freed"] += size
                    remaining -= size
            counters["bytes_remaining"] = remaining
        return counters

    def clear(self) -> int:
        """Delete every stored graph; returns how many were dropped."""
        with self._database("IMMEDIATE") as db:
            if db is None:
                return 0
            dropped = db.execute("SELECT count(*) FROM graphs").fetchone()[0]
            db.execute("DELETE FROM graphs")  # a trigger deletes their entries
        return dropped
