"""Persistent session store: warm per-graph state shared across processes.

A :class:`~repro.session.DDSSession` accumulates expensive derived state —
whole answers, degree arrays, [x, y]-cores, density bounds — but only for
the lifetime of one process.  :class:`SessionStore` serialises that warm
state to a versioned on-disk layout so a service tier can share it across
workers and restarts: compute once (``dds-repro warm``), serve everywhere.

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

On-disk layout (``STORE_SCHEMA_VERSION`` = 1)
---------------------------------------------
::

    <root>/
      store.json                      # {"store_schema_version": 1}
      graphs/<fingerprint>/
        manifest.json                 # graph shape: nodes / edges / loops
        derived.json                  # degree arrays, cores, bounds
        results/<entry-digest>.json               # one densest result
        results/fixed-ratio-<entry-digest>.json   # one fixed-ratio outcome
        results/top-k-<entry-digest>.json         # one top-k list

Every file under ``graphs/`` is compact canonical JSON: its bytes are
``canonical_json({"checksum": sha256(canonical_json(payload)), "payload":
payload})``, built around the payload text the checksum hashed, so a
payload is encoded once.  Reads verify the checksum and the manifest's
shape against the live graph; a failed check marks the entry corrupt — it
is skipped and *counted*, never silently served.  Readers parse the JSON
and verify the canonical checksum and never compare raw bytes across
processes, so files of the earlier ``indent=1`` writer read and verify
unchanged, and the compact writer needed no schema bump.  Result payloads
hold the schema-versioned :meth:`DDSResult.to_dict()
<repro.core.results.DDSResult.to_dict>` documents (schema version 2
guarantees JSON-native stats) or every field of a
:class:`~repro.core.results.FixedRatioOutcome`, so a loaded answer is
bit-identical to the one saved; answers whose node labels would not survive
a JSON round trip are skipped at save time (``results_skipped``) rather than
persisted lossily.  A fixed-ratio or top-k entry names its kind as its
``method``, which no registered method is called, so a build without the
kind counts it ``results_incompatible``.

Saves that cost what changed
----------------------------
A store remembers, weakly keyed by each live
:class:`~repro.graph.digraph.DiGraph`, the files of the state it last saved
or warmed for the graph, as it wrote or verified them (the SHA-256 of their
bytes, their checksums and payloads), and the session whose whole state
they hold, with its :attr:`~repro.session.DDSSession.warm_state_version`.
Every read hashes the file's bytes, and re-verifies the checksum unless
those bytes match bytes this store wrote or verified; a full save
re-encodes only the answers that differ from what their unchanged file
holds.  A save of that session whose version is unchanged and whose files
still hash to those digests returns the same counters after a few file
reads, without building, encoding or parsing a payload.  Digests rather
than file stats make a file that was deleted, replaced by another writer or
tampered with force the full save, which repairs it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
import threading
import time
import weakref
from pathlib import Path
from typing import Any, Iterator

try:  # POSIX-only advisory locks; writes stay atomic-rename-safe without them
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.core.config import ApproxConfig, ExactConfig, FlowConfig, MethodConfig
from repro.core.method_registry import get_method_spec
from repro.core.results import DDSResult, FixedRatioOutcome, json_native_label
from repro.core.xycore import XYCore
from repro.exceptions import AlgorithmError, ConfigError, FlowError, GraphError, StoreError
from repro.flow.registry import resolve_solver_choice
from repro.graph.digraph import DiGraph
from repro.session import DDSSession
from repro.session.session import FIXED_RATIO_ENTRY, TOP_K_ENTRY
from repro.utils.canonical import canonical_json as _canonical_json
from repro.utils.canonical import checksum as _checksum

#: Version of the on-disk layout.  Bump on any incompatible change; a store
#: written by a different version is refused outright (no partial reads).
STORE_SCHEMA_VERSION = 1


def process_pool_available(*, need_store_locks: bool = False) -> tuple[bool, str | None]:
    """Whether ``BatchExecutor(process_pool=True)`` can run here.

    Returns ``(True, None)``, or ``(False, reason)`` when a store is attached
    (``need_store_locks``) and :mod:`fcntl` is missing: worker processes
    writing one store shard are only safe under its per-graph advisory
    locks.  The executor records the reason and runs its thread pool instead.
    """
    if need_store_locks and fcntl is None:
        return False, "fcntl advisory locks are unavailable (store writes would race)"
    return True, None


def _config_to_jsonable(config: MethodConfig) -> dict[str, Any] | None:
    """Serialise a frozen method config, or ``None`` if it cannot round trip.

    ``dataclasses.asdict`` flattens the nested :class:`FlowConfig`; tuples
    (``ApproxConfig.ratios``) become lists.  A config whose values are not
    JSON-native after that cannot be reconstructed faithfully, so the caller
    skips the entry instead of persisting an approximation of it.
    """
    data = dataclasses.asdict(config)

    def jsonable(value: Any) -> bool:
        """Whether ``value`` (recursively) survives a JSON round trip."""
        if isinstance(value, dict):
            return all(isinstance(k, str) and jsonable(v) for k, v in value.items())
        if isinstance(value, (list, tuple)):
            return all(jsonable(item) for item in value)
        return isinstance(value, (str, int, float, bool)) or value is None

    if not jsonable(data):
        return None
    return json.loads(_canonical_json(data))  # tuples -> lists, canonical floats


class _IncompatibleConfig(StoreError):
    """A stored entry names a config class or a field this build does not define."""


def _method_config_document(config: MethodConfig) -> dict[str, Any] | None:
    """The stored form of a method config, or ``None`` if it cannot be rebuilt.

    Custom config subclasses cannot be reconstructed from the class name
    alone, so only the two built-in config classes are stored.
    """
    if type(config) not in (ExactConfig, ApproxConfig):
        return None
    return _config_to_jsonable(config)


def _config_from_jsonable(config_type: type, data: dict[str, Any]) -> MethodConfig:
    """Rebuild a method config of ``config_type`` from its serialised fields.

    A field the config class (or its nested :class:`FlowConfig`) does not
    define raises :class:`_IncompatibleConfig`: the entry was written by a
    build whose configs had that field.
    """
    if not isinstance(data, dict):
        raise StoreError(f"config document must be an object, got {type(data).__name__}")
    fields = dict(data)
    flow = fields.get("flow")
    for cls, stored in ((config_type, fields), (FlowConfig, flow)):
        if dataclasses.is_dataclass(cls) and isinstance(stored, dict):
            unknown = sorted(set(stored) - {field.name for field in dataclasses.fields(cls)})
            if unknown:
                raise _IncompatibleConfig(
                    f"stored {cls.__name__} has fields this build lacks: {', '.join(unknown)}"
                )
    if isinstance(fields.get("ratios"), list):
        fields["ratios"] = tuple(fields["ratios"])
    try:
        if isinstance(flow, dict):
            fields["flow"] = FlowConfig(**flow)
        return config_type(**fields)
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


def _entry_document(method: str, config: Any, value: Any) -> tuple[str, dict[str, Any]] | None:
    """File name and payload of one cached answer, or ``None`` if it cannot round trip.

    A densest result is stored as ``{"method", "config_type", "config",
    "result"}`` under the digest of its method and config; a fixed-ratio
    outcome as ``{"method": "fixed-ratio", "query", "outcome"}`` and a top-k
    list as ``{"method": "top-k", "query", "results"}``, each under its kind
    and the digest of its query.
    """
    if method == FIXED_RATIO_ENTRY:
        ratio, lower, upper, tolerance, solver = config
        query = {
            "ratio": ratio,
            "lower": lower,
            "upper": upper,
            "tolerance": tolerance,
            "flow_solver": solver,
        }
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
        return SessionStore._entry_name(method, config_document), payload
    return f"{method}-{SessionStore._entry_name(method, query)}", payload


def _entry_from_document(entry: dict[str, Any]) -> tuple[str, Any, Any]:
    """The ``(method, config, answer)`` triple of a stored entry, for ``seed_result``.

    Raises :class:`~repro.exceptions.AlgorithmError`,
    :class:`~repro.exceptions.FlowError` or :class:`_IncompatibleConfig` for
    an intact entry this build cannot use (an unknown kind or method, flow
    solver, config class or field), and :class:`StoreError`,
    ``KeyError``, ``TypeError`` or ``ValueError`` for a malformed one.
    """
    method = entry["method"]
    if method == FIXED_RATIO_ENTRY:
        query = entry["query"]
        config = (
            float(query["ratio"]),
            float(query["lower"]),
            float(query["upper"]),
            float(query["tolerance"]),
            resolve_solver_choice(str(query["flow_solver"])),
        )
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


@dataclasses.dataclass(frozen=True)
class _Known:
    """A store file's contents as this store wrote or verified them.

    Shared between threads and saves, so nothing in it is ever mutated.
    """

    #: SHA-256 of the file's bytes.
    digest: str
    #: Its checksum field, which its payload verified against.
    checksum: str
    #: Its payload.
    payload: dict[str, Any]
    #: A result entry's ``(method, config, answer)``, as saved or loaded.
    answer: tuple[str, Any, Any] | None = None


@dataclasses.dataclass(frozen=True)
class _Memory:
    """What a store last saved or warmed for one live graph.

    Shared between threads and saves, so nothing in it is ever mutated.
    """

    fingerprint: str
    #: The files of that state, as this store wrote or verified them.
    files: dict[Path, _Known]
    #: The session whose whole state the files hold (weakly), if one does.
    session: weakref.ReferenceType | None = None
    #: That session's ``warm_state_version`` when they held it.
    version: int = 0
    #: The counters a save of that session reports while nothing changed.
    counters: dict[str, int] | None = None
    #: Result files a warm found holding the answer of a key that a file in
    #: ``files`` holds (one key named two ways by different builds), with
    #: that key.  The next full save removes them.
    twins: dict[Path, tuple[str, Any]] = dataclasses.field(default_factory=dict)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _repeat_counters(skipped: int, unchanged: int) -> dict[str, int]:
    """The counters of a save that finds every file current."""
    return {
        "results_saved": 0,
        "results_skipped": skipped,
        "results_unchanged": unchanged,
        "derived_saved": 0,
    }


def _envelope(payload: Any) -> tuple[str, bytes]:
    """The checksum of ``payload`` and the bytes of a store file holding it.

    The bytes are ``canonical_json({"checksum": ..., "payload": payload})``,
    built around the payload text the checksum hashes, so the payload is
    encoded once, by the C encoder.
    """
    text = _canonical_json(payload)
    checksum = _digest(text.encode("utf-8"))
    return checksum, f'{{"checksum":"{checksum}","payload":{text}}}'.encode("utf-8")


class SessionStore:
    """Versioned on-disk store of per-graph session warm state.

    Parameters
    ----------
    root:
        Directory holding the store.  Created (with its version marker) on
        the first write; opening an existing directory written by a
        different :data:`STORE_SCHEMA_VERSION` raises
        :class:`~repro.exceptions.StoreError` immediately rather than
        misreading it.

    The store is a cache, not a database: every read re-verifies integrity
    (schema version, graph shape, per-entry checksums), and anything that
    fails verification is reported in the returned counters and otherwise
    ignored.  Concurrent writers are tolerated via atomic
    write-to-temp-then-rename of individual entries.  One store may serve
    many threads: what it remembers per live graph sits behind a lock.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self._known: weakref.WeakKeyDictionary[DiGraph, _Memory] = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        marker = self.root / "store.json"
        if marker.exists():
            document = self._parse(marker, self._read_json(marker)[0])
            version = document.get("store_schema_version") if isinstance(document, dict) else None
            if version != STORE_SCHEMA_VERSION:
                raise StoreError(
                    f"store at {self.root} has schema version {version!r}; "
                    f"this build reads version {STORE_SCHEMA_VERSION}"
                )

    # ------------------------------------------------------------------
    # low-level plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _read_json(path: Path) -> tuple[bytes, str]:
        """Read one store file (every read goes through here): its bytes and their digest.

        I/O failures map to StoreError; :meth:`_parse` parses the bytes.
        """
        try:
            data = path.read_bytes()
        except OSError as error:
            raise StoreError(f"cannot read store file {path}: {error}")
        return data, _digest(data)

    @staticmethod
    def _parse(path: Path, data: bytes) -> Any:
        """The JSON document in a store file's bytes; encoding and JSON failures raise StoreError."""
        try:
            return json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise StoreError(f"store file {path} is not valid JSON: {error}")

    @staticmethod
    def _write_json(path: Path, data: bytes) -> str:
        """Atomic write of encoded JSON: unique temp file in the same directory, then rename.

        The temp name must be unique per writer (``mkstemp``), not a fixed
        ``<name>.tmp`` — concurrent writers of the same entry would truncate
        each other's half-written temp file and one rename could land a
        mangled document.  With unique temps, last-rename-wins and every
        intermediate state of ``path`` is a complete document.  Returns the
        digest of the bytes written.
        """
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor, temp_name = tempfile.mkstemp(
                prefix=path.name + ".", suffix=".tmp", dir=path.parent
            )
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    handle.write(data)
                os.replace(temp_name, path)
            except BaseException:
                os.unlink(temp_name)
                raise
        except OSError as error:
            raise StoreError(f"cannot write store file {path}: {error}")
        return _digest(data)

    def _graph_dir(self, fingerprint: str) -> Path:
        """Directory holding one graph's manifest, derived state, and results."""
        return self.root / "graphs" / fingerprint

    @contextlib.contextmanager
    def _locked(self, graph_dir: Path) -> Iterator[None]:
        """Advisory per-graph-directory write lock (POSIX ``flock``).

        Serialises *writers* — concurrent ``dds-repro warm`` processes,
        batch lanes saving the same graph, eviction sweeps — on one graph
        directory, so a second warmer blocks until the first has persisted
        and then finds every entry current (:meth:`_save_entry`) instead of
        re-writing the same state.  The read path
        (:meth:`warm_session`) takes no lock: entry reads stay safe under
        concurrent writers because every write is an atomic
        write-temp-then-rename of a checksummed document.  On platforms
        without :mod:`fcntl` the lock degrades to a no-op and writers fall
        back to plain last-rename-wins behaviour.
        """
        if fcntl is None:
            yield
            return
        lock_path = graph_dir / ".lock"
        try:
            graph_dir.mkdir(parents=True, exist_ok=True)
            handle = open(lock_path, "a+")
        except OSError as error:
            raise StoreError(f"cannot open store lock file {lock_path}: {error}")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()

    @contextlib.contextmanager
    def _try_locked(self, graph_dir: Path) -> Iterator[bool]:
        """Non-blocking variant of :meth:`_locked` for eviction sweeps.

        Yields ``True`` with the directory's write lock held, or ``False``
        immediately when another writer holds it right now.  Eviction must
        not queue behind a long-running warmer — blocking turns a cleanup
        sweep into a latency cliff, and the pre-lock file listing it
        gathered would be stale by the time the lock arrived (deleting a
        directory a writer is mid-save into).  Skipped directories are
        simply picked up by the next sweep.  Without :mod:`fcntl` this
        degrades like :meth:`_locked` (always acquirable); a directory that
        does not exist has nothing to evict and reports acquirable too.
        """
        if fcntl is None or not graph_dir.is_dir():
            yield True
            return
        lock_path = graph_dir / ".lock"
        try:
            handle = open(lock_path, "a+")
        except OSError:
            # Unreadable lock file: treat as held — skip, never race.
            yield False
            return
        try:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                yield False
                return
            try:
                yield True
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()

    def _ensure_marker(self) -> None:
        """Write the store's schema-version marker on first use."""
        marker = self.root / "store.json"
        if not marker.exists():
            document = {"store_schema_version": STORE_SCHEMA_VERSION}
            self._write_json(marker, _canonical_json(document).encode("utf-8"))

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
            return _Memory(fingerprint, {})
        return memory

    def _check_manifest(
        self, graph: DiGraph, manifest_path: Path, known: dict[Path, _Known]
    ) -> _Known:
        """Verify a manifest's checksum and ``graph``-shape (corruption tripwire).

        Returns the verified file, so each caller reads it once.
        """
        verified = self._verified_file(manifest_path, known)
        manifest = verified.payload
        expected = {
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "allow_self_loops": graph.allow_self_loops,
        }
        for key, value in expected.items():
            if manifest.get(key) != value:
                raise StoreError(
                    f"manifest {manifest_path} disagrees with the live graph on {key} "
                    f"({manifest.get(key)!r} != {value!r}); the store entry is corrupt"
                )
        return verified

    @staticmethod
    def _entry_name(method: str, config_document: dict[str, Any]) -> str:
        """Deterministic file name of one ``(method, config)`` result entry."""
        digest = hashlib.sha256(
            _canonical_json({"method": method, "config": config_document}).encode("utf-8")
        ).hexdigest()
        return f"{digest[:32]}.json"

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
        already computed (never forces a core decomposition).  Entries whose
        on-disk payload already matches are left untouched and counted as
        ``results_unchanged`` / ``derived_saved: 0``; a corrupt manifest is
        rewritten from the live graph (the fingerprint, not the manifest, is
        the graph's identity).  A file whose bytes match bytes this store
        wrote or verified for the graph is compared by its remembered
        checksum rather than parsed again.

        If the store's last save or complete warm of the graph was of
        ``session``, and neither its
        :attr:`~repro.session.DDSSession.warm_state_version` nor the bytes
        of any file involved have changed since, the save returns the
        counters of that save with every result counted as unchanged.  It
        only reads those files: it builds, encodes and parses no payload,
        and takes no lock, because it writes nothing.

        A full save after a warm of the graph that found two result files
        holding one key removes the one the warm did not seed, once the save
        has written or kept the key's file.
        """
        graph = session.graph
        fingerprint = graph.content_fingerprint()
        # Read before any state is snapshotted: a change made while this
        # save runs leaves the remembered version behind, never ahead.
        version = session.warm_state_version
        self._ensure_marker()
        memory = self._recall(graph, fingerprint)
        known = memory.files
        if (
            memory.session is not None
            and memory.session() is session
            and memory.version == version
            and all(self._holds(path, file) for path, file in known.items())
        ):
            return dict(memory.counters)
        graph_dir = self._graph_dir(fingerprint)
        counters = {
            "results_saved": 0,
            "results_skipped": 0,
            "results_unchanged": 0,
            "derived_saved": 0,
        }
        files: dict[Path, _Known] = {}
        # The whole per-graph write sequence runs under the graph's advisory
        # lock: a concurrent warmer of the same graph blocks here, then sees
        # every just-written entry as current and skips the duplicate work.
        with self._locked(graph_dir):
            manifest_path = graph_dir / "manifest.json"
            # Delta lineage: the content fingerprints of the graph states
            # this session's entries evolved from (one per apply_updates).
            # A session that never applied updates has none — in that case a
            # valid stored lineage is preserved rather than clobbered, so
            # history recorded by an earlier updated session survives saves
            # from cold sessions of the same (final) graph.
            lineage = session.lineage()
            try:
                stored = self._check_manifest(graph, manifest_path, known)
            except StoreError:
                stored = None  # missing or corrupt — rewritten from the live graph
            if stored is not None and not lineage:
                lineage = [str(fingerprint_) for fingerprint_ in stored.payload.get("lineage") or []]
            manifest = {
                "store_schema_version": STORE_SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "num_nodes": graph.num_nodes,
                "num_edges": graph.num_edges,
                "allow_self_loops": graph.allow_self_loops,
                "lineage": lineage,
            }
            if stored is None or stored.payload != manifest:
                checksum, data = _envelope(manifest)
                stored = _Known(self._write_json(manifest_path, data), checksum, manifest)
            files[manifest_path] = stored

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
            derived_path = graph_dir / "derived.json"
            files[derived_path], written = self._save_entry(derived_path, derived, known)
            counters["derived_saved"] = int(written)

            # An answer equal to the one a known file holds is not encoded again.
            known_paths = {
                file.answer[:2]: path for path, file in known.items() if file.answer is not None
            }
            for method, config, value in session.cached_results():
                entry_path = known_paths.get((method, config))
                if entry_path is not None and known[entry_path].answer[2] == value:
                    if self._holds(entry_path, known[entry_path]):
                        files[entry_path] = known[entry_path]
                        counters["results_unchanged"] += 1
                        continue
                document = _entry_document(method, config, value)
                if document is None:
                    counters["results_skipped"] += 1
                    continue
                name, entry = document
                entry_path = graph_dir / "results" / name
                saved, written = self._save_entry(entry_path, entry, known)
                files[entry_path] = dataclasses.replace(saved, answer=(method, config, value))
                counters["results_saved" if written else "results_unchanged"] += 1
            # A twin goes once this save has written or kept its key's file.
            saved_keys = {file.answer[:2] for file in files.values() if file.answer is not None}
            for twin, key in memory.twins.items():
                if key in saved_keys and twin not in files:
                    with contextlib.suppress(OSError):
                        twin.unlink()
        repeat = _repeat_counters(
            counters["results_skipped"], counters["results_unchanged"] + counters["results_saved"]
        )
        with self._lock:
            self._known[graph] = _Memory(fingerprint, files, weakref.ref(session), version, repeat)
        return counters

    def _save_entry(
        self, path: Path, payload: dict[str, Any], known: dict[Path, _Known]
    ) -> tuple[_Known, bool]:
        """Write ``payload``'s checksummed file unless ``path`` already holds it intact.

        The entry counts as current only if its stored payload verifies
        against its own ``checksum`` field, as every read checks it, and that
        field equals the new payload's checksum, so a tampered payload under
        an intact field is rewritten, not kept.  On a warm store serving
        repeated batches that is *every* entry, so the skip removes the
        write churn (and shrinks the concurrent-writer window) of
        re-persisting identical payloads.  A payload equal to the one a known
        file still holds is not even encoded.  Returns the file and whether
        it was written.
        """
        remembered = known.get(path)
        if remembered is not None and remembered.payload == payload and self._holds(path, remembered):
            return remembered, False
        checksum, data = _envelope(payload)
        try:
            current = self._verified_file(path, known)
        except StoreError:
            current = None  # missing, unreadable or tampered — rewrite it
        if current is not None and current.checksum == checksum:
            return current, False
        return _Known(self._write_json(path, data), checksum, payload), True

    @staticmethod
    def _holds(path: Path, file: _Known) -> bool:
        """Whether ``path`` still holds the bytes of ``file`` (read and hashed here, never parsed)."""
        try:
            return _digest(path.read_bytes()) == file.digest
        except OSError:
            return False

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def warm_session(self, session: DDSSession) -> dict[str, int]:
        """Seed ``session`` from the store; returns load counters.

        Counters: ``results_loaded`` / ``results_corrupt`` /
        ``results_incompatible`` (entry is intact but names an unknown kind,
        an unregistered method or flow solver, a foreign config class or a
        field this build lacks), ``derived_loaded`` /
        ``derived_corrupt``, and ``manifest_corrupt`` (the graph directory's
        manifest fails verification — nothing under it is trusted or
        loaded).  Results count every kind of cached answer: densest
        results, fixed-ratio outcomes and top-k lists, each cache key once.
        Two files can hold one key when builds named it differently (an
        entry stored with ``flow_solver="auto"`` and its ``"dinic"`` twin):
        the warm seeds the file this build names for the key, or the first
        in file-name order if it names neither, and the next full
        :meth:`save_session` removes the other.  A graph the store
        has never seen loads nothing and returns
        all-zero counters — warming is always safe to attempt and never
        raises for on-disk damage; serving must not die because a cache
        entry rotted.  The manifest is read once, so a concurrent eviction
        that removes it mid-warm cannot turn into an exception.  Every file
        is read and hashed; one whose bytes match bytes this store wrote or
        verified for the graph is not parsed or re-verified again.

        A complete warm of a session that held no saved state
        (:attr:`~repro.session.DDSSession.warm_state_version` 0) — manifest,
        ``derived.json`` and every result entry loaded, every loaded result
        still cached — remembers the digests of the bytes it verified, so
        the session's next save costs what a repeat save costs.  A save
        leaves a file alone while it holds the payload the save would
        write, so those bytes are what that save would find.
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
        graph_dir = self._graph_dir(fingerprint)
        manifest_path = graph_dir / "manifest.json"
        if not manifest_path.exists():
            return counters
        known = self._recall(graph, fingerprint).files
        try:
            manifest = self._check_manifest(graph, manifest_path, known)
        except StoreError:
            counters["manifest_corrupt"] = 1
            return counters
        files = {manifest_path: manifest}
        stored_lineage = manifest.payload.get("lineage") or []
        if stored_lineage:
            session.seed_lineage(str(fingerprint_) for fingerprint_ in stored_lineage)

        derived_path = graph_dir / "derived.json"
        if derived_path.exists():
            try:
                derived = self._verified_file(derived_path, known)
                payload = derived.payload
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
                files[derived_path] = derived
            except (StoreError, GraphError, KeyError, TypeError, ValueError):
                counters["derived_corrupt"] = 1

        results_dir = graph_dir / "results"
        entry_paths = sorted(results_dir.glob("*.json")) if results_dir.is_dir() else []
        holders: dict[tuple[str, Any], Path] = {}
        twins: dict[Path, tuple[str, Any]] = {}
        for entry_path in entry_paths:
            try:
                entry = self._verified_file(entry_path, known)
                if entry.answer is None:
                    entry = dataclasses.replace(entry, answer=_entry_from_document(entry.payload))
                key = entry.answer[:2]
                holder = holders.get(key)
                if holder is not None:
                    document = _entry_document(*entry.answer)
                    if document is None or document[0] != entry_path.name:
                        twins[entry_path] = key
                        continue
                seeded = session.seed_result(*entry.answer)
            except (AlgorithmError, FlowError, _IncompatibleConfig):
                # Unknown kind, method, flow solver or config field — a store
                # written by a build with extra registered ones (or with a
                # solver or config field since removed); intact but
                # unusable here.
                counters["results_incompatible"] += 1
                continue
            except (StoreError, KeyError, TypeError, ValueError):
                counters["results_corrupt"] += 1
                continue
            if not seeded:
                continue
            if holder is None:
                counters["results_loaded"] += 1
            else:
                twins[holder] = key
                del files[holder]
            holders[key] = entry_path
            files[entry_path] = entry
        memory = _Memory(fingerprint, files, twins=twins)
        # A fresh session caches only what this warm loaded, so a full cache
        # means every entry loaded, none was pushed out again and no two
        # files held one key.
        if (
            fresh
            and counters["derived_loaded"]
            and session.cache_stats()["result_cache_entries"] == len(entry_paths)
        ):
            memory = dataclasses.replace(
                memory,
                session=weakref.ref(session),
                version=session.warm_state_version,
                counters=_repeat_counters(0, len(entry_paths)),
            )
        with self._lock:
            self._known[graph] = memory
        return counters

    def _verified_file(self, path: Path, known: dict[Path, _Known]) -> _Known:
        """Read a checksummed file, raising :class:`StoreError` on tampering.

        Every call reads and hashes the file's bytes.  It parses them and
        re-verifies the checksum unless ``known`` holds a file this store
        wrote or verified with the same digest.
        """
        data, digest = self._read_json(path)
        remembered = known.get(path)
        if remembered is not None and remembered.digest == digest:
            return remembered
        document = self._parse(path, data)
        payload = self._verified(path, document)
        return _Known(digest, document["checksum"], payload)

    @staticmethod
    def _verified(path: Path, document: Any) -> dict[str, Any]:
        """The payload of a parsed entry, or :class:`StoreError` if it fails its checksum."""
        if (
            not isinstance(document, dict)
            or "checksum" not in document
            or "payload" not in document
        ):
            raise StoreError(f"store entry {path} is missing its checksum envelope")
        payload = document["payload"]
        if _checksum(payload) != document["checksum"]:
            raise StoreError(f"store entry {path} fails its integrity checksum")
        if not isinstance(payload, dict):
            raise StoreError(f"store entry {path} payload is not an object")
        return payload

    # ------------------------------------------------------------------
    # management
    # ------------------------------------------------------------------
    def inventory(self) -> list[dict[str, Any]]:
        """One row per stored graph: fingerprint, shape, entry counts, bytes.

        Entries are counted by kind, from their file names: ``results``
        (densest results), ``fixed_ratio`` (fixed-ratio outcomes) and
        ``top_k`` (top-k lists).
        """
        rows: list[dict[str, Any]] = []
        graphs_dir = self.root / "graphs"
        if not graphs_dir.is_dir():
            return rows
        for graph_dir in sorted(graphs_dir.iterdir()):
            if not graph_dir.is_dir():
                continue
            manifest_path = graph_dir / "manifest.json"
            row: dict[str, Any] = {"fingerprint": graph_dir.name}
            try:
                manifest = self._verified_file(manifest_path, {}).payload
                row["num_nodes"] = manifest.get("num_nodes")
                row["num_edges"] = manifest.get("num_edges")
                row["lineage_depth"] = len(manifest.get("lineage") or [])
            except StoreError:
                row["num_nodes"] = row["num_edges"] = None
                row["lineage_depth"] = 0
            names = [path.name for path in (graph_dir / "results").glob("*.json")]
            row["fixed_ratio"] = sum(name.startswith(f"{FIXED_RATIO_ENTRY}-") for name in names)
            row["top_k"] = sum(name.startswith(f"{TOP_K_ENTRY}-") for name in names)
            row["results"] = len(names) - row["fixed_ratio"] - row["top_k"]
            row["derived"] = (graph_dir / "derived.json").exists()
            row["bytes"] = sum(
                path.stat().st_size for path in graph_dir.rglob("*") if path.is_file()
            )
            rows.append(row)
        return rows

    def verify(self) -> list[str]:
        """Integrity-check every entry (manifests included); returns problem strings."""
        problems: list[str] = []
        graphs_dir = self.root / "graphs"
        if not graphs_dir.is_dir():
            return problems
        for graph_dir in sorted(graphs_dir.iterdir()):
            if not graph_dir.is_dir():
                continue
            for path in [
                graph_dir / "manifest.json",
                graph_dir / "derived.json",
                *sorted((graph_dir / "results").glob("*.json")),
            ]:
                if not path.exists():
                    continue
                try:
                    self._verified_file(path, {})
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
        """Age + LRU sweep over the stored result entries (disk-usage cap).

        Two independent policies, applied in order:

        * ``older_than_days`` — delete every ``graphs/*/results/*.json``
          whose mtime is older than the cutoff.  The save path deliberately
          skips rewriting unchanged entries, and warm loads never touch
          mtimes, so an entry's mtime is the last time its *content*
          changed — age eviction removes state no recent workload has
          refreshed.
        * ``max_bytes`` — while the store's total on-disk size (the
          ``bytes`` measure of :meth:`inventory`, summed) exceeds the
          budget, delete result entries oldest-mtime-first (LRU under the
          same mtime reading); graph directories whose results are all gone
          are then dropped whole (manifest and derived state included) if
          the budget is still exceeded.

        Deletions in a graph directory run under its advisory write lock,
        acquired *non-blocking*: a directory whose lock is currently held
        by a writer (a warmer, a saving batch lane) is skipped outright —
        never raced, never queued behind — and counted in
        ``skipped_locked`` for the next sweep to revisit.  Returns
        counters: ``results_evicted``, ``graphs_evicted``, ``bytes_freed``,
        ``bytes_remaining``, ``skipped_locked``.  At least one policy must
        be given.
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
            "skipped_locked": 0,
        }
        graphs_dir = self.root / "graphs"
        if not graphs_dir.is_dir():
            return counters
        current_time = time.time() if now is None else float(now)

        def graph_dirs() -> list[Path]:
            return sorted(path for path in graphs_dir.iterdir() if path.is_dir())

        def unlink(path: Path) -> int | None:
            """Remove one file; bytes it occupied, or ``None`` if removal failed."""
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                return None
            return size

        if older_than_days is not None:
            cutoff = current_time - float(older_than_days) * 86400.0
            for graph_dir in graph_dirs():
                with self._try_locked(graph_dir) as acquired:
                    if not acquired:
                        counters["skipped_locked"] += 1
                        continue
                    for entry in sorted((graph_dir / "results").glob("*.json")):
                        try:
                            mtime = entry.stat().st_mtime
                        except OSError:
                            continue
                        if mtime < cutoff:
                            freed = unlink(entry)
                            if freed is not None:
                                counters["bytes_freed"] += freed
                                counters["results_evicted"] += 1

        def total_bytes() -> int:
            return sum(
                path.stat().st_size
                for graph_dir in graph_dirs()
                for path in graph_dir.rglob("*")
                if path.is_file()
            )

        if max_bytes is not None:
            remaining = total_bytes()
            entries: list[tuple[float, Path]] = []
            for graph_dir in graph_dirs():
                for entry in (graph_dir / "results").glob("*.json"):
                    try:
                        entries.append((entry.stat().st_mtime, entry))
                    except OSError:
                        continue
            entries.sort(key=lambda pair: (pair[0], str(pair[1])))
            for _, entry in entries:
                if remaining <= max_bytes:
                    break
                with self._try_locked(entry.parent.parent) as acquired:
                    if not acquired:
                        counters["skipped_locked"] += 1
                        continue
                    freed = unlink(entry)
                if freed is None:
                    continue
                counters["bytes_freed"] += freed
                counters["results_evicted"] += 1
                remaining -= freed
            if remaining > max_bytes:
                # Result entries alone cannot meet the budget: drop whole
                # graph directories (oldest manifest first) until it fits.
                ranked = sorted(
                    graph_dirs(),
                    key=lambda path: (
                        (path / "manifest.json").stat().st_mtime
                        if (path / "manifest.json").exists()
                        else 0.0,
                        str(path),
                    ),
                )
                for graph_dir in ranked:
                    if remaining <= max_bytes:
                        break
                    lock_path = graph_dir / ".lock"
                    with self._try_locked(graph_dir) as acquired:
                        if not acquired:
                            counters["skipped_locked"] += 1
                            continue
                        # Everything except the lock file goes while the
                        # lock is held: unlinking .lock here would detach
                        # the very inode concurrent writers flock on and
                        # let one into the "exclusive" section mid-sweep.
                        freed = 0
                        for path in sorted(graph_dir.rglob("*"), reverse=True):
                            if path == lock_path:
                                continue
                            if path.is_file():
                                freed += unlink(path) or 0
                            else:
                                with contextlib.suppress(OSError):
                                    path.rmdir()
                    # Only after releasing: drop the lock file and the dir.
                    # A warmer that slips in between simply recreates the
                    # graph (rmdir fails on the non-empty dir) — last writer
                    # wins, nothing is torn.
                    with contextlib.suppress(OSError):
                        lock_path.unlink()
                    with contextlib.suppress(OSError):
                        graph_dir.rmdir()
                    counters["bytes_freed"] += freed
                    counters["graphs_evicted"] += 1
                    remaining -= freed
        counters["bytes_remaining"] = total_bytes()
        return counters

    def clear(self) -> int:
        """Delete every stored graph; returns how many were dropped."""
        graphs_dir = self.root / "graphs"
        if not graphs_dir.is_dir():
            return 0
        dropped = 0
        for graph_dir in sorted(graphs_dir.iterdir()):
            if not graph_dir.is_dir():
                continue
            for path in sorted(graph_dir.rglob("*"), reverse=True):
                if path.is_file():
                    path.unlink()
                else:
                    path.rmdir()
            graph_dir.rmdir()
            dropped += 1
        return dropped
