"""Saves that cost what changed: what a ``SessionStore`` remembers per live graph.

A store remembers, for each graph it saved or warmed, the generation of
the graph's rows, each row's checksum and decoded answer, and the session
whose whole state they hold with its ``warm_state_version``; it answers a
save of that session, unchanged, from that memory.  These tests pin that
the memory never changes what a save does:

* **Differential** — random operation sequences, with saves in between,
  give equal counters and identical rows whether every save goes through
  one long-lived store or through a store opened for that save.
* **No payload work** — a repeat save, and the first save after a complete
  warm, read one generation and build, encode, parse and write nothing.
* **Repair** — a row deleted, replaced or tampered with between two saves is
  rewritten by the next one, and no other row is touched.
* **Partial warms** — a warm that did not load everything names no session.
* **One session per graph** — a save of a second session of the graph takes
  the memory over, and the first session's next save is a full one.
* **Threads** — concurrent saves into one store lose no memory, and
  sessions sharing one graph never get a remembered answer their row does
  not hold.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
from pathlib import Path

import pytest
import store_rows

from repro.core.results import DDSResult
from repro.datasets.registry import load_dataset
from repro.exceptions import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnm_random_digraph
from repro.service import SessionStore
from repro.service import store as store_module
from repro.session import DDSSession

METHODS = (
    "auto",
    "brute-force",
    "core-approx",
    "core-exact",
    "dc-exact",
    "flow-exact",
    "inc-approx",
    "peel-approx",
)


def _snapshot(root: Path) -> dict[tuple[str, str], tuple]:
    """Every row's kind, text and checksum, with an entry's write time."""
    written = store_rows.written(root)
    return {name: (*row, written.get(name)) for name, row in store_rows.rows(root).items()}


def _forbid_payload_work(monkeypatch) -> None:
    """Make building, encoding, parsing, reading or writing a row fail."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a save of an unchanged session did payload work")

    monkeypatch.setattr(DDSResult, "to_dict", forbidden)
    monkeypatch.setattr(SessionStore, "_read", forbidden)
    monkeypatch.setattr(SessionStore, "_write", forbidden)
    monkeypatch.setattr(store_module, "_decode", forbidden)
    monkeypatch.setattr(store_module, "_canonical_json", forbidden)
    monkeypatch.setattr(store_module, "_digest", forbidden)


def _count_full_saves(monkeypatch) -> list[str]:
    """Record every save that reaches the write transaction (the full path)."""
    calls: list[str] = []
    write = SessionStore._write

    def spy(self, fingerprint, generation, writes):
        calls.append(fingerprint)
        return write(self, fingerprint, generation, writes)

    monkeypatch.setattr(SessionStore, "_write", spy)
    return calls


def _repeat(counters: dict[str, int]) -> dict[str, int]:
    """The counters a save of the unchanged session reports after ``counters``."""
    return {
        "results_saved": 0,
        "results_skipped": counters["results_skipped"],
        "results_unchanged": counters["results_unchanged"] + counters["results_saved"],
        "derived_saved": 0,
    }


# ----------------------------------------------------------------------
# differential property
# ----------------------------------------------------------------------
class _Twins:
    """One session saved through a long-lived store, its twin through a store per save.

    Every operation is drawn once and applied to both, so the two sessions
    hold the same state throughout; only the stores' memory differs.
    """

    CACHE_SIZE = 3

    def __init__(self, rng: random.Random, root: Path) -> None:
        self.rng = rng
        self.long_root = root / "long"
        self.fresh_root = root / "fresh"
        self.long_store = SessionStore(self.long_root)
        graph = gnm_random_digraph(7, 16, seed=rng.randrange(10**6))
        self.sessions = [self._session(graph.copy()), self._session(graph.copy())]

    def _session(self, graph: DiGraph) -> DDSSession:
        return DDSSession(graph, result_cache_size=self.CACHE_SIZE)

    def _stores(self) -> list[SessionStore]:
        return [self.long_store, SessionStore(self.fresh_root)]

    def _both(self, operation) -> None:
        for session in self.sessions:
            operation(session)

    def save(self) -> None:
        counters = [
            store.save_session(session) for store, session in zip(self._stores(), self.sessions)
        ]
        assert counters[0] == counters[1]
        assert store_rows.rows(self.long_root) == store_rows.rows(self.fresh_root)

    # -- operations ----------------------------------------------------
    def query(self) -> None:
        method = self.rng.choice(METHODS)
        self._both(lambda session: session.densest_subgraph(method))

    def top_k(self) -> None:
        method = self.rng.choice(("core-approx", "core-exact"))
        self._both(lambda session: session.top_k(2, method=method))

    def fixed_ratio(self) -> None:
        ratio = self.rng.choice((0.5, 1.0, 2.0))
        self._both(lambda session: session.fixed_ratio(ratio))

    def xy_core(self) -> None:
        x, y = self.rng.randint(1, 3), self.rng.randint(1, 3)
        self._both(lambda session: session.xy_core(x, y))

    def max_core(self) -> None:
        self._both(lambda session: session.max_xy_core())

    def reads(self) -> None:
        def read(session: DDSSession) -> None:
            session.density_upper_bound()
            session.exactness_tolerance()
            session.summary()

        self._both(read)

    def update(self) -> None:
        """Remove an edge, add one, or remove one and add it straight back."""
        graph = self.sessions[0].graph
        certify = self.rng.random() < 0.5
        edges = sorted(graph.edges())
        absent = [
            (u, v) for u in graph.nodes() for v in graph.nodes() if u != v and not graph.has_edge(u, v)
        ]
        kind = self.rng.choice(("remove", "add", "round-trip"))
        if kind == "add" and absent:
            deltas = [([self.rng.choice(absent)], [])]
        elif len(edges) > 8:
            edge = self.rng.choice(edges)
            deltas = [([], [edge])] + ([([edge], [])] if kind == "round-trip" else [])
        else:
            return
        for added, removed in deltas:
            self._both(lambda session: session.apply_updates(added, removed, certify=certify))

    def clear(self) -> None:
        self._both(lambda session: session.clear_cache())

    def warm_fresh(self) -> None:
        fresh = [self._session(session.graph.copy()) for session in self.sessions]
        counters = [store.warm_session(session) for store, session in zip(self._stores(), fresh)]
        assert counters[0] == counters[1]
        self.sessions = fresh

    def warm_live(self) -> None:
        counters = [
            store.warm_session(session) for store, session in zip(self._stores(), self.sessions)
        ]
        assert counters[0] == counters[1]

    def seed(self) -> None:
        """Seed a result or a core computed elsewhere (the store's hooks)."""
        donor = DDSSession(self.sessions[0].graph.copy())
        if self.rng.random() < 0.5:
            donor.densest_subgraph(self.rng.choice(METHODS[2:]))
            [(method, config, result)] = donor.cached_results()
            self._both(lambda session: session.seed_result(method, config, result))
        else:
            core = donor.xy_core(self.rng.randint(1, 3), self.rng.randint(1, 3))
            self._both(lambda session: session.seed_derived(xy_cores=[core]))

    def damage(self) -> None:
        """Delete or tamper with one store row, identically in both databases."""
        rows = sorted(store_rows.rows(self.long_root))
        if not rows:
            return
        name = self.rng.choice(rows)
        delete = self.rng.random() < 0.5
        for root in (self.long_root, self.fresh_root):
            if delete:
                store_rows.delete_row(root, name)
            else:
                store_rows.tamper(root, name, lambda payload: payload.update(tampered=True))

    OPERATIONS = (
        query,
        query,
        top_k,
        fixed_ratio,
        xy_core,
        xy_core,
        max_core,
        reads,
        update,
        update,
        clear,
        warm_fresh,
        warm_live,
        seed,
        seed,
        damage,
    )


@pytest.mark.parametrize("seed", range(16))
def test_long_lived_store_saves_what_a_fresh_store_saves(seed, tmp_path):
    """A store's memory changes no counter and no byte of what a save writes."""
    rng = random.Random(seed)
    twins = _Twins(rng, tmp_path)
    for _ in range(40):
        rng.choice(_Twins.OPERATIONS)(twins)
        if rng.random() < 0.6:
            twins.save()
    twins.save()


# ----------------------------------------------------------------------
# the fast path does no payload work
# ----------------------------------------------------------------------
@pytest.fixture
def graph() -> DiGraph:
    return load_dataset("foodweb-tiny")


def _served(graph: DiGraph) -> DDSSession:
    session = DDSSession(graph)
    session.densest_subgraph("core-exact")
    session.densest_subgraph("core-approx")
    session.xy_core(1, 1)
    return session


def test_repeat_save_builds_and_reads_no_payload(graph, tmp_path, monkeypatch):
    store = SessionStore(tmp_path)
    session = _served(graph)
    session.fixed_ratio(1.0)  # a first probe caches its outcome
    first = store.save_session(session)
    # Cache hits and reads of derived state change nothing the store keeps.
    session.densest_subgraph("core-exact")
    session.density_upper_bound()
    session.fixed_ratio(1.0)
    _forbid_payload_work(monkeypatch)
    assert store.save_session(session) == _repeat(first)
    assert store.save_session(session) == _repeat(first)


def test_repeat_save_keeps_skipped_results_counted(tmp_path, monkeypatch):
    session = DDSSession(DiGraph.from_edges([((1, "a"), (2, "b")), ((1, "a"), (3, "c"))]))
    session.densest_subgraph("core-approx")
    store = SessionStore(tmp_path)
    first = store.save_session(session)
    assert first["results_skipped"] == 1
    _forbid_payload_work(monkeypatch)
    assert store.save_session(session) == _repeat(first)


def test_save_after_a_complete_warm_builds_no_payload(graph, tmp_path, monkeypatch):
    store = SessionStore(tmp_path)
    first = store.save_session(_served(graph))
    session = DDSSession(load_dataset("foodweb-tiny"))
    counters = store.warm_session(session)
    assert counters["results_loaded"] == 2 and counters["derived_loaded"] == 1
    session.densest_subgraph("core-approx")  # served from the warmed cache
    _forbid_payload_work(monkeypatch)
    assert store.save_session(session) == _repeat(first)


def test_graph_mutated_behind_the_session_still_raises(graph, tmp_path):
    """Pins that a remembered session whose graph changed outside it saves in full."""
    store = SessionStore(tmp_path)
    session = _served(graph)
    store.save_session(session)
    graph.add_edge("mutated-source", "mutated-target")
    with pytest.raises(GraphError, match="structurally mutated"):
        store.save_session(session)


def test_a_second_session_of_the_graph_takes_over_the_memory(graph, tmp_path, monkeypatch):
    """Pins that the memory names one session per graph: the one that saved last."""
    store = SessionStore(tmp_path)
    first, second = _served(graph), _served(graph)
    full_saves = _count_full_saves(monkeypatch)
    counters = store.save_session(first)
    assert store.save_session(first) == _repeat(counters)
    assert len(full_saves) == 1
    # The second session holds the same state, so its save replaces the
    # memory and writes nothing; the first one's next save is a full one.
    assert store.save_session(second) == _repeat(counters)
    assert store._known[graph].session() is second
    assert store.save_session(first) == _repeat(counters)
    assert len(full_saves) == 3
    assert store.save_session(first) == _repeat(counters)
    assert len(full_saves) == 3


# ----------------------------------------------------------------------
# damage between fast-path saves is repaired
# ----------------------------------------------------------------------
@pytest.fixture
def remembered(graph, tmp_path):
    """A session saved twice, so its store remembers it; and the first counters."""
    store = SessionStore(tmp_path)
    session = _served(graph)
    counters = store.save_session(session)
    assert store.save_session(session) == _repeat(counters)
    return store, session, counters


def _others(rows: dict, name: tuple[str, str]) -> dict:
    """``rows`` without ``name``."""
    return {key: value for key, value in rows.items() if key != name}


def test_deleted_result_entry_is_rewritten(remembered, tmp_path):
    store, session, first = remembered
    before = _snapshot(tmp_path)
    victim = store_rows.entries(tmp_path)[0]
    store_rows.delete_row(tmp_path, victim)
    counters = store.save_session(session)
    assert counters == {**_repeat(first), "results_saved": 1, "results_unchanged": 1}
    after = _snapshot(tmp_path)
    assert after[victim][:3] == before[victim][:3]
    assert _others(after, victim) == _others(before, victim)


def test_derived_state_replaced_by_another_store_is_rewritten(remembered, graph, tmp_path):
    store, session, first = remembered
    derived = (graph.content_fingerprint(), "derived")
    original = store_rows.rows(tmp_path)[derived]
    other = DDSSession(load_dataset("foodweb-tiny"))
    other.max_xy_core()
    SessionStore(tmp_path).save_session(other)
    assert store_rows.rows(tmp_path)[derived] != original
    before = _snapshot(tmp_path)
    counters = store.save_session(session)
    assert counters == {**_repeat(first), "derived_saved": 1}
    after = _snapshot(tmp_path)
    assert after[derived][:3] == original
    assert _others(after, derived) == _others(before, derived)


def test_tampered_manifest_is_rewritten(remembered, graph, tmp_path):
    store, session, first = remembered
    manifest = (graph.content_fingerprint(), "manifest")
    original = store_rows.rows(tmp_path)[manifest]
    store_rows.tamper(tmp_path, manifest, lambda payload: payload.update(num_edges=payload["num_edges"] + 1))
    before = _snapshot(tmp_path)
    assert store.save_session(session) == _repeat(first)
    after = _snapshot(tmp_path)
    assert after[manifest][:3] == original
    assert _others(after, manifest) == _others(before, manifest)
    assert store.verify() == []


# ----------------------------------------------------------------------
# warms that must not set the memory
# ----------------------------------------------------------------------
def _corrupt_result(root: Path) -> None:
    entry = store_rows.entries(root)[0]
    store_rows.tamper(root, entry, lambda payload: payload["result"].update(density=999.0))


def _incompatible_result(root: Path) -> None:
    entry = store_rows.entries(root)[0]
    store_rows.edit_row(root, entry, dict(store_rows.payload(root, entry), method="not-a-registered-method"))


def _derived(root: Path) -> tuple[str, str]:
    [name] = [name for name in store_rows.rows(root) if name[1] == "derived"]
    return name


def _corrupt_derived(root: Path) -> None:
    store_rows.tamper(root, _derived(root), lambda payload: payload.update(density_upper_bound=999.0))


def _delete_derived(root: Path) -> None:
    store_rows.delete_row(root, _derived(root))


@pytest.mark.parametrize(
    "damage", [_corrupt_result, _incompatible_result, _corrupt_derived, _delete_derived]
)
def test_partial_warm_sets_no_memory(damage, graph, tmp_path, monkeypatch):
    """Pins that a warm that missed something leaves the next save on the full path."""
    store = SessionStore(tmp_path)
    store.save_session(_served(graph))
    damage(tmp_path)
    session = DDSSession(load_dataset("foodweb-tiny"))
    store.warm_session(session)
    full_saves = _count_full_saves(monkeypatch)
    store.save_session(session)
    assert len(full_saves) == 1
    if damage in (_corrupt_derived, _delete_derived):
        assert store.verify() == []
        assert SessionStore(tmp_path).warm_session(DDSSession(graph.copy()))["derived_loaded"] == 1


def test_warm_of_a_session_holding_state_sets_no_memory(graph, tmp_path, monkeypatch):
    """Pins that a warm merging into held state leaves the next save on the full path."""
    store = SessionStore(tmp_path)
    store.save_session(_served(graph))
    session = DDSSession(load_dataset("foodweb-tiny"))
    session.xy_core(2, 2)
    counters = store.warm_session(session)
    assert counters["results_loaded"] == 2 and counters["derived_loaded"] == 1
    full_saves = _count_full_saves(monkeypatch)
    assert store.save_session(session)["derived_saved"] == 1  # the held core
    assert len(full_saves) == 1


def test_warm_past_the_result_cache_sets_no_memory(graph, tmp_path, monkeypatch):
    """Pins that a warm whose results did not all stay cached remembers nothing."""
    store = SessionStore(tmp_path)
    store.save_session(_served(graph))
    session = DDSSession(load_dataset("foodweb-tiny"), result_cache_size=1)
    assert store.warm_session(session)["results_loaded"] == 2
    full_saves = _count_full_saves(monkeypatch)
    assert store.save_session(session)["results_unchanged"] == 1
    assert len(full_saves) == 1


# ----------------------------------------------------------------------
# threads
# ----------------------------------------------------------------------
def test_threads_saving_into_one_store_lose_no_memory(tmp_path, monkeypatch):
    """More threads than cores save and re-save into one store.

    Threads come in twin pairs that run the same operations on copies of one
    graph, so both leave identical state.  Every session must be remembered
    afterwards.  No row is written after a pair's last save, so the twin
    that saved last is remembered at the current generation; only the other
    may read rows again, once, and it must find every row current.  A lost
    update to the shared memory would leave some session unremembered, or
    no twin of a pair current, and fail the checks.
    """
    store = SessionStore(tmp_path)
    pairs = (os.cpu_count() or 2) + 1
    graphs = [gnm_random_digraph(12, 36, seed=seed) for seed in range(pairs)]
    sessions = [DDSSession(graph.copy()) for graph in graphs for _ in range(2)]
    last: dict[int, dict[str, int]] = {}
    errors: list[BaseException] = []

    def work(index: int) -> None:
        session = sessions[index]
        rng = random.Random(index // 2)  # twins draw the same operations
        try:
            for _ in range(6):
                if rng.random() < 0.5:
                    session.xy_core(rng.randint(1, 3), rng.randint(1, 3))
                else:
                    session.densest_subgraph(rng.choice(("core-approx", "core-exact", "peel-approx")))
                last[index] = store.save_session(session)
                # A repeat save: full whenever the twin wrote a row since.
                store.save_session(session)
        except BaseException as error:  # noqa: BLE001 - reported by the main thread
            errors.append(error)

    threads = [threading.Thread(target=work, args=(index,)) for index in range(len(sessions))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for pair, graph in enumerate(graphs):
        twins = sessions[2 * pair : 2 * pair + 2]
        memories = [store._known[session.graph] for session in twins]
        for session, memory in zip(twins, memories):
            assert memory.session() is session and memory.version == session.warm_state_version
        assert store._generation(graph.content_fingerprint()) in [memory.generation for memory in memories]
    assert store.verify() == []
    for pair, graph in enumerate(graphs):
        warmed = DDSSession(graph.copy())
        counters = SessionStore(tmp_path).warm_session(warmed)
        held = {(method, config) for method, config, _ in sessions[2 * pair].cached_results()}
        assert counters["results_loaded"] == len(held)
        assert {(method, config) for method, config, _ in warmed.cached_results()} == held
    full_saves = _count_full_saves(monkeypatch)
    generations = [store._generation(graph.content_fingerprint()) for graph in graphs]
    for index, session in enumerate(sessions):
        assert store.save_session(session) == _repeat(last[index])
    assert [store._generation(graph.content_fingerprint()) for graph in graphs] == generations
    assert len(full_saves) <= len(graphs)
    monkeypatch.undo()
    _forbid_payload_work(monkeypatch)
    for index, session in enumerate(sessions):
        assert store.save_session(session) == _repeat(last[index])


def test_threads_sharing_one_graph_never_serve_a_stale_payload(tmp_path):
    """Sessions over one graph warm, answer and save concurrently into one store.

    They share the store's memory of that graph's rows.  Every answer it
    remembers under a checksum the row still carries must be what that row
    holds, and every warmed answer must be a cold session's.
    """
    store = SessionStore(tmp_path)
    graph = gnm_random_digraph(12, 40, seed=5)
    cold = DDSSession(graph.copy())  # answered here, before the threads start
    ratios = {ratio: cold.fixed_ratio(ratio) for ratio in (0.5, 1.0, 2.0)}
    lists = {
        (k, method): [result.density for result in cold.top_k(k, method=method)]
        for k in (1, 2)
        for method in ("core-approx", "core-exact")
    }
    errors: list[BaseException] = []

    def work(index: int) -> None:
        rng = random.Random(index)
        try:
            for _ in range(5):
                session = DDSSession(graph)
                store.warm_session(session)
                for method, config, answer in session.cached_results():
                    if method == "fixed-ratio":
                        assert answer == ratios[config[0]]
                    elif method == "top-k":
                        assert [r.density for r in answer] == lists[config[0], config[2]]
                ratio = rng.choice((0.5, 1.0, 2.0))
                session.fixed_ratio(ratio)
                session.top_k(rng.randint(1, 2), method=rng.choice(("core-approx", "core-exact")))
                store.save_session(session)
        except BaseException as error:  # noqa: BLE001 - reported by the main thread
            errors.append(error)

    threads = [threading.Thread(target=work, args=(index,)) for index in range((os.cpu_count() or 2) + 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert store.verify() == []
    fingerprint = graph.content_fingerprint()
    rows = {key: row for (owner, key), row in store_rows.rows(tmp_path).items() if owner == fingerprint}
    checked = 0
    for key, remembered in store._known[graph].rows.items():
        if key not in rows or rows[key][2] != remembered.checksum:
            continue
        payload = json.loads(rows[key][1])
        if key in ("manifest", "derived"):
            assert remembered.answer in (None, payload)
        elif remembered.answer is not None:
            assert remembered.answer == store_module._entry_from_document(payload)
        checked += 1
    assert checked > 0
