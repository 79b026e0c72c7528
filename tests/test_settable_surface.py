"""The settable surface: every config field and constructor keyword a caller can set.

A new knob shows up here as a diff to the lists below, so adding one is a
visible decision rather than a side effect of some other change.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.core.config import ApproxConfig, ExactConfig
from repro.net import ShardClient, ShardDaemon
from repro.service import BatchExecutor
from repro.session import DDSSession


def _parameters(function) -> list[str]:
    return [name for name in inspect.signature(function).parameters if name != "self"]


def test_config_fields():
    assert [field.name for field in dataclasses.fields(ExactConfig)] == [
        "tolerance",
        "seed_with_core",
        "deadline_ms",
    ]
    assert [field.name for field in dataclasses.fields(ApproxConfig)] == ["epsilon"]


@pytest.mark.parametrize(
    "function, names",
    [
        (DDSSession.__init__, ["graph", "flow", "result_cache_size"]),
        (
            BatchExecutor.__init__,
            [
                "graphs",
                "flow",
                "result_cache_size",
                "max_workers",
                "store",
                "process_pool",
                "remote_hosts",
                "max_retries",
                "deadline_ms",
            ],
        ),
        (
            ShardDaemon.__init__,
            [
                "store",
                "host",
                "port",
                "max_sessions",
                "max_workers",
                "flow",
                "result_cache_size",
                "read_timeout",
                "fault_injection",
            ],
        ),
        (
            ShardClient.solve_lane,
            ["graph_key", "fingerprint", "entries", "graph", "deadline_ms"],
        ),
    ],
    ids=["DDSSession", "BatchExecutor", "ShardDaemon", "ShardClient.solve_lane"],
)
def test_constructor_and_lane_keywords(function, names):
    assert _parameters(function) == names
