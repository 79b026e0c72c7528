"""``dds-repro serve`` end to end: a daemon process answers a remote lane, and SIGTERM drains it.

The command's SIGINT/SIGTERM handler is the one caller of
:meth:`~repro.net.daemon.ShardDaemon.drain` outside the tests, so it runs
here in a real process: the ready line names the address, a ping and a
remote batch are answered over it, and the signal stops the daemon with
exit code 0 after flushing its one resident session to the store.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets.registry import load_dataset
from repro.net import ShardClient
from repro.service import BatchExecutor, SessionStore, payload_answer, plan_batch

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(os.name != "posix", reason="sends SIGTERM to a child process")


def _serve(store: Path) -> subprocess.Popen:
    """Start ``python -m repro serve`` on an ephemeral port over ``store``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", str(store)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_serve_answers_a_remote_lane_and_drains_on_sigterm(tmp_path):
    store_root = tmp_path / "served"
    plan = plan_batch([{"query": "densest", "method": "core-exact"}], default_graph_key="foodweb-tiny")
    local = BatchExecutor(load_dataset).execute(plan)
    with _serve(store_root) as process:
        try:
            assert select.select([process.stdout], [], [], 60)[0], "no ready line within 60 s"
            ready = json.loads(process.stdout.readline())
            address = ready["serving"]
            assert ready["store"] == str(store_root)

            client = ShardClient(address)
            try:
                pong = client.ping(echo="up")
            finally:
                client.close()
            assert (pong["pong"], pong["echo"], pong["sessions_resident"]) == (True, "up", 0)

            with BatchExecutor(load_dataset, remote_hosts=[address]) as executor:
                report = executor.execute(plan)
            stats = report.executor_stats
            assert (stats["mode"], stats["lanes_remote"], stats["lanes_inline"]) == ("remote", 1, 0)
            assert [payload_answer(p) for p in report.results_in_input_order()] == [
                payload_answer(p) for p in local.results_in_input_order()
            ]

            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=60)
        except BaseException:
            process.kill()
            process.communicate()
            raise
    assert process.returncode == 0, err
    stopped = json.loads(out.splitlines()[-1])
    assert stopped["stopped"] == address
    assert (stopped["stats"]["draining"], stopped["stats"]["sessions_flushed"]) == (True, 1)
    assert stopped["stats"]["requests"] == {"ping": 1, "solve": 1}
    store = SessionStore(store_root)
    try:
        [row] = store.inventory()
    finally:
        store.close()
    assert row["fingerprint"] == load_dataset("foodweb-tiny").content_fingerprint()
    assert row["results"] == 1


def test_serve_refuses_a_drain_grace_it_could_not_honour(tmp_path):
    """An infinite or non-positive grace is refused before the daemon serves."""
    from repro.cli import main

    for grace in ("inf", "nan", "0", "-1"):
        with pytest.raises(SystemExit, match="--drain-grace must be a positive finite number"):
            main(["serve", "--port", "0", "--drain-grace", grace, "--store", str(tmp_path / "s")])
    assert not (tmp_path / "s").exists()
