"""Canonical JSON and its checksum: the one form the store and the wire hash.

The session store (:mod:`repro.service.store`) wraps every file's payload
and the network protocol (:mod:`repro.net.protocol`) every frame's payload
with ``sha256(canonical_json(payload))``; both import the pair from here, so
a store entry and a wire payload are verified by the same arithmetic.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, compact separators.

    Raises ``TypeError`` or ``ValueError`` (from :func:`json.dumps`) when
    ``payload`` is not JSON-serialisable.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def checksum(payload: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
