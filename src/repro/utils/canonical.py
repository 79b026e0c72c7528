"""Canonical JSON and its checksum: the one form the store and the wire hash.

The session store (:mod:`repro.service.store`) keeps every row's payload
as its canonical JSON text beside ``sha256(canonical_json(payload))``, and
the network protocol (:mod:`repro.net.protocol`) wraps every frame's payload
with that checksum; both encode through here, so a store entry and a wire
payload are verified by the same arithmetic.
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
