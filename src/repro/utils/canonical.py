"""Canonical JSON and its SHA-256 digest: the one form the store and the wire hash.

The session store (:mod:`repro.service.store`) keeps every row's payload
as its canonical JSON text beside :func:`digest` of that text, and the
network protocol (:mod:`repro.net.protocol`) frames every payload as its
canonical JSON text with the same digest as its checksum.  Both build the
text with :func:`canonical_json` and hash it with :func:`digest`, so a store
entry and a wire payload are verified by the same arithmetic.
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


def digest(text: str | bytes | memoryview) -> str:
    """SHA-256 hex digest of ``text``, UTF-8 encoded when it is a ``str``."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def checksum(payload: Any) -> str:
    """:func:`digest` of :func:`canonical_json` of ``payload``."""
    return digest(canonical_json(payload))
