"""Embedded SHA-256 digests for durable artifacts.

Checkpoints, snapshots and stream-cache entries are JSON documents written
atomically (temp file + fsync + rename), which protects against *torn*
writes — but nothing previously protected against the bytes changing
*after* the write: bit rot, truncation by an external tool, a well-meaning
editor, or a crash in a filesystem without rename barriers.  Replaying a
corrupt checkpoint silently poisons every downstream measurement, so in
the spirit of error-detecting codes each artifact now carries enough
redundancy to *detect* corruption on load.

The scheme is deliberately minimal: the digest of a document is the
SHA-256 of its canonical JSON serialisation (sorted keys, no whitespace)
**excluding** the digest field itself.  :func:`sealed_text` is what the
checkpoint and snapshot writers put on disk: that canonical text with the
digest member spliced in, so a document is serialised once per write.
:func:`verify_document` checks a loaded document and raises
:class:`~repro.exceptions.IntegrityError` on mismatch.  It re-canonicalises
what it loaded, so the digest is independent of key order and formatting:
files written as ``json.dumps(embed_digest(document))`` (the layout before
:func:`sealed_text`) load as well — only changing the *data* invalidates
an artifact.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from repro.exceptions import IntegrityError

#: Key under which the digest is embedded in artifact documents.
DIGEST_KEY = "sha256"


def _canonical_text(document: Dict[str, Any]) -> str:
    body = {key: value for key, value in document.items() if key != DIGEST_KEY}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def canonical_bytes(document: Dict[str, Any]) -> bytes:
    """The canonical serialisation of ``document`` (digest field excluded)."""
    return _canonical_text(document).encode("utf-8")


def document_digest(document: Dict[str, Any]) -> str:
    """Hex SHA-256 of the canonical serialisation of ``document``."""
    return hashlib.sha256(canonical_bytes(document)).hexdigest()


def sealed_text(document: Dict[str, Any]) -> str:
    """The canonical JSON text of ``document`` with its digest embedded.

    One serialisation: the canonical text is hashed, then the digest
    member is spliced in before its closing brace.  The result parses to
    ``document`` plus :data:`DIGEST_KEY`, which :func:`verify_document`
    accepts.
    """
    text = _canonical_text(document)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    separator = "," if len(text) > 2 else ""  # "{}" has no member to follow
    return f'{text[:-1]}{separator}"{DIGEST_KEY}":"{digest}"}}'


def embed_digest(document: Dict[str, Any]) -> Dict[str, Any]:
    """Return ``document`` with its digest embedded under :data:`DIGEST_KEY`."""
    document[DIGEST_KEY] = document_digest(document)
    return document


def verify_document(
    document: Dict[str, Any],
    *,
    source: Optional[object] = None,
    required: bool = True,
) -> Dict[str, Any]:
    """Check the embedded digest of ``document``; raise on absence or mismatch.

    With ``required=False`` a document without a digest passes (for formats
    whose older versions predate integrity stamping); a *present but wrong*
    digest always raises.
    """
    stored = document.get(DIGEST_KEY)
    if stored is None:
        if required:
            raise IntegrityError(
                "artifact carries no integrity digest"
                + (f" ({source})" if source is not None else ""),
                source=source,
            )
        return document
    actual = document_digest(document)
    if stored != actual:
        raise IntegrityError(
            "artifact failed its integrity check: stored digest "
            f"{stored!r} != computed {actual!r}"
            + (f" ({source})" if source is not None else ""),
            source=source,
        )
    return document
