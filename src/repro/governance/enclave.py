"""Secure enclave simulation: sealed stores with gated, audited access.

NAIRR's "secure enclave vision" (Section 5) at module scale: sensitive
datasets live *sealed* — payloads encrypted at rest with a keyed stream
cipher, readable only through an enclave session whose every access is
audit-logged — and leave the enclave only through an explicit
*declassification* step that runs a compliance policy first.  That is the
workflow property the paper identifies as a readiness blocker.

Sealing (v2) is encrypt-then-MAC over standard-library primitives.  The
keystream is a keyed XOF — ``SHAKE-256(enc_key | nonce | segment_index)``,
one call per fixed-size segment, i.e. a real PRF-based stream cipher —
and the tag is HMAC-SHA256 over ``nonce | ciphertext``.  Cipher and MAC
keys are derived separately from the enclave key, so a blob sealed by the
v1 construction (per-block HMAC counter keystream, one shared key) fails
the integrity check instead of decrypting to garbage.  Claimed:
confidentiality and integrity of blobs at rest against an attacker
without the key, and no key shared between primitives.  Not claimed: a
vetted AEAD, side-channel hardening, nonce-misuse resistance or key
rotation — resistance to nation-state adversaries is not what the
reproduction needs to show.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import os
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.dataset import Dataset, DatasetMetadata, Schema
from repro.governance.audit import AuditLog
from repro.governance.policy import ComplianceReport, PolicyEngine
from repro.io.serialization import pack_array, unpack_array

__all__ = ["SecureEnclave", "EnclaveSession", "EnclaveError", "AccessDenied"]


class EnclaveError(RuntimeError):
    """Structural misuse of the enclave."""


class AccessDenied(EnclaveError):
    """Caller lacks the required authorization."""


# Keystream bytes per XOF call: keeps the keystream temporary constant-size
# however large the column, and stays under CPython's digest() length cap.
_SEGMENT = 1 << 24
_NONCE, _TAG = 16, 32


def _subkeys(key: bytes) -> List[bytes]:
    """Independent ``[cipher, MAC]`` keys derived from the enclave key."""
    uses = (b"repro.enclave/v2/enc", b"repro.enclave/v2/mac")
    return [hmac.new(key, use, hashlib.sha256).digest() for use in uses]


def _xor_keystream(enc_key: bytes, nonce: bytes, src, dst) -> None:
    """``dst = src ^ keystream``, written in place one segment at a time."""
    src = np.frombuffer(src, dtype=np.uint8)
    dst = np.frombuffer(dst, dtype=np.uint8)
    for index, lo in enumerate(range(0, src.size, _SEGMENT)):
        hi = min(lo + _SEGMENT, src.size)
        xof = hashlib.shake_256(enc_key + nonce + index.to_bytes(8, "little"))
        stream = np.frombuffer(xof.digest(hi - lo), dtype=np.uint8)
        np.bitwise_xor(src[lo:hi], stream, out=dst[lo:hi])


def _seal(key: bytes, plaintext: bytes) -> bytes:
    """``nonce(16) | ciphertext | tag(32)`` — encrypt-then-MAC, v2.

    A fresh ``os.urandom`` nonce per blob; ciphertext is the plaintext
    XORed with the segmented SHAKE-256 keystream, written straight into
    the one preallocated output buffer; the HMAC-SHA256 tag covers
    ``nonce | ciphertext`` through a view of that same buffer.
    """
    enc_key, mac_key = _subkeys(key)
    body = _NONCE + len(plaintext)
    blob = bytearray(body + _TAG)
    view = memoryview(blob)
    view[:_NONCE] = nonce = os.urandom(_NONCE)
    _xor_keystream(enc_key, nonce, plaintext, view[_NONCE:body])
    view[body:] = hmac.new(mac_key, view[:body], hashlib.sha256).digest()
    return bytes(blob)


def _unseal(key: bytes, blob: bytes) -> bytes:
    """Verify the tag (constant-time, before any keystream exists), then decrypt."""
    if len(blob) < _NONCE + _TAG:
        raise EnclaveError("sealed blob too short")
    enc_key, mac_key = _subkeys(key)
    view = memoryview(blob)
    body, tag = view[:-_TAG], view[-_TAG:]
    if not hmac.compare_digest(tag, hmac.new(mac_key, body, hashlib.sha256).digest()):
        raise EnclaveError("sealed blob failed integrity check")
    plaintext = bytearray(len(body) - _NONCE)
    _xor_keystream(enc_key, bytes(body[:_NONCE]), body[_NONCE:], plaintext)
    return bytes(plaintext)


@dataclasses.dataclass
class _SealedEntry:
    schema: Schema
    metadata: DatasetMetadata
    column_blobs: Dict[str, bytes]
    n_samples: int


class EnclaveSession:
    """An authorized user's handle; all reads go through it (and the log)."""

    def __init__(self, enclave: "SecureEnclave", user: str):
        self._enclave = enclave
        self.user = user
        self.open = True

    def read(self, name: str) -> Dataset:
        if not self.open:
            raise EnclaveError("session is closed")
        return self._enclave._read(self.user, name)

    def close(self) -> None:
        if self.open:
            self._enclave.audit.record(self.user, "session-close", "-")
            self.open = False

    def __enter__(self) -> "EnclaveSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SecureEnclave:
    """Sealed dataset store with an access-control list and audit trail."""

    def __init__(self, key: Optional[bytes] = None, audit: Optional[AuditLog] = None):
        if key is None:
            key = os.urandom(32)
        elif len(key) < 16:
            raise EnclaveError("an explicit enclave key must be at least 16 bytes")
        self._key = key
        self._store: Dict[str, _SealedEntry] = {}
        self._authorized: Set[str] = set()
        # explicit None test: an empty shared AuditLog is falsy (len == 0)
        self.audit = audit if audit is not None else AuditLog()

    # -- administration ---------------------------------------------------------
    def authorize(self, user: str) -> None:
        self._authorized.add(user)
        self.audit.record("enclave-admin", "authorize", user)

    def revoke(self, user: str) -> None:
        self._authorized.discard(user)
        self.audit.record("enclave-admin", "revoke", user)

    def is_authorized(self, user: str) -> bool:
        return user in self._authorized

    # -- ingestion ------------------------------------------------------------------
    def ingest(self, name: str, dataset: Dataset, *, actor: str = "pipeline") -> None:
        """Seal a dataset into the enclave (column-wise encryption)."""
        if name in self._store:
            raise EnclaveError(f"dataset {name!r} already sealed")
        blobs = {
            column: _seal(self._key, pack_array(dataset[column]))
            for column in dataset.schema.names
        }
        self._store[name] = _SealedEntry(
            schema=dataset.schema,
            metadata=dataset.metadata,
            column_blobs=blobs,
            n_samples=dataset.n_samples,
        )
        self.audit.record(actor, "ingest", name, n_samples=dataset.n_samples)

    def holdings(self) -> List[str]:
        return sorted(self._store)

    # -- gated access -------------------------------------------------------------------
    def session(self, user: str) -> EnclaveSession:
        """Open an audited session; denied users never get a handle."""
        if user not in self._authorized:
            self.audit.record(user, "session-denied", "-")
            raise AccessDenied(f"user {user!r} is not authorized for this enclave")
        self.audit.record(user, "session-open", "-")
        return EnclaveSession(self, user)

    def _entry(self, name: str) -> _SealedEntry:
        entry = self._store.get(name)
        if entry is None:
            raise EnclaveError(f"no sealed dataset {name!r}")
        return entry

    def _read(self, user: str, name: str) -> Dataset:
        if user not in self._authorized:
            self.audit.record(user, "read-denied", name)
            raise AccessDenied(f"user {user!r} is not authorized")
        entry = self._entry(name)
        columns = {
            column: unpack_array(_unseal(self._key, blob))
            for column, blob in entry.column_blobs.items()
        }
        self.audit.record(user, "read", name)
        return Dataset(columns, entry.schema, entry.metadata)

    # -- declassification --------------------------------------------------------------
    def declassify(
        self,
        name: str,
        user: str,
        policy: PolicyEngine,
        transform=None,
    ) -> Tuple[Optional[Dataset], ComplianceReport]:
        """Release a dataset out of the enclave, policy permitting.

        *transform* (e.g. an anonymization pass) runs inside the enclave
        first; the policy then evaluates the transformed data.  On
        compliance the cleartext dataset is returned; otherwise ``None``
        plus the blocking report.  Both outcomes are audited.
        """
        with self.session(user) as session:
            dataset = session.read(name)
        if transform is not None:
            dataset = transform(dataset)
        report = policy.evaluate(dataset)
        if report.compliant:
            self.audit.record(
                user, "declassify-approved", name, policy=policy.name
            )
            return dataset, report
        self.audit.record(
            user,
            "declassify-blocked",
            name,
            policy=policy.name,
            violations=[str(v) for v in report.blocking],
        )
        return None, report
