"""Secure enclave: sealing, gated access, audit, declassification."""

import hashlib
import hmac

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.dataset import Dataset, FieldSpec, Schema
from repro.governance import enclave as enclave_module
from repro.governance.enclave import (
    AccessDenied,
    EnclaveError,
    SecureEnclave,
    _seal,
    _subkeys,
    _unseal,
)
from repro.governance.policy import open_release_policy


@pytest.fixture
def sensitive_dataset(rng):
    n = 150
    return Dataset(
        {
            "patient_name": np.asarray([f"Person {i}" for i in range(n)], dtype="U16"),
            "value": rng.normal(size=n),
        },
        Schema([
            FieldSpec("patient_name", np.dtype("U16"), sensitive=True),
            FieldSpec("value", np.dtype(np.float64)),
        ]),
    )


@pytest.fixture
def enclave(sensitive_dataset):
    enclave = SecureEnclave(key=b"0" * 32)
    enclave.ingest("clinical", sensitive_dataset)
    enclave.authorize("alice")
    return enclave


class TestSealing:
    def test_round_trip_through_session(self, enclave, sensitive_dataset):
        with enclave.session("alice") as session:
            back = session.read("clinical")
        assert np.array_equal(back["value"], sensitive_dataset["value"])
        assert np.array_equal(back["patient_name"], sensitive_dataset["patient_name"])

    def test_at_rest_bytes_do_not_leak_plaintext(self, enclave):
        blob = enclave._store["clinical"].column_blobs["patient_name"]
        assert b"Person" not in blob

    def test_ciphertext_integrity_protected(self, enclave):
        blob = bytearray(enclave._store["clinical"].column_blobs["value"])
        blob[20] ^= 0xFF
        enclave._store["clinical"].column_blobs["value"] = bytes(blob)
        with enclave.session("alice") as session:
            with pytest.raises(EnclaveError, match="integrity"):
                session.read("clinical")

    def test_duplicate_ingest_rejected(self, enclave, sensitive_dataset):
        with pytest.raises(EnclaveError, match="already sealed"):
            enclave.ingest("clinical", sensitive_dataset)

    def test_holdings(self, enclave):
        assert enclave.holdings() == ["clinical"]

    def test_generated_key_only_when_none(self):
        assert len(SecureEnclave()._key) == 32
        assert SecureEnclave(key=b"k" * 16)._key == b"k" * 16
        for short in (b"", b"k" * 15):
            with pytest.raises(EnclaveError, match="at least 16 bytes"):
                SecureEnclave(key=short)


class TestAccessControl:
    def test_unauthorized_session_denied(self, enclave):
        with pytest.raises(AccessDenied):
            enclave.session("mallory")

    def test_denial_is_audited(self, enclave):
        with pytest.raises(AccessDenied):
            enclave.session("mallory")
        denied = [e for e in enclave.audit if e.action == "session-denied"]
        assert denied and denied[0].actor == "mallory"

    def test_revocation(self, enclave):
        enclave.revoke("alice")
        with pytest.raises(AccessDenied):
            enclave.session("alice")

    def test_closed_session_unusable(self, enclave):
        session = enclave.session("alice")
        session.close()
        with pytest.raises(EnclaveError, match="closed"):
            session.read("clinical")

    def test_a_shared_audit_log_is_used_even_while_empty(self):
        from repro.governance.audit import AuditLog

        log = AuditLog()  # empty, so falsy: len(log) == 0
        enclave = SecureEnclave(key=b"0" * 32, audit=log)
        enclave.authorize("alice")
        assert enclave.audit is log
        assert [e.action for e in log] == ["authorize"]

    def test_reads_are_audited(self, enclave):
        with enclave.session("alice") as session:
            session.read("clinical")
        reads = [e for e in enclave.audit if e.action == "read"]
        assert len(reads) == 1 and reads[0].subject == "clinical"
        enclave.audit.verify()

    def test_missing_dataset(self, enclave):
        with enclave.session("alice") as session:
            with pytest.raises(EnclaveError, match="no sealed dataset"):
                session.read("nope")


class TestDeclassification:
    def test_blocked_without_anonymization(self, enclave):
        released, report = enclave.declassify(
            "clinical", "alice", open_release_policy(min_samples=10)
        )
        assert released is None
        assert not report.compliant
        blocked = [e for e in enclave.audit if e.action == "declassify-blocked"]
        assert len(blocked) == 1

    def test_approved_with_anonymizing_transform(self, enclave):
        def strip(dataset):
            return dataset.drop_columns("patient_name")

        released, report = enclave.declassify(
            "clinical", "alice", open_release_policy(min_samples=10), transform=strip
        )
        assert report.compliant
        assert released is not None and "patient_name" not in released
        approved = [e for e in enclave.audit if e.action == "declassify-approved"]
        assert len(approved) == 1

    def test_declassify_requires_authorization(self, enclave):
        with pytest.raises(AccessDenied):
            enclave.declassify("clinical", "mallory", open_release_policy())


KEY = bytes(range(32))
NONCE = bytes(range(0xA0, 0xB0))
SMALL_SEGMENT = 64


@pytest.fixture
def small_segment(monkeypatch):
    monkeypatch.setattr(enclave_module, "_SEGMENT", SMALL_SEGMENT)


@pytest.fixture
def fixed_nonce(monkeypatch):
    monkeypatch.setattr(enclave_module.os, "urandom", lambda n: NONCE[:n])


def _seal_v1(key: bytes, plaintext: bytes) -> bytes:
    """Reference copy of the pre-v2 construction: HMAC-SHA256 counter
    keystream, one key shared by cipher and MAC."""
    prefix = hmac.new(key, NONCE, hashlib.sha256)
    stream = bytearray()
    for counter in range(-(-len(plaintext) // 32)):
        block = prefix.copy()
        block.update(counter.to_bytes(8, "little"))
        stream += block.digest()
    ciphertext = bytes(a ^ b for a, b in zip(plaintext, stream))
    tag = hmac.new(key, NONCE + ciphertext, hashlib.sha256).digest()
    return NONCE + ciphertext + tag


class TestSealProperties:
    """Property tests on the seal/unseal primitive itself."""

    def test_round_trip_property(self, small_segment):
        boundaries = [0, 1] + [
            k * SMALL_SEGMENT + delta for k in (1, 3) for delta in (-1, 0, 1)
        ]
        lengths = st.sampled_from(boundaries) | st.integers(0, 5 * SMALL_SEGMENT)

        def round_trip(plaintext, key):
            blob = _seal(key, plaintext)
            assert isinstance(blob, bytes) and len(blob) == 16 + len(plaintext) + 32
            assert _unseal(key, blob) == plaintext

        for length in boundaries:  # the named edge cases, unconditionally
            round_trip(bytes(i % 251 for i in range(length)), KEY)
        payloads = lengths.flatmap(lambda n: st.binary(min_size=n, max_size=n))
        given(payloads, st.binary(min_size=16, max_size=32))(round_trip)()

    def test_same_plaintext_different_ciphertexts(self):
        first, second = _seal(KEY, b"hello"), _seal(KEY, b"hello")
        assert first[:16] != second[:16]  # fresh 128-bit nonce per blob
        assert first[16:-32] != second[16:-32]

    def test_nonce_comes_from_os_urandom(self, fixed_nonce):
        assert _seal(KEY, b"hello")[:16] == NONCE

    def test_wrong_key_rejected(self):
        blob = _seal(b"a" * 32, b"payload")
        with pytest.raises(EnclaveError, match="integrity"):
            _unseal(b"b" * 32, blob)

    def test_truncated_blob_rejected(self):
        with pytest.raises(EnclaveError, match="too short"):
            _unseal(KEY, b"short")
        with pytest.raises(EnclaveError, match="too short"):
            _unseal(KEY, _seal(KEY, b"")[:-1])

    def test_any_flipped_byte_rejected(self, small_segment):
        """Every byte of nonce, ciphertext and tag is under the MAC."""
        plaintext = bytes(range(SMALL_SEGMENT + 5))
        blob = _seal(KEY, plaintext)
        for position in range(len(blob)):
            tampered = bytearray(blob)
            tampered[position] ^= 0x01
            with pytest.raises(EnclaveError, match="integrity"):
                _unseal(KEY, bytes(tampered))
        assert _unseal(KEY, blob) == plaintext

    def test_tag_verified_before_any_keystream(self, monkeypatch):
        blob = bytearray(_seal(KEY, b"x" * 100))
        blob[40] ^= 0xFF
        calls = []
        real = hashlib.shake_256

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(enclave_module.hashlib, "shake_256", spy)
        with pytest.raises(EnclaveError, match="integrity"):
            _unseal(KEY, bytes(blob))
        assert calls == []
        blob[40] ^= 0xFF
        assert _unseal(KEY, bytes(blob)) == b"x" * 100
        assert len(calls) == 1

    def test_tag_compared_in_constant_time(self, monkeypatch):
        blob = _seal(KEY, b"payload")
        compared = []
        real = hmac.compare_digest

        def spy(a, b):
            compared.append((bytes(a), bytes(b)))
            return real(a, b)

        monkeypatch.setattr(enclave_module.hmac, "compare_digest", spy)
        assert _unseal(KEY, blob) == b"payload"
        assert compared == [(blob[-32:], blob[-32:])]

    def test_distinct_segments_get_distinct_keystream(self, small_segment, fixed_nonce):
        n_segments = 4
        blob = _seal(KEY, bytes(n_segments * SMALL_SEGMENT))
        keystream = blob[16:-32]  # zeros ^ keystream
        segments = {
            keystream[i * SMALL_SEGMENT:(i + 1) * SMALL_SEGMENT] for i in range(n_segments)
        }
        assert len(segments) == n_segments

    def test_cipher_and_mac_keys_are_separated(self, fixed_nonce):
        enc_key, mac_key = _subkeys(KEY)
        assert len({KEY, enc_key, mac_key}) == 3
        plaintext = b"separated keys"
        blob = _seal(KEY, plaintext)
        body, tag = blob[:-32], blob[-32:]
        assert tag == hmac.new(mac_key, body, hashlib.sha256).digest()
        for other in (KEY, enc_key):
            assert tag != hmac.new(other, body, hashlib.sha256).digest()
        stream = hashlib.shake_256(enc_key + NONCE + bytes(8)).digest(len(plaintext))
        assert body[16:] == bytes(a ^ b for a, b in zip(plaintext, stream))

    def test_known_answer_vector(self, fixed_nonce):
        """Freezes the v2 blob layout: changing it strands sealed checkpoints."""
        plaintext = b"data readiness for scientific AI"
        blob = _seal(KEY, plaintext)
        assert blob.hex() == (
            "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf"
            "afbf8eef7c47d202bcceee9398e5893b9604b66f854d0a3e0357466b51480e9e"
            "25baf402f9688b8e65a541cc2059f2cc6fafa36b6684a13716e4c4283e56e5de"
        )
        assert _unseal(KEY, blob) == plaintext

    def test_known_answer_vector_across_segments(self, fixed_nonce, monkeypatch):
        """Freezes the segment-index encoding (8 bytes, little-endian)."""
        monkeypatch.setattr(enclave_module, "_SEGMENT", 8)
        blob = _seal(KEY, b"data readiness for s")
        assert blob.hex() == (
            "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf"
            "afbf8eef7c47d2022318469a5157bc0b381b8700"
            "34f2618e651caf783a2a45f466a71349c227c56d665ce35c4c514a984b381164"
        )

    def test_v1_blob_fails_integrity_loudly(self):
        """A pre-v2 blob (e.g. pickled in an old checkpoint) must not decrypt."""
        blob = _seal_v1(KEY, b"sealed before the v2 construction")
        assert len(blob) == len(_seal(KEY, b"sealed before the v2 construction"))
        with pytest.raises(EnclaveError, match="integrity"):
            _unseal(KEY, blob)
