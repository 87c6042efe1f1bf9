"""Serialization of Paillier keys and ciphertexts.

The data owner (Alice) encrypts her database once and ships it to cloud C1,
and ships the secret key to cloud C2.  In a real deployment those artifacts
cross process and machine boundaries, so the library provides a stable,
JSON-compatible wire format for:

* public keys,
* private keys,
* individual ciphertexts, and
* whole encrypted tables (see :mod:`repro.db.encrypted_table`).

Integers are encoded as lowercase hexadecimal strings so that arbitrarily
large values survive JSON round-trips without precision loss.
"""

from __future__ import annotations

import json
from typing import Any

from repro.crypto.dgk import DGKPublicKey
from repro.crypto.paillier import (
    Ciphertext,
    OperationCounter,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.exceptions import SerializationError

__all__ = [
    "public_key_to_dict",
    "public_key_from_dict",
    "private_key_to_dict",
    "private_key_from_dict",
    "dgk_public_key_to_dict",
    "dgk_public_key_from_dict",
    "ciphertext_to_dict",
    "ciphertext_from_dict",
    "payload_to_jsonable",
    "payload_from_jsonable",
    "message_envelope_to_bytes",
    "message_envelope_from_bytes",
    "FRAME_HEADER_BYTES",
    "dumps",
    "loads",
]

#: size of the TCP frame length prefix; part of the wire format, defined here
#: (rather than in :mod:`repro.transport.framing`) so the in-memory channel
#: can size its byte accounting without importing the transport package.
FRAME_HEADER_BYTES = 4

_FORMAT_VERSION = 1


def _int_to_hex(value: int) -> str:
    """Encode a non-negative integer as a hex string."""
    if value < 0:
        raise SerializationError("cannot serialize negative integers")
    return format(value, "x")


def _hex_to_int(value: str) -> int:
    """Decode a hex string produced by :func:`_int_to_hex`."""
    try:
        return int(value, 16)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"invalid hex integer: {value!r}") from exc


def public_key_to_dict(public_key: PaillierPublicKey) -> dict[str, Any]:
    """Serialize a public key to a JSON-compatible dictionary."""
    return {
        "format": _FORMAT_VERSION,
        "kind": "paillier-public-key",
        "n": _int_to_hex(public_key.n),
    }


def public_key_from_dict(data: dict[str, Any]) -> PaillierPublicKey:
    """Reconstruct a public key from :func:`public_key_to_dict` output."""
    _validate_kind(data, "paillier-public-key")
    return PaillierPublicKey(_hex_to_int(data["n"]))


def private_key_to_dict(private_key: PaillierPrivateKey) -> dict[str, Any]:
    """Serialize a private key (including its public part)."""
    return {
        "format": _FORMAT_VERSION,
        "kind": "paillier-private-key",
        "n": _int_to_hex(private_key.public_key.n),
        "p": _int_to_hex(private_key.p),
        "q": _int_to_hex(private_key.q),
    }


def private_key_from_dict(data: dict[str, Any]) -> PaillierPrivateKey:
    """Reconstruct a private key from :func:`private_key_to_dict` output."""
    _validate_kind(data, "paillier-private-key")
    public = PaillierPublicKey(_hex_to_int(data["n"]))
    return PaillierPrivateKey(public, _hex_to_int(data["p"]), _hex_to_int(data["q"]))


def dgk_public_key_to_dict(public_key: DGKPublicKey) -> dict[str, Any]:
    """Serialize SMIN's DGK public key (what the key holder hands C1)."""
    return {
        "format": _FORMAT_VERSION,
        "kind": "dgk-public-key",
        **{name: _int_to_hex(getattr(public_key, name))
           for name in ("n", "g", "h", "u", "t")},
    }


def dgk_public_key_from_dict(data: dict[str, Any],
                             parent: OperationCounter | None = None
                             ) -> DGKPublicKey:
    """Reconstruct a DGK public key from :func:`dgk_public_key_to_dict`
    output; ``parent`` is the counter its operations also land on."""
    _validate_kind(data, "dgk-public-key")
    try:
        n, g, h, u, t = (_hex_to_int(data[name])
                         for name in ("n", "g", "h", "u", "t"))
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed DGK public key: {exc}") from exc
    if not (0 < g < n and 0 < h < n and 2 < u and 0 < t):
        raise SerializationError("malformed DGK public key")
    return DGKPublicKey(n, g, h, u, t, parent=parent)


def ciphertext_to_dict(ciphertext: Ciphertext) -> dict[str, Any]:
    """Serialize a single ciphertext (without the key material)."""
    return {
        "format": _FORMAT_VERSION,
        "kind": "paillier-ciphertext",
        "value": _int_to_hex(ciphertext.value),
    }


def ciphertext_from_dict(data: dict[str, Any],
                         public_key: PaillierPublicKey) -> Ciphertext:
    """Reconstruct a ciphertext under the supplied public key."""
    _validate_kind(data, "paillier-ciphertext")
    return Ciphertext(public_key, _hex_to_int(data["value"]))


# ---------------------------------------------------------------------------
# Channel-payload codec
# ---------------------------------------------------------------------------
#
# Every value the two-party protocols put on a channel is built from a small
# closed set of shapes: ciphertexts, (signed) integers, booleans, strings,
# ``None`` and nested lists/tuples/dicts of those.  The encoding below maps
# each shape onto a JSON value unambiguously:
#
# * ``None``, booleans and strings encode as themselves;
# * every other shape encodes as a single-key dict whose key names the type
#   (``"c"`` ciphertext, ``"i"`` integer, ``"t"`` tuple, ``"d"`` dict) — a
#   payload dict is always wrapped in ``{"d": [...]}``, so the type-tag keys
#   can never collide with user data;
# * lists encode as JSON arrays of encoded items.
#
# Integers use sign-prefixed hex (consistent with the key/ciphertext formats
# above) so arbitrarily large residues survive any JSON implementation.  The
# TCP transport (:mod:`repro.transport.wire`) frames exactly this encoding,
# and the in-memory channel sizes its traffic accounting with it, so both
# transports report comparable byte counts.

def payload_to_jsonable(payload: Any) -> Any:
    """Encode a channel payload as a JSON-compatible value."""
    if payload is None or isinstance(payload, str):
        return payload
    if isinstance(payload, bool):  # before int: bool subclasses int
        return payload
    if isinstance(payload, int):
        sign = "-" if payload < 0 else ""
        return {"i": sign + format(abs(payload), "x")}
    if isinstance(payload, float):
        # Floats appear only in control/report messages (timings), never in
        # protocol payloads; JSON represents them natively.
        return payload
    if isinstance(payload, Ciphertext):
        return {"c": _int_to_hex(payload.value)}
    if isinstance(payload, list):
        return [payload_to_jsonable(item) for item in payload]
    if isinstance(payload, tuple):
        return {"t": [payload_to_jsonable(item) for item in payload]}
    if isinstance(payload, dict):
        return {"d": [[payload_to_jsonable(key), payload_to_jsonable(value)]
                      for key, value in payload.items()]}
    raise SerializationError(
        f"unsupported payload type on the wire: {type(payload).__name__}")


def payload_from_jsonable(data: Any,
                          public_key: PaillierPublicKey | None) -> Any:
    """Decode :func:`payload_to_jsonable` output.

    Args:
        data: the JSON-compatible encoding.
        public_key: key used to rebuild ciphertexts; ``None`` is accepted for
            payloads that cannot contain ciphertexts (e.g. the provisioning
            control messages that *carry* the key material itself).
    """
    if data is None or isinstance(data, (bool, str)):
        return data
    if isinstance(data, float):
        return data
    if isinstance(data, list):
        return [payload_from_jsonable(item, public_key) for item in data]
    if isinstance(data, dict):
        if len(data) != 1:
            raise SerializationError(f"malformed payload node: {data!r}")
        kind, value = next(iter(data.items()))
        if kind == "i":
            if not isinstance(value, str):
                raise SerializationError(f"malformed integer node: {value!r}")
            negative = value.startswith("-")
            magnitude = _hex_to_int(value[1:] if negative else value)
            return -magnitude if negative else magnitude
        if kind == "c":
            if public_key is None:
                raise SerializationError(
                    "cannot decode a ciphertext without a public key "
                    "(is the party provisioned yet?)")
            return Ciphertext(public_key, _hex_to_int(value))
        if kind == "t":
            return tuple(payload_from_jsonable(item, public_key)
                         for item in value)
        if kind == "d":
            return {payload_from_jsonable(key, public_key):
                    payload_from_jsonable(val, public_key)
                    for key, val in value}
        raise SerializationError(f"unknown payload node kind {kind!r}")
    raise SerializationError(
        f"unsupported wire value of type {type(data).__name__}")


def message_envelope_to_bytes(sender: str, recipient: str, tag: str,
                              payload: Any,
                              trace: Any = None,
                              context: str | None = None) -> bytes:
    """Encode one channel message as compact UTF-8 JSON bytes.

    The envelope is the four-element array ``[sender, recipient, tag,
    encoded-payload]``; when a distributed trace is active a fifth element
    ``[trace_id, span_id]`` rides along so the receiving daemon can stitch
    its spans into the originating query's trace.  A sixth element — the
    query-context id — appears when the frame belongs to one of several
    pipelined in-flight queries multiplexed over a single peer connection
    (the fifth element is ``null`` when a context rides without a trace).
    This is the exact byte sequence the TCP transport frames, and the
    in-memory channel sizes its accounting with it.
    """
    envelope = [sender, recipient, tag, payload_to_jsonable(payload)]
    if trace is not None:
        envelope.append([str(part) for part in trace])
    if context is not None:
        if trace is None:
            envelope.append(None)
        envelope.append(str(context))
    return json.dumps(envelope, separators=(",", ":")).encode("utf-8")


def message_envelope_from_bytes(
    body: bytes, public_key: PaillierPublicKey | None
) -> tuple[str, str, str, Any, list[str] | None, str | None]:
    """Decode :func:`message_envelope_to_bytes` output.

    Returns:
        ``(sender, recipient, tag, payload, trace, context)`` where
        ``trace`` is the optional ``[trace_id, span_id]`` pair and
        ``context`` the optional query-context id (both ``None`` when the
        envelope carried the plain four-element form).
    """
    try:
        envelope = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"undecodable message envelope: {exc}") from exc
    if (not isinstance(envelope, list) or len(envelope) not in (4, 5, 6)
            or not all(isinstance(part, str) for part in envelope[:3])):
        raise SerializationError("malformed message envelope")
    trace: list[str] | None = None
    if len(envelope) >= 5 and envelope[4] is not None:
        trace_part = envelope[4]
        if (not isinstance(trace_part, list) or len(trace_part) != 2
                or not all(isinstance(part, str) for part in trace_part)):
            raise SerializationError("malformed trace context in envelope")
        trace = trace_part
    context: str | None = None
    if len(envelope) == 6 and envelope[5] is not None:
        if not isinstance(envelope[5], str):
            raise SerializationError("malformed query context in envelope")
        context = envelope[5]
    sender, recipient, tag, payload = envelope[:4]
    return (sender, recipient, tag,
            payload_from_jsonable(payload, public_key), trace, context)


def dumps(data: dict[str, Any]) -> str:
    """Serialize any of the dictionaries above to a JSON string."""
    return json.dumps(data, sort_keys=True)


def loads(text: str) -> dict[str, Any]:
    """Parse a JSON string produced by :func:`dumps`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SerializationError("expected a JSON object at the top level")
    return data


def _validate_kind(data: dict[str, Any], expected_kind: str) -> None:
    """Check the ``kind`` and ``format`` fields of a serialized object."""
    if not isinstance(data, dict):
        raise SerializationError(f"expected dict, got {type(data).__name__}")
    kind = data.get("kind")
    if kind != expected_kind:
        raise SerializationError(f"expected kind {expected_kind!r}, got {kind!r}")
    version = data.get("format")
    if version != _FORMAT_VERSION:
        raise SerializationError(f"unsupported format version: {version!r}")
