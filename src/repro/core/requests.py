"""Client requests and their digests."""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.digests import digest
from repro.crypto.encoding import canonical_bytes


@dataclass(frozen=True)
class ClientRequest:
    """One request from a correct client.

    ``payload`` carries the operation for the deterministic state
    machine.  ``size_bytes`` is the declared wire size — performance
    runs use small payloads with a declared size so the simulator
    accounts realistic bytes without hauling them around.
    """

    client: str
    req_id: int
    payload: bytes = b""
    size_bytes: int = 64

    def __post_init__(self) -> None:
        # ``key`` — the request's identity ``(client, req_id)`` — is a
        # plain precomputed attribute, deliberately unannotated so the
        # dataclass machinery does not treat it as a field: it stays
        # out of eq/repr/__init__ and the canonical encoding.  The
        # request pool reads it on every delivery, and a property
        # descriptor plus tuple allocation per read was measurable.
        object.__setattr__(self, "key", (self.client, self.req_id))

    def digest_under(self, digest_name: str) -> bytes:
        """The request digest ``D(m)`` used inside order messages.

        Memoised per instance: a request is digested by the coordinator
        at batch formation and again wherever an order referencing it
        is checked, always over the same frozen content.
        """
        cache = self.__dict__.get("_digest_cache_")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_digest_cache_", cache)
        value = cache.get(digest_name)
        if value is None:
            value = digest(digest_name, canonical_bytes(self))
            cache[digest_name] = value
        return value
