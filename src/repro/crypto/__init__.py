"""Cryptographic substrate.

The paper's protocols lean on three cryptographic ingredients
(Assumption 2): unforgeable signatures, collision-resistant digests and
a trusted dealer that provisions keys.  This package implements the
signatures and the dealer from scratch in pure Python:

* :mod:`~repro.crypto.numtheory` — Miller–Rabin, modular inverses,
  prime generation;
* :mod:`~repro.crypto.digests` — the two digest functions the paper
  evaluates (MD5, SHA-1, computed by ``hashlib``);
* :mod:`~repro.crypto.rsa` / :mod:`~repro.crypto.dsa` — the two
  signature schemes (RSA-1024/1536, DSA-1024);
* :mod:`~repro.crypto.signing` — the provider interface protocols use,
  with a *real* provider (actual RSA/DSA) and a *simulated* provider
  (dealer-keyed MACs) that is unforgeable by construction and fast
  enough for large performance sweeps;
* :mod:`~repro.crypto.costs` — the calibrated per-operation CPU cost
  model charged inside the simulator (RSA sign ≈ DSA sign, DSA verify
  ≫ RSA verify — the asymmetry behind Figure 4(c));
* :mod:`~repro.crypto.dealer` — the trusted dealer of Assumption 2.
"""

from repro.crypto.canon import encode_canonical
from repro.crypto.costs import CryptoCostModel, OpCosts
from repro.crypto.dealer import TrustedDealer
from repro.crypto.digests import digest, digest_size
from repro.crypto.encoding import canonical_bytes, reference_canonical_bytes
from repro.crypto.schemes import (
    MD5_RSA_1024,
    MD5_RSA_1536,
    PLAIN,
    SHA1_DSA_1024,
    CryptoScheme,
    scheme_by_name,
)
from repro.crypto.signing import (
    RealSignatureProvider,
    Signature,
    SignatureProvider,
    SimulatedSignatureProvider,
)

__all__ = [
    "CryptoCostModel",
    "CryptoScheme",
    "MD5_RSA_1024",
    "MD5_RSA_1536",
    "OpCosts",
    "PLAIN",
    "RealSignatureProvider",
    "SHA1_DSA_1024",
    "Signature",
    "SignatureProvider",
    "SimulatedSignatureProvider",
    "TrustedDealer",
    "canonical_bytes",
    "digest",
    "digest_size",
    "encode_canonical",
    "reference_canonical_bytes",
    "scheme_by_name",
]
