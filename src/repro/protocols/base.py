"""The protocol plugin interface.

An :class:`OrderProtocol` teaches the harness everything it needs to
deploy and study one total-order protocol: the replica-count rule
``n(f)``, configuration validation, process construction and wiring
(pair links, dealer-issued fail-signal blanks, suspicion oracles),
which crypto scheme a sweep point actually exercises, and where the
initial coordinator/primary sits (the target of fail-over studies).

Plugins register themselves with :func:`repro.protocols.register`;
``repro.harness.cluster``, ``repro.harness.experiments``,
``repro.harness.scenario`` and ``repro.failures.injector`` dispatch
exclusively through that registry, so adding a protocol is one new
module — no harness edits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.config import ProtocolConfig
from repro.crypto.schemes import CryptoScheme, scheme_by_name
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.calibration import CalibrationProfile
    from repro.crypto.dealer import TrustedDealer
    from repro.crypto.signing import SignatureProvider
    from repro.net.delay import SurgeableDelay
    from repro.net.network import Network
    from repro.sim.kernel import Simulator


@dataclass
class Deployment:
    """Mutable build context a plugin populates.

    The cluster builder prepares the substrate (simulator, network,
    provisioned signature provider, dealer) and hands it to the
    plugin's :meth:`OrderProtocol.build`, which fills ``processes``
    (name -> order process, insertion order = deployment order) and,
    for paired protocols, ``pair_links`` (pair rank -> link model).
    """

    sim: "Simulator"
    network: "Network"
    config: ProtocolConfig
    calibration: "CalibrationProfile"
    provider: "SignatureProvider"
    dealer: "TrustedDealer"
    processes: dict[str, object] = field(default_factory=dict)
    pair_links: dict[int, "SurgeableDelay"] = field(default_factory=dict)


class OrderProtocol:
    """Base class for protocol plugins.

    Subclasses set the class attributes and implement
    :meth:`process_names` and :meth:`build`; everything else has
    sensible defaults.

    Attributes
    ----------
    name:
        Registry key (``"sc"``, ``"bft"``, ...).
    variant:
        The :class:`~repro.core.config.ProtocolConfig` variant this
        protocol requires (``"sc"`` or ``"scr"``) — structural rules
        like pair counts live on the config.
    uses_pairs:
        Whether the deployment contains replica/shadow pairs (and thus
        dedicated pair links and fail-signal blanks).
    supports_failover:
        Whether the fail-over experiment (Figure 6) applies.
    uses_crypto:
        ``False`` for crash-tolerant baselines that run without
        digests/signatures regardless of the swept scheme.
    description:
        One-line summary shown by ``python -m repro protocols``.
    """

    name: str = ""
    variant: str = "sc"
    uses_pairs: bool = False
    supports_failover: bool = False
    uses_crypto: bool = True
    description: str = ""

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def n(self, f: int) -> int:
        """Total order processes deployed for fault tolerance ``f``."""
        raise NotImplementedError

    def process_names(self, config: ProtocolConfig) -> tuple[str, ...]:
        """Names of the order processes, in deployment order."""
        raise NotImplementedError

    def initial_coordinator(self, config: ProtocolConfig) -> str:
        """The process initially coordinating/ordering (rank 1 /
        primary of view 1) — the default target of fault injection."""
        from repro.net.addresses import replica_name

        return replica_name(1)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def default_config(self, **overrides) -> ProtocolConfig:
        """A config this protocol accepts (``variant`` pre-set)."""
        overrides.setdefault("variant", self.variant)
        return ProtocolConfig(**overrides)

    def configure(
        self, scheme: CryptoScheme | str | None = None, **overrides
    ) -> ProtocolConfig:
        """Build a validated config for this protocol.

        ``scheme`` may be a :class:`CryptoScheme` or a scheme name; it
        is passed through :meth:`resolve_scheme` so baselines that run
        without crypto get their effective scheme regardless of what
        the sweep requested.
        """
        if scheme is not None:
            if isinstance(scheme, str):
                scheme = self.resolve_scheme(scheme)
            overrides["scheme"] = scheme
        config = self.default_config(**overrides)
        self.validate(config)
        return config

    def validate(self, config: ProtocolConfig) -> None:
        """Reject configs this protocol cannot deploy."""
        config.require_variant(self.variant, protocol=self.name)

    def resolve_scheme(self, scheme_name: str) -> CryptoScheme:
        """The crypto scheme a run with ``scheme_name`` exercises."""
        return scheme_by_name(scheme_name)

    def reported_scheme(self, scheme_name: str) -> str:
        """The scheme name results report (baselines without crypto
        report ``"plain"`` whatever the sweep requested)."""
        return scheme_name

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, deployment: Deployment) -> None:
        """Construct and wire this protocol's order processes into
        ``deployment`` (fill ``processes`` and ``pair_links``)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


def check_n_rule(protocol: OrderProtocol, config: ProtocolConfig) -> None:
    """Sanity helper: the config's structure must match ``n(f)``."""
    expected = protocol.n(config.f)
    actual = len(protocol.process_names(config))
    if expected != actual:
        raise ConfigError(
            f"protocol {protocol.name!r} deploys {actual} processes for "
            f"f={config.f} but its n(f) rule says {expected}"
        )
