"""Protocol plugins: every total-order protocol the harness can deploy.

The registry decouples the experiment harness from the individual
protocols: :func:`repro.harness.cluster.build_cluster`, the sweep
runner, the fault injector and the scenario API all dispatch through
:func:`get` / :func:`names`, so adding a protocol is one new module
that subclasses :class:`OrderProtocol` and calls :func:`register` —
no ``if protocol ==`` chains anywhere in the harness.

The paper's four protocols register on import, in the order the study
presents them::

    >>> import repro.protocols as protocols
    >>> protocols.names()
    ('sc', 'scr', 'bft', 'ct')
"""

from repro.errors import ConfigError
from repro.protocols.base import Deployment, OrderProtocol, check_n_rule
from repro.protocols.bft import BftPlugin
from repro.protocols.ct import CtPlugin
from repro.protocols.sc import ScPlugin
from repro.protocols.scr import ScrPlugin
from repro.registry import Registry

#: Protocol name -> :class:`OrderProtocol` instance.
REGISTRY: Registry[OrderProtocol] = Registry("protocol", error=ConfigError)
register = REGISTRY.register
unregister = REGISTRY.unregister
get = REGISTRY.get
names = REGISTRY.names
all_protocols = REGISTRY.values


def failover_capable() -> tuple[str, ...]:
    """Names of protocols the fail-over experiment applies to."""
    return tuple(p.name for p in REGISTRY.values() if p.supports_failover)


register(ScPlugin())
register(ScrPlugin())
register(BftPlugin())
register(CtPlugin())

__all__ = [
    "BftPlugin",
    "CtPlugin",
    "Deployment",
    "OrderProtocol",
    "REGISTRY",
    "ScPlugin",
    "ScrPlugin",
    "all_protocols",
    "check_n_rule",
    "failover_capable",
    "get",
    "names",
    "register",
    "unregister",
]
