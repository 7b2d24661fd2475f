"""repro — reproduction of Inayat & Ezhilchelvan (DSN 2006):
"A Performance Study on the Signal-On-Fail Approach to Imposing Total
Order in the Streets of Byzantium".

The package implements the paper's signal-on-crash total-order
protocols (SC and SCR), the baselines it compares against (Castro &
Liskov's BFT, a crash-tolerant CT), and the full substrate required to
reproduce its evaluation: a deterministic discrete-event simulator
standing in for the 15-machine LAN testbed, a from-scratch signature
stack (RSA, DSA), failure injection, and an experiment harness
regenerating every figure.

Quick start::

    from repro import ProtocolConfig, build_cluster, OpenLoopWorkload

    cluster = build_cluster("sc", ProtocolConfig(f=2))
    workload = OpenLoopWorkload(cluster, rate=200, duration=2.0)
    workload.install()
    cluster.start()
    cluster.run(until=3.0)
    print(cluster.agreement_digests())
"""

from repro.calibration import CalibrationProfile, ideal_testbed, paper_testbed
from repro.core.config import ProtocolConfig
from repro.core.client import Client
from repro.core.requests import ClientRequest
from repro.core.sc import ScProcess
from repro.core.scr import ScrProcess
from repro.baselines.bft.replica import BftReplica
from repro.baselines.ct import CtProcess
from repro.crypto.schemes import (
    MD5_RSA_1024,
    MD5_RSA_1536,
    PAPER_SCHEMES,
    PLAIN,
    SHA1_DSA_1024,
    CryptoScheme,
    scheme_by_name,
)
from repro.errors import (
    ConfigError,
    CryptoError,
    ProtocolError,
    ReproError,
    SimulationError,
    VerificationError,
)
from repro.harness.cluster import Cluster, build_cluster
from repro.harness.scenario import ScenarioSpec, run_scenario
from repro.harness.workload import OpenLoopWorkload, saturating_rate
from repro.protocols import OrderProtocol
from repro.protocols import names as protocol_names
from repro.protocols import register as register_protocol
from repro.sim.kernel import Simulator

__version__ = "1.0.0"

__all__ = [
    "BftReplica",
    "CalibrationProfile",
    "Client",
    "ClientRequest",
    "Cluster",
    "ConfigError",
    "CryptoError",
    "CryptoScheme",
    "CtProcess",
    "MD5_RSA_1024",
    "MD5_RSA_1536",
    "OpenLoopWorkload",
    "OrderProtocol",
    "PAPER_SCHEMES",
    "PLAIN",
    "ProtocolConfig",
    "ProtocolError",
    "ReproError",
    "SHA1_DSA_1024",
    "ScProcess",
    "ScenarioSpec",
    "ScrProcess",
    "SimulationError",
    "Simulator",
    "VerificationError",
    "build_cluster",
    "ideal_testbed",
    "paper_testbed",
    "protocol_names",
    "register_protocol",
    "run_scenario",
    "saturating_rate",
    "scheme_by_name",
    "__version__",
]
