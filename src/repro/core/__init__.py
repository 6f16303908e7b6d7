"""The Blockplane middleware — the paper's primary contribution.

Public surface:

* :class:`~repro.core.middleware.BlockplaneDeployment` — builds a full
  deployment (units of ``3·fi + 1`` nodes per participant, daemons,
  geo replication) from a topology and a config.
* :class:`~repro.core.api.BlockplaneAPI` — the user-space programming
  model: ``log_commit``, ``read``, ``send``, ``receive``.
* :class:`~repro.core.verification.VerificationRoutines` — base class
  for the user-supplied validity checks.

A minimal byzantized program looks like the paper's Algorithm 1::

    class CounterVerification(VerificationRoutines):
        def verify_log_commit(self, value, meta):
            return True  # accept trusted user requests

    deployment = BlockplaneDeployment(sim, network, config)
    api = deployment.api("C")

    def server():
        while True:
            message = yield api.receive()
            yield api.log_commit(("increment-counter", message))
"""

from repro.core.config import BlockplaneConfig
from repro.core.records import (
    LogEntry,
    TransmissionRecord,
    RECORD_LOG_COMMIT,
    RECORD_COMMUNICATION,
    RECORD_RECEIVED,
    RECORD_MIRROR,
)
from repro.core.local_log import LocalLog
from repro.core.verification import VerificationRoutines, AcceptAll
from repro.core.node import BlockplaneNode
from repro.core.unit import BlockplaneUnit
from repro.core.api import BlockplaneAPI
from repro.core.middleware import BlockplaneDeployment
from repro.core.reads import ReadStrategy

# Importing the codec fills ``repro.crypto.digest``'s canonical-expander
# and immutability registries (with stand-ins that compile a class's
# code on its first use), so every deployment built through this
# package digests its records with the generated code.
from repro.core import codec as _codec  # noqa: E402,F401  (activation import)

__all__ = [
    "BlockplaneConfig",
    "BlockplaneDeployment",
    "BlockplaneAPI",
    "BlockplaneUnit",
    "BlockplaneNode",
    "LocalLog",
    "LogEntry",
    "TransmissionRecord",
    "VerificationRoutines",
    "AcceptAll",
    "ReadStrategy",
    "RECORD_LOG_COMMIT",
    "RECORD_COMMUNICATION",
    "RECORD_RECEIVED",
    "RECORD_MIRROR",
]
