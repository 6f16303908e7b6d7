"""Exception hierarchy for the Blockplane reproduction.

All library-specific exceptions derive from :class:`ReproError` so callers
can catch everything raised by this package with a single ``except``
clause while still distinguishing subsystem-specific failures.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class ProcessError(SimulationError):
    """A simulated process yielded something the scheduler cannot wait on."""


class NetworkError(SimulationError):
    """Invalid network configuration or addressing."""


class UnknownNodeError(NetworkError):
    """A message was addressed to a node id that was never registered."""


class CryptoError(ReproError):
    """Signature creation or verification failed structurally."""


class ProtocolError(ReproError):
    """A consensus protocol received a structurally invalid message."""


class VerificationFailed(ReproError):
    """A Blockplane verification routine rejected a proposed record."""


class LogError(ReproError):
    """Invalid access to a Local Log (bad index, overwrite attempt...)."""


class ConfigurationError(ReproError):
    """A deployment was configured with inconsistent parameters."""


class Overloaded(ReproError):
    """Admission control shed a submission: the participant already has
    ``admission_max_in_flight`` commits outstanding. Open-loop callers
    should back off and retry; the request was never proposed."""
