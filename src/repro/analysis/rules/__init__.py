"""Built-in protocol-aware lint rules.

Importing this package registers every rule with the framework
registry; add a new module here (and import it below) to ship a new
rule.
"""

from repro.analysis.rules import (  # noqa: F401
    determinism,
    handlers,
    hygiene,
    proofs,
    quorum,
    suppressions,
)
