"""Every wire message kind reaches a handler on each host that consumes
its ``messages`` module, and no handler names a kind nobody declares.

Checked on the live classes. A host is a ``Node`` subclass; its handlers
are its ``handle_*`` attributes, inherited ones included, plus those of
its ``engine_class`` (the set ``PBFTReplica.__init__`` installs into the
dispatch table). A root consumer of a module handles at least one of
its kinds and no ``Node`` base above it does; byzantine variants
inherit their root's coverage.
"""

import importlib
import pathlib

import repro
from repro.sim.node import Message, Node

WIRE_MODULES = ("repro.core", "repro.paxos", "repro.pbft")
#: Embedded in ``ViewChange``; never dispatched on its own.
NOT_DISPATCHED = {"PreparedCertificate"}


def repro_subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
        yield from repro_subclasses(sub)


def handled(host):
    owners = (host, getattr(host, "engine_class", None))
    return {
        name[len("handle_"):]
        for owner in owners if owner is not None
        for name in dir(owner) if name.startswith("handle_")
    }


def test_every_kind_is_handled_and_every_handler_has_a_kind():
    package = pathlib.Path(repro.__file__).parent
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package).with_suffix("").parts
        if parts[0] != "analysis" and parts[-1] != "__main__":
            importlib.import_module(".".join(("repro",) + parts))
    hosts = set(repro_subclasses(Node))
    problems = []
    for package_name in WIRE_MODULES:
        module = importlib.import_module(package_name + ".messages")
        kinds = {
            cls.kind for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, Message)
            and cls.__module__ == module.__name__
            and cls.__name__ not in NOT_DISPATCHED
        }
        roots = [
            host for host in hosts
            if handled(host) & kinds and not any(
                handled(base) & kinds for base in host.__mro__[1:]
                if issubclass(base, Node)
            )
        ]
        assert roots, f"nothing consumes {module.__name__}"
        problems += [
            f"{host.__name__} has no handler for `{kind}`"
            for host in roots for kind in sorted(kinds - handled(host))
        ]
    declared = {cls.kind for cls in repro_subclasses(Message)}
    problems += [
        f"orphan handler {host.__name__}.handle_{kind}"
        for host in hosts for kind in sorted(handled(host) - declared)
    ]
    assert not problems, "\n".join(problems)
