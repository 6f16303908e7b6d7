"""The codec's import-time coverage check, fed fake ``messages`` modules.

``repro.core.codec`` refuses to import unless every ``Message`` subclass
of the core, Paxos and PBFT ``messages`` modules is in ``MANIFEST`` and
slotted, and every entry's field list matches its dataclass.
"""

import dataclasses
import types

import pytest

from repro.core import codec
from repro.pbft import messages as pbft_messages
from repro.sim.node import Message


def fake_module(*classes):
    module = types.ModuleType("fake.messages")
    for cls in classes:
        cls.__module__ = module.__name__
        setattr(module, cls.__name__, cls)
    return module


def test_unslotted_message_is_refused():
    @dataclasses.dataclass
    class LooseVote(Message):
        seq: int = 0

    manifest = {LooseVote: ("@xx", ("payload_bytes", "seq"))}
    with pytest.raises(RuntimeError, match="LooseVote.*not slotted"):
        codec.check_manifest((fake_module(LooseVote),), manifest)


def test_message_missing_from_manifest_is_refused():
    @dataclasses.dataclass(slots=True)
    class StrayVote(Message):
        seq: int = 0

    with pytest.raises(RuntimeError, match="StrayVote.*missing from MANIFEST"):
        codec.check_manifest((fake_module(StrayVote),), {})


def test_detects_manifest_field_drift():
    prepare = pbft_messages.Prepare
    tag, fields = codec.MANIFEST[prepare]
    drifted = dict(codec.MANIFEST)
    drifted[prepare] = (tag, tuple(fields[:-1]))
    with pytest.raises(RuntimeError, match="manifest drift for Prepare"):
        codec.check_manifest((pbft_messages,), drifted)
