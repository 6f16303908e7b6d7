"""Tests for the error hierarchy and deployment configuration."""

import pytest

from repro import __version__
from repro.core.config import BlockplaneConfig
from repro.errors import (
    ConfigurationError,
    CryptoError,
    LogError,
    NetworkError,
    ProcessError,
    ProtocolError,
    ReproError,
    SimulationError,
    UnknownNodeError,
    VerificationFailed,
)


def test_version_is_exposed():
    assert __version__.count(".") == 2


def test_every_error_derives_from_repro_error():
    for error_class in (
        SimulationError,
        ProcessError,
        NetworkError,
        UnknownNodeError,
        CryptoError,
        ProtocolError,
        VerificationFailed,
        LogError,
        ConfigurationError,
    ):
        assert issubclass(error_class, ReproError)


def test_unit_size_arithmetic():
    assert BlockplaneConfig(f_independent=1).unit_size == 4
    assert BlockplaneConfig(f_independent=3).unit_size == 10
    assert BlockplaneConfig(f_independent=2).proof_size == 3


def test_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        BlockplaneConfig(f_independent=0)
    with pytest.raises(ConfigurationError):
        BlockplaneConfig(f_geo=-1)
    with pytest.raises(ConfigurationError):
        BlockplaneConfig(transmission_fanout=0)
