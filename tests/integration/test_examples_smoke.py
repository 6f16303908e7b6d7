"""Smoke tests: the runnable examples execute end to end."""

import runpy
import sys


def run_example(path):
    argv = sys.argv
    sys.argv = [path]
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = argv


def test_quickstart_example(capsys):
    run_example("examples/quickstart.py")
    out = capsys.readouterr().out
    assert "V received: 'hello from California'" in out
    assert "'received'" in out


def test_counter_example(capsys):
    run_example("examples/counter_protocol.py")
    out = capsys.readouterr().out
    assert "V's counter: 3" in out
    assert "mallory rejected" in out


def test_bank_example(capsys):
    run_example("examples/bank_ledger.py")
    out = capsys.readouterr().out
    assert "Total money in the system: $175" in out
    assert "Forged $1M credit rejected: True" in out


def test_byzantine_audit_example(capsys):
    run_example("examples/byzantine_audit.py")
    out = capsys.readouterr().out
    assert ("C-2's proposal of -5 rejected: request ('C-2', 1) rejected by "
            "leader: verification routine rejected the value") in out
    assert "Illegal value -5 in any honest log: False" in out
    assert "1 accused\n  ACCUSED C-3" in out
    assert "[silent-replica] replica C-3" in out


def test_geo_failover_example(capsys):
    run_example("examples/geo_failover.py")
    assert "Final primary: V (started at C)" in capsys.readouterr().out


def test_lock_coordination_example(capsys):
    run_example("examples/lock_coordination.py")
    assert "] granted: True" in capsys.readouterr().out


def test_byzantized_paxos_example(capsys):
    run_example("examples/byzantized_paxos.py")
    assert "blockplane-paxos      67.2 ms" in capsys.readouterr().out
