"""One single-edit mutation of the real source per rule: each must fire.

The repository is lint-clean (``test_selfcheck.py``), so a finding of
the rule in the mutated file is the edit's doing. Every rule is
per-module, so each mutation analyses a copy of its one file.
"""

import pathlib
import shutil

import pytest

from repro.analysis import registered_checkers, run_report

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

# (rule, file under src/repro, exact text, replacement)
MUTATIONS = [
    ("BP001", "core/node.py",
     "for target in targets:", "for target in set(targets):"),
    ("BP002", "pbft/engine.py",
     "self._commit_quorum = commit_quorum(self.f)",
     "self._commit_quorum = 2 * self.f + 1"),
    ("BP003", "core/node.py",
     "if not self.proof_valid(sealed.proof, digest, record.source):",
     "if False:"),
    ("BP004", "core/node.py",
     '"""Funnel a received transmission into local commitment."""',
     '"""Funnel a received transmission into local commitment."""\n'
     "        msg.sealed = None"),
    ("BP005", "core/node.py",
     "if not verify(self.directory.registry, msg.signature, msg.digest):",
     "if False:"),
    ("BP006", "pbft/engine.py",
     "        except Exception:\n            # A crashing verification",
     "        except:\n            # A crashing verification"),
    ("BP007", "sim/simulator.py", "until > self.now", "until != self.now"),
    ("BP012", "pbft/quorums.py",
     "disable=BP002 -- the one module allowed to spell the raw formulas",
     "disable=BP002"),
]


def mutate(root, rel, old, new):
    path = root / rel
    source = path.read_text()
    assert source.count(old) == 1, (rel, old)
    path.write_text(source.replace(old, new))


def fired(root, rules):
    """(rule, file under ``root``) of every finding of a run on ``root``."""
    return {
        (f.rule, pathlib.Path(f.path).relative_to(root).as_posix())
        for f in run_report([str(root)], rules=rules)
    }


def test_every_rule_has_a_mutation():
    assert sorted(rule for rule, *_ in MUTATIONS) == sorted(
        registered_checkers()
    )


@pytest.mark.parametrize(
    "rule, rel, old, new", MUTATIONS, ids=[m[0] for m in MUTATIONS]
)
def test_single_edit_fires_the_rule(rule, rel, old, new, tmp_path):
    root = tmp_path / "repro"
    (root / rel).parent.mkdir(parents=True)
    shutil.copy(SRC / rel, root / rel)
    mutate(root, rel, old, new)
    found = fired(root, [rule])
    assert (rule, rel) in found, found
