"""One single-edit mutation of the real source per rule: each must fire.

The repository is lint-clean (``test_selfcheck.py``), so a finding of
the rule in the mutated file is the edit's doing. Per-module rules
analyse a copy of the one file; the interprocedural rules need the
whole tree and share one run over a copy with all their edits applied.
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
    ("BP009", "core/node.py",
     "if not self.proof_valid(sealed.proof, record.digest(), record.source):"
     "\n            if self.obs.enabled:",
     "if False:\n            if self.obs.enabled:"),
    ("BP010", "pbft/engine.py",
     "verdict = self.app.verify(value, record_type, meta)",
     "self.app.verify(value, record_type, meta)"),
    ("BP012", "baselines/hierarchical_pbft.py",
     "disable=BP009 -- ablation: unverified", "disable=BP009"),
]
INTERPROC = {
    rule for rule, cls in registered_checkers().items()
    if cls.requires_interproc
}


def mutate(root, rel, old, new):
    path = root / rel
    source = path.read_text()
    assert source.count(old) == 1, (rel, old)
    path.write_text(source.replace(old, new))


def fired(root, rules):
    """(rule, file under ``root``) of every finding of a run on ``root``."""
    return {
        (f.rule, pathlib.Path(f.path).relative_to(root).as_posix())
        for f in run_report([str(root)], rules=rules).findings
    }


@pytest.fixture(scope="module")
def interproc_fired(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree") / "repro"
    shutil.copytree(SRC, root)
    for rule, rel, old, new in MUTATIONS:
        if rule in INTERPROC:
            mutate(root, rel, old, new)
    return fired(root, sorted(INTERPROC))


def test_every_rule_has_a_mutation():
    assert sorted(rule for rule, *_ in MUTATIONS) == sorted(
        registered_checkers()
    )


@pytest.mark.parametrize(
    "rule, rel, old, new", MUTATIONS, ids=[m[0] for m in MUTATIONS]
)
def test_single_edit_fires_the_rule(rule, rel, old, new, tmp_path, request):
    if rule in INTERPROC:
        found = request.getfixturevalue("interproc_fired")
    else:
        root = tmp_path / "repro"
        (root / rel).parent.mkdir(parents=True)
        shutil.copy(SRC / rel, root / rel)
        mutate(root, rel, old, new)
        found = fired(root, [rule])
    assert (rule, rel) in found, found
