"""The ``python -m repro console`` entry point, end to end.

Covers the acceptance path (an export's console.json in,
self-contained replay.html out), bundle validation, the demo source,
and the top-level subcommand forwarding.
"""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.obs import Observability
from repro.obs.console import load_bundle
from repro.obs.console.__main__ import main as console_main
from repro.obs.demo import trace_commit_lifecycle
from repro.obs.exporters import export_all


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    """A full ``export_all`` artifact set for the golden lifecycle."""
    directory = tmp_path_factory.mktemp("obs-artifacts")
    obs = Observability(enabled=True)
    trace_commit_lifecycle(obs)
    export_all(obs, str(directory))
    return directory


def test_journal_to_replay_html(artifact_dir, tmp_path, capsys):
    # The journal an export writes replays through the console.json
    # beside it: same events, rendered into one self-contained page.
    journal = json.loads(
        (artifact_dir / "journal.json").read_text(encoding="utf-8")
    )
    bundle = load_bundle(str(artifact_dir / "console.json"))
    assert bundle["journal"]["events"] == journal["events"]
    out = tmp_path / "replay.html"
    capsys.readouterr()
    assert console_main([
        "--bundle", str(artifact_dir / "console.json"),
        "--out", str(out),
    ]) == 0
    page = out.read_text(encoding="utf-8")
    assert page.startswith("<!DOCTYPE html>")
    assert "140 events" in page
    captured = capsys.readouterr().out
    assert "replay:" in captured and "140 events" in captured


def test_journal_plus_trace_folds_spans(artifact_dir, tmp_path):
    # The export's console.json carries the spans trace.json shows and
    # the metrics metrics.json holds, and re-emits them on --bundle-out.
    trace = json.loads(
        (artifact_dir / "trace.json").read_text(encoding="utf-8")
    )
    complete = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    bundle_out = tmp_path / "bundle.json"
    assert console_main([
        "--bundle", str(artifact_dir / "console.json"),
        "--out", str(tmp_path / "replay.html"),
        "--bundle-out", str(bundle_out),
    ]) == 0
    bundle = load_bundle(str(bundle_out))
    assert len(bundle["spans"]) == 31 == len(complete)
    assert "metrics" in bundle


def test_obs_out_export_replays_through_bundle(tmp_path, capsys):
    # `--obs-out` writes console.json beside the other exports; the
    # console replays a past run from it and nothing else.
    obs_dir = tmp_path / "obs"
    assert repro_main(["--obs-out", str(obs_dir), "fig4"]) == 0
    bundle = load_bundle(str(obs_dir / "console.json"))
    assert bundle["spans"] and "metrics" in bundle and "latency" in bundle
    retained = bundle["journal"]["retained"]
    out = tmp_path / "replay.html"
    capsys.readouterr()
    assert console_main([
        "--bundle", str(obs_dir / "console.json"), "--out", str(out),
    ]) == 0
    page = out.read_text(encoding="utf-8")
    assert page.startswith("<!DOCTYPE html>")
    assert f"{retained} events" in page
    captured = capsys.readouterr().out
    assert "replay:" in captured and f"{retained} events" in captured


def test_demo_renders_and_validates(tmp_path):
    out = tmp_path / "demo.html"
    bundle_out = tmp_path / "demo-bundle.json"
    assert console_main([
        "--demo", "--out", str(out), "--bundle-out", str(bundle_out),
    ]) == 0
    assert out.exists()
    assert console_main(["--validate", str(bundle_out)]) == 0


def test_bundle_rerender_with_title_override(tmp_path):
    bundle_out = tmp_path / "bundle.json"
    assert console_main([
        "--demo", "--out", str(tmp_path / "a.html"),
        "--bundle-out", str(bundle_out),
    ]) == 0
    out = tmp_path / "b.html"
    assert console_main([
        "--bundle", str(bundle_out), "--out", str(out),
        "--title", "archived run 42",
    ]) == 0
    assert "archived run 42" in out.read_text(encoding="utf-8")


def test_validate_rejects_corrupt_bundle(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"schema": "nope"}), encoding="utf-8")
    assert console_main(["--validate", str(path)]) == 1
    assert "schema violation" in capsys.readouterr().err


def test_validate_missing_file_is_an_error(tmp_path, capsys):
    assert console_main(
        ["--validate", str(tmp_path / "absent.json")]
    ) == 2
    assert "cannot read" in capsys.readouterr().err


def test_no_input_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert console_main([]) == 2
    assert "no input" in capsys.readouterr().err


def test_unreadable_bundle_is_an_error(tmp_path, capsys):
    assert console_main([
        "--bundle", str(tmp_path / "absent.json"),
        "--out", str(tmp_path / "x.html"),
    ]) == 2
    assert "error:" in capsys.readouterr().err


def test_top_level_console_subcommand(tmp_path):
    out = tmp_path / "via-repro.html"
    assert repro_main(["console", "--demo", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")


@pytest.mark.parametrize("flag", ["--chaos-seed", "--serve"])
def test_console_only_renders(flag, capsys):
    # Runs come from `repro chaos --obs-out`; serving from any static
    # file server.
    with pytest.raises(SystemExit) as excinfo:
        console_main([flag, "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
