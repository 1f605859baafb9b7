"""Tests for the CLI harness."""

import pstats

import pytest

from repro.cli import ARTIFACTS, build_parser, main
from repro.experiments import megatrace


def test_every_artifact_has_description_and_runner():
    assert set(ARTIFACTS) == {
        "fig1", "fig2", "fig3", "fig4", "fig5", "table1", "table2",
        "headline", "scale", "scale-frontier", "megatrace", "hardware",
        "fault-study", "hybrid-study", "federation-study", "sdk-study",
        "energy-study",
    }
    for artifact in ARTIFACTS.values():
        assert artifact.description
        assert callable(artifact.run)
        assert callable(artifact.module.render)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ARTIFACTS:
        assert name in out


def test_fig1_command(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "1.51" in out


def test_table2_command(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "$124,701" in out


def test_headline_command_with_invocations(capsys):
    assert main(["headline", "--invocations", "8"]) == 0
    out = capsys.readouterr().out
    assert "energy-efficiency ratio" in out


def test_profile_flag_writes_pstats(tmp_path, capsys):
    assert main(["fig1", "--profile", "--export-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1.51" in out  # the artifact still renders under the profiler
    stats_path = tmp_path / "profile_fig1.pstats"
    assert stats_path.exists()
    stats = pstats.Stats(str(stats_path))
    assert stats.total_calls > 0


def test_invalid_invocations_rejected(capsys):
    assert main(["fig1", "--invocations", "0"]) == 2


def test_unknown_artifact_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


def _declaring(option):
    """The artifacts whose table entry declares ``option``."""
    return tuple(
        sorted(name for name, a in ARTIFACTS.items() if getattr(a, option))
    )


def test_fig2_command(capsys):
    assert main(["fig2"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 2" in out
    assert "10x" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--trace", "x.json"],
        ["fig1", "--shards", "2"],
        ["fig2", "--export-dir", "out"],
    ],
    ids=["fig1-trace", "fig1-shards", "fig2-export-dir"],
)
def test_options_rejected_on_artifacts_that_ignore_them(argv, capsys):
    assert main(argv) == 2
    option = argv[1]
    assert f"error: {option} " in capsys.readouterr().err


def test_streaming_reaches_megatrace(monkeypatch, capsys):
    """The streaming path is megatrace's only path: the CLI runs it with
    no option and rejects the ``--streaming`` switch it once had."""
    real_run = megatrace.run
    monkeypatch.setattr(
        megatrace, "run",
        lambda **kwargs: real_run(**{**kwargs, "invocations": 500}),
    )
    assert main(["megatrace"]) == 0
    assert "arrival path" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        main(["megatrace", "--streaming", "on"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --streaming" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option,members",
    [
        ("--trace", _declaring("trace")),
        ("--shards", _declaring("shards")),
        ("--export-dir", _declaring("tables")),
    ],
)
def test_option_help_lists_every_artifact_it_applies_to(option, members):
    text = build_parser().format_help()
    # The option's own entry (the usage line lists every artifact), with
    # argparse's wrapping at spaces and hyphens undone.
    options = " ".join(text[text.index("options:") :].split())
    entry = options[options.index(f"{option} ") :]
    entry = entry[: entry.index(" only")].replace("- ", "-")
    for name in members:
        assert name in ARTIFACTS
        assert name in entry
