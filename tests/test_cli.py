"""CLI surface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import list_experiments


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "e1" in out and "f6" in out
    assert "Theorem 2" in out


def test_list_titles_every_registered_id(capsys):
    assert main(["list"]) == 0
    rows = [line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == list_experiments()
    assert all(len(row) == 2 for row in rows), rows


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "SPAA 1996" in out


def test_run_quick_experiment(capsys):
    assert main(["run", "f1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "zz"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_all_writes_files(tmp_path, capsys, monkeypatch):
    # Patch the registry to only run the cheap figure experiments.
    import repro.cli as cli

    monkeypatch.setattr(cli, "list_experiments", lambda: ["f1", "f5"])
    assert main(["all", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "f1.txt").exists()
    assert (tmp_path / "f5.txt").exists()


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_trace_subcommand(capsys):
    assert main(["trace", "--preset", "campus", "--steps", "6", "--block", "2"]) == 0
    out = capsys.readouterr().out
    assert "space-time diagram" in out
    assert "slowdown:" in out


def test_trace_rejects_graph_preset(capsys):
    assert main(["trace", "--preset", "smp-cluster", "--steps", "4"]) == 2
    assert "graph host" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["trace", "--steps", "0"], "--steps"),
        (["trace", "--steps", "-3"], "--steps"),
        (["trace", "--block", "0"], "--block"),
        (["trace", "--program", "nope"], "--program"),
        (["trace", "--preset", "nope"], "--preset"),
        (["run", "e1", "--cache-limit", "0"], "--cache-limit"),
        (["serve", "--demo", "--lru", "0"], "--lru"),
        (["serve", "--demo", "--concurrency", "0"], "--concurrency"),
    ],
)
def test_malformed_input_exits_2_naming_the_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err.splitlines()[-1]


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
