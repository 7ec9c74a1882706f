"""The experiment harness: registry, result contract, cheap runs."""

import pytest

from repro.experiments import ExperimentResult, get_experiment, list_experiments


def test_registry_contents():
    ids = list_experiments()
    assert ids[:10] == ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"]
    assert {"f1", "f6", "a1", "a4", "x1", "x2"} <= set(ids)


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        get_experiment("nope")


def test_every_experiment_resolves():
    for exp_id in list_experiments():
        assert callable(get_experiment(exp_id))


@pytest.mark.parametrize("exp_id", ["f1", "f3", "f5", "f6", "e6", "a1", "x2"])
def test_cheap_experiments_run(exp_id):
    result = get_experiment(exp_id)(quick=True)
    assert isinstance(result, ExperimentResult)
    assert result.rows
    assert result.summary
    assert result.experiment.lower() == exp_id


def test_render_contains_table_and_summary():
    result = get_experiment("f1")(quick=True)
    text = result.render()
    assert result.title in text
    for key in result.summary:
        assert str(key) in text


def test_result_print(capsys):
    result = ExperimentResult("T1", "title", [{"a": 1}], {"k": True})
    result.print()
    out = capsys.readouterr().out
    assert "T1" in out and "k: True" in out


def test_to_json_round_trips():
    import json

    result = get_experiment("f1")(quick=True)
    payload = json.loads(result.to_json())
    assert payload["experiment"] == "F1"
    assert len(payload["rows"]) == len(result.rows)
    assert set(payload["summary"]) == {str(k) for k in result.summary}


def test_to_json_cleans_non_serialisable_values():
    import json

    result = ExperimentResult(
        "T3", "t", [{"obj": object()}], {"flag": True, "obj": object()}
    )
    payload = json.loads(result.to_json())
    assert isinstance(payload["rows"][0]["obj"], str)
    assert payload["summary"]["flag"] is True


def test_cli_all_json_flag(tmp_path, monkeypatch):
    import repro.cli as cli
    from repro.cli import main

    monkeypatch.setattr(cli, "list_experiments", lambda: ["f1"])
    assert main(["all", "--out", str(tmp_path), "--json"]) == 0
    assert (tmp_path / "f1.json").exists()


def test_full_mode_runs_for_a_cheap_experiment():
    result = get_experiment("f5")(quick=False)
    assert result.rows
    checks = [v for v in result.summary.values() if isinstance(v, bool)]
    assert checks and all(checks), result.summary  # every shape check holds
    assert len(result.rows) >= 4  # full mode sweeps more sizes


def test_columns_selection():
    result = ExperimentResult(
        "T2", "t", [{"a": 1, "b": 2}], columns=["b"]
    )
    assert "a" not in result.render().splitlines()[1]
