"""CLI tests (driving `repro.cli.main` in process)."""

import pytest

from repro.cli import EXPERIMENTS, main
from repro.core.training import TrainingData


def test_workload_lists_templates(capsys):
    assert main(["workload"]) == 0
    out = capsys.readouterr().out
    assert "71" in out and "memory" in out


def test_sql_renders(capsys):
    assert main(["sql", "26", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "SELECT" in out
    assert "${" not in out


def test_isolated_reports_stats(capsys):
    assert main(["isolated", "26"]) == 0
    out = capsys.readouterr().out
    assert "isolated latency" in out
    assert "catalog_sales" in out


def test_mix_reports_slowdowns(capsys):
    assert main(["mix", "26", "65", "--samples", "2"]) == 0
    out = capsys.readouterr().out
    assert "T26" in out and "T65" in out
    assert "x isolated" in out


def test_spoiler_reports_latency(capsys):
    assert main(["spoiler", "62", "--mpl", "3"]) == 0
    out = capsys.readouterr().out
    assert "MPL 3" in out


def test_train_predict_round_trip(tmp_path, capsys):
    out_path = tmp_path / "campaign.pkl"
    assert main([
        "train", "--out", str(out_path), "--mpls", "2", "--lhs-runs", "1",
    ]) == 0
    assert out_path.exists()
    data = TrainingData.load(out_path)
    assert len(data.profiles) == 25

    assert main(["predict", str(out_path), "26", "65"]) == 0
    out = capsys.readouterr().out
    assert "predicted" in out


def test_predict_new_scrubs_template(tmp_path, capsys):
    out_path = tmp_path / "campaign.pkl"
    main(["train", "--out", str(out_path), "--mpls", "2", "--lhs-runs", "1"])
    capsys.readouterr()
    assert main(["predict-new", str(out_path), "71", "26"]) == 0
    out = capsys.readouterr().out
    assert "new T71" in out
    assert "knn" in out


def test_unknown_template_is_a_clean_error(capsys):
    assert main(["isolated", "999"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_experiment_aliases_resolve():
    # Keep the alias table in sync with the experiments package.
    import importlib

    for module_name in EXPERIMENTS.values():
        importlib.import_module(f"repro.experiments.{module_name}")


def test_pack_then_load_test_in_process(tmp_path, capsys, small_training_data):
    campaign = tmp_path / "campaign.pkl"
    small_training_data.save(campaign)
    artifact = tmp_path / "model.json"

    assert main(["pack", str(campaign), "--out", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "packed" in out and "version v1-" in out

    assert main([
        "load-test", str(artifact),
        "--requests", "80", "--submitters", "4", "--pool", "6",
    ]) == 0
    out = capsys.readouterr().out
    assert "p50 latency" in out
    assert "req/s" in out
    assert "cache hit rate" in out
    error_lines = [l for l in out.splitlines() if l.startswith("errors")]
    assert error_lines and error_lines[0].split() == ["errors", "0"]


def test_serve_missing_artifact_fails_cleanly(tmp_path, capsys):
    assert main(["serve", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "cannot read model artifact" in err


def test_serve_schema_mismatch_fails_cleanly(
    tmp_path, capsys, small_training_data
):
    import json

    campaign = tmp_path / "campaign.pkl"
    small_training_data.save(campaign)
    artifact = tmp_path / "model.json"
    main(["pack", str(campaign), "--out", str(artifact)])
    capsys.readouterr()

    doc = json.loads(artifact.read_text())
    doc["schema_version"] = 999
    artifact.write_text(json.dumps(doc))

    assert main(["serve", str(artifact)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "schema version 999" in err
    assert "Traceback" not in err


def test_serve_in_process_address_health_and_sigint(tmp_path, small_contender):
    """The contract scripts rely on: `serve --workers 1` prints its
    address first, answers /v1/health, and exits 0 on SIGINT."""
    import http.client
    import os
    import re
    import signal
    import subprocess
    import sys
    from pathlib import Path

    from repro.serving import save_artifact

    artifact = tmp_path / "model.json"
    save_artifact(small_contender, artifact)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", str(artifact),
         "--port", "0", "--workers", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    try:
        first = proc.stdout.readline().decode()
        match = re.search(r"on http://([^:\s]+):(\d+)", first)
        assert match, first
        conn = http.client.HTTPConnection(
            match.group(1), int(match.group(2)), timeout=10.0
        )
        try:
            conn.request("GET", "/v1/health")
            assert conn.getresponse().status == 200
        finally:
            conn.close()
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def test_load_test_requires_exactly_one_target(tmp_path, capsys):
    assert main(["load-test"]) == 2
    err = capsys.readouterr().err
    assert "artifact path or --url" in err

    campaign = tmp_path / "model.json"
    assert main(["load-test", str(campaign), "--url", "127.0.0.1:1"]) == 2


def test_stats_command_against_live_server(
    tmp_path, capsys, small_contender
):
    import json

    from repro.config import ServingConfig
    from repro.serving import PredictionClient, PredictionServer, save_artifact

    artifact = tmp_path / "model.json"
    save_artifact(small_contender, artifact)
    config = ServingConfig(port=0, workers=1, batch_window=0.0)
    with PredictionServer.from_artifact(artifact, config=config) as srv:
        with PredictionClient(srv.host, srv.port) as cli:
            cli.predict(26, (26, 65))
        url = f"{srv.host}:{srv.port}"

        assert main(["stats", url]) == 0
        out = capsys.readouterr().out
        assert "model" in out and "v1-" in out
        assert "hit rate" in out
        assert "enabled (GET /metrics)" in out

        assert main(["stats", url, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["requests"]["predict"] == 1

        assert main(["stats", url, "--prometheus"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE serving_requests_total counter" in text


def test_stats_rejects_malformed_url(capsys):
    assert main(["stats", "no-port-here"]) == 2
    assert "malformed url" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_reference_engine_is_not_a_cli_choice(tmp_path, capsys, command):
    argv = (
        ["train", "--out", str(tmp_path / "c.pkl")]
        if command == "train"
        else ["eval", "compare"]
    )
    # One shipped engine: no subcommand takes --engine at all.
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--engine", "reference"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_sched_and_eval_load_a_campaign_file(
    small_training_data, tmp_path, capsys
):
    import json

    path = tmp_path / "campaign.pkl"
    small_training_data.save(path)
    common = ["--data", str(path), "--json"]
    assert main(
        ["sched", "run", "--templates", "26,65", "--count", "4",
         "--max-mpl", "2", *common]
    ) == 0
    replay = json.loads(capsys.readouterr().out)
    assert replay["completed"] == 4
    assert main(
        ["eval", "run", "--mpls", "2", "--sets", "1", "--window", "2", *common]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 7 and report["ground_truth"]["mixes"] > 0


def test_stats_unreachable_server_fails_cleanly(capsys):
    assert main(["stats", "127.0.0.1:1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_diagnose_command(tmp_path, capsys):
    out_path = tmp_path / "campaign.pkl"
    main(["train", "--out", str(out_path), "--mpls", "2", "--lhs-runs", "1"])
    capsys.readouterr()
    assert main(["diagnose", str(out_path), "--mpl", "2"]) == 0
    out = capsys.readouterr().out
    assert "diagnostics" in out
    assert "unflagged" in out


def test_lifecycle_status_on_empty_state_dir(tmp_path, capsys):
    assert main(["lifecycle", "status", "--state-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "current   : -" in out
    assert "0 records" in out


def test_lifecycle_promote_and_rollback_cycle(
    tmp_path, small_contender, small_training_data, capsys
):
    from repro.core.contender import Contender
    from repro.serving.registry import load_artifact, save_artifact

    state = tmp_path / "state"
    state.mkdir()
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    save_artifact(small_contender, first)
    save_artifact(
        Contender(
            small_training_data.restricted_to(
                [t for t in small_training_data.template_ids if t != 22]
            )
        ),
        second,
    )

    # First promote into an empty slot initializes it.
    assert main(["lifecycle", "promote", str(first), "--state-dir", str(state)]) == 0
    assert "initialized" in capsys.readouterr().out
    first_fp = load_artifact(state / "model.json").info.fingerprint

    # Second promote is a forced (ungated) flip.
    assert main(["lifecycle", "promote", str(second), "--state-dir", str(state)]) == 0
    out = capsys.readouterr().out
    assert "promoted" in out and "forced" in out
    assert load_artifact(state / "model.json").info.fingerprint != first_fp

    assert main(["lifecycle", "rollback", "--state-dir", str(state)]) == 0
    assert "rolled back" in capsys.readouterr().out
    assert load_artifact(state / "model.json").info.fingerprint == first_fp

    assert main(["lifecycle", "status", "--state-dir", str(state)]) == 0
    out = capsys.readouterr().out
    assert "3 records" in out
    assert "rollback" in out


def test_lifecycle_status_json_is_machine_readable(
    tmp_path, small_contender, capsys
):
    import json

    from repro.serving.registry import save_artifact

    artifact = tmp_path / "cand.json"
    save_artifact(small_contender, artifact)
    state = tmp_path / "state"
    state.mkdir()
    main(["lifecycle", "promote", str(artifact), "--state-dir", str(state)])
    capsys.readouterr()
    assert main(
        ["lifecycle", "status", "--state-dir", str(state), "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["current_fingerprint"]
    assert [r["action"] for r in doc["promotions"]] == ["initialize"]


def test_lifecycle_rollback_without_backup_fails_cleanly(tmp_path, capsys):
    assert main(["lifecycle", "rollback", "--state-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "roll back" in err


def test_stats_shows_lifecycle_detector_state(
    tmp_path, small_contender, capsys
):
    import json

    from repro.config import LifecycleConfig, ServingConfig
    from repro.serving import PredictionClient, PredictionServer, save_artifact

    artifact = tmp_path / "model.json"
    save_artifact(small_contender, artifact)
    config = ServingConfig(port=0)
    lifecycle = LifecycleConfig(
        reference_window=4, test_window=2, min_samples=4, residual_window=16
    )
    with PredictionServer.from_artifact(
        artifact, config=config, lifecycle=lifecycle
    ) as srv:
        with PredictionClient(srv.host, srv.port) as cli:
            latency = cli.predict(26, (26, 65)).latency
            for _ in range(4):
                cli.observe(26, (26, 65), latency * 1.02)
            for _ in range(4):
                cli.observe(26, (26, 65), latency * 2.0)
        url = f"{srv.host}:{srv.port}"

        assert main(["stats", url]) == 0
        out = capsys.readouterr().out
        assert "lifecycle" in out
        assert "1 drifted (T26)" in out
        assert "last verdict mean_shift" in out

        assert main(["stats", url, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lifecycle"]["drifted"] == [26]
        assert doc["lifecycle"]["templates"][0]["window_size"] > 0

        assert main(["stats", url, "--prometheus"]) == 0
        text = capsys.readouterr().out
        assert "lifecycle_residuals_total" in text
        assert "lifecycle_residual_window_size" in text
        assert 'lifecycle_template_drifted{template="26"} 1' in text
