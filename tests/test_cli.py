"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import CONFIGURATIONS, EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_configurations_buildable(self):
        for name, factory in CONFIGURATIONS.items():
            model = factory()
            assert model.num_items >= 1, name

    def test_experiment_registry_names(self):
        assert "figure3" in EXPERIMENTS
        assert "table6" in EXPERIMENTS


class TestNetworksCommand:
    def test_lists_networks(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        for name in ("nethept", "orkut", "twitter"):
            assert name in out

    def test_with_statistics(self, capsys):
        assert main(["networks", "--stats", "--scale", "0.005",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "standin_nodes" in out


class TestGenerateCommand:
    def test_writes_edge_list(self, tmp_path, capsys):
        output = tmp_path / "net.txt"
        assert main(["generate", "nethept", str(output),
                     "--scale", "0.005", "--seed", "3"]) == 0
        assert output.exists()
        content = output.read_text()
        assert "nodes" in content.splitlines()[0]

    def test_generated_file_is_loadable_by_run(self, tmp_path, capsys):
        output = tmp_path / "net.txt"
        main(["generate", "nethept", str(output), "--scale", "0.005",
              "--seed", "3"])
        code = main(["run", "--network", str(output), "--budget", "2",
                     "--samples", "30", "--max-rr-sets", "2000",
                     "--seed", "5"])
        assert code == 0


class TestRunCommand:
    def test_default_run_text_output(self, capsys):
        code = main(["run", "--network", "nethept", "--scale", "0.01",
                     "--budget", "2", "--samples", "30",
                     "--max-rr-sets", "2000", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "expected welfare" in out
        assert "seeds[i]" in out

    def test_json_output(self, capsys):
        code = main(["run", "--network", "nethept", "--scale", "0.01",
                     "--budget", "2", "--samples", "30",
                     "--max-rr-sets", "2000", "--seed", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "SeqGRD-NM"
        assert payload["expected_welfare"] > 0
        assert set(payload["allocation"]) <= {"i", "j"}

    def test_explicit_budgets(self, capsys):
        code = main(["run", "--network", "nethept", "--scale", "0.01",
                     "--budgets", '{"i": 3, "j": 1}', "--samples", "20",
                     "--max-rr-sets", "2000", "--seed", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["allocation"]["i"]) == 3
        assert len(payload["allocation"]["j"]) == 1

    def test_supgrd_with_fixed_imm_item(self, capsys):
        code = main(["run", "--algorithm", "SupGRD", "--configuration", "C6",
                     "--network", "nethept", "--scale", "0.01",
                     "--budget", "2", "--fixed-imm-item", "j",
                     "--fixed-imm-budget", "3", "--samples", "20",
                     "--max-rr-sets", "2000", "--seed", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "SupGRD"
        assert "i" in payload["allocation"]

    @pytest.mark.parametrize("algorithm", ["MaxGRD", "TCIM", "Round-robin",
                                           "Snake"])
    def test_other_algorithms(self, algorithm, capsys):
        code = main(["run", "--algorithm", algorithm, "--network", "nethept",
                     "--scale", "0.01", "--budget", "2", "--samples", "20",
                     "--marginal-samples", "10", "--max-rr-sets", "2000",
                     "--seed", "3", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["expected_welfare"] >= 0


class TestExperimentCommand:
    def test_table2(self, capsys):
        assert main(["experiment", "table2", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "nethept" in out

    def test_json_output(self, capsys):
        assert main(["experiment", "table5", "--scale", "smoke",
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4


class TestLearnCommand:
    def test_learn_from_file(self, tmp_path, capsys):
        logfile = tmp_path / "selections.txt"
        lines = ["rock"] * 30 + ["indie"] * 60 + ["rock,indie"] * 2 + ["other"] * 8
        logfile.write_text("\n".join(lines))
        assert main(["learn", str(logfile), "--items", "rock,indie",
                     "--json"]) == 0
        utilities = json.loads(capsys.readouterr().out)
        assert utilities["indie"] > utilities["rock"]

    def test_text_output(self, tmp_path, capsys):
        logfile = tmp_path / "selections.txt"
        logfile.write_text("a\nb\na\n# comment\n\n")
        assert main(["learn", str(logfile)]) == 0
        assert "learned utilities" in capsys.readouterr().out


class TestIndexCommands:
    BUILD = ["index", "build", "--network", "nethept", "--scale", "0.01",
             "--budget", "2", "--max-rr-sets", "2000", "--seed", "4"]
    RUN = ["run", "--network", "nethept", "--scale", "0.01", "--budget", "2",
           "--samples", "10", "--max-rr-sets", "2000", "--seed", "4"]

    def test_build_then_query_reproduces_run(self, tmp_path, capsys):
        assert main(self.RUN + ["--json"]) == 0
        run_payload = json.loads(capsys.readouterr().out)
        out = tmp_path / "idx"
        assert main(self.BUILD + ["--out", str(out), "--json"]) == 0
        build_payload = json.loads(capsys.readouterr().out)
        assert build_payload["num_rr_sets"] > 0
        assert (tmp_path / "idx.npz").exists()
        assert (tmp_path / "idx.manifest.json").exists()
        assert main(["index", "query", "--index", str(out), "--json"]) == 0
        query_payload = json.loads(capsys.readouterr().out)
        assert query_payload["allocation"] == run_payload["allocation"]

    def test_query_rejects_stale_manifest(self, tmp_path, capsys):
        out = tmp_path / "idx"
        assert main(self.BUILD + ["--out", str(out)]) == 0
        capsys.readouterr()
        manifest = tmp_path / "idx.manifest.json"
        data = json.loads(manifest.read_text())
        data["meta"]["fingerprint_extra"]["budgets"]["i"] = 99
        manifest.write_text(json.dumps(data))
        assert main(["index", "query", "--index", str(out)]) == 2
        assert "stale" in capsys.readouterr().err
        assert main(["index", "query", "--index", str(out),
                     "--no-verify"]) == 0

    def test_query_with_explicit_budget(self, tmp_path, capsys):
        out = tmp_path / "idx"
        assert main(self.BUILD + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["index", "query", "--index", str(out), "--algorithm",
                     "select", "--budget", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["allocation"]["seeds"]) == 1

    def test_index_info_json_is_enriched(self, tmp_path, capsys):
        out = tmp_path / "idx"
        assert main(self.BUILD + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["index", "info", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_sets"] > 0 and payload["num_nodes"] > 0
        assert payload["network"] == "nethept"
        assert payload["scale"] == 0.01
        assert payload["fingerprint"]
        # build provenance surfaced for ops tooling
        assert payload["budgets"] == {"i": 2, "j": 2}
        assert "engine" in payload and "workers" in payload
        assert "options" in payload

    def test_index_info_text_mentions_budgets(self, tmp_path, capsys):
        out = tmp_path / "idx"
        assert main(self.BUILD + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["index", "info", str(out)]) == 0
        assert "budgets" in capsys.readouterr().out

    def test_serve_loop_round_trip(self, tmp_path, capsys, monkeypatch):
        import io

        out = tmp_path / "idx"
        assert main(self.BUILD + ["--out", str(out)]) == 0
        capsys.readouterr()
        requests = "\n".join([
            '{"id": 1, "op": "ping"}',
            '{"id": 2, "op": "query", "budgets": {"i": 2, "j": 1}}',
            '{"id": 3, "op": "query", "budgets": {"i": 2, "j": 1}}',
            "garbage",
            '{"id": 4, "op": "stats"}',
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        assert main(["serve", "--index", str(out)]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines() if line]
        assert lines[0]["pong"] is True
        assert lines[1]["cached"] is False and lines[2]["cached"] is True
        assert lines[1]["allocation"] == lines[2]["allocation"]
        assert lines[3]["ok"] is False
        assert lines[4]["stats"]["hits"] == 1


class TestTcpAddressArgument:
    def test_host_port_forms(self):
        from repro.api.cliargs import tcp_address_argument

        assert tcp_address_argument("127.0.0.1:7411") == ("127.0.0.1", 7411)
        assert tcp_address_argument(":8080") == ("127.0.0.1", 8080)
        assert tcp_address_argument("0") == ("127.0.0.1", 0)
        assert tcp_address_argument("0.0.0.0:0") == ("0.0.0.0", 0)

    def test_malformed_addresses_rejected(self):
        import argparse

        from repro.api.cliargs import tcp_address_argument

        for bad in ("host:port", "1.2.3.4:", "1.2.3.4:99999", "x"):
            with pytest.raises(argparse.ArgumentTypeError):
                tcp_address_argument(bad)

    def test_serve_requires_an_index_source(self, capsys):
        assert main(["serve"]) == 2
        assert "--index" in capsys.readouterr().err


class TestMetricsCli:
    def test_metrics_requires_an_endpoint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics"])
        assert excinfo.value.code == 2
        assert "required" in capsys.readouterr().err

    def test_unreachable_server_is_exit_code_2(self, tmp_path, capsys):
        assert main(["metrics", "--unix", str(tmp_path / "nope.sock")]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_stdio_with_metrics_tcp(self, tmp_path, capsys,
                                          monkeypatch):
        import os
        import socket
        import threading
        import time
        import urllib.request

        out = tmp_path / "idx"
        assert main(TestIndexCommands.BUILD + ["--out", str(out)]) == 0
        capsys.readouterr()
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        read_fd, write_fd = os.pipe()
        scraped = {}

        def client():
            # scrape the exporter while stdin is still open, then send
            # one more frame and close stdin (EOF ends the server)
            with os.fdopen(write_fd, "w") as stdin:
                stdin.write('{"id": 1, "op": "ping"}\n')
                stdin.flush()
                deadline = time.monotonic() + 60
                while "body" not in scraped:
                    try:
                        with urllib.request.urlopen(
                                f"http://127.0.0.1:{port}/metrics",
                                timeout=10) as scrape:
                            scraped["body"] = scrape.read().decode()
                    except OSError:
                        if time.monotonic() > deadline:
                            raise
                        time.sleep(0.05)
                stdin.write('{"id": 2, "op": "query", '
                            '"budgets": {"i": 2, "j": 1}}\n')

        thread = threading.Thread(target=client)
        thread.start()
        monkeypatch.setattr("sys.stdin", os.fdopen(read_fd))
        try:
            assert main(["serve", "--index", str(out),
                         "--metrics-tcp", f"127.0.0.1:{port}"]) == 0
        finally:
            thread.join(60)
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines() if line]
        assert [line["id"] for line in lines] == [1, 2]
        assert lines[0]["pong"] is True and lines[1]["ok"] is True
        assert "repro_uptime_seconds" in scraped["body"]


class TestBudgetsArgument:
    RUN = ["run", "--network", "nethept", "--scale", "0.01", "--samples",
           "20", "--max-rr-sets", "2000", "--seed", "1"]

    def test_item_count_pairs_accepted(self, capsys):
        code = main(self.RUN + ["--budgets", "i=3,j=1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["allocation"]["i"]) == 3
        assert len(payload["allocation"]["j"]) == 1

    def test_malformed_pair_is_a_clean_parse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.RUN + ["--budgets", "i:3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "malformed budget pair" in err
        assert "Traceback" not in err

    def test_non_integer_count_is_a_clean_parse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.RUN + ["--budgets", '{"i": "lots"}'])
        assert excinfo.value.code == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_unknown_item_rejected_at_spec_validation(self, capsys):
        assert main(self.RUN + ["--budgets", "zebra=3"]) == 2
        err = capsys.readouterr().err
        assert "zebra" in err and "C1" in err

    def test_unsupported_knob_combination_fails_fast(self, capsys):
        assert main(self.RUN + ["--algorithm", "TCIM",
                    "--workers", "2"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_removed_selection_strategy_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.RUN + ["--selection-strategy", "eager"])
        assert excinfo.value.code == 2
        assert "--selection-strategy" in capsys.readouterr().err


class TestErrorHandling:
    def test_library_errors_become_exit_code_2(self, tmp_path, capsys):
        logfile = tmp_path / "empty.txt"
        logfile.write_text("\n")
        assert main(["learn", str(logfile)]) == 2
        assert "error" in capsys.readouterr().err
