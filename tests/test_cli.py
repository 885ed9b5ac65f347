"""Tests for the repro CLI."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_footprint(self, capsys):
        assert main(["footprint"]) == 0
        out = capsys.readouterr().out
        assert "syn" in out and "min_servers" in out

    def test_scaling(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_access_mix(self, capsys):
        assert main(["access-mix", "--max-nodes", "1500"]) == 0
        out = capsys.readouterr().out
        assert "structure%" in out

    def test_e2e(self, capsys):
        assert main(["e2e"]) == 0
        out = capsys.readouterr().out
        assert "sampling" in out and "storage ratio" in out

    def test_poc(self, capsys):
        assert main(["poc", "--max-nodes", "3000"]) == 0
        out = capsys.readouterr().out
        assert "geomean" in out

    def test_validate(self, capsys):
        assert main(["validate", "--max-nodes", "3000"]) == 0
        out = capsys.readouterr().out
        assert "mean error" in out

    def test_cost(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "ecs-re-x" in out

    def test_dse(self, capsys):
        assert main(["dse"]) == 0
        out = capsys.readouterr().out
        assert "mem-opt.tc" in out

    def test_sampler(self, capsys):
        assert main(["sampler"]) == 0
        out = capsys.readouterr().out
        assert "LUT saving" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_parser_lists_all_commands(self):
        parser = build_parser()
        help_text = parser.format_help()
        for command in (
            "footprint", "scaling", "access-mix", "e2e", "poc",
            "validate", "cost", "dse", "sampler",
        ):
            assert command in help_text


class TestExtraCommands:
    def test_system(self, capsys):
        from repro.cli import main

        assert main(["system", "--max-nodes", "2000"]) == 0
        out = capsys.readouterr().out
        assert "cards" in out and "remote" in out

    def test_service(self, capsys):
        from repro.cli import main

        assert main(["service"]) == 0
        out = capsys.readouterr().out
        assert "deadline" in out


class TestServeCommand:
    def test_serve_smoke(self, capsys):
        from repro.cli import main

        assert main(["serve", "--duration-s", "0.5", "--max-nodes", "1200",
                     "--no-functional"]) == 0
        out = capsys.readouterr().out
        assert "p99 latency" in out
        assert "shed rate" in out
        assert "batch occupancy" in out

    def test_serve_overload_and_failure(self, capsys):
        from repro.cli import main

        assert main(["serve", "--duration-s", "0.3", "--max-nodes", "1200",
                     "--overload", "2.0", "--fail-hardware-at", "0.15",
                     "--no-functional"]) == 0
        out = capsys.readouterr().out
        assert "2.0x offered/provisioned" in out
        assert "backend software" in out

    def test_parser_lists_serve(self):
        from repro.cli import build_parser

        assert "serve" in build_parser().format_help()


class TestFaultsCommand:
    def test_faults_clean(self, capsys):
        assert main(["faults", "--max-nodes", "600"]) == 0
        out = capsys.readouterr().out
        assert "replicas: 2x" in out
        assert "retries 0" in out
        assert "failed reads 0" in out

    def test_faults_kill_primary(self, capsys):
        assert main(["faults", "--max-nodes", "600",
                     "--kill-partition", "1"]) == 0
        out = capsys.readouterr().out
        assert "killed: partition 1 replica 0" in out
        assert "failovers" in out

    def test_faults_lossy_no_hedge(self, capsys):
        assert main(["faults", "--max-nodes", "600", "--loss-rate", "0.1",
                     "--no-hedge"]) == 0
        out = capsys.readouterr().out
        assert "hedging: off" in out
        assert "loss rate: 10.0%" in out

    def test_parser_lists_faults(self):
        assert "faults" in build_parser().format_help()


class TestBenchSamplerCommand:
    def test_bench_sampler_smoke(self, capsys):
        assert main([
            "bench-sampler", "--max-nodes", "1200", "--batch-size", "32",
            "--fanouts", "4,4", "--repeats", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "accounting match (replayed reference): yes" in out

    def test_bench_sampler_with_cache(self, capsys):
        assert main([
            "bench-sampler", "--max-nodes", "800", "--batch-size", "16",
            "--fanouts", "3,3", "--repeats", "1", "--cache-nodes", "4000",
        ]) == 0
        assert "accounting match (replayed reference): yes" in capsys.readouterr().out

    def test_parser_lists_bench_sampler(self):
        assert "bench-sampler" in build_parser().format_help()


class TestMutateBenchCommand:
    def test_mutate_bench_smoke(self, capsys):
        assert main(["mutate-bench", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "consistency (one epoch per sample): yes" in out
        assert "rate-0 parity vs static store: yes" in out
        assert "rate-0 replay-harness parity:  yes" in out
        assert "torn-read probe (mutation mid-sample): ok" in out

    def test_mutate_bench_json(self, capsys):
        import json

        assert main(["mutate-bench", "--smoke", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["sweep"]) == 3
        assert report["consistent_epochs"] is True
        assert report["rate0_static_match"] is True
        assert report["rate0_replay_match"] is True
        assert report["torn_read_ok"] is True
        rates = [row["rate"] for row in report["sweep"]]
        assert rates == sorted(rates) and rates[0] == 0
        # Mutating rates actually hit the append log.
        assert all(row["delta_hits"] > 0 for row in report["sweep"][1:])
        # Throughput is end to end: mutation time counts against it.
        for row in report["sweep"]:
            assert row["batches_per_s"] == pytest.approx(
                report["batches"] / (row["sampling_s"] + row["mutation_s"])
            )

    def test_mutate_bench_with_cache(self, capsys):
        assert main([
            "mutate-bench", "--smoke", "--cache-nodes", "512", "--json",
        ]) == 0
        import json

        report = json.loads(capsys.readouterr().out)
        assert report["rate0_static_match"] is True
        assert all(
            row["cache_invalidations"] > 0 for row in report["sweep"][1:]
        )

    def test_mutate_bench_needs_three_rates(self):
        with pytest.raises(SystemExit):
            main(["mutate-bench", "--rates", "0,8", "--max-nodes", "600"])

    def test_parser_lists_mutate_bench(self):
        assert "mutate-bench" in build_parser().format_help()


class TestServiceNaNGuard:
    def test_zero_batch_runs_print_na(self, capsys, monkeypatch):
        import repro.framework.service as service_mod
        from repro.framework.service import ServiceReport

        empty = ServiceReport(
            batch_latencies_s=[],
            total_time_s=0.0,
            total_batches=0,
            server_max_queue=0,
        )
        monkeypatch.setattr(
            service_mod, "run_service", lambda config: empty
        )
        assert main(["service"]) == 0
        out = capsys.readouterr().out
        assert "n/a (no quiet batches)" in out
        assert "nan" not in out.lower()

    def test_zero_loaded_batches_print_na(self, capsys, monkeypatch):
        import repro.framework.service as service_mod
        from repro.framework.service import ServiceConfig, ServiceReport

        real_run = service_mod.run_service

        def run(config: ServiceConfig):
            if config.num_workers > 1:  # the loaded run
                return ServiceReport(
                    batch_latencies_s=[],
                    total_time_s=0.0,
                    total_batches=0,
                    server_max_queue=0,
                )
            return real_run(config)

        monkeypatch.setattr(service_mod, "run_service", run)
        assert main(["service"]) == 0
        out = capsys.readouterr().out
        assert "n/a (no loaded batches)" in out
        assert "nan" not in out.lower()


class TestLayoutBench:
    def test_layout_bench_smoke(self, capsys):
        assert main(["layout-bench", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "locality win: yes" in out
        assert "replay parity (layout path): yes" in out

    def test_layout_bench_json(self, capsys):
        import json

        assert main(["layout-bench", "--smoke", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["locality_win"] is True
        assert report["replay_match"] is True
        assert report["crossing_reduction"] > 0
        assert report["run_length_gain"] > 1.0
        assert (
            report["layout"]["gather_nodes"]
            == report["baseline"]["gather_nodes"]
        )
        assert "kernels" not in report

    def test_parser_lists_layout_bench(self):
        assert "layout-bench" in build_parser().format_help()
