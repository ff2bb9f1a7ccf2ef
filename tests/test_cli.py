"""CLI surface tests (``python -m repro``)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_accelerator_choices(self):
        args = build_parser().parse_args(
            ["profile", "--accelerator", "fixed_gf"]
        )
        assert args.accelerator == "fixed_gf"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["profile", "--accelerator", "bogus"]
            )

    def test_workloads_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workloads"])

    def test_workers_parses_verbatim(self):
        args = build_parser().parse_args(["run", "--workers", "4"])
        assert args.workers == 4
        # an explicit 1 must survive to the engine: it forces serial
        # evaluation even when REPRO_WORKERS requests a pool
        args = build_parser().parse_args(["run", "--workers", "1"])
        assert args.workers == 1

    def test_explicit_workers_one_overrides_env(self, monkeypatch):
        from repro.core.engine import EvaluationEngine
        from repro.imaging.datasets import benchmark_images
        from repro.accelerators.sobel import SobelEdgeDetector

        monkeypatch.setenv("REPRO_WORKERS", "8")
        engine = EvaluationEngine(
            SobelEdgeDetector(),
            benchmark_images(1, shape=(8, 8)),
            workers=1,
        )
        assert engine.workers is None  # in-process, env ignored

    @pytest.mark.parametrize("bad", ["-2", "2.5", "many"])
    def test_workers_rejects_bad_values(self, bad, capsys):
        for command in (
            ["run", f"--workers={bad}"],
            ["workloads", "run", "sobel", f"--workers={bad}"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command)
            err = capsys.readouterr().err
            assert "--workers" in err
            assert "worker count" in err or ">= 0" in err

    @pytest.mark.parametrize(
        "command,option,value,minimum",
        [
            (["workloads", "run", "sobel"], "--images", "0", 1),
            (["workloads", "run", "sobel"], "--evals", "0", 1),
            (["workloads", "run", "sobel"], "--train", "1", 2),
            (["run"], "--images", "-1", 1),
            (["run"], "--evals", "0", 1),
            (["run"], "--train", "0", 2),
            (["search", "--workload", "sobel"], "--images", "0", 1),
            (["search"], "--train", "1", 2),
            (["profile"], "--images", "0", 1),
        ],
    )
    def test_counts_below_minimum_are_usage_errors(
        self, command, option, value, minimum, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(command + [option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: must be >= {minimum}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("option", ["--images", "--evals", "--train"])
    def test_counts_reject_non_integers(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["workloads", "run", "sobel", option, "many"])
        assert exc.value.code == 2
        assert "expected an integer" in capsys.readouterr().err

    def test_counts_at_minimum_parse(self):
        args = build_parser().parse_args(
            ["workloads", "run", "sobel", "--images", "1", "--evals",
             "1", "--train", "2"]
        )
        assert (args.images, args.evals, args.train) == (1, 1, 2)


class TestCommands:
    def test_inventory(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "Sobel ED" in out
        assert "Generic GF" in out

    def test_generate_library_and_run(self, tmp_path, capsys):
        lib_path = tmp_path / "lib.json"
        assert main(
            ["generate-library", "--scale", "0.001", "--out",
             str(lib_path)]
        ) == 0
        assert lib_path.exists()

        front_path = tmp_path / "front.csv"
        assert main(
            ["run", "--library", str(lib_path), "--images", "1",
             "--train", "12", "--evals", "150", "--out",
             str(front_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "models:" in out
        lines = front_path.read_text().splitlines()
        assert lines[0] == "ssim,area"
        assert len(lines) >= 2

    def test_generate_library_workers_byte_identical(self, tmp_path):
        paths = {}
        for workers in ("1", "2", "4"):
            paths[workers] = tmp_path / f"lib_w{workers}.json"
            assert main(
                ["generate-library", "--scale", "0.0005", "--workers",
                 workers, "--out", str(paths[workers])]
            ) == 0
        reference = paths["1"].read_bytes()
        assert paths["2"].read_bytes() == reference
        assert paths["4"].read_bytes() == reference

    def test_generate_library_store_json_and_warm(self, tmp_path,
                                                  monkeypatch,
                                                  capsys):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        argv = ["generate-library", "--scale", "0.0005", "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        doc = cold["generate_library"]
        assert cold["version"] == 1
        assert doc["stats"]["characterized"] == doc["components"]
        assert doc["run_id"]

        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)["generate_library"]
        assert warm["stats"]["characterized"] == 0
        assert warm["stats"]["synthesized"] == 0
        assert warm["stats"]["store_hits"] == warm["components"]
        assert warm["summary"] == doc["summary"]

    def test_generate_library_requires_out_or_store(self, capsys):
        assert main(
            ["generate-library", "--scale", "0.0005", "--no-store"]
        ) == 2
        assert "--out" in capsys.readouterr().err

    def test_profile(self, capsys):
        assert main(["profile", "--images", "1"]) == 0
        out = capsys.readouterr().out
        assert "add1" in out and "sub" in out

    def test_workloads_list(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        # seed case studies plus the N x N family are all listed
        for name in ("sobel", "generic_gf", "gaussian5", "log5"):
            assert name in out
        assert "5x5" in out

    @pytest.mark.parametrize("name", ["sharpen3", "log5"])
    def test_workloads_run_family_dse(self, name, tmp_path,
                                      monkeypatch, capsys):
        """End-to-end DSE on new N x N family workloads."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "cache"))
        front_path = tmp_path / "front.csv"
        assert main(
            ["workloads", "run", name, "--scale", "0.001",
             "--images", "1", "--train", "12", "--evals", "150",
             "--out", str(front_path)]
        ) == 0
        out = capsys.readouterr().out
        assert f"workload {name}" in out
        assert "models:" in out
        lines = front_path.read_text().splitlines()
        assert lines[0] == "ssim,area"
        assert len(lines) >= 2

    def test_workloads_run_unknown_name(self, capsys):
        assert main(["workloads", "run", "frobnicate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "registered" in err
        assert "Traceback" not in err

    def test_runs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs"])

    def test_store_flag_tristate(self):
        args = build_parser().parse_args(["run"])
        assert args.store is None
        assert build_parser().parse_args(
            ["run", "--store"]
        ).store is True
        assert build_parser().parse_args(
            ["run", "--no-store"]
        ).store is False

    def test_restore_sigint_unignores(self):
        """Background-job SIGINT=ignore must be reset to default.

        Shells start ``cmd &`` jobs with SIGINT ignored; serve relies
        on KeyboardInterrupt for graceful shutdown.
        """
        import signal

        from repro.cli import _restore_sigint

        previous = signal.getsignal(signal.SIGINT)
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            _restore_sigint()
            assert (signal.getsignal(signal.SIGINT)
                    is signal.default_int_handler)

            def custom(signum, frame):  # pragma: no cover - handler
                pass

            signal.signal(signal.SIGINT, custom)
            _restore_sigint()  # a live handler is left alone
            assert signal.getsignal(signal.SIGINT) is custom
        finally:
            signal.signal(signal.SIGINT, previous)

    def test_export_verilog_stdout(self, capsys):
        assert main(["export-verilog", "--accelerator", "sobel"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("module sobel")

    def test_export_verilog_file(self, tmp_path, capsys):
        path = tmp_path / "sobel.v"
        assert main(
            ["export-verilog", "--accelerator", "sobel", "--optimize",
             "--out", str(path)]
        ) == 0
        assert path.read_text().startswith("module sobel")


WORKLOAD_RUN = [
    "workloads", "run", "sobel", "--scale", "0.0005", "--images", "1",
    "--train", "12", "--evals", "150",
]


@pytest.fixture()
def store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    return tmp_path / "store"


class TestStoreCommands:
    """The experiment-store surface: --store, --json, repro runs."""

    def _run_json(self, capsys, extra=()):
        assert main(WORKLOAD_RUN + ["--json", *extra]) == 0
        return json.loads(capsys.readouterr().out)

    def test_workloads_run_json_versioned(self, store_env, capsys):
        doc = self._run_json(capsys)
        assert doc["version"] == 1
        assert doc["workload"] == "sobel"
        assert set(doc["stage_cache"].values()) == {"miss"}
        assert doc["front"]  # [ssim, area] rows
        # stable key order: the document re-serialises canonically
        assert list(doc) == sorted(doc)

    def test_store_env_enables_warm_second_run(self, store_env,
                                               capsys):
        self._run_json(capsys)
        warm = self._run_json(capsys)
        assert set(warm["stage_cache"].values()) == {"hit"}
        assert warm["engine_stats"]["synth_misses"] == 0
        assert warm["engine_stats"]["model_fits"] == 0

    def test_no_store_flag_disables(self, store_env, capsys):
        doc = self._run_json(capsys, extra=["--no-store"])
        assert set(doc["stage_cache"].values()) == {"off"}
        assert doc["run_id"] is None

    def test_runs_list_show_and_json(self, store_env, capsys):
        run_id = self._run_json(capsys)["run_id"]
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert run_id in out and "workload" in out

        assert main(["runs", "list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert [m["run_id"] for m in doc["runs"]] == [run_id]

        assert main(["runs", "show", run_id, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        stages = doc["run"]["stages"]
        assert [s["name"] for s in stages] == [
            "preprocessing", "training_set", "model_construction",
            "pseudo_pareto", "final_analysis",
        ]

        assert main(["runs", "show", run_id]) == 0
        out = capsys.readouterr().out
        assert "config_hash" in out and "final_analysis" in out

    def test_runs_resume_is_fully_cached(self, store_env, capsys):
        run_id = self._run_json(capsys)["run_id"]
        assert main(["runs", "resume", run_id, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["resumed_from"] == run_id
        assert set(doc["stage_cache"].values()) == {"hit"}
        assert doc["engine_stats"]["synth_misses"] == 0

    def test_search_records_and_resumes(self, store_env, capsys):
        assert main([
            "search", "--workload", "sobel", "--scale", "0.0005",
            "--images", "1", "--train", "12", "--test", "6",
            "--budget", "150", "--rounds", "2", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        search = doc["search"]
        assert search["evaluations"] == 150  # exact budget spend
        assert search["front_size"] >= 1
        assert search["run_id"]
        assert any(
            r["strategy"] == "hill" for r in search["islands"]
        )

        assert main(["runs", "list"]) == 0
        assert search["run_id"] in capsys.readouterr().out

        # Resuming a complete search serves the checkpointed front.
        assert main(
            ["runs", "resume", search["run_id"], "--json"]
        ) == 0
        resumed = json.loads(capsys.readouterr().out)["search"]
        assert resumed["resumed_from"] == search["run_id"]
        assert resumed["front"] == search["front"]
        assert resumed["evaluations"] == search["evaluations"]

    def test_search_without_store_has_no_run_id(self, store_env,
                                                capsys):
        assert main([
            "search", "--workload", "sobel", "--scale", "0.0005",
            "--images", "1", "--train", "12", "--test", "6",
            "--budget", "120", "--no-store", "--json",
        ]) == 0
        search = json.loads(capsys.readouterr().out)["search"]
        assert search["run_id"] is None
        assert search["evaluations"] == 120

    def test_runs_gc_keeps_referenced(self, store_env, capsys):
        self._run_json(capsys)
        assert main(["runs", "gc", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gc"]["kept"] > 0
        # a second run is still fully warm after gc
        warm = self._run_json(capsys)
        assert set(warm["stage_cache"].values()) == {"hit"}

    def test_runs_gc_dry_run_deletes_nothing(self, store_env,
                                             capsys):
        from repro.store import open_store

        self._run_json(capsys)
        store = open_store()
        store.put("dse", "f" * 64, {"orphan": True})

        assert main(["runs", "gc", "--dry-run", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gc"]["dry_run"] is True
        assert doc["gc"]["removed"] >= 1
        assert doc["gc"]["by_kind"]["dse"]["count"] >= 1
        assert doc["gc"]["by_kind"]["dse"]["bytes"] > 0
        # nothing was deleted: the orphan is still there
        assert store.get("dse", "f" * 64) == {"orphan": True}

        # human-readable output shows would-delete per kind
        assert main(["runs", "gc", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove" in out and "dse" in out

        # and the real pass removes exactly what the dry run promised
        assert main(["runs", "gc", "--json"]) == 0
        real = json.loads(capsys.readouterr().out)["gc"]
        assert real["removed"] == doc["gc"]["removed"]
        assert store.get("dse", "f" * 64) is None

    def test_runs_gc_missing_store_exits_nonzero(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv(
            "REPRO_STORE_DIR", str(tmp_path / "absent")
        )
        assert main(["runs", "gc"]) == 1
        assert "no experiment store" in capsys.readouterr().err

    def test_runs_accept_store_uri(self, store_env, capsys):
        run_id = self._run_json(capsys)["run_id"]
        assert main(
            ["runs", "list", "--store-dir", f"sqlite:{store_env}",
             "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [m["run_id"] for m in doc["runs"]] == [run_id]

    def test_runs_show_unknown_id(self, store_env, capsys):
        self._run_json(capsys)
        assert main(["runs", "show", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[-1].startswith("error: no run 'nope'")
        assert "Traceback" not in captured.err

    def test_runs_against_missing_store(self, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.setenv(
            "REPRO_STORE_DIR", str(tmp_path / "absent")
        )
        assert main(["runs", "list"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no experiment store")
        assert "Traceback" not in err


class TestJsonStdoutPurity:
    """With ``--json``, stdout carries one JSON document and nothing
    else; progress and diagnostics go to stderr."""

    @staticmethod
    def _pure_json(capsys):
        """stdout must parse as exactly one JSON document."""
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # raises on any stray prose
        assert doc["version"] == 1
        return doc, captured.err

    def test_workloads_run_json_with_out(self, store_env, tmp_path,
                                         capsys):
        front_path = tmp_path / "front.csv"
        assert main(
            WORKLOAD_RUN + ["--json", "--out", str(front_path)]
        ) == 0
        doc, err = self._pure_json(capsys)
        assert doc["workload"] == "sobel"
        # --out is honoured in json mode; the note goes to stderr
        lines = front_path.read_text().splitlines()
        assert lines[0] == "ssim,area"
        assert len(lines) == len(doc["front"]) + 1
        assert str(front_path) in err

    def test_run_json_with_out(self, store_env, tmp_path, capsys):
        front_path = tmp_path / "front.csv"
        assert main([
            "run", "--scale", "0.0005", "--images", "1",
            "--train", "12", "--evals", "150", "--json",
            "--out", str(front_path),
        ]) == 0
        doc, _ = self._pure_json(capsys)
        assert doc["accelerator"] == "sobel"
        assert doc["front"]
        assert front_path.read_text().startswith("ssim,area")

    def test_search_json(self, store_env, capsys):
        assert main([
            "search", "--workload", "sobel", "--scale", "0.0005",
            "--images", "1", "--train", "12", "--test", "6",
            "--budget", "120", "--json",
        ]) == 0
        doc, _ = self._pure_json(capsys)
        assert doc["search"]["evaluations"] == 120

    def test_runs_commands_json(self, store_env, capsys):
        assert main(WORKLOAD_RUN + ["--json"]) == 0
        run_id = self._pure_json(capsys)[0]["run_id"]
        for argv in (
            ["runs", "list", "--json"],
            ["runs", "show", run_id, "--json"],
            ["runs", "resume", run_id, "--json"],
            ["runs", "gc", "--json"],
        ):
            assert main(argv) == 0
            self._pure_json(capsys)

    def test_generate_library_json(self, store_env, capsys):
        assert main([
            "generate-library", "--scale", "0.0005", "--store",
            "--json",
        ]) == 0
        doc, err = self._pure_json(capsys)
        assert doc["generate_library"]["components"] > 0
        assert "generating" in err  # progress went to stderr

    def test_runs_list_kind_filter(self, store_env, capsys):
        assert main(WORKLOAD_RUN + ["--json"]) == 0
        self._pure_json(capsys)
        assert main(
            ["runs", "list", "--json", "--kind", "workload"]
        ) == 0
        doc, _ = self._pure_json(capsys)
        assert len(doc["runs"]) == 1
        assert main(
            ["runs", "list", "--json", "--kind", "serve-job"]
        ) == 0
        doc, _ = self._pure_json(capsys)
        assert doc["runs"] == []
