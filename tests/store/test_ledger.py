"""RunLedger: manifests, enumeration, gc roots."""

import json

import pytest

from repro.errors import StoreError
from repro.store import MANIFEST_VERSION, RunLedger


def _record(ledger, run_id, cache="miss", kind="workload"):
    return ledger.record(
        run_id,
        kind=kind,
        label="sobel",
        params={"command": "workloads", "name": "sobel"},
        config_hash="c" * 64,
        stages=[
            {
                "name": "preprocessing",
                "seconds": 1.25,
                "cache": cache,
                "artifacts": [{"kind": "space", "key": "a" * 64}],
            },
            {
                "name": "final_analysis",
                "seconds": 0.5,
                "cache": cache,
                "artifacts": [
                    {"kind": "evaluations", "key": "b" * 64}
                ],
            },
        ],
        seed=0,
    )


class TestLedger:
    def test_record_and_get(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run_id = ledger.new_run_id()
        manifest = _record(ledger, run_id)
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["total_seconds"] == pytest.approx(1.75)
        loaded = ledger.get(run_id)
        assert loaded == manifest
        # manifest is valid, sorted JSON on disk
        raw = (tmp_path / "runs" / f"{run_id}.json").read_text()
        assert json.loads(raw)["run_id"] == run_id

    def test_runs_sorted_and_skip_garbage(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ids = [ledger.new_run_id() for _ in range(3)]
        for i, run_id in enumerate(ids):
            _record(ledger, f"{run_id}-{i}")
        (tmp_path / "runs" / "junk.json").write_text("{broken")
        manifests = ledger.runs()
        assert len(manifests) == 3
        stamps = [m["created_ts"] for m in manifests]
        assert stamps == sorted(stamps)
        assert ledger.latest()["run_id"] == manifests[-1]["run_id"]

    def test_get_unknown_raises(self, tmp_path):
        with pytest.raises(StoreError, match="no run"):
            RunLedger(tmp_path).get("nope")

    def test_delete(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run_id = ledger.new_run_id()
        _record(ledger, run_id)
        ledger.delete(run_id)
        assert ledger.runs() == []
        with pytest.raises(StoreError):
            ledger.delete(run_id)

    def test_new_run_ids_unique(self, tmp_path):
        ids = {RunLedger.new_run_id() for _ in range(50)}
        assert len(ids) == 50

    def test_referenced_artifacts_union(self, tmp_path):
        ledger = RunLedger(tmp_path)
        _record(ledger, ledger.new_run_id())
        _record(ledger, ledger.new_run_id(), cache="hit")
        refs = ledger.referenced_artifacts()
        assert refs == {
            ("space", "a" * 64),
            ("evaluations", "b" * 64),
        }


class TestRunIds:
    """Run ids are file names under ``runs/``; none may escape it."""

    @pytest.mark.parametrize(
        "bad",
        ["", ".", "..", ".hidden", "../../secret", "a/b", "a\\b",
         "a\0b"],
    )
    def test_unsafe_ids_rejected(self, tmp_path, bad):
        root = tmp_path / "store"
        secret = tmp_path / "secret.json"
        secret.write_text('{"run_id": "secret"}')
        ledger = RunLedger(root)
        with pytest.raises(StoreError, match="invalid run id"):
            _record(ledger, bad)
        with pytest.raises(StoreError, match="invalid run id"):
            ledger.get(bad)
        with pytest.raises(StoreError, match="invalid run id"):
            ledger.delete(bad)
        assert secret.read_text() == '{"run_id": "secret"}'
        assert not (root / "runs").exists()
