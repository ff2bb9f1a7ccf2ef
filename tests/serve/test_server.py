"""Integration tests of ``repro serve``: the full HTTP round trip.

One module-scoped store directory keeps the tiny workload library warm
across tests; each test gets its own server (fresh coordinator memory)
on a free port.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    ApiKeyRegistry,
    Coordinator,
    ServeApp,
    ServerThread,
)

#: One tiny, fully-specified computation (seconds, not minutes).
JOB = {
    "workload": "sobel", "scale": 0.0005, "images": 1,
    "train": 12, "evals": 150,
}

KEYS = "alice=sk-alice:100000,bob=sk-bob:100"


@pytest.fixture(scope="module")
def serve_store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("serve-store")


@pytest.fixture()
def store_env(serve_store_dir, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(serve_store_dir))
    return serve_store_dir


def make_server(keys=KEYS):
    from repro.store import open_store

    app = ServeApp(
        Coordinator(store=open_store()), ApiKeyRegistry(keys)
    )
    return ServerThread(app).start()


@pytest.fixture()
def server(store_env):
    srv = make_server()
    yield srv
    srv.stop()


def api(srv, path, method="GET", body=None, key="sk-alice"):
    """One HTTP round trip; returns (status, decoded JSON)."""
    request = urllib.request.Request(
        srv.base_url + path, method=method,
        data=None if body is None else json.dumps(body).encode(),
    )
    if key is not None:
        request.add_header("Authorization", f"Bearer {key}")
    try:
        with urllib.request.urlopen(request, timeout=300) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def run_job(srv, payload=JOB, key="sk-alice", wait=240):
    status, doc = api(srv, "/v1/jobs", "POST", payload, key=key)
    assert status == 202, doc
    job_id = doc["job"]["job_id"]
    status, doc = api(srv, f"/v1/jobs/{job_id}?wait={wait}", key=key)
    assert status == 200, doc
    return doc["job"]


class TestAuth:
    def test_health_needs_no_key(self, server):
        status, doc = api(server, "/v1/health", key=None)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["auth"] is True

    @pytest.mark.parametrize("key", [None, "", "sk-wrong"])
    def test_bad_key_is_401(self, server, key):
        for path in ("/v1/stats", "/v1/jobs", "/v1/workloads"):
            status, doc = api(server, path, key=key)
            assert status == 401
            assert "API key" in doc["error"]

    def test_submit_with_bad_key_is_401(self, server):
        status, _ = api(server, "/v1/jobs", "POST", JOB, key="nope")
        assert status == 401

    def test_x_api_key_header_accepted(self, server):
        request = urllib.request.Request(
            server.base_url + "/v1/account",
            headers={"X-Api-Key": "sk-alice"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            doc = json.loads(response.read())
        assert doc["account"]["name"] == "alice"

    def test_clients_cannot_see_foreign_jobs(self, server):
        status, doc = api(server, "/v1/jobs", "POST",
                          dict(JOB, evals=170), key="sk-alice")
        job_id = doc["job"]["job_id"]
        status, _ = api(server, f"/v1/jobs/{job_id}", key="sk-bob")
        assert status == 404


class TestValidation:
    def test_unknown_route_404(self, server):
        # /v1/store/* was the removed artifact-store API
        for path in ("/v1/nope", "/v1/store/stat"):
            assert api(server, path)[0] == 404, path

    def test_unknown_field_400(self, server):
        status, doc = api(server, "/v1/jobs", "POST",
                          {"workload": "sobel", "budgets": 1})
        assert status == 400
        assert "budgets" in doc["error"]

    def test_non_json_body_400(self, server):
        request = urllib.request.Request(
            server.base_url + "/v1/jobs", method="POST",
            data=b"not json",
            headers={"Authorization": "Bearer sk-alice"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400

    def test_workloads_catalog(self, server):
        status, doc = api(server, "/v1/workloads")
        assert status == 200
        names = [w["name"] for w in doc["workloads"]]
        assert "sobel" in names


class TestCoalescingAndCaches:
    def test_concurrent_identical_submits_share_one_pass(self, server):
        """Two racing identical submissions -> exactly one cold pass."""
        passes_before = api(server, "/v1/stats")[1]["stats"][
            "pipeline_passes"
        ]
        payload = dict(JOB, evals=160)
        results = []

        def submit():
            results.append(
                api(server, "/v1/jobs", "POST", payload)[1]["job"]
            )

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        jobs = [
            api(server, f"/v1/jobs/{j['job_id']}?wait=240")[1]["job"]
            for j in results
        ]
        assert all(j["status"] == "done" for j in jobs)
        sources = sorted(j["source"] for j in jobs)
        assert "coalesced" in sources
        stats = api(server, "/v1/stats")[1]["stats"]
        assert stats["pipeline_passes"] == passes_before + 1
        assert stats["coalesced"] >= 1
        # followers got the leader's exact document
        assert jobs[0]["result"]["front"] == jobs[1]["result"]["front"]

    def test_repeat_submit_is_a_memory_hit(self, server):
        payload = dict(JOB, evals=165)
        first = run_job(server, payload)
        second = run_job(server, payload)
        assert second["source"] == "memory"
        assert second["result"]["front"] == first["result"]["front"]
        stats = api(server, "/v1/stats")[1]["stats"]
        assert stats["memory_hits"] >= 1

    def test_store_warm_across_server_restart(self, store_env):
        """A fresh server answers a warm query with zero recompute."""
        payload = dict(JOB, evals=155)
        first_server = make_server()
        try:
            run_job(first_server, payload)
        finally:
            first_server.stop()
        second_server = make_server()
        try:
            job = run_job(second_server, payload)
        finally:
            second_server.stop()
        assert job["source"] == "store"
        cache = job["result"]["stage_cache"]
        assert set(cache.values()) == {"hit"}
        # zero synthesis, zero refits on the warm path
        assert job["result"]["engine_stats"]["synth_misses"] == 0
        assert job["result"]["engine_stats"]["model_fits"] == 0

    def test_quality_targets_share_one_computation(self, server):
        loose = run_job(server, dict(JOB, evals=175,
                                     quality_target=0.1))
        tight = run_job(server, dict(JOB, evals=175,
                                     quality_target=0.99))
        assert tight["source"] == "memory"
        assert loose["result"]["front"] == tight["result"]["front"]
        # but each sees its own operating point
        assert loose["result"]["selected"]["target_met"] is True
        selected = [
            job["result"]["selected"]["point"][1]
            for job in (loose, tight)
        ]
        assert selected[0] <= selected[1]


class TestFailuresAndLedger:
    def test_budget_exceeded_fails_job_not_server(self, server):
        # bob's key caps at 100 evaluations; the job asks for 150
        job = run_job(server, JOB, key="sk-bob")
        assert job["status"] == "failed"
        assert "budget" in job["error"].lower()
        # the server is still healthy afterwards
        assert api(server, "/v1/health", key=None)[0] == 200

    def test_crash_is_recorded_failed_in_ledger(self, server,
                                                monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(
            "repro.experiments.setup.run_workload_pipeline", boom
        )
        job = run_job(server, dict(JOB, evals=180))
        assert job["status"] == "failed"
        assert "engine exploded" in job["error"]
        status, doc = api(server, "/v1/ledger")
        assert status == 200
        failed = [r for r in doc["runs"] if r["status"] == "failed"]
        assert failed
        manifest = failed[-1]
        assert manifest["kind"] == "serve-job"
        assert "engine exploded" in manifest["extra"]["error"]
        assert manifest["params"]["account"] == "alice"
        assert "sk-alice" not in json.dumps(manifest)

    def test_ledger_records_every_job_with_key_id(self, server):
        payload = dict(JOB, evals=185)
        run_job(server, payload)
        run_job(server, payload)  # memory hit — still ledgered
        _, doc = api(server, "/v1/ledger")
        ours = [
            r for r in doc["runs"]
            if r["params"].get("evals") == 185
        ]
        assert [r["extra"]["source"] for r in ours] == [
            "cold", "memory",
        ]
        assert all(r["kind"] == "serve-job" for r in ours)
        account = api(server, "/v1/account")[1]["account"]
        assert all(
            r["params"]["api_key"] == account["key_id"] for r in ours
        )

    def test_account_meters_spend(self, server):
        before = api(server, "/v1/account")[1]["account"]["spent"]
        run_job(server, dict(JOB, evals=190))
        account = api(server, "/v1/account")[1]["account"]
        assert account["spent"] == before + 190
        run_job(server, dict(JOB, evals=190))  # memory hit: free
        assert (api(server, "/v1/account")[1]["account"]["spent"]
                == before + 190)


class TestParityWithCli:
    def test_front_matches_offline_workloads_run(self, store_env,
                                                 capsys):
        """A served answer is byte-identical to the offline CLI's."""
        from repro.cli import main

        assert main([
            "workloads", "run", "sobel", "--scale", "0.0005",
            "--images", "1", "--train", "12", "--evals", "150",
            "--json",
        ]) == 0
        offline = json.loads(capsys.readouterr().out)
        server = make_server()
        try:
            job = run_job(server, JOB)
        finally:
            server.stop()
        assert job["status"] == "done"
        assert job["result"]["front"] == offline["front"]
        assert (job["result"]["space"]["final_pareto"]
                == offline["space"]["final_pareto"])
        # and it shared the CLI run's store stages wholesale
        assert set(
            job["result"]["stage_cache"].values()
        ) == {"hit"}


class TestEvents:
    def test_event_stream_ends_with_terminal_frame(self, server):
        _, doc = api(server, "/v1/jobs", "POST", dict(JOB, evals=195))
        job_id = doc["job"]["job_id"]
        request = urllib.request.Request(
            server.base_url + f"/v1/jobs/{job_id}/events",
            headers={"Authorization": "Bearer sk-alice"},
        )
        frames = []
        with urllib.request.urlopen(request, timeout=300) as stream:
            assert stream.headers["Content-Type"] == "text/event-stream"
            for raw in stream:
                line = raw.decode().strip()
                if line.startswith("data: "):
                    frames.append(json.loads(line[6:]))
        assert frames
        assert frames[-1]["job"]["status"] == "done"
        assert frames[-1]["job"]["result"]["front"]
