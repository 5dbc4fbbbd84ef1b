"""HTTP API tests: routes, error codes, and the client round trip."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import ExperimentSpec
from repro.serve import (
    JobApiServer,
    JobStore,
    Scheduler,
    ServeClient,
    ServeClientError,
)


@pytest.fixture
def served(tmp_path):
    store = JobStore(tmp_path / "root")
    with JobApiServer(store, port=0) as server:  # port 0: pick a free one
        yield store, ServeClient(server.url)


def spec_dict(**overrides):
    defaults = dict(
        env_id="CartPole-v0", max_generations=4, pop_size=12, seed=3,
        max_steps=40,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults).to_dict()


def test_shutdown_is_repeatable_and_needs_no_start(tmp_path):
    """Shutting down twice is safe, and a server that never started
    frees its port instead of waiting forever for a serve loop."""
    store = JobStore(tmp_path / "root")
    server = JobApiServer(store, port=0).start()
    server.shutdown()
    server.shutdown()

    idle = JobApiServer(store, port=0)
    stopper = threading.Thread(target=idle.shutdown, daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive()
    assert idle.httpd.socket.fileno() == -1


def test_healthz_counts_jobs_by_state(served):
    store, client = served
    health = client.healthz()
    assert health["ok"] is True
    assert all(count == 0 for count in health["jobs"].values())
    store.submit(spec_dict())
    assert client.healthz()["jobs"]["queued"] == 1


def test_healthz_tolerates_unknown_job_state(served):
    # A job.json written by a newer version may carry a state this
    # server has never heard of; /healthz must bucket it, not 500.
    store, client = served
    record = store.submit(spec_dict())
    path = store.job_dir(record.id) / "job.json"
    payload = json.loads(path.read_text())
    payload["state"] = "hibernating"
    path.write_text(json.dumps(payload))
    health = client.healthz()
    assert health["ok"] is True
    assert health["jobs"]["other"] == 1
    assert health["jobs"]["queued"] == 0


def test_malformed_since_is_a_400_json_error(served):
    store, client = served
    job = client.submit(spec_dict())
    with pytest.raises(ServeClientError) as excinfo:
        client._request("GET", f"/jobs/{job['id']}/metrics?since=abc")
    assert excinfo.value.status == 400
    assert "since" in str(excinfo.value)
    # raw request: the body is the structured error shape, not a traceback
    url = f"{client.base_url}/jobs/{job['id']}/metrics?since=abc"
    try:
        urllib.request.urlopen(url)
    except urllib.error.HTTPError as error:
        assert error.code == 400
        body = json.loads(error.read())
        assert set(body) == {"error"}
    else:  # pragma: no cover - the request must fail
        raise AssertionError("expected a 400")
    # a well-formed since still filters
    assert client.metrics(job["id"], since=0) == []


def test_malformed_body_ints_are_400(served):
    _store, client = served
    for field in ("priority", "max_retries"):
        with pytest.raises(ServeClientError) as excinfo:
            client._request(
                "POST", "/jobs", {"spec": spec_dict(), field: "lots"}
            )
        assert excinfo.value.status == 400
        assert field in str(excinfo.value)


def test_wrong_method_is_a_405_json_error(served):
    _store, client = served
    for method in ("PUT", "DELETE", "PATCH"):
        request = urllib.request.Request(
            f"{client.base_url}/jobs", method=method
        )
        try:
            urllib.request.urlopen(request)
        except urllib.error.HTTPError as error:
            assert error.code == 405
            body = json.loads(error.read())
            assert set(body) == {"error"}
            assert method in body["error"]
        else:  # pragma: no cover - the request must fail
            raise AssertionError(f"expected a 405 for {method}")


def test_submit_and_list_round_trip(served):
    _store, client = served
    job = client.submit(spec_dict(), priority=5, checkpoint_every=2)
    assert job["id"] == "job-000001"
    assert job["state"] == "queued"
    assert job["priority"] == 5
    listed = client.jobs()
    assert [j["id"] for j in listed] == ["job-000001"]
    assert client.job("job-000001")["spec"]["env_id"] == "CartPole-v0"


def test_submit_rejects_bad_bodies(served):
    _store, client = served
    with pytest.raises(ServeClientError) as excinfo:
        client.submit({"env_id": ""})
    assert excinfo.value.status == 400
    with pytest.raises(ServeClientError) as excinfo:
        client._request("POST", "/jobs", {"no_spec": True})
    assert excinfo.value.status == 400


def test_submit_non_object_backend_options_is_400(served):
    store, client = served
    with pytest.raises(ServeClientError) as excinfo:
        client.submit({**spec_dict(), "backend_options": "x"})
    assert excinfo.value.status == 400
    assert "backend_options" in str(excinfo.value)
    assert not store.jobs_root.exists() or not any(store.jobs_root.iterdir())


def test_unknown_job_and_route_are_404(served):
    _store, client = served
    for call in (
        lambda: client.job("job-000042"),
        lambda: client.metrics("job-000042"),
        lambda: client.champion("job-000042"),
        lambda: client.cancel("job-000042"),
        lambda: client._request("GET", "/nonsense"),
        lambda: client._request("GET", "/jobs/x/y/z"),
    ):
        with pytest.raises(ServeClientError) as excinfo:
            call()
        assert excinfo.value.status == 404


def test_cancel_queued_job_over_http(served):
    _store, client = served
    job = client.submit(spec_dict())
    cancelled = client.cancel(job["id"])
    assert cancelled["state"] == "cancelled"


def test_metrics_events_champion_after_run(served):
    store, client = served
    job = client.submit(spec_dict(), checkpoint_every=2)
    Scheduler(store, workers=1, poll_interval=0.05).run_until_idle(
        timeout=300
    )
    status = client.job(job["id"])
    assert status["state"] == "done"
    assert status["complete"] is True
    rows = client.metrics(job["id"])
    assert [row["generation"] for row in rows] == [0, 1, 2, 3]
    assert client.metrics(job["id"], since=2)[0]["generation"] == 2
    events = [row["event"] for row in client.events(job["id"])]
    assert events[0] == "submitted"
    assert events[-1] == "done"
    champion = client.champion(job["id"])
    assert "genome" in champion
    # no champion yet for a queued job -> 404
    fresh = client.submit(spec_dict(seed=8))
    with pytest.raises(ServeClientError) as excinfo:
        client.champion(fresh["id"])
    assert excinfo.value.status == 404


def test_raw_http_content_types(served):
    store, client = served
    job = client.submit(spec_dict())
    base = client.base_url
    with urllib.request.urlopen(f"{base}/jobs") as response:
        assert response.headers["Content-Type"] == "application/json"
        json.loads(response.read())
    with urllib.request.urlopen(f"{base}/jobs/{job['id']}/metrics") as response:
        assert response.headers["Content-Type"] == "application/x-ndjson"


def test_client_connection_error_is_friendly(tmp_path):
    client = ServeClient("http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(ServeClientError, match="cannot reach"):
        client.healthz()
