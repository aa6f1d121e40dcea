"""Campaign service conformance suite (``repro.service``).

Pins the contracts that make ``repro-eda serve`` a faithful front end
over the library:

* an HTTP-submitted campaign renders **byte-identically** to the direct
  library/CLI execution, on every executor backend;
* an identical resubmission is served from the content-addressed result
  cache without re-executing -- within one server (memo) and across
  server restarts (``--cache-dir``);
* admission control is typed and deterministic: 400 for malformed
  specs, 409 for quota, 429 (+ ``Retry-After``) for rate, 503 for a
  full queue;
* a worker killed mid-job is absorbed by the fleet's retry machinery --
  the job still completes with zero degraded rows;
* a service-submitted run lands in the experiment database rendering
  identically to the equivalent CLI run (modulo provenance fields).
"""

import contextlib
import heapq
import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import cache, expdb, obs
from repro.exec import (
    EXECUTOR_KINDS,
    InProcessExecutor,
    LocalPoolExecutor,
    RemoteExecutor,
)
from repro.resilience import faultpoints
from repro.resilience.deadline import clear_task_deadline
from repro.resilience.policy import RetryPolicy
from repro.service import CampaignService, JobManager, RateLimiter
from repro.service.ratelimit import TokenBucket
from repro.service.spec import SpecError, parse_request, parse_spec

REPO = Path(__file__).resolve().parent.parent

FAST = RetryPolicy(backoff_base_s=0.01, backoff_cap_s=0.05)

#: The fast Table 4.3 campaign (mirrors TINY_43 in test_executor_contract).
TINY_TABLE = {
    "kind": "table",
    "table": "4.3",
    "targets": ["s27", "s298"],
    "drivers": ["s953"],
    "segment_length": 40,
    "time_limit": None,
    "seed": 2,
    "q_limit": 1,
    "r_limit": 2,
    "max_sequences": 2,
    "n_sequences": 2,
    "func_length": 30,
}

#: A fast single-circuit generation campaign.
TINY_GEN = {"kind": "generate", "circuit": "s27", "length": 60, "time_limit": 5}


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    for var in ("REPRO_DB", "REPRO_DB_RUN", "REPRO_CACHE_DIR", faultpoints.ENV_VAR):
        monkeypatch.delenv(var, raising=False)
    faultpoints.install(None)
    clear_task_deadline()
    obs.disable()
    obs.reset()
    cache.reset()
    expdb.reset()
    yield
    faultpoints.install(None)
    clear_task_deadline()
    obs.disable()
    obs.reset()
    cache.reset()
    expdb.reset()


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def _spawn_workers(port, n=2, extra_env=None):
    env = os.environ.copy()
    env.pop(faultpoints.ENV_VAR, None)
    env["PYTHONPATH"] = f"{REPO / 'src'}{os.pathsep}{REPO}"
    if extra_env:
        env.update(extra_env)
    return [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "worker",
                "--connect", f"127.0.0.1:{port}",
                "--connect-timeout", "60",
            ],
            cwd=REPO,
            env=env,
        )
        for _ in range(n)
    ]


@contextlib.contextmanager
def service_for(
    kind="inprocess",
    workers=2,
    extra_env=None,
    limiter=None,
    start_runner=True,
    **manager_kwargs,
):
    """A running :class:`CampaignService` over an executor of ``kind``.

    ``start_runner=False`` keeps submitted jobs queued forever -- the
    deterministic setup for quota/queue/ordering tests.
    """
    procs = []
    if kind == "inprocess":
        ex = InProcessExecutor(policy=FAST)
    elif kind == "pool":
        ex = LocalPoolExecutor(n_workers=workers, policy=FAST)
    else:
        ex = RemoteExecutor(listen=("127.0.0.1", 0), policy=FAST)
        procs = _spawn_workers(ex.address[1], n=workers, extra_env=extra_env)
        ex.wait_for_workers(workers, timeout_s=60.0)
    manager = JobManager(executor=ex, executor_kind=kind, **manager_kwargs)
    if not start_runner:
        manager.start = lambda: None  # jobs stay queued deterministically
    service = CampaignService(manager, limiter=limiter)
    try:
        service.start()
        yield service
    finally:
        service.close()
        ex.close()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)


def _request(service, method, path, body=None, headers=None):
    """One HTTP exchange; returns ``(status, headers, text)``."""
    host, port = service.address
    data = json.dumps(body).encode() if isinstance(body, (dict, list)) else body
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", method=method, data=data, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, dict(resp.headers), resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read().decode()


def _submit(service, spec, headers=None):
    status, _, text = _request(service, "POST", "/v1/jobs", spec, headers)
    assert status == 202, text
    return json.loads(text)


def _wait_done(service, job_id, timeout=300.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, text = _request(service, "GET", f"/v1/jobs/{job_id}")
        assert status == 200, text
        doc = json.loads(text)
        if doc["state"] in ("done", "degraded", "failed"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


@pytest.fixture(scope="module")
def tiny_table_reference():
    """What the CLI renders for TINY_TABLE: the byte-identity baseline."""
    from repro.core.builtin_gen import BuiltinGenConfig
    from repro.experiments.tables4 import render_table_4_3, run_table_4_3

    config = BuiltinGenConfig(
        segment_length=40, time_limit=None, rng_seed=2,
        q_limit=1, r_limit=2, max_sequences=2,
    )
    rendered = render_table_4_3(
        run_table_4_3(
            targets=("s27", "s298"),
            drivers=("s953",),
            config=config,
            n_sequences=2,
            func_length=30,
        )
    )
    return rendered + "\n"


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


class TestSpec:
    def test_table_defaults_match_cli(self):
        spec = parse_spec({"kind": "table", "table": "4.3"})
        assert spec.kind == "table" and spec.label == "4.3"
        assert spec.params["targets"] == ("s27", "s298")
        assert spec.params["drivers"] == ("s344", "s953")
        assert spec.params["segment_length"] == 120
        assert spec.params["time_limit"] == 10.0
        assert spec.params["seed"] == 1

    def test_generate_defaults_match_cli(self):
        spec = parse_spec({"kind": "generate", "circuit": "s27"})
        assert spec.label == "s27"
        assert spec.params == {
            "circuit": "s27", "driver": None, "length": 200,
            "time_limit": 30.0, "seed": 1,
        }

    @pytest.mark.parametrize(
        ("payload", "match"),
        [
            ({"kind": "bogus"}, "'kind' must be one of"),
            ({"kind": "generate"}, "'circuit' is required"),
            ({"kind": "generate", "circuit": "nope"}, "names no benchmark circuit"),
            ({"kind": "generate", "circuit": "s27", "length": 0}, "'length' must be >= 1"),
            ({"kind": "generate", "circuit": "s27", "oops": 1}, "unknown spec field"),
            ({"kind": "table", "table": "9.9"}, "'table' must be one of"),
            ({"kind": "table", "table": "4.3", "targets": []}, "non-empty list"),
            ("not a mapping", "must be a JSON object"),
        ],
    )
    def test_rejections_name_the_offender(self, payload, match):
        with pytest.raises(SpecError, match=match):
            parse_spec(payload)

    def test_priority_is_bounded_and_not_part_of_the_fingerprint(self):
        spec0, p0 = parse_request({**TINY_GEN, "priority": 7})
        spec1, p1 = parse_request(TINY_GEN)
        assert (p0, p1) == (7, 0)
        assert spec0.fingerprint() == spec1.fingerprint()
        assert spec0.result_key() == spec1.result_key()
        with pytest.raises(SpecError, match="'priority' must be within"):
            parse_request({**TINY_GEN, "priority": 101})

    def test_params_change_the_result_key(self):
        base = parse_spec(TINY_GEN)
        other = parse_spec({**TINY_GEN, "length": 61})
        assert base.result_key() != other.result_key()
        assert base.fingerprint() != other.fingerprint()

    def test_fingerprint_ignores_field_order(self):
        shuffled = dict(reversed(list(TINY_GEN.items())))
        assert parse_spec(TINY_GEN).fingerprint() == parse_spec(shuffled).fingerprint()


# ---------------------------------------------------------------------------
# Token buckets (deterministic via an injected clock)
# ---------------------------------------------------------------------------


class TestRateLimiter:
    def test_bucket_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=lambda: now[0])
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        wait = bucket.acquire()
        assert wait == pytest.approx(1.0)
        now[0] += 1.5
        assert bucket.acquire() == 0.0

    def test_limiter_is_per_client(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=lambda: now[0])
        assert limiter.check("alice") == 0.0
        assert limiter.check("alice") > 0.0
        assert limiter.check("bob") == 0.0  # independent bucket

    def test_disabled_limiter_never_charges(self):
        limiter = RateLimiter(None)
        assert not limiter.enabled
        for _ in range(100):
            assert limiter.check("anyone") == 0.0


# ---------------------------------------------------------------------------
# Submit/status/result round trip on every executor backend
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_table_43_byte_identical_on_every_backend(
        self, kind, tiny_table_reference
    ):
        with service_for(kind) as service:
            doc = _submit(service, TINY_TABLE)
            assert doc["state"] in ("queued", "running")
            assert doc["kind"] == "table" and doc["label"] == "4.3"
            assert doc["rows_total"] == 2
            final = _wait_done(service, doc["id"])
            assert final["state"] == "done"
            assert final["failures"] == [] and final["error"] is None
            assert final["rows_done"] == 2
            status, _, text = _request(
                service, "GET", f"/v1/jobs/{doc['id']}/result"
            )
            assert status == 200
            assert text == tiny_table_reference

    def test_events_stream_replays_the_full_lifecycle(self):
        with service_for("inprocess") as service:
            doc = _submit(service, TINY_TABLE)
            # urllib blocks until the server closes the stream, i.e.
            # until the job reaches a terminal state -- so this also
            # exercises the live-follow path.
            status, headers, text = _request(
                service, "GET", f"/v1/jobs/{doc['id']}/events"
            )
            assert status == 200
            assert headers["Content-Type"] == "application/x-ndjson"
            events = [json.loads(line) for line in text.splitlines()]
            assert [e["seq"] for e in events] == list(range(len(events)))
            names = [e["event"] for e in events]
            assert names[0] == "queued" and names[-1] == "done"
            rows = [e for e in events if e["event"] == "row"]
            assert [r["key"] for r in rows] == ["table4.3/s27", "table4.3/s298"]


# ---------------------------------------------------------------------------
# Content-addressed result reuse
# ---------------------------------------------------------------------------


class TestCacheHit:
    def test_resubmit_is_served_from_memo_without_reexecuting(self):
        with service_for("inprocess") as service:
            first = _submit(service, TINY_GEN)
            _wait_done(service, first["id"])
            _, _, original = _request(
                service, "GET", f"/v1/jobs/{first['id']}/result"
            )
            again = _submit(service, TINY_GEN)
            # The submit response itself is already terminal: no queue
            # slot, no execution, straight from the content address.
            assert again["state"] == "done" and again["cached"] is True
            _, _, replay = _request(
                service, "GET", f"/v1/jobs/{again['id']}/result"
            )
            assert replay == original
            counters = service.manager.counters
            assert counters["cache_hits"] == 1
            assert counters["jobs_submitted"] == 2

    def test_cache_survives_a_server_restart(self, tmp_path):
        cache.configure(tmp_path / "artifacts")
        with service_for("inprocess") as service:
            doc = _submit(service, TINY_GEN)
            _wait_done(service, doc["id"])
            _, _, original = _request(
                service, "GET", f"/v1/jobs/{doc['id']}/result"
            )
        with service_for("inprocess") as service:
            doc = _submit(service, TINY_GEN)
            assert doc["state"] == "done" and doc["cached"] is True
            assert service.manager.counters["cache_hits"] == 1
            assert "jobs_completed" in service.manager.counters
            _, _, replay = _request(
                service, "GET", f"/v1/jobs/{doc['id']}/result"
            )
            assert replay == original

    def test_different_params_do_not_share_results(self, tmp_path):
        cache.configure(tmp_path / "artifacts")
        with service_for("inprocess") as service:
            doc = _submit(service, TINY_GEN)
            _wait_done(service, doc["id"])
            other = _submit(service, {**TINY_GEN, "length": 61})
            assert other["cached"] is False


# ---------------------------------------------------------------------------
# Admission control: quotas, queue bound, rate limiting
# ---------------------------------------------------------------------------


class TestAdmissionControl:
    def test_quota_409_golden(self):
        with service_for(
            "inprocess", start_runner=False, max_client_jobs=2
        ) as service:
            _submit(service, TINY_GEN, headers={"X-Client": "alice"})
            _submit(service, {**TINY_GEN, "seed": 2}, headers={"X-Client": "alice"})
            status, _, text = _request(
                service, "POST", "/v1/jobs", {**TINY_GEN, "seed": 3},
                headers={"X-Client": "alice"},
            )
            assert status == 409
            assert json.loads(text) == {
                "error": {
                    "status": 409,
                    "message": "client 'alice' already has 2 active job(s) (limit 2)",
                }
            }
            # Another client is unaffected.
            _submit(service, TINY_GEN, headers={"X-Client": "bob"})

    def test_full_queue_503_golden(self):
        with service_for("inprocess", start_runner=False, queue_limit=1) as service:
            _submit(service, TINY_GEN, headers={"X-Client": "a"})
            status, _, text = _request(
                service, "POST", "/v1/jobs", {**TINY_GEN, "seed": 2},
                headers={"X-Client": "b"},
            )
            assert status == 503
            assert json.loads(text) == {
                "error": {
                    "status": 503,
                    "message": "job queue is full (1 job(s) queued)",
                }
            }

    def test_rate_limit_429_golden(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=lambda: now[0])
        with service_for(
            "inprocess", start_runner=False, limiter=limiter
        ) as service:
            _submit(service, TINY_GEN, headers={"X-Client": "alice"})
            status, headers, text = _request(
                service, "POST", "/v1/jobs", TINY_GEN,
                headers={"X-Client": "alice"},
            )
            assert status == 429
            assert headers["Retry-After"] == "1"
            assert json.loads(text) == {
                "error": {
                    "status": 429,
                    "message": "rate limit exceeded for client 'alice'; "
                    "retry in 1.00s",
                }
            }
            now[0] += 1.5  # refill one token
            _submit(service, {**TINY_GEN, "seed": 9}, headers={"X-Client": "alice"})

    def test_priority_orders_the_queue(self):
        manager = JobManager(queue_limit=8)
        low = manager.submit(parse_spec(TINY_GEN), priority=-5, client="a")
        mid = manager.submit(parse_spec({**TINY_GEN, "seed": 2}), priority=0, client="b")
        high = manager.submit(parse_spec({**TINY_GEN, "seed": 3}), priority=50, client="c")
        drained = [
            heapq.heappop(manager._heap)[2].id for _ in range(len(manager._heap))
        ]
        assert drained == [high.id, mid.id, low.id]
        manager.close()

    def test_closed_manager_rejects_submissions(self):
        from repro.service import ServiceClosed

        manager = JobManager()
        manager.close()
        with pytest.raises(ServiceClosed):
            manager.submit(parse_spec(TINY_GEN))


# ---------------------------------------------------------------------------
# HTTP error taxonomy
# ---------------------------------------------------------------------------


class TestHttpErrors:
    def test_malformed_requests_get_400(self):
        with service_for("inprocess", start_runner=False) as service:
            status, _, text = _request(service, "POST", "/v1/jobs", b"{nope")
            assert status == 400 and "not valid JSON" in text
            status, _, text = _request(service, "POST", "/v1/jobs", {"kind": "x"})
            assert status == 400 and "'kind' must be one of" in text
            status, _, text = _request(
                service, "POST", "/v1/jobs", {**TINY_GEN, "bogus_field": 1}
            )
            assert status == 400 and "unknown spec field" in text
            status, _, text = _request(
                service, "POST", "/v1/jobs", {"kind": "generate", "circuit": "nope"}
            )
            assert status == 400 and "names no benchmark circuit" in text

    def test_unknown_job_and_path_get_404(self):
        with service_for("inprocess", start_runner=False) as service:
            for path in ("/v1/jobs/j999", "/v1/jobs/j999/events", "/v1/jobs/j999/result"):
                status, _, text = _request(service, "GET", path)
                assert status == 404, (path, text)
            status, _, text = _request(service, "GET", "/v2/nothing")
            assert status == 404 and "no such endpoint" in text

    def test_wrong_method_gets_405_with_allow(self):
        with service_for("inprocess", start_runner=False) as service:
            status, headers, _ = _request(service, "PUT", "/v1/jobs")
            assert status == 405
            assert headers["Allow"] == "POST"

    def test_result_before_completion_gets_409(self):
        with service_for("inprocess", start_runner=False) as service:
            doc = _submit(service, TINY_GEN)
            status, _, text = _request(
                service, "GET", f"/v1/jobs/{doc['id']}/result"
            )
            assert status == 409
            assert f"job {doc['id']} is queued; result not ready" in text

    def test_failed_job_result_gets_410(self, monkeypatch):
        def boom(spec, executor=None, progress=None):
            raise RuntimeError("injected campaign failure")

        monkeypatch.setattr("repro.service.campaigns.run_campaign", boom)
        with service_for("inprocess") as service:
            doc = _submit(service, TINY_GEN)
            final = _wait_done(service, doc["id"])
            assert final["state"] == "failed"
            assert final["error"] == {
                "kind": "error",
                "message": "RuntimeError: injected campaign failure",
            }
            status, _, text = _request(
                service, "GET", f"/v1/jobs/{doc['id']}/result"
            )
            assert status == 410
            assert f"job {doc['id']} failed; no result was produced" in text

    def test_unparseable_http_gets_400(self):
        import socket

        with service_for("inprocess", start_runner=False) as service:
            host, port = service.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"NOT AN HTTP LINE\r\n\r\n")
                reply = sock.recv(4096)
            assert reply.startswith(b"HTTP/1.1 400 ")


# ---------------------------------------------------------------------------
# Chaos: worker killed mid-job
# ---------------------------------------------------------------------------


class TestChaos:
    def test_worker_crash_mid_job_still_completes_clean(self, tiny_table_reference):
        # One remote worker self-destructs on its first table row; the
        # supervised fleet requeues the task onto the surviving seat and
        # the retry budget absorbs the crash -- the job must land "done"
        # with zero degraded rows and the byte-identical table.
        spec = f"runner.task:table4.3/{TINY_TABLE['targets'][0]}:crash_once"
        with service_for(
            "remote", extra_env={faultpoints.ENV_VAR: spec}
        ) as service:
            doc = _submit(service, TINY_TABLE)
            final = _wait_done(service, doc["id"])
            assert final["state"] == "done"
            assert final["failures"] == []
            status, _, text = _request(
                service, "GET", f"/v1/jobs/{doc['id']}/result"
            )
            assert status == 200
            assert text == tiny_table_reference


# ---------------------------------------------------------------------------
# Experiment-database parity with the CLI
# ---------------------------------------------------------------------------

#: ``db show`` fields that legitimately differ between a CLI run and a
#: service run of the same campaign (identity, wall clock, provenance).
VOLATILE_SHOW_FIELDS = ("id", "started_utc", "finished_utc", "elapsed_s", "argv")


def _masked_show(capsys, db_path):
    from repro import cli

    assert cli.main(["db", "show", "--db", str(db_path)]) == 0
    out = capsys.readouterr().out
    kept = [
        line
        for line in out.splitlines()
        if not line.startswith(VOLATILE_SHOW_FIELDS)
    ]
    return "\n".join(kept), out


class TestExpdbParity:
    def test_db_show_renders_service_run_like_cli_run(self, tmp_path, capsys):
        from repro import cli

        cli_db = tmp_path / "cli.db"
        service_db = tmp_path / "service.db"
        assert (
            cli.main(
                [
                    "generate", "s27", "--length", "60",
                    "--time-limit", "5", "--db", str(cli_db),
                ]
            )
            == 0
        )
        capsys.readouterr()  # drop the generate output before comparing shows
        os.environ.pop("REPRO_DB", None)
        os.environ.pop("REPRO_DB_RUN", None)
        expdb.reset()
        with service_for("inprocess", db_path=str(service_db)) as service:
            doc = _submit(service, TINY_GEN)
            final = _wait_done(service, doc["id"])
            assert final["state"] == "done"
        cli_masked, _ = _masked_show(capsys, cli_db)
        service_masked, service_full = _masked_show(capsys, service_db)
        # Identical kind/label/status/exit_code/fingerprint/code_hash/
        # executor and row payloads: the only differences are the
        # masked identity/wall-clock fields and the argv provenance.
        assert service_masked == cli_masked
        assert f'{"argv":13s} ["service:{doc["id"]}"]' in service_full
        with expdb.ExperimentDB(service_db) as db:
            run = db.run(db.latest_run_id())
        assert run["kind"] == "generate" and run["label"] == "s27"
        assert run["status"] == "ok" and run["exit_code"] == 0
        assert run["fingerprint"]

    def test_cached_job_is_recorded_with_provenance(self, tmp_path):
        service_db = tmp_path / "service.db"
        with service_for("inprocess", db_path=str(service_db)) as service:
            first = _submit(service, TINY_GEN)
            _wait_done(service, first["id"])
            again = _submit(service, TINY_GEN)
            assert again["cached"] is True
        with expdb.ExperimentDB(service_db) as db:
            runs = db.runs()
        assert len(runs) == 2
        by_argv = {tuple(json.loads(r["argv"])) for r in runs}
        assert (f"service:{first['id']}",) in by_argv
        assert (f"service:{again['id']}", "cached") in by_argv

    def test_stats_db_renders_a_service_run_report(self, tmp_path, capsys):
        from repro import cli

        service_db = tmp_path / "service.db"
        obs.enable()
        with service_for("inprocess", db_path=str(service_db)) as service:
            doc = _submit(service, TINY_GEN)
            _wait_done(service, doc["id"])
        assert cli.main(["stats", "--db", str(service_db)]) == 0
        out = capsys.readouterr().out
        assert "generate s27" in out
        assert "campaign service" in out  # service.* metrics section


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class TestObservability:
    def test_service_metrics_land_in_their_report_section(self):
        obs.enable()
        with service_for("inprocess") as service:
            doc = _submit(service, TINY_GEN)
            _wait_done(service, doc["id"])
            _submit(service, TINY_GEN)  # memo hit
        counters = obs.registry().counters
        assert counters["service.jobs_submitted"] == 2
        assert counters["service.jobs_completed"] == 2
        assert counters["service.cache_hits"] == 1
        assert counters["service.http_requests"] >= 3
        report = obs.render_report(obs.registry())
        assert "campaign service" in report
        assert "jobs_submitted" in report

    def test_stats_endpoint_reports_counters_and_metrics(self):
        obs.enable()
        with service_for("inprocess") as service:
            doc = _submit(service, TINY_GEN)
            _wait_done(service, doc["id"])
            status, _, text = _request(service, "GET", "/v1/stats")
            assert status == 200
            stats = json.loads(text)
            assert stats["counters"]["jobs_submitted"] == 1
            assert stats["jobs"] == {"done": 1}
            assert stats["metrics"]["counters"]["service.jobs_submitted"] == 1

    def test_health_endpoint(self):
        with service_for("inprocess", start_runner=False) as service:
            status, _, text = _request(service, "GET", "/v1/health")
            assert status == 200
            health = json.loads(text)
            assert health["status"] == "ok"
            assert health["executor"] == "inprocess"
            assert health["queue_depth"] == 0
