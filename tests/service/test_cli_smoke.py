"""End-to-end smoke test of ``repro serve`` as a real process.

Mirrors the CI service-smoke leg: start the server, replay a client
workload against it, check the cache counters moved, then SIGTERM and
assert a graceful zero exit.
"""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.service import ServiceClient

QUERIES = [
    'Q(N) :- Family(F, N, Ty), Ty = "gpcr"',
    'Q(N) :- Family(F, N, Ty), Ty = "vgic"',
    'Q(N) :- Family(F, N, Ty), Ty = "gpcr"',
]


@pytest.fixture
def project(tmp_path):
    path = tmp_path / "demo.json"
    assert main(["init-demo", str(path)]) == 0
    return path


def start_server(project, *extra):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--db", str(project), "--port", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    line = process.stdout.readline()
    match = re.search(r"http://[0-9.]+:(\d+)", line)
    assert match, f"no URL in startup line: {line!r}"
    return process, match.group(0)


class TestServeSmoke:
    def test_serve_replay_sigterm(self, project, tmp_path, capsys):
        process, url = start_server(project)
        try:
            queries = tmp_path / "queries.txt"
            queries.write_text("\n".join(QUERIES) + "\n")
            assert main(["replay", str(queries), "--url", url]) == 0
            out = capsys.readouterr().out
            assert "3 requests" in out
            assert "[200=3]" in out

            client = ServiceClient(url)
            try:
                stats = client.stats()
            finally:
                client.close()
            # The repeated query hit the warm plan cache over HTTP.
            assert stats["engine"]["plan_cache"]["hits"] > 0
        finally:
            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=15)
        assert code == 0  # graceful drain, clean exit

    def test_unhashable_delete_row_is_400(self, project):
        # The project file declares no column domains, so only the
        # hashability requirement of stored rows refuses a JSON list.
        process, url = start_server(project)
        try:
            client = ServiceClient(url)
            try:
                reply = client.delete_rows("Family", [[[1], "x", "y"]])
                assert reply.status == 400
                assert reply.data["kind"] == "TypeMismatchError"
                assert client.cite(QUERIES[0]).status == 200
            finally:
                client.close()
        finally:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=15) == 0


class TestReplayCLIErrors:
    def test_replay_unreachable_server(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text(QUERIES[0] + "\n")
        code = main([
            "replay", str(queries),
            "--url", "http://127.0.0.1:9",  # discard port: refused
            "--timeout", "1",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


def test_serve_registered_in_parser():
    from repro.cli import build_parser

    parser = build_parser()
    namespace = parser.parse_args([
        "serve", "--db", "x.json", "--max-pending", "8", "--max-batch", "4",
    ])
    assert namespace.max_pending == 8
    namespace = parser.parse_args([
        "replay", "q.txt", "--url", "http://h:1",
    ])
    assert namespace.url == "http://h:1"
