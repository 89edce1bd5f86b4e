"""Inputs, load generation and answer checking for ``benchmarks/perf``.

Everything the server under test sees is a function of ``--seed``: the
project file (a synthetic GtoPdb instance plus the five ``init-demo``
citation views), the point and wide query sets, the open-loop arrival
schedule and the closed-loop query streams.  The server only receives
the generated project file and HTTP requests; it is started fresh for
every run with ``python -m repro.cli serve`` (or, for the traced run,
through ``traced_serve.py``).

Replies are checked after each measured phase by an oracle: a fresh
:class:`~repro.citation.generator.CitationEngine` built from the same
project file, whose ``result.citation()`` must equal the reply exactly.

The code under test (``src/repro``) is imported only inside the
functions that need it, once ``run.py`` has put it on the path.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import io
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"

POLICY = "focused"
TYPES = 10
ZIPF_S = 1.1
#: Open-loop arrival rate of ``point-zipf``.  It keeps the engine lane
#: occupied about a quarter of the time (a 2 ms linger plus about 1 ms
#: of engine work per batch), so queues stay short and latency shows
#: per-request cost rather than backlog.
OPEN_LOOP_RATE = 100.0
#: One load-generator process with this many connections (nproc on the
#: two-core machine the bounds were sized on).
CONNECTIONS = 2
READS_PER_WRITE = 10

POINT_TEMPLATES = (
    ("family", 'Q(N, Ty) :- Family(F, N, Ty), F = "{}"'),
    ("intro", 'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "{}"'),
    ("committee", 'Q(Pn) :- FC(F, C), Person(C, Pn, A), F = "{}"'),
    ("contributed", 'Q(F) :- FIC(F, C), Person(C, Pn, A), C = "{}"'),
    ("member", 'Q(N) :- Family(F, N, Ty), FC(F, C), C = "{}"'),
)
WIDE_INTRO = 'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "{}"'
WIDE_FAMILY = 'Q(N) :- Family(F, N, Ty), Ty = "{}"'
#: ``Family``-only wide queries run on the rarest types only: on the
#: largest type the same query takes seconds (a runaway query).
WIDE_FAMILY_TYPES = 3


@dataclass(frozen=True)
class Size:
    """Instance size and phase lengths of one benchmark configuration."""

    families: int
    persons: int
    hot_texts: int
    setups: int
    warmup_s: float


FULL = Size(families=2000, persons=1000, hot_texts=200, setups=9,
            warmup_s=1.0)
SMOKE = Size(families=200, persons=100, hot_texts=25, setups=1,
             warmup_s=0.0)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    """The generated project file and every query the load sends."""

    seed: int
    project: Path
    pool: list[str]
    hot: list[str]
    hot_weights: list[float]
    wide: list[str]
    write_type: str

    def rng(self, *labels: object) -> random.Random:
        """An RNG for one named stream; str seeds hash the same in every
        process, whatever ``PYTHONHASHSEED`` is."""
        return random.Random("/".join(map(str, (self.seed, *labels))))


def demo_views(workdir: Path) -> list[dict[str, Any]]:
    """The five citation views ``repro init-demo`` writes."""
    from repro.cli import cmd_init_demo
    from repro.relational.io import load_project

    demo = workdir / "demo.json"
    with contextlib.redirect_stdout(io.StringIO()):
        cmd_init_demo(argparse.Namespace(project=str(demo)))
    return load_project(demo)[1]


def make_inputs(seed: int, size: Size, workdir: Path) -> Inputs:
    """Generate the project file and the query sets for ``seed``.

    The instance is the generator's default-seeded one at ``size``:
    with the seed, the sizes of the rare family types move by up to
    15%, and the cost of a type-wide citation grows faster than its
    size, so the seed would move ``wide-mix`` by more than the bounds.
    ``seed`` drives every text the load sends and every schedule.
    """
    from repro.gtopdb.generator import GtopdbGenerator
    from repro.relational.io import dump_project

    workdir.mkdir(parents=True, exist_ok=True)
    db = GtopdbGenerator(
        families=size.families, persons=size.persons, types=TYPES,
    ).build()
    project = workdir / f"project-{size.families}.json"
    dump_project(db, project, views=demo_views(workdir))

    def column(relation: str, position: int) -> list[str]:
        values = {row[position] for row in db.relation(relation)}
        return sorted(values, key=lambda key: (len(key), key))

    families = column("Family", 0)
    keys = {
        "family": families,
        "intro": column("FamilyIntro", 0),
        "committee": families,
        "contributed": column("FIC", 1),
        "member": column("FC", 1),
    }
    texts = {
        name: [template.format(key) for key in keys[name]]
        for name, template in POINT_TEMPLATES
    }
    # Hot-set ranks cycle through the templates whose warm citations
    # cost about a millisecond; "member" citations carry several
    # type-level records (4-25 ms warm) and take the tail ranks, so the
    # slow class is the same ~3% of point-zipf traffic on every seed
    # rather than whatever Zipf rank its texts happen to draw.
    rng = random.Random(f"{seed}/hot")
    per_template = size.hot_texts // len(POINT_TEMPLATES)
    drawn = {
        name: rng.sample(texts[name], per_template) for name in texts
    }
    cheap = [drawn[name] for name in texts if name != "member"]
    hot = [text for group in zip(*cheap) for text in group]
    hot += drawn["member"]
    counts = Counter(row[2] for row in db.relation("Family"))
    by_size = sorted(counts, key=lambda name: (-counts[name], name))
    wide = [WIDE_INTRO.format(name) for name in by_size]
    wide += [
        WIDE_FAMILY.format(name)
        for name in reversed(by_size[-WIDE_FAMILY_TYPES:])
    ]
    return Inputs(
        seed=seed,
        project=project,
        pool=[text for group in texts.values() for text in group],
        hot=hot,
        hot_weights=[1.0 / (rank + 1) ** ZIPF_S for rank in range(len(hot))],
        wide=wide,
        write_type=by_size[-1],
    )


# ---------------------------------------------------------------------------
# the server under test
# ---------------------------------------------------------------------------


def cpu_plan() -> tuple[int | None, set[int] | None]:
    """(server CPU, load-generator CPUs): disjoint when >= 2 are ours."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], set(cpus[1:])


def serve_argv(project: Path, trace_file: Path | None) -> list[str]:
    """The server command line; traced runs go through the launcher."""
    serve = ["serve", "--db", str(project), "--port", "0",
             "--policy", POLICY]
    if trace_file is None:
        return [sys.executable, "-m", "repro.cli", *serve]
    return [sys.executable, str(HERE / "traced_serve.py"), str(trace_file),
            *serve]


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, argv: list[str], cpu: int | None,
                 log_path: Path) -> None:
        self.argv = argv
        self.cpu = cpu
        self.log_path = log_path
        self.port = 0
        self._proc: subprocess.Popen[str] | None = None

    def start(self, first_query: str, timeout_s: float = 60.0) -> float:
        """Spawn the server; return seconds until the first 200 on
        ``/cite`` (imports, project load, FK check, engine build and
        the first view materialization)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        # A bytecode cache of the benchmark's own: set-up time then
        # covers a warm-cache start whether or not the environment
        # writes bytecode or a checkout still has stale caches.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        started = time.monotonic()
        with open(self.log_path, "w") as log:
            self._proc = subprocess.Popen(
                self.argv, stdout=subprocess.PIPE, stderr=log, text=True,
                env=env, cwd=ROOT,
            )
        if self.cpu is not None:
            with contextlib.suppress(ProcessLookupError):
                os.sched_setaffinity(self._proc.pid, {self.cpu})
        assert self._proc.stdout is not None
        ready, __, __ = select.select([self._proc.stdout], [], [], timeout_s)
        line = self._proc.stdout.readline() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(
                f"server did not start (see {self.log_path}): {line!r}"
            )
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        with Client(self.port) as client:
            status, __ = client.post("/cite", {"query": first_query})
        if status != 200:
            self.stop()
            raise RuntimeError(f"first /cite answered {status}")
        return time.monotonic() - started

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set), in MB."""
        assert self._proc is not None
        status = Path(f"/proc/{self._proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain, which writes a trace) and wait."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()

    def __enter__(self) -> Server:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class Client:
    """One keep-alive HTTP/1.1 connection; transport errors read as 0."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str,
                payload: Any = None) -> tuple[int, bytes]:
        body = None if payload is None else json.dumps(payload).encode()
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=60
                )
            self._conn.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def post(self, path: str, payload: Any) -> tuple[int, bytes]:
        return self.request("POST", path, payload)

    def stats(self) -> dict[str, Any]:
        status, body = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}")
        return json.loads(body)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> Client:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# load generation
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One request: its class, when it was due, sent and answered."""

    kind: str  # "point", "wide", "write" or "read_after_write"
    text: str
    due: float
    sent: float
    done: float
    status: int


@dataclass
class Recorder:
    """The samples one connection produced, plus the reply bodies of
    the texts the oracle checks (``text -> {body: count}``)."""

    checked: set[str]
    samples: list[Sample] = field(default_factory=list)
    replies: dict[str, Counter[bytes]] = field(default_factory=dict)
    #: ``write-read`` request log for the oracle replay: ``("insert" |
    #: "delete", row)`` and ``("read", text, status, body)`` entries.
    log: list[tuple[Any, ...]] = field(default_factory=list)

    def send(self, client: Client, kind: str, path: str,
             payload: dict[str, Any], text: str,
             due: float | None = None) -> tuple[int, bytes]:
        sent = time.monotonic()
        status, body = client.post(path, payload)
        done = time.monotonic()
        self.samples.append(Sample(
            kind, text, sent if due is None else due, sent, done, status,
        ))
        if status == 200 and text in self.checked:
            self.replies.setdefault(text, Counter())[body] += 1
        return status, body

    def cite(self, client: Client, kind: str, text: str,
             due: float | None = None) -> tuple[int, bytes]:
        return self.send(client, kind, "/cite", {"query": text}, text, due)


def _run_threads(targets: list[Callable[[], None]]) -> None:
    threads = [threading.Thread(target=target, daemon=True)
               for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
        if thread.is_alive():
            raise RuntimeError("load thread did not finish")


def open_loop(port: int, texts: list[str], weights: list[float],
              rng: random.Random, seconds: float,
              checked: set[str]) -> list[Recorder]:
    """Poisson arrivals at :data:`OPEN_LOOP_RATE` over ``CONNECTIONS``
    connections; each request is timed from when it was due."""
    offsets: list[float] = []
    offset = rng.expovariate(OPEN_LOOP_RATE)
    while offset < seconds:
        offsets.append(offset)
        offset += rng.expovariate(OPEN_LOOP_RATE)
    picks = rng.choices(texts, weights=weights, k=len(offsets))
    start = time.monotonic()
    cursor = iter(range(len(offsets)))
    lock = threading.Lock()
    recorders = [Recorder(checked) for __ in range(CONNECTIONS)]

    def connection(recorder: Recorder) -> None:
        with Client(port) as client:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = start + offsets[index]
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                recorder.cite(client, "point", picks[index], due=due)

    _run_threads([lambda r=r: connection(r) for r in recorders])
    return recorders


def closed_loop(port: int, texts: list[str], rngs: list[random.Random],
                seconds: float, checked: set[str]) -> list[Recorder]:
    """One connection per RNG, each sending a uniformly drawn text as
    soon as its previous reply arrives, until ``seconds`` pass."""
    deadline = time.monotonic() + seconds
    recorders = [Recorder(checked) for __ in rngs]

    def connection(recorder: Recorder, rng: random.Random) -> None:
        with Client(port) as client:
            while time.monotonic() < deadline:
                recorder.cite(client, "point", rng.choices(texts)[0])

    _run_threads([
        lambda r=r, g=g: connection(r, g) for r, g in zip(recorders, rngs)
    ])
    return recorders


def wide_mix(port: int, inputs: Inputs, rng: random.Random, seconds: float,
             checked: set[str]) -> list[Recorder]:
    """One connection sends the wide list pass after pass while another
    sends Zipf point queries back to back.

    A point request arrives with the wide one sent beside it and
    coalesces with it, so its latency is that wide query's.  The wide
    connection finishes the pass that crosses the deadline and the
    point connection stops with it: every wide query is measured
    equally often, or the latency medians would step between wide
    queries with how far the last pass got.
    """
    deadline = time.monotonic() + seconds
    passes_done = threading.Event()
    wides, points = Recorder(checked), Recorder(checked)

    def wide_connection() -> None:
        try:
            with Client(port) as client:
                while time.monotonic() < deadline:
                    for text in inputs.wide:
                        wides.cite(client, "wide", text)
        finally:
            passes_done.set()

    def point_connection() -> None:
        with Client(port) as client:
            while not passes_done.is_set():
                text = rng.choices(inputs.hot, weights=inputs.hot_weights)[0]
                points.cite(client, "point", text)

    _run_threads([wide_connection, point_connection])
    return [wides, points]


class WriteRead:
    """The ``write-read`` loop: one write, then ``READS_PER_WRITE``
    Zipf point reads, on one connection.

    Writes alternate ``/insert`` and ``/delete`` of a fresh ``Family``
    row, and cycles run in insert/delete pairs, so every phase starts
    and ends on the generated instance.
    """

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self._written = 0

    def run(self, port: int, rng: random.Random, seconds: float,
            checked: set[str], logged_cycles: int = 0) -> Recorder:
        inputs = self.inputs
        recorder = Recorder(checked)
        deadline = time.monotonic() + seconds
        with Client(port) as client:
            cycle = 0
            while cycle % 2 or time.monotonic() < deadline:
                op = "delete" if cycle % 2 else "insert"
                if op == "insert":
                    self._written += 1
                index = self._written
                row = [f"fw{index}", f"Written{index}", inputs.write_type]
                path = "/insert" if op == "insert" else "/delete"
                recorder.send(client, "write", path,
                              {"relation": "Family", "rows": [row]},
                              f"{op} {row[0]}")
                logged = cycle < logged_cycles
                if logged:
                    recorder.log.append((op, row))
                for read in range(READS_PER_WRITE):
                    text = rng.choices(inputs.hot,
                                       weights=inputs.hot_weights)[0]
                    kind = "read_after_write" if read == 0 else "point"
                    status, body = recorder.cite(client, kind, text)
                    if logged:
                        recorder.log.append(("read", text, status, body))
                cycle += 1
        return recorder


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def oracle_engine(project: Path) -> Any:
    """A fresh engine built from the project file exactly as ``serve``
    builds it."""
    from repro.cli import _build_engine, _load

    db, registry = _load(str(project))
    return _build_engine(db, registry, POLICY)


def expected_citations(engine: Any, texts: Iterable[str]) -> dict[str, Any]:
    """Each text's citation as a JSON client reads it back."""
    ordered = sorted(set(texts))
    return {
        text: json.loads(json.dumps(result.citation(), default=str))
        for text, result in zip(ordered, engine.cite_batch(ordered))
    }


def count_mismatches(expected: dict[str, Any],
                     replies: dict[str, Counter[bytes]]) -> int:
    """Replies (counted with multiplicity) that differ from the oracle."""
    wrong = 0
    for text, bodies in replies.items():
        for body, count in bodies.items():
            try:
                reply = json.loads(body)
            except ValueError:
                reply = None
            if reply != expected[text]:
                wrong += count
    return wrong


def replay_mismatches(engine: Any, log: list[tuple[Any, ...]]) -> int:
    """Replay a ``write-read`` log through the oracle: apply each write
    as the server does, then compare each logged read's reply."""
    wrong = 0
    for entry in log:
        if entry[0] == "insert":
            engine.db.insert_all("Family", [tuple(entry[1])])
            engine.invalidate_data()
        elif entry[0] == "delete":
            if engine.db.delete("Family", *entry[1]):
                engine.invalidate_data()
        else:
            __, text, status, body = entry
            if status != 200:
                continue  # counted as a failed request already
            expected = expected_citations(engine, [text])
            wrong += count_mismatches(expected, {text: Counter([body])})
    return wrong
