#!/usr/bin/env python3
"""Chaos soak harness for ttm_serve (see docs/SERVING.md).

Drives a sequence of real server processes over TCP through the
failure modes an overload-proof service must absorb, asserting the
documented contracts from the outside:

  phase coalesce   N identical concurrent requests perform exactly one
                   evaluation: stats prove coalesce.followers == N-1,
                   coalesce.leaders == 1, cache.insertions == 1, and
                   all N replies carry byte-identical result payloads.
  phase hostile    concurrent valid, duplicate, and hostile clients
                   (binary garbage, oversized lines without newline,
                   byte-at-a-time framing, pipelined requests,
                   mid-request disconnects, slow-loris trickles) while
                   the server is SIGSTOP/SIGCONT'd mid-burst; every
                   well-formed request line gets exactly one
                   structured reply and the server stays healthy.
  phase overload   a flood past the admission bound sheds with
                   structured "overloaded" replies, never hangs.
  phase bounds     an insert burst against a small LRU cache never
                   exceeds the entry bound (polled live), then kill -9
                   mid-burst leaves no torn entry and no staging file;
                   planted .tmp/.evict.tmp orphans simulate a crash
                   mid-insert and mid-eviction.
  phase restart    the restarted server recovers a consistent bounded
                   cache, deletes the orphans, and serves the
                   pre-crash reference request byte-identically from
                   cache; SIGTERM drains with exit code 0.
  phase faults     --fault-rate keeps every reply well-formed while a
                   fraction of evaluation points fail.

Usage: serve_chaos.py /path/to/ttm_serve /path/to/workdir
Exit code: 0 when every check passed, 1 otherwise.
"""

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

FAILURES = []
SERVERS = []  # every Popen ever started, reaped in main()'s finally


def check(condition, message):
    """Record (and report) one named check."""
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}", file=sys.stderr)


def die(message):
    print(f"FATAL: {message}", file=sys.stderr)
    sys.exit(1)


# ------------------------------------------------------------------ #
# Request builders (same shapes the C++ unit tests use).
# ------------------------------------------------------------------ #

DIE = '{"process":"7nm","total_transistors":2.4e9,"unique_transistors":2e8}'


def mc_request(req_id, seed, samples=32, extra=""):
    return (
        f'{{"id":"{req_id}","kind":"mc_ttm","design":{{"dies":[{DIE}]}},'
        f'"samples":{samples},"seed":{seed}{extra}}}'
    )


def filler_request(deadline_s):
    """16-die max-samples Sobol: holds one evaluation permit for deadline_s."""
    dies = ",".join([DIE] * 16)
    return (
        f'{{"id":"filler","kind":"sobol_ttm","design":{{"dies":[{dies}]}},'
        f'"samples":1048576,"no_cache":true,"deadline_s":{deadline_s}}}'
    )


def result_portion(reply):
    """The byte-identity comparison key: everything after "result":."""
    at = reply.find('"result":')
    return reply[at:] if at >= 0 else None


# ------------------------------------------------------------------ #
# Server process wrapper.
# ------------------------------------------------------------------ #


class Server:
    def __init__(self, binary, workdir, name, extra_args):
        self.name = name
        self.out_path = workdir / f"{name}.out"
        self.err_path = workdir / f"{name}.err"
        self.out = open(self.out_path, "w")
        self.err = open(self.err_path, "w")
        self.proc = subprocess.Popen(
            [binary, "--tcp", "127.0.0.1:0"] + extra_args,
            stdout=self.out,
            stderr=self.err,
        )
        SERVERS.append(self.proc)
        self.port = self._wait_ready()

    def _wait_ready(self, budget_s=30.0):
        give_up = time.monotonic() + budget_s
        while time.monotonic() < give_up:
            text = self.out_path.read_text()
            if "ttm_serve ready" in text:
                for token in text.split():
                    if token.startswith("tcp="):
                        return int(token.rsplit(":", 1)[1])
                die(f"{self.name}: ready line has no tcp= endpoint")
            if self.proc.poll() is not None:
                die(
                    f"{self.name}: exited {self.proc.returncode} before "
                    f"ready: {self.err_path.read_text()}"
                )
            time.sleep(0.05)
        die(f"{self.name}: never became ready")

    def ready_field(self, key):
        for token in self.out_path.read_text().split():
            if token.startswith(key + "="):
                return token.split("=", 1)[1]
        return None

    def kill9(self):
        self.proc.kill()
        self.proc.wait()
        self._close_logs()

    def sigterm_and_check_drain(self):
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            check(False, f"{self.name}: SIGTERM drain hung")
            self._close_logs()
            return
        check(code == 0, f"{self.name}: SIGTERM drain exited {code}")
        self._close_logs()
        check(
            "drained after" in self.err_path.read_text(),
            f"{self.name}: drain summary missing from stderr",
        )

    def _close_logs(self):
        self.out.close()
        self.err.close()


# ------------------------------------------------------------------ #
# NDJSON TCP clients.
# ------------------------------------------------------------------ #


def connect(port, timeout=60.0):
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    return sock


def read_line(sock, budget_s=60.0):
    """One newline-terminated reply; None on EOF/timeout."""
    sock.settimeout(budget_s)
    buffer = b""
    try:
        while not buffer.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                return None
            buffer += chunk
    except OSError:
        return None
    return buffer.decode()


def read_lines(sock, n, budget_s=60.0):
    """Up to @p n newline-terminated replies (the kernel may batch
    several pipelined replies into one recv)."""
    sock.settimeout(budget_s)
    buffer = b""
    try:
        while buffer.count(b"\n") < n:
            chunk = sock.recv(4096)
            if not chunk:
                break
            buffer += chunk
    except OSError:
        pass
    return [line.decode() for line in buffer.split(b"\n")[:n] if line]


def ask(port, line, budget_s=60.0):
    """One-shot request/reply on a fresh connection."""
    with connect(port, budget_s) as sock:
        sock.sendall(line.encode() + b"\n")
        return read_line(sock, budget_s)


def server_stats(port):
    reply = ask(port, '{"id":"s","kind":"stats"}', budget_s=10.0)
    return json.loads(reply) if reply else None


def eventually(predicate, budget_s=30.0, what="condition"):
    give_up = time.monotonic() + budget_s
    while time.monotonic() < give_up:
        if predicate():
            return True
        time.sleep(0.05)
    check(False, f"timed out waiting for {what}")
    return False


def parse_reply(reply, context):
    """Structured-reply contract: parseable JSON with a known status."""
    if reply is None:
        check(False, f"{context}: no reply")
        return None
    try:
        doc = json.loads(reply)
    except json.JSONDecodeError:
        check(False, f"{context}: unparseable reply {reply[:120]!r}")
        return None
    known = {
        "ok",
        "error",
        "overloaded",
        "draining",
        "deadline_exceeded",
        "cancelled",
    }
    check(
        doc.get("status") in known,
        f"{context}: unknown status in {reply[:120]!r}",
    )
    return doc


def validate_cache_dir(cache_dir, max_entries, context, allow_staging=False):
    """Every entry has a self-consistent envelope; no staging files
    unless @p allow_staging (a crash may leave them for recover())."""
    tmp = [p.name for p in cache_dir.glob("*.tmp")]
    check(allow_staging or not tmp,
          f"{context}: staging files survived: {tmp}")
    entries = sorted(cache_dir.glob("*.json"))
    check(
        len(entries) <= max_entries,
        f"{context}: {len(entries)} entries on disk exceeds "
        f"bound {max_entries}",
    )
    for path in entries:
        try:
            doc = json.loads(path.read_text())
            assert doc["format"] == "ttmcas-serve-cache-v1"
            assert doc["key"] == path.stem
            assert doc["payload_bytes"] == len(doc["payload"])
            json.loads(doc["payload"])
        except Exception as error:  # noqa: BLE001 - report and count
            check(False, f"{context}: torn entry {path.name}: {error}")


# ------------------------------------------------------------------ #
# Phase: coalesce — N identical concurrent requests, one evaluation.
# ------------------------------------------------------------------ #


def phase_coalesce(binary, workdir):
    print("phase coalesce: identical concurrent requests", flush=True)
    server = Server(
        binary,
        workdir,
        "coalesce",
        ["--workers", "1", "--queue", "16", "--deadline", "30"],
    )
    port = server.port
    followers = 5

    # The filler holds the one permit, so the leader waits for it and
    # the followers deterministically join its flight.
    filler_sock = connect(port)
    filler_sock.sendall(filler_request(3.0).encode() + b"\n")
    eventually(
        lambda: (server_stats(port) or {}).get("in_flight", 0) >= 1,
        what="filler to hold the permit",
    )

    burst_line = mc_request("burst", seed=42, samples=64)
    socks = []
    for i in range(1 + followers):
        sock = connect(port)
        sock.sendall(burst_line.encode() + b"\n")
        socks.append(sock)

    # The flight must form while the filler still runs — proven by the
    # server's own counters, not by timing assumptions.
    eventually(
        lambda: (server_stats(port) or {"coalesce": {}})["coalesce"].get(
            "followers", 0
        )
        == followers,
        what=f"{followers} followers to join the flight",
    )

    replies = [read_line(sock) for sock in socks]
    docs = [parse_reply(r, "coalesce burst") for r in replies]
    statuses = [d.get("status") for d in docs if d]
    check(
        statuses == ["ok"] * (1 + followers),
        f"coalesce burst statuses: {statuses}",
    )
    cache_states = sorted(d.get("cache", "?") for d in docs if d)
    check(
        cache_states == ["coalesced"] * followers + ["miss"],
        f"coalesce burst cache states: {cache_states}",
    )
    portions = {result_portion(r) for r in replies if r}
    check(
        len(portions) == 1 and None not in portions,
        "coalesced replies are not byte-identical",
    )

    stats = server_stats(port)
    coalesce = stats["coalesce"]
    check(
        coalesce["leaders"] == 1,
        f"coalesce.leaders == {coalesce['leaders']}, want 1",
    )
    check(
        coalesce["followers"] == followers,
        f"coalesce.followers == {coalesce['followers']}, want {followers}",
    )
    check(
        stats["cache"]["insertions"] == 1,
        f"cache.insertions == {stats['cache']['insertions']}, want 1 "
        "(exactly one evaluation ran)",
    )
    check(
        coalesce["in_flight"] == 0,
        f"coalesce.in_flight == {coalesce['in_flight']} after the burst",
    )

    for sock in socks:
        sock.close()
    read_line(filler_sock)  # drain the filler's own reply
    filler_sock.close()
    server.sigterm_and_check_drain()


# ------------------------------------------------------------------ #
# Phase: hostile — mixed clients + SIGSTOP/SIGCONT, then overload.
# ------------------------------------------------------------------ #


def hostile_clients(port):
    """Each returns after asserting its own reply contract."""

    def valid_client(tag, seeds):
        with connect(port) as sock:
            for seed in seeds:
                sock.sendall(
                    mc_request(f"{tag}{seed}", seed, samples=16).encode()
                    + b"\n"
                )
                doc = parse_reply(read_line(sock), f"valid {tag}{seed}")
                if doc:
                    check(
                        doc.get("id") == f"{tag}{seed}",
                        f"valid {tag}{seed}: wrong id {doc.get('id')}",
                    )

    def duplicate_client():
        line = mc_request("dup", seed=7, samples=16)
        for i in range(6):
            doc = parse_reply(ask(port, line), f"duplicate {i}")
            if doc and doc.get("status") == "ok":
                check(
                    doc.get("cache") in {"miss", "hit", "coalesced"},
                    f"duplicate {i}: cache {doc.get('cache')}",
                )

    def garbage_client():
        reply = ask(port, '\x01\x02{"not json')
        doc = parse_reply(reply, "binary garbage")
        if doc:
            check(
                doc.get("status") == "error",
                f"garbage got status {doc.get('status')}",
            )

    def oversized_client():
        # 6000 bytes, no newline, over --max-request-bytes 4096: the
        # transport cuts the line and answers it structurally.
        with connect(port) as sock:
            sock.sendall(b"x" * 6000)
            doc = parse_reply(read_line(sock), "oversized line")
            if doc:
                check(
                    doc.get("status") == "error",
                    f"oversized line got status {doc.get('status')}",
                )

    def byte_at_a_time_client():
        # One request dribbled byte-by-byte, then a pipelined pair in
        # a single write: three replies, in order.
        with connect(port) as sock:
            for byte in mc_request("drip", seed=11, samples=8).encode():
                sock.sendall(bytes([byte]))
            sock.sendall(b"\n")
            sock.sendall(
                (
                    mc_request("pipe1", seed=12, samples=8)
                    + "\n"
                    + mc_request("pipe2", seed=13, samples=8)
                    + "\n"
                ).encode()
            )
            replies = read_lines(sock, 3)
            ids = []
            for i, reply in enumerate(replies):
                doc = parse_reply(reply, f"pipelined {i}")
                if doc:
                    ids.append(doc.get("id"))
            check(
                ids == ["drip", "pipe1", "pipe2"],
                f"pipelined reply ids: {ids}",
            )

    def disconnect_client():
        # Mid-request hangup: no reply owed; the server must not wedge.
        for _ in range(3):
            sock = connect(port)
            sock.sendall(b'{"id":"gone","kind":"mc_ttm"')
            sock.close()

    def slow_loris_client():
        # A started line that never completes trips --read-deadline
        # with a structured reply, then the connection closes.
        with connect(port) as sock:
            sock.sendall(b'{"id":"loris"')
            doc = parse_reply(read_line(sock, 30.0), "slow loris")
            if doc:
                check(
                    doc.get("status") == "error"
                    and doc.get("error", {}).get("code") == "read-deadline",
                    f"slow loris reply: {doc}",
                )
            check(
                read_line(sock, 10.0) is None,
                "slow-loris connection stayed open after the deadline",
            )

    return [
        threading.Thread(target=valid_client, args=("va", range(100, 106))),
        threading.Thread(target=valid_client, args=("vb", range(200, 206))),
        threading.Thread(target=duplicate_client),
        threading.Thread(target=garbage_client),
        threading.Thread(target=oversized_client),
        threading.Thread(target=byte_at_a_time_client),
        threading.Thread(target=disconnect_client),
        threading.Thread(target=slow_loris_client),
    ]


def phase_hostile_and_overload(binary, workdir):
    print("phase hostile: mixed clients + SIGSTOP/SIGCONT", flush=True)
    server = Server(
        binary,
        workdir,
        "hostile",
        [
            "--workers", "2", "--queue", "8",
            "--max-request-bytes", "4096",
            "--read-deadline", "1.5",
            "--cache-dir", str(workdir / "hostile_cache"),
        ],
    )
    port = server.port

    threads = hostile_clients(port)
    for thread in threads:
        thread.start()
    # Freeze the server mid-burst; clients carry generous timeouts, so
    # the only acceptable outcome is delayed-but-correct replies.
    time.sleep(0.3)
    server.proc.send_signal(signal.SIGSTOP)
    time.sleep(0.3)
    server.proc.send_signal(signal.SIGCONT)
    for thread in threads:
        thread.join()

    doc = parse_reply(
        ask(port, '{"id":"h","kind":"health"}'), "post-burst health"
    )
    if doc:
        check(doc.get("status") == "ok", f"post-burst health: {doc}")

    print("phase overload: flood past the admission bound", flush=True)
    # Saturation by construction rather than by racing the machine:
    # freeze the server, open all 24 flood connections and write their
    # lines (the kernel completes the handshakes into the 64-deep listen
    # backlog and buffers the bytes), then thaw it. The server accepts
    # and reads the whole burst at once. Each request is a 16-die
    # mc_ttm at the 2^20-sample cap with distinct seeds (no coalescing,
    # no cache hit): about 1.3 s of evaluation on a 4-core x86 VM, and
    # never shorter than the 0.5 s a 3x faster host would need, while
    # accepting and reading 24 already-queued loopback connections
    # takes a few ms. One evaluation therefore outlasts the accept
    # burst by >= 30x, so only the admission bound (--queue 8) is
    # admitted and the remaining 16 must shed. The 4 s deadline keeps
    # admitted work bounded.
    dies = ",".join([DIE] * 16)
    lines = [
        f'{{"id":"flood{i}","kind":"mc_ttm","design":{{"dies":[{dies}]}},'
        f'"samples":1048576,"seed":{1000 + i},"deadline_s":4}}'
        for i in range(24)
    ]
    socks = []
    server.proc.send_signal(signal.SIGSTOP)
    try:
        for line in lines:
            sock = connect(port)
            sock.sendall(line.encode() + b"\n")
            socks.append(sock)
    finally:
        server.proc.send_signal(signal.SIGCONT)
    results = []
    for i, sock in enumerate(socks):
        with sock:
            doc = parse_reply(read_line(sock), f"flood {i}")
        if doc:
            results.append(doc.get("status"))
    check(len(results) == 24, f"flood: {len(results)}/24 replies")
    bad = [s for s in results if s not in {"ok", "overloaded", "deadline_exceeded"}]
    check(not bad, f"flood produced unexpected statuses: {bad}")
    check(
        results.count("overloaded") == 16,
        f"flood past the bound of 8 did not shed 16: {results}",
    )

    stats = server_stats(port)
    check(stats is not None, "stats unavailable after the flood")
    if stats:
        check(stats["shed"] >= 1, f"stats.shed == {stats['shed']} after flood")
    server.sigterm_and_check_drain()


# ------------------------------------------------------------------ #
# Phase: bounds + kill -9 + restart.
# ------------------------------------------------------------------ #

BOUND_ARGS = [
    "--workers", "2", "--queue", "8", "--cache-entries", "8",
]


def phase_bounds_crash_restart(binary, workdir):
    print("phase bounds: LRU bound under insert burst, then kill -9",
          flush=True)
    cache_dir = workdir / "bounded_cache"
    server = Server(
        binary,
        workdir,
        "bounded",
        BOUND_ARGS + ["--cache-dir", str(cache_dir)],
    )
    port = server.port

    # Reference request: cached before the burst, kept hot throughout,
    # so it must survive eviction pressure and the crash.
    ref = mc_request("ref", seed=999, samples=32)
    miss = parse_reply(ask(port, ref), "reference miss")
    if miss:
        check(miss.get("cache") == "miss", f"reference first ask: {miss}")
    ref_portion = result_portion(ask(port, ref) or "")
    check(ref_portion is not None, "reference hit has no result payload")

    stop_burst = threading.Event()

    def burst():
        seed = 0
        while not stop_burst.is_set():
            seed += 1
            try:
                ask(port, mc_request(f"b{seed}", 2000 + seed, samples=8),
                    budget_s=10.0)
                ask(port, ref, budget_s=10.0)  # keep the reference hot
            except OSError:
                return  # the kill -9 below severs us mid-conversation

    burster = threading.Thread(target=burst)
    burster.start()

    # Live bound check while evictions churn underneath.
    give_up = time.monotonic() + 3.0
    saw_eviction = False
    while time.monotonic() < give_up:
        stats = server_stats(port)
        if stats:
            entries = stats["cache"]["entries"]
            check(entries <= 8, f"live cache.entries {entries} exceeds 8")
            saw_eviction = saw_eviction or stats["cache"]["evictions"] > 0
        time.sleep(0.1)
    check(saw_eviction, "burst never drove the cache into eviction")

    server.kill9()  # mid-burst, mid-eviction-churn
    stop_burst.set()
    burster.join()

    # A writer killed between write and rename legitimately leaves a
    # *.json.tmp staging file (recover() deletes it on restart, proven
    # below); what a crash must never leave is a torn *.json entry.
    validate_cache_dir(cache_dir, max_entries=8, context="post-kill",
                       allow_staging=True)

    # Plant the two orphan species a crash can leave: a writer killed
    # between write and rename, an evictor killed between rename and
    # remove. recover() must delete both, load neither.
    (cache_dir / "orphan.json.tmp").write_text(
        '{"format":"ttmcas-serve-cache-v1"'
    )
    (cache_dir / "victim.json.evict.tmp").write_text(
        '{"format":"ttmcas-serve-cache-v1","key":"victim",'
        '"kernel":"k","payload_bytes":2,"payload":"{}"}'
    )

    print("phase restart: recover bounded cache byte-for-byte", flush=True)
    restarted = Server(
        binary,
        workdir,
        "restarted",
        BOUND_ARGS + ["--cache-dir", str(cache_dir)],
    )
    port = restarted.port
    recovered = int(restarted.ready_field("recovered") or "0")
    check(1 <= recovered <= 8, f"recovered={recovered}, want 1..8")

    stats = server_stats(port)
    check(
        stats["cache"]["entries"] <= 8,
        f"restarted cache.entries {stats['cache']['entries']} exceeds 8",
    )
    check(
        stats["cache"]["orphans_deleted"] >= 2,
        f"orphans_deleted == {stats['cache']['orphans_deleted']}, want >= 2",
    )
    check(
        not (cache_dir / "orphan.json.tmp").exists()
        and not (cache_dir / "victim.json.evict.tmp").exists(),
        "planted orphan files survived recover()",
    )
    doc = parse_reply(ask(port, ref), "post-restart reference")
    if doc:
        check(
            doc.get("cache") == "hit",
            f"post-restart reference not served from cache: {doc}",
        )
    check(
        result_portion(ask(port, ref) or "") == ref_portion,
        "recovered reference reply is not byte-identical",
    )

    # The bound holds across the restart boundary under fresh churn.
    for seed in range(50, 62):
        ask(port, mc_request(f"r{seed}", seed, samples=8))
    validate_cache_dir(cache_dir, max_entries=8, context="post-restart")
    restarted.sigterm_and_check_drain()


# ------------------------------------------------------------------ #
# Phase: faults — armed injector, replies stay well-formed.
# ------------------------------------------------------------------ #


def phase_faults(binary, workdir):
    print("phase faults: --fault-rate keeps replies well-formed",
          flush=True)
    server = Server(
        binary,
        workdir,
        "faulty",
        ["--workers", "2", "--queue", "8",
         "--fault-rate", "0.4", "--fault-seed", "7"],
    )
    port = server.port
    for seed in range(8):
        doc = parse_reply(
            ask(port, mc_request(f"f{seed}", 3000 + seed, samples=64)),
            f"faulty {seed}",
        )
        if doc:
            check(
                doc.get("status") in {"ok", "error"},
                f"faulty {seed}: status {doc.get('status')}",
            )
    doc = parse_reply(ask(port, '{"id":"h","kind":"health"}'),
                      "faulty health")
    if doc:
        check(doc.get("status") == "ok", f"faulty health: {doc}")
    server.sigterm_and_check_drain()


# ------------------------------------------------------------------ #


def main():
    if len(sys.argv) != 3:
        die("usage: serve_chaos.py /path/to/ttm_serve /path/to/workdir")
    binary = sys.argv[1]
    workdir = pathlib.Path(sys.argv[2])
    workdir.mkdir(parents=True, exist_ok=True)
    if not os.access(binary, os.X_OK):
        die(f"not executable: {binary}")

    try:
        phase_coalesce(binary, workdir)
        phase_hostile_and_overload(binary, workdir)
        phase_bounds_crash_restart(binary, workdir)
        phase_faults(binary, workdir)
    finally:
        for proc in SERVERS:  # reap anything a failed phase stranded
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    if FAILURES:
        print(f"{len(FAILURES)} chaos check(s) failed", file=sys.stderr)
        return 1
    print("all serve chaos checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
