"""The standing benchmark: one command, one workload per run.

``python3 benchmarks/standing/run.py --workload W --seed S --seconds T
--trace 0|1`` builds W's database from the seed, serves it from a
child process, drives it through ``CONNECTIONS`` real client
connections for T seconds, checks the answers, and prints every
metric by name with its unit and sample count. The last line of
output is the JSON result the driver reads (see ``BENCHMARK.json``).

``--trace 0`` reports the end-to-end cells, measured with the
benchmark's own span recording off. ``--trace 1`` reports the
per-layer numbers and the bill (``layers.py``). ``--smoke`` shrinks
the databases so a run takes seconds; ``--record FILE`` appends the
result line, tagged with workload and seed, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

# Every size of ISSUE 12 times this (see README, "Scale").
SCALE = 0.1
SMOKE_SCALE = 0.02
SETUP_REPEATS = 2
RESTART_REPEATS = 5


def load_spec() -> dict:
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        return json.load(f)


def spin() -> float:
    """Seconds one fixed million-step loop takes on this machine now.
    The sandbox's CPU speed moves by tens of percent for minutes at a
    time; printed beside the results, this says whether a run that
    looks slow was measured on a slow machine."""
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - started


def measure(workload, seconds: float, path: str):
    """The untraced run. Returns ``(metrics, cells, tally)``: the
    end-to-end metrics of ``BENCHMARK.json``, the per-kind latency
    cells printed beside them, and the attempted/failed tally."""
    build_s = harness.build_database(path, workload.rows)
    total = harness.Tally()
    setups = []
    server = None
    try:
        # Set-up is repeated on the untouched file (prepare only
        # reads) and the median reported; the last server is kept.
        for _ in range(SETUP_REPEATS):
            if server is not None:
                for client in clients:
                    client.close()
                server.kill()
            server, clients, warmup, seconds_taken = harness.set_up(
                workload, path
            )
            setups.append(seconds_taken)
        total.merge(warmup)

        rss = []
        spins = [spin() for _ in range(3)]
        window, elapsed = harness.closed_loop(
            clients,
            [workload.schedule(i) for i in range(len(clients))],
            seconds,
            at_count=workload.RSS_AT,
            at_count_do=lambda: rss.append(server.peak_rss_mb()),
        )
        spins += [spin() for _ in range(3)]
        statements = window.attempted
        total.merge(window)
        workload.verify(clients, total)
        if not rss:  # a window shorter than rss_at statements
            rss.append(server.peak_rss_mb())
        for client in clients:
            client.close()
        server.kill()  # the crash: nothing is flushed on the way out
        stored = harness.disk_bytes(path)

        # The restarted server only reads the files, so the restart
        # can be repeated on exactly what the crash left behind.
        restarts = []
        for _ in range(RESTART_REPEATS):
            restart_started = time.perf_counter()
            server = harness.Server(path, workload.server_options())
            client = server.connect()
            harness.run_statement(
                client, workload.first_answer(), total, timed=False
            )
            restarts.append(time.perf_counter() - restart_started)
            replayed = client.stats()["storage"]["db"]["checkpoint"][
                "replayed_on_open"
            ]
            client.close()
            server.kill()
            server = None
        if workload.durable:
            check_durability(workload, path, total)
    finally:
        if server is not None:
            server.kill()

    samples = dict(window.samples, **workload.extra_samples())
    main, heavy = samples[workload.MAIN], samples[workload.HEAVY]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups), ""),
        "stmt_per_s": (statements / elapsed, "1/s", statements, ""),
        "main_p50_ms": (
            harness.median_ms(main), "ms", len(main), workload.MAIN),
        "heavy_p50_ms": (
            harness.median_ms(heavy), "ms", len(heavy), workload.HEAVY),
        "peak_rss_mb": (
            rss[0], "MB", 1, f"server child after {workload.RSS_AT}"
            " statements"),
        "restart_s": (
            statistics.median(restarts), "s", len(restarts),
            f"SIGKILL to first correct answer, {replayed} journal ops"
            " replayed"),
        "disk_bytes_per_user_byte": (
            stored / workload.shadow.user_bytes(), "ratio", 1,
            "page file + journal after the run"),
    }
    cells = {}
    for kind, values in sorted(samples.items()):
        cells[f"{kind}_p50_ms"] = (
            harness.median_ms(values), "ms", len(values), "")
        cells[f"{kind}_p95_ms"] = (
            harness.percentile(values, 0.95) * 1e3, "ms", len(values), "")
    if "write" in samples:
        cells["write_p99_ms"] = (
            harness.percentile(samples["write"], 0.99) * 1e3, "ms",
            len(samples["write"]), "carries the checkpoint stall")
    if hasattr(workload, "stale"):
        cells["stale_answers_at_quiesce"] = (
            workload.stale, "count", 1,
            "wrong before the settling writes; see ViewWrite.verify")
    cells["failed_share"] = (
        total.failed / total.attempted, "ratio", total.attempted, "")
    cells["window_s"] = (elapsed, "s", 1, "")
    cells["machine_spin_ms"] = (
        statistics.median(spins) * 1e3, "ms", len(spins),
        "a fixed 1M-step loop, before and after the window")
    cells["datagen_s"] = (
        build_s, "s", 1, f"{workload.count} objects, one full checkpoint")
    return metrics, cells, total


def check_durability(workload, path: str, tally) -> None:
    """Reopen the killed server's files and compare every object an
    acknowledged write touched with the shadow. The page cache
    survives a process kill, so this tests the recovery logic (journal
    replay over the last checkpoint), not the device."""
    from repro.engine.oid import Oid

    import serve

    paged = serve.open_database(path, None, None, None)
    try:
        db = paged.db
        for number in sorted(workload.touched):
            tally.attempted += 1
            oid = Oid("db", number)
            expected = workload.shadow.objects[number][1]
            if not db.contains_oid(oid):
                tally.fail(f"durability: {oid} lost")
            elif dict(db.raw_value(oid)) != expected:
                tally.fail(
                    f"durability: {oid} is {dict(db.raw_value(oid))!r},"
                    f" acknowledged {expected!r}"
                )
        for number in sorted(workload.deleted):
            tally.attempted += 1
            if db.contains_oid(Oid("db", number)):
                tally.fail(f"durability: deleted {number} came back")
    finally:
        paged.close()


def show(rows: dict) -> None:
    for name, (value, unit, count, note) in rows.items():
        tail = f"  ({note})" if note else ""
        print(f"{name:34s} {value:14.6g} {unit:6s} n={count}{tail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", default=None, metavar="FILE")
    args = parser.parse_args(argv)

    harness.require_source()
    spec = load_spec()
    import serve
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    scale = SMOKE_SCALE if args.smoke else SCALE
    seconds = args.seconds or (2.0 if args.smoke else spec["run_seconds"])
    workload = WORKLOADS[args.workload](args.seed, scale)
    workdir = os.path.join(
        harness.OUT, f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    path = os.path.join(workdir, "db.pages")
    print(
        f"workload {workload.name} seed {args.seed} scale {scale}:"
        f" {workload.count} objects, {harness.CONNECTIONS} connections"
        f" in a closed loop, {seconds:g} s window"
    )
    print(f"why: {workload.why}")
    print(
        f"flush policy: sync_on_commit={serve.SYNC_ON_COMMIT},"
        f" checkpoint_every={workload.checkpoint_every}, incremental"
        f" checkpoints; server options {workload.server_options()}"
    )
    try:
        if args.trace:
            import layers

            metrics, cells, tally = layers.measure(workload, seconds, path)
            declared = spec["per_layer"]
        else:
            metrics, cells, tally = measure(workload, seconds, path)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    show(metrics)
    print("-- not gated --")
    show(cells)
    for failure in tally.failures:
        print("FAILED", failure)
    names = [entry["name"] for entry in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit(
            "metrics measured and metrics declared in BENCHMARK.json"
            f" differ: {sorted(set(names) ^ set(metrics))}"
        )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in names
        },
    }
    if args.record:
        with open(args.record, "a") as out:
            tagged = dict(
                result, workload=workload.name, seed=args.seed,
                trace=args.trace,
                cells={k: v[0] for k, v in cells.items()},
            )
            out.write(json.dumps(tagged) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
