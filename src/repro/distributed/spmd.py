"""One SPMD rank runtime for every process-rank stage.

MHM2 runs each stage as a rank function on one UPC++ SPMD runtime; this
module is that runtime at laptop scale.  A stage hands :func:`spmd` a
*rank function* ``rank_fn(comm) -> np.ndarray``; the launcher runs it
once per rank and owns the whole rank lifecycle around it.

Protocol (launch token ``T``, ranks ``0..R-1``):

1. The parent draws a launch token (:func:`repro.gpusim.shmem.
   launch_token`) and registers every derivable segment name
   (``repro-T-out<r>``, ``repro-T-own<r>``) for cleanup *before* any
   segment or child exists, so an abnormal exit can never leak one (the
   atexit sweep unlinks them).  It allocates the shared control arrays:
   the ``(R, R)`` counts matrix, per-rank result sizes, metrics rows and
   status words.
2. It forks the ranks with the ``fork`` context: they inherit the
   stage's inputs (reads, seed index, task shards) — nothing is pickled.
3. :meth:`Comm.alltoallv` is a one-sided exchange.  Rank ``r`` publishes
   its destination-grouped rows as one exactly-sized *outbox* segment
   ``repro-T-out<r>`` and their per-destination counts as row ``r`` of
   the counts matrix (the "put"); a barrier fences the put epoch; then
   rank ``r`` attaches every peer's outbox by constructed name and
   copies out the rows destined to it (the "get").  No bytes move
   through pipes or pickles.
4. The rank function's return value goes back through one result
   segment ``repro-T-own<r>``.  The parent joins the ranks against a
   deadline — aborting the barrier as soon as one dies, so no peer waits
   out its timeout — raises on any failed rank, copies the results out
   and unlinks every segment of the launch.

Where fork or shared memory is missing, the same :class:`Comm` runs over
in-memory mailboxes: the ranks are threads of this process and only one
runs at a time (a baton handed on at the fence), so every stage runs
unchanged and in the order a single process would run it.

Rankcheck tracing (``sanitize="rankcheck"``) and the test-only fault
hooks live in :class:`Comm`, so every stage's exchange gets them.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import shutil
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_any
from pathlib import Path

import numpy as np

from repro.gpusim.shmem import (
    attach_shared_array,
    cleanup_launch_segments,
    create_named_shared_array,
    create_shared_array,
    launch_token,
    register_launch_segment,
    shared_memory_available,
)
from repro.perf import HostProfiler
from repro.sanitize.rankcheck import (
    RANK_SANITIZE_MODES,
    RankTracer,
    SegmentLedger,
    build_rank_report,
    check_happens_before,
)

__all__ = ["spmd", "Comm", "SpmdRun", "procrank_available"]

_STATUS_OK = 1
_STATUS_FAILED = -1

# Test-only fault injection (module globals, so tests can flip them in
# the parent and the forked ranks see the values):
# _INJECT_RACE makes the last rank re-write rank 0's outbox *after* the
# fence — value-neutral (same bytes), so results stay bit-identical, but
# it is exactly the unsynchronized cross-rank write rankcheck must flag.
# _CRASH_RANK crashes that rank right after its first segment publish —
# for an exchanging stage, between the outbox publish and the fence —
# the abort route whose cleanup the crash tests prove leaves /dev/shm
# empty.
_INJECT_RACE = False
_CRASH_RANK: int | None = None


def procrank_available() -> bool:
    """True when real process ranks can run here (fork + shared memory)."""
    if sys.platform == "win32":  # pragma: no cover - POSIX-only repo
        return False
    try:
        mp.get_context("fork")
    except ValueError:  # pragma: no cover - no fork start method
        return False
    return shared_memory_available()


def _seg_name(token: str, name: str) -> str:
    return f"repro-{token}-{name}"


# -- transports ----------------------------------------------------------------


class _ShmTransport:
    """Forked rank processes over named shared-memory segments."""

    mode = "procrank"
    cpu_clock = staticmethod(time.process_time)

    def __init__(self, n_ranks: int) -> None:
        self._ctx = mp.get_context("fork")
        self.token = launch_token()
        for r in range(n_ranks):
            for name in (f"out{r}", f"own{r}"):
                register_launch_segment(self.token, _seg_name(self.token, name))
        self._arrays: list = []
        self.barrier = self._ctx.Barrier(n_ranks)

    def array(self, shape, dtype) -> np.ndarray:
        arr = create_shared_array(shape, dtype)
        self._arrays.append(arr)
        return arr

    def put(self, name: str, rows: np.ndarray) -> None:
        box = create_named_shared_array(
            _seg_name(self.token, name), rows.shape, rows.dtype
        )
        if rows.size:
            box[...] = rows

    @contextmanager
    def _attached(self, name: str, shape, dtype):
        """Map a published segment for the duration of the block."""
        box = None
        try:
            box = attach_shared_array(_seg_name(self.token, name), shape, dtype)
            yield box
        finally:
            if box is not None:
                box.close()

    def get(self, name: str, shape, dtype, lo: int, hi: int) -> np.ndarray:
        with self._attached(name, shape, dtype) as box:
            return np.array(box[lo:hi])

    def overwrite(self, name: str, rows: np.ndarray) -> None:
        with self._attached(name, rows.shape, rows.dtype) as box:
            box[...] = rows

    def waiting(self):
        return nullcontext()

    def start(self, comms: list[Comm], rank_fn) -> list:
        procs = []
        for comm in comms:
            p = self._ctx.Process(
                target=_rank_main, args=(comm, rank_fn),
                name=f"repro-rank{comm.rank}",
            )
            p.start()
            procs.append(p)
        return procs

    def join(self, procs: list, timeout_s: float) -> list[int]:
        """Exit codes of every rank.  A rank that dies (even without
        reaching its own abort path) aborts the barrier at once, so its
        peers fail fast instead of waiting out their fence timeout."""
        deadline = time.monotonic() + timeout_s
        pending = list(procs)
        while pending and time.monotonic() < deadline:
            wait_any([p.sentinel for p in pending],
                     timeout=deadline - time.monotonic())
            if any(p.exitcode not in (None, 0) for p in pending):
                self.barrier.abort()
            pending = [p for p in pending if p.exitcode is None]
        if pending:
            for p in pending:
                p.terminate()
            for p in pending:
                p.join(timeout=5.0)
            raise TimeoutError(
                f"rank processes hung past timeout: {[p.name for p in pending]}"
            )
        for p in procs:
            p.join()
        return [p.exitcode for p in procs]

    def close(self) -> None:
        cleanup_launch_segments(self.token)
        for arr in self._arrays:
            arr.unlink()


class _LocalTransport:
    """Ranks as threads of this process over in-memory mailboxes.

    A rank holds the baton from its start to its end and hands it on only
    while it waits at the fence, so no two ranks' code ever runs at once.
    """

    mode = "inproc"
    cpu_clock = staticmethod(time.thread_time)

    def __init__(self, n_ranks: int) -> None:
        self.barrier = threading.Barrier(n_ranks)
        self._baton = threading.Lock()
        self._boxes: dict[str, np.ndarray] = {}

    def array(self, shape, dtype) -> np.ndarray:
        return np.zeros(shape, dtype)

    def put(self, name: str, rows: np.ndarray) -> None:
        self._boxes[name] = np.array(rows)

    def get(self, name: str, shape, dtype, lo: int, hi: int) -> np.ndarray:
        return np.array(self._boxes[name][lo:hi])

    def overwrite(self, name: str, rows: np.ndarray) -> None:
        self._boxes[name][...] = rows

    @contextmanager
    def waiting(self):
        self._baton.release()
        try:
            yield
        finally:
            self._baton.acquire()

    def _run(self, comm: Comm, rank_fn) -> None:
        with self._baton:
            _rank_main(comm, rank_fn)

    def start(self, comms: list[Comm], rank_fn) -> list:
        threads = [
            threading.Thread(
                target=self._run, args=(comm, rank_fn),
                name=f"repro-rank{comm.rank}", daemon=True,
            )
            for comm in comms
        ]
        for t in threads:
            t.start()
        return threads

    def join(self, threads: list, timeout_s: float) -> list[int]:
        deadline = time.monotonic() + timeout_s
        for t in threads:
            t.join(timeout=max(0.1, deadline - time.monotonic()))
        alive = [t.name for t in threads if t.is_alive()]
        if alive:
            raise TimeoutError(f"rank threads hung past timeout: {alive}")
        return [0] * len(threads)

    def close(self) -> None:
        self._boxes.clear()


# -- the rank handle -----------------------------------------------------------


@dataclass
class _Control:
    """The launch's shared control arrays, one row per rank."""

    counts: np.ndarray  # (R, R) alltoallv rows sent src -> dest
    sizes: np.ndarray  # (R, 2) result element count, dtype char code
    metrics: np.ndarray  # (R, len(columns)) float64
    status: np.ndarray  # (R,) _STATUS_OK / _STATUS_FAILED


class Comm:
    """One rank's handle on its launch: phase timing, the alltoallv
    exchange, and (through the rank function's return value) the result
    segment.  ``profiler`` is the rank's :class:`HostProfiler`, for
    layers below the rank function to record into."""

    def __init__(
        self,
        rank: int,
        n_ranks: int,
        net,
        ctl: _Control,
        columns: tuple[str, ...],
        profile: bool,
        dump_dir: Path | None,
        trace: bool,
        timeout_s: float,
    ) -> None:
        self.rank = rank
        self.n_ranks = n_ranks
        self.profiler = HostProfiler(enabled=profile)
        #: per-rank values for the launch's metric columns, by name
        self.stats: dict[str, float] = {}
        self._net = net
        self._ctl = ctl
        self._columns = columns
        self._tracer = RankTracer(rank)
        self._dump_dir = dump_dir
        self._trace = trace
        self._timeout_s = timeout_s

    @contextmanager
    def phase(self, name: str):
        """Time a block as phase *name*: into the metrics row
        (``<name>_s``) and the rank's profile."""
        t0 = time.perf_counter()
        yield
        dt = time.perf_counter() - t0
        key = f"{name}_s"
        self.stats[key] = self.stats.get(key, 0.0) + dt
        self.profiler.add(name, f"rank{self.rank}", t0, dt)

    def alltoallv(self, rows: np.ndarray, dest_counts: np.ndarray) -> np.ndarray:
        """Exchange 2-D *rows* grouped by destination (``dest_counts[d]``
        rows for rank *d*, in rank order); returns the rows every rank
        sent here, concatenated in source-rank order.  Records ``sent``
        and ``recv`` (off-rank row counts) in :attr:`stats`."""
        r, n = self.rank, self.n_ranks
        counts = self._ctl.counts
        row_bytes = rows.itemsize * rows.shape[1]
        self._publish(f"out{r}", rows)
        counts[r, :] = dest_counts
        self._tracer.write("counts", r * n * 8, (r + 1) * n * 8)
        self._fence()

        offs = np.zeros(n + 1, dtype=np.int64)
        parts: list[np.ndarray] = []
        for src in range(n):
            np.cumsum(counts[src], out=offs[1:])
            self._tracer.read("counts", src * n * 8, (src + 1) * n * 8)
            lo, hi = int(offs[r]), int(offs[r + 1])
            shape = (int(offs[-1]), rows.shape[1])
            if src == r:
                parts.append(rows[lo:hi])  # own outbox: already local
            else:
                parts.append(
                    self._net.get(f"out{src}", shape, rows.dtype, lo, hi)
                )
            self._tracer.read(f"out{src}", lo * row_bytes, hi * row_bytes)
            if _INJECT_RACE and src == 0 and r == n - 1 and r != 0:
                # value-neutral: writes the bytes already there, so
                # results stay bit-identical — but it is a post-fence
                # write into a peer's put epoch, the exact hazard
                # sanitize=rankcheck exists to flag.
                snap = self._net.get("out0", shape, rows.dtype, 0, shape[0])
                self._net.overwrite("out0", snap)
                self._tracer.write("out0", 0, snap.nbytes)
        self.stats["sent"] = int(dest_counts.sum()) - int(dest_counts[r])
        self.stats["recv"] = sum(len(p) for s, p in enumerate(parts) if s != r)
        return np.concatenate(parts)

    def _publish(self, name: str, arr: np.ndarray) -> None:
        self._net.put(name, arr)
        self._tracer.write(name, 0, arr.nbytes)
        if _CRASH_RANK == self.rank:
            raise RuntimeError(f"injected crash after publishing {name}")

    def _fence(self) -> None:
        """Barrier ending the put epoch (every outbox and counts row is
        published past this point)."""
        barrier = self._net.barrier
        with self._net.waiting():
            try:
                barrier.wait(timeout=self._timeout_s)
            except Exception:
                barrier.abort()  # a timed-out wait must wake the peers too
                raise
        self._tracer.barrier()

    def _finish(self, result: np.ndarray, wall0: float, cpu0: float) -> None:
        """Publish the result, the metrics row and the dumps; mark OK."""
        r, ctl = self.rank, self._ctl
        flat = np.ascontiguousarray(result).ravel()
        self._publish(f"own{r}", flat)
        ctl.sizes[r] = (flat.size, ord(flat.dtype.char))
        self.stats["wall_s"] = time.perf_counter() - wall0
        self.stats["cpu_s"] = self._net.cpu_clock() - cpu0
        ctl.metrics[r] = [self.stats.get(c, 0.0) for c in self._columns]
        for seg, arr in (("sizes", ctl.sizes), ("metrics", ctl.metrics),
                         ("status", ctl.status)):
            width = arr[r].nbytes
            self._tracer.write(seg, r * width, (r + 1) * width)
        if self._dump_dir is not None:
            if self._trace:
                self._tracer.dump(self._dump_dir / f"trace{r}.json")
            if self.profiler.enabled:
                self.profiler.save_json(self._dump_dir / f"prof{r}.json")
        ctl.status[r] = _STATUS_OK

    def _fail(self) -> None:
        self._ctl.status[self.rank] = _STATUS_FAILED
        try:
            self._net.barrier.abort()  # wake peers instead of deadlocking them
        except Exception:
            pass


def _rank_main(comm: Comm, rank_fn) -> None:
    """Body of one rank (a forked process, or a thread in-process)."""
    wall0, cpu0 = time.perf_counter(), comm._net.cpu_clock()
    try:
        comm._finish(rank_fn(comm), wall0, cpu0)
    except Exception:
        traceback.print_exc()
        comm._fail()


# -- the launcher --------------------------------------------------------------


@dataclass
class SpmdRun:
    """What one launch hands back to the stage that made it."""

    mode: str  # "procrank" (forked processes) or "inproc" (threads)
    #: each rank's returned array, flattened (the stage reshapes)
    results: list[np.ndarray]
    #: the alltoallv counts matrix: rows sent from rank src to rank dest
    counts: np.ndarray
    #: ``wall_s``, ``cpu_s``, one ``<phase>_s`` per phase, then counters
    columns: tuple[str, ...]
    metrics: np.ndarray  # (R, len(columns))
    profiles: list[dict] | None = None  # per-rank HostProfiler JSON
    sanitizer: dict | None = None  # SanitizerReport JSON (rankcheck)

    def rank_rows(self) -> list[tuple]:
        """Per-rank metric rows in column order: seconds as floats,
        counters as ints."""
        return [
            tuple(float(v) if c.endswith("_s") else int(v)
                  for c, v in zip(self.columns, row))
            for row in self.metrics
        ]

    def total(self, column: str) -> int:
        """A counter column summed over ranks."""
        return int(self.metrics[:, self.columns.index(column)].sum())


def spmd(
    n_ranks: int,
    rank_fn,
    *,
    fork: bool,
    phases: tuple[str, ...] = (),
    counters: tuple[str, ...] = (),
    profile: bool = False,
    sanitize: str = "off",
    timeout_s: float = 120.0,
) -> SpmdRun:
    """Run ``rank_fn(comm)`` on *n_ranks* ranks; return their results.

    *fork* picks the transport: forked processes over shared memory, or
    in-process threads over mailboxes.  *phases* name the
    :meth:`Comm.phase` timings and *counters* the integer
    :attr:`Comm.stats` entries each rank's metrics row carries.  A
    fence waits at most *timeout_s*; the launch as a whole, twice that.

    ``sanitize="rankcheck"`` traces every segment access per rank, runs
    the vector-clock happens-before check plus a before/after segment
    ledger diff, and attaches the structured report as
    ``run.sanitizer`` (tracing is observation only).
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    if sanitize not in RANK_SANITIZE_MODES:
        raise ValueError(
            f"unknown sanitize mode {sanitize!r}; expected one of "
            f"{RANK_SANITIZE_MODES}"
        )
    columns = ("wall_s", "cpu_s", *(f"{p}_s" for p in phases), *counters)
    trace = sanitize == "rankcheck"
    ledger = SegmentLedger() if trace else None
    shm_before = ledger.snapshot() if ledger is not None else frozenset()
    net = _ShmTransport(n_ranks) if fork else _LocalTransport(n_ranks)
    dump_dir = (
        Path(tempfile.mkdtemp(prefix="repro-spmd-")) if profile or trace else None
    )
    try:
        ctl = _Control(
            counts=net.array((n_ranks, n_ranks), np.int64),
            sizes=net.array((n_ranks, 2), np.int64),
            metrics=net.array((n_ranks, len(columns)), np.float64),
            status=net.array((n_ranks,), np.int64),
        )
        comms = [
            Comm(r, n_ranks, net, ctl, columns, profile, dump_dir, trace,
                 timeout_s)
            for r in range(n_ranks)
        ]
        exitcodes = net.join(net.start(comms, rank_fn), 2 * timeout_s)
        bad = [
            (f"rank{r}", code, int(ctl.status[r]))
            for r, code in enumerate(exitcodes)
            if code != 0 or int(ctl.status[r]) != _STATUS_OK
        ]
        if bad:
            raise RuntimeError(f"rank processes failed: {bad}")
        results = [
            net.get(f"own{r}", (int(n),), np.dtype(chr(code)), 0, int(n))
            for r, (n, code) in enumerate(ctl.sizes)
        ]
        run = SpmdRun(
            mode=net.mode,
            results=results,
            counts=np.array(ctl.counts),
            columns=columns,
            metrics=np.array(ctl.metrics),
        )
        if profile:
            run.profiles = [
                json.loads((dump_dir / f"prof{r}.json").read_text())
                for r in range(n_ranks)
            ]
        if trace:
            races, n_checked = check_happens_before(
                [RankTracer.load(dump_dir / f"trace{r}.json")
                 for r in range(n_ranks)]
            )
    finally:
        net.close()
        if dump_dir is not None:
            shutil.rmtree(dump_dir, ignore_errors=True)
    if ledger is not None:
        # Leak diff runs *after* the cleanup above: anything still live
        # now genuinely escaped the launch's own lifecycle.
        leaked = ledger.leaked(shm_before, ledger.snapshot())
        run.sanitizer = build_rank_report(races, leaked, n_checked).to_dict()
    return run
