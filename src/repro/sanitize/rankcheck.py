"""Dynamic cross-rank race detection: vector clocks over the exchange.

The gpusim racecheck stops at the device boundary — it sees lanes and
warps inside one launch.  The process-rank layer
(:mod:`repro.distributed.spmd`) has its own race surface: R forked
processes mutating named shared-memory segments, fenced only by a
barrier.  ``rankcheck`` is the happens-before checker for that layer,
the process-granularity mirror of racecheck's last-writer shadow:

* each rank carries a **vector clock** (one component per rank) and
  records every segment access as ``(segment, byte-range, read|write)``
  through a :class:`RankTracer`;
* **barriers** are the ordering edges: at a fence, every participant's
  clock joins to the elementwise max (the put epoch ends, the get
  epoch begins).  One-sided gets are recorded as reads — they are the
  accesses the established order must cover, not ordering edges
  themselves;
* after the launch, :func:`check_happens_before` replays the per-rank
  event streams: two accesses to overlapping byte ranges of one
  segment by different ranks, not both reads, race unless the earlier
  access's clock is ``<=`` the later rank's clock (i.e. a barrier
  generation separates them).

Replay order within a generation is irrelevant: the happens-before
relation is evaluated from the clocks, not from wall time, so an
unsynchronized write is flagged no matter which side the replay visits
first.

A :class:`SegmentLedger` rides along: it snapshots the live
shared-memory names (``/dev/shm``, filtered to this runtime's
prefixes) before a launch and diffs after cleanup — any new surviving
name is a leaked segment, the resource-exhaustion half of the PR's
motivation.  Findings from both checkers land in the same structured
:class:`~repro.sanitize.report.SanitizerReport` JSON the device
checkers emit (checker ``rankcheck``, kinds ``rank_race`` /
``segment_leak``; ``warp`` carries the rank, ``lane`` is ``-1``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.sanitize.report import SanitizerError, SanitizerReport

__all__ = [
    "RANK_SANITIZE_MODES",
    "RankEvent",
    "RankTracer",
    "RankRace",
    "check_happens_before",
    "SegmentLedger",
    "build_rank_report",
]

#: valid ``sanitize=`` values of the distributed layer.
RANK_SANITIZE_MODES = ("off", "rankcheck")

#: /dev/shm name prefixes this runtime creates (anonymous ``psm_`` from
#: multiprocessing.shared_memory, ``repro-`` from the named exchange).
_SHM_PREFIXES = ("psm_", "repro-")

_SHM_DIR = "/dev/shm"


@dataclass(frozen=True)
class RankEvent:
    """One traced segment access (or barrier crossing) by one rank."""

    op: str  # "r" | "w" | "b"
    seg: str = ""
    lo: int = 0  # byte range [lo, hi)
    hi: int = 0

    def to_dict(self) -> dict:
        return {"op": self.op, "seg": self.seg, "lo": self.lo, "hi": self.hi}


class RankTracer:
    """Per-rank event recorder, serialisable across the fork boundary.

    The rank process appends events during the exchange and dumps them
    as JSON; the parent loads all R streams and hands them to
    :func:`check_happens_before`.  Tracing is observation only — it
    never touches the traced segments.
    """

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.events: list[RankEvent] = []

    def read(self, seg: str, lo: int, hi: int) -> None:
        if hi > lo:
            self.events.append(RankEvent("r", seg, int(lo), int(hi)))

    def write(self, seg: str, lo: int, hi: int) -> None:
        if hi > lo:
            self.events.append(RankEvent("w", seg, int(lo), int(hi)))

    def barrier(self) -> None:
        self.events.append(RankEvent("b"))

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps([e.to_dict() for e in self.events])
        )

    @staticmethod
    def load(path: str | Path) -> list[RankEvent]:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            return []
        return [
            RankEvent(d["op"], d.get("seg", ""), d.get("lo", 0), d.get("hi", 0))
            for d in raw
        ]


@dataclass(frozen=True)
class RankRace:
    """Two unordered accesses to overlapping bytes of one segment."""

    seg: str
    lo: int  # overlap start (bytes)
    hi: int
    rank_a: int
    op_a: str
    rank_b: int
    op_b: str

    def describe(self) -> str:
        kinds = {"r": "read", "w": "write"}
        return (
            f"unsynchronized {kinds[self.op_b]} by rank {self.rank_b} "
            f"overlaps {kinds[self.op_a]} by rank {self.rank_a} on "
            f"segment {self.seg!r} bytes [{self.lo}, {self.hi}) with no "
            f"barrier between"
        )


@dataclass
class _Access:
    seg: str
    lo: int
    hi: int
    rank: int
    op: str
    clock: tuple


def _happens_before(w: tuple, c: list[int]) -> bool:
    return all(wi <= ci for wi, ci in zip(w, c))


def check_happens_before(
    events_by_rank: list[list[RankEvent]],
) -> tuple[list[RankRace], int]:
    """Replay per-rank event streams; return (races, accesses checked).

    Each rank's stream is split into barrier generations; within a
    generation clocks only advance locally, at a fence every
    participating rank's clock joins to the elementwise max.  Any two
    overlapping accesses by different ranks (not both reads) whose
    clocks are not ordered race.  One race per (segment, rank pair,
    op pair) is reported — the first overlap found — so a single bad
    write does not flood the report.
    """
    n_ranks = len(events_by_rank)
    gens: list[list[list[RankEvent]]] = []
    for stream in events_by_rank:
        split: list[list[RankEvent]] = [[]]
        for ev in stream:
            if ev.op == "b":
                split.append([])
            else:
                split[-1].append(ev)
        gens.append(split)

    clocks: list[list[int]] = [[0] * n_ranks for _ in range(n_ranks)]
    accesses: list[_Access] = []
    races: list[RankRace] = []
    seen_pairs: set[tuple] = set()
    n_checked = 0
    n_gens = max((len(g) for g in gens), default=0)
    for g in range(n_gens):
        for r in range(n_ranks):
            if g >= len(gens[r]):
                continue
            for ev in gens[r][g]:
                clocks[r][r] += 1
                n_checked += 1
                for acc in accesses:
                    if acc.seg != ev.seg or acc.rank == r:
                        continue
                    if acc.op == "r" and ev.op == "r":
                        continue
                    lo, hi = max(acc.lo, ev.lo), min(acc.hi, ev.hi)
                    if hi <= lo:
                        continue
                    if _happens_before(acc.clock, clocks[r]):
                        continue
                    key = (ev.seg, acc.rank, r, acc.op, ev.op)
                    if key in seen_pairs:
                        continue
                    seen_pairs.add(key)
                    races.append(
                        RankRace(
                            seg=ev.seg,
                            lo=lo,
                            hi=hi,
                            rank_a=acc.rank,
                            op_a=acc.op,
                            rank_b=r,
                            op_b=ev.op,
                        )
                    )
                accesses.append(
                    _Access(ev.seg, ev.lo, ev.hi, r, ev.op, tuple(clocks[r]))
                )
        # fence: every rank whose stream continues past generation g
        # stood at this barrier — join their clocks.
        parts = [r for r in range(n_ranks) if len(gens[r]) > g + 1]
        if len(parts) > 1:
            joined = [
                max(clocks[r][i] for r in parts) for i in range(n_ranks)
            ]
            for r in parts:
                clocks[r] = list(joined)
    return races, n_checked


class SegmentLedger:
    """Before/after diff of live shared-memory segments on this host.

    ``snapshot()`` lists the current segment names (restricted to the
    prefixes this runtime creates, so unrelated tenants of /dev/shm
    never show up as leaks); ``leaked(before, after)`` is the diff a
    clean launch must keep empty.  On hosts without /dev/shm the
    ledger degrades to empty snapshots (no false positives, no
    coverage).
    """

    def __init__(self, shm_dir: str = _SHM_DIR) -> None:
        self.shm_dir = shm_dir

    def snapshot(self) -> frozenset:
        try:
            names = os.listdir(self.shm_dir)
        except OSError:
            return frozenset()
        return frozenset(
            n for n in names if n.startswith(_SHM_PREFIXES)
        )

    @staticmethod
    def leaked(before: frozenset, after: frozenset) -> list[str]:
        return sorted(after - before)


def build_rank_report(
    races: list[RankRace],
    leaked: list[str],
    n_checked: int,
    mode: str = "rankcheck",
) -> SanitizerReport:
    """Assemble the structured report (same JSON schema as the device
    sanitizers; drivers, the CLI and CI archive it identically)."""
    report = SanitizerReport(mode=mode, n_checked=n_checked)
    for race in races:
        report.errors.append(
            SanitizerError(
                checker="rankcheck",
                kind="rank_race",
                kernel="rank_exchange",
                bin="",
                warp=race.rank_b,
                lane=-1,
                address=race.lo,
                message=race.describe(),
                details={
                    "segment": race.seg,
                    "other_rank": race.rank_a,
                    "ops": f"{race.op_a}/{race.op_b}",
                    "overlap_bytes": race.hi - race.lo,
                },
            )
        )
    for name in leaked:
        report.errors.append(
            SanitizerError(
                checker="rankcheck",
                kind="segment_leak",
                kernel="rank_exchange",
                bin="",
                warp=-1,
                lane=-1,
                address=0,
                message=(
                    f"shared-memory segment {name!r} survived the launch; "
                    f"every create must reach unlink (leaks exhaust "
                    f"/dev/shm across rounds)"
                ),
                details={"segment": name},
            )
        )
    return report
