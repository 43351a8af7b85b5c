"""The closed loop: one client, one op at a time, each op checked after it.

An op's latency covers only its `run` call.  Making its inputs and
checking its output happen outside that interval, with tracing off.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator


class DeadlineExceeded(BaseException):
    """Raised inside an op that outlived its deadline.

    A BaseException, so that no `except Exception` in the program under
    test can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    deadline: float | None = None  # seconds, enforced with SIGALRM
    group: object = None  # ops that form one pipeline share a group
    label: str = ""  # the op's inputs, the same in every round that repeats them


@dataclass
class Record:
    kind: str
    seconds: float
    error: str | None
    group: object = None
    label: str = ""


@dataclass
class Pass:
    records: list[Record] = field(default_factory=list)
    rounds: int = 0


def run_op(op: Op, tracer=None) -> Record:
    """Time op.run, then check its result; any exception fails the op."""
    if op.deadline is not None:
        signal.signal(signal.SIGALRM, _on_alarm)
    span = None
    if tracer is not None:
        tracer.op = len(tracer.spans)
        span = tracer.begin(f"op.{op.kind}")
        tracer.active = True
    error = None
    result = None
    start = time.perf_counter()
    try:
        if op.deadline is not None:
            signal.setitimer(signal.ITIMER_REAL, op.deadline)
        try:
            result = op.run()
        finally:
            if op.deadline is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        error = f"deadline of {op.deadline} s missed"
    except Exception as exc:  # the op failed; count it, keep measuring
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
        tracer.end(span)
        tracer.op = None
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return Record(op.kind, elapsed, error, op.group, op.label)


def measure(rounds: Callable[[int], Iterator[Op]], *, seconds: float | None = None,
            n_rounds: int | None = None, tracer=None, between=None) -> Pass:
    """Run whole rounds until `seconds` have passed, or exactly `n_rounds`.

    `between(elapsed)` runs after each op; the time it takes does not count
    towards `seconds`.
    """
    out = Pass()
    start = time.perf_counter()
    while True:
        for op in rounds(out.rounds):
            out.records.append(run_op(op, tracer))
            if between is not None:
                paused = time.perf_counter()
                between(paused - start)
                start += time.perf_counter() - paused
        out.rounds += 1
        if n_rounds is not None:
            if out.rounds >= n_rounds:
                return out
        elif time.perf_counter() - start >= seconds:
            return out


# -- statistics -----------------------------------------------------------------


def p50_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def geomean_ms(seconds: list[float]) -> float:
    if not seconds:
        return 0.0
    return math.exp(statistics.fmean(math.log(s) for s in seconds)) * 1e3


def tail(seconds: list[float]) -> tuple[float, float, int] | None:
    """(ms, percentile, n): the highest percentile with >= 10 samples beyond it."""
    n = len(seconds)
    if n < 11:
        return None
    ordered = sorted(seconds)
    return ordered[n - 11] * 1e3, 100.0 * (n - 10) / n, n


def ops_per_s(seconds: list[float]) -> float:
    total = sum(seconds)
    return len(seconds) / total if total else 0.0
