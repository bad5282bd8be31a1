"""The serving benchmark's three workloads, their set-up and their checks.

All data is synthetic (``make_movielens_like``, the paper's Table I
shape, 1000 items) with the paper's Given10 protocol and its Section
V-C model parameters (``CFSF()`` defaults).  The corpus is fixed; the
seed feeds the request streams only, never the program.

* ``warm-pairs``: P=300 training users.  Single (user, item) pairs,
  drawn without repeats from 800 active users' held-out targets, go
  through ``MicroBatcher.submit`` at its default knobs; every active
  user's state is warmed during set-up.  (The paper's 200 test users
  hold too few distinct pairs to keep the closed loop busy for more
  than about a second.)  An open-loop Poisson phase at
  ``OPEN_LOOP_RPS`` gives the latency metrics, a closed loop of
  ``min(2, nproc)`` pipelining clients gives throughput.
* ``cold-slates``: P=5000.  Every active user appears once and scores a
  slate of 10 held-out items with one ``PredictionService.predict_many``
  call, so every call computes a fresh user state (affinity, candidates,
  top-K, ``prepare_user``).  No batcher.
* ``profile-writes``: P=300.  5-item slates for random active users,
  repeated the way page refreshes repeat them; every 10th op is a
  profile write through ``RatingMatrix.with_ratings`` that reveals a
  held-out rating or re-rates a given item, and later reads use the
  new matrix.  This exercises the caches under invalidation.

After the timed phase every served prediction is compared with a
freshly unpickled copy of the fitted model (one copy per ``given``
version, at most ``REFERENCE_USERS`` users per copy), within ``TOL``.
"""

from __future__ import annotations

import gc
import os
import pickle
import platform
import resource
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from repro.core.model import CFSF
from repro.data.matrix import RatingMatrix
from repro.data.splits import GivenNSplit, make_split
from repro.data.synthetic import SyntheticConfig, make_movielens_like
from repro.serving.batcher import MicroBatcher
from repro.serving.errors import OverloadedError
from repro.serving.service import PredictionService

WORKLOADS = ("warm-pairs", "cold-slates", "profile-writes")
GIVEN_N = 10
TOL = 1e-9
OPEN_LOOP_RPS = 2000.0
OPEN_LOOP_SHARE = 0.6    # warm-pairs: share of the run in the open loop
PIPELINE = 32            # in-flight requests per closed-loop client
REFRESH_P = 0.5          # profile-writes: a read re-shows the previous user's slate
WRITE_EVERY = 10         # profile-writes: every 10th op is a write
WRITE_PROBE_S = 0.7      # seconds of traced probe writes where the workload serves none
REFERENCE_USERS = 1000   # most users one reference copy computes states for
LATE_LIMIT_MS = 20.0     # open-loop generator lateness p99 that invalidates a run
MiB = 1024.0 * 1024.0
#: The rating corpus is one fixed dataset, as the paper's ML_300 is; the
#: run's ``--seed`` drives the traffic (request order, arrival schedule,
#: slates, profile writes).  MAE then varies only with what was served.
CORPUS_SEED = 0


@dataclass(frozen=True)
class Geometry:
    n_train: int
    n_active: int           # 0: scale with the run length (cold-slates)
    slate: int              # predictions per read call
    setups: int             # set-ups per part; setup_s is the median of all
    #: An untraced run is split into this many parts, each in a fresh
    #: process: a process's memory layout alone moves its speed by up to
    #: 40% on some hosts, and pooling several layouts steadies the run.
    parts: int
    active_per_second: int = 0


GEOMETRY = {
    "warm-pairs": Geometry(300, 800, 1, setups=2, parts=5),
    # Two parts, so that each part serves more users than the model's
    # 4096-entry state cache holds and peak RSS reaches its plateau.
    "cold-slates": Geometry(5000, 0, 10, setups=2, parts=2, active_per_second=2000),
    "profile-writes": Geometry(300, 200, 5, setups=3, parts=3),
}
#: A few seconds per workload end to end, for the tests.
SMOKE_GEOMETRY = {
    "warm-pairs": Geometry(120, 40, 1, setups=2, parts=1),
    "cold-slates": Geometry(300, 0, 10, setups=2, parts=1, active_per_second=150),
    "profile-writes": Geometry(120, 40, 5, setups=2, parts=1),
}


class InvalidRun(RuntimeError):
    """The load generator could not keep its schedule; numbers are void."""


@dataclass
class Served:
    """Every prediction the timed phase asked for, in request order."""

    users: list[int] = field(default_factory=list)
    items: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)   # NaN when not answered
    truth: list[float] = field(default_factory=list)
    failed: list[bool] = field(default_factory=list)
    version: list[int] = field(default_factory=list)    # given version served against

    def add(self, users, items, values, truth, failed, version: int) -> None:
        self.users.extend(int(u) for u in users)
        self.items.extend(int(i) for i in items)
        self.values.extend(float(v) for v in values)
        self.truth.extend(float(t) for t in truth)
        self.failed.extend(bool(f) for f in failed)
        self.version.extend([version] * len(users))


@dataclass
class Outcome:
    """What one workload run measured."""

    served: Served = field(default_factory=Served)
    latencies_s: list[float] = field(default_factory=list)
    phase_s: float = 0.0        # wall time of the closed-loop (throughput) phase
    phase_predictions: int = 0  # predictions completed in that phase
    setup_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    writes: list[tuple[int, int, float]] = field(default_factory=list)
    failed_ops: int = 0         # writes or calls that raised
    rejected: int = 0           # OverloadedError at submit
    late_s: list[float] = field(default_factory=list)
    queue_wait_s: list[float] = field(default_factory=list)
    batcher_stats: dict = field(default_factory=dict)
    timed_window: tuple[float, float] = (0.0, 0.0)
    service_health: tuple[dict, dict] = ({}, {})
    model_stats: dict = field(default_factory=dict)
    offline: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    exhausted: bool = False     # the plan ran out before the time did

    @property
    def timed_wall_s(self) -> float:
        return self.timed_window[1] - self.timed_window[0]


def make_data(workload: str, seconds: float, *, smoke: bool = False) -> GivenNSplit:
    """The workload's rating corpus and Given10 split (fixed, see CORPUS_SEED)."""
    geo = (SMOKE_GEOMETRY if smoke else GEOMETRY)[workload]
    n_active = geo.n_active or max(50, int(geo.active_per_second * seconds))
    # make_movielens_like directly: never default_dataset's probe for a real file.
    ratings = make_movielens_like(
        SyntheticConfig(n_users=geo.n_train + n_active), seed=CORPUS_SEED
    ).ratings
    return make_split(
        ratings, n_train_users=geo.n_train, given_n=GIVEN_N, n_test_users=n_active,
        seed=CORPUS_SEED,
    )


def geometry_info(workload: str, split: GivenNSplit, seconds: float, smoke: bool) -> dict:
    geo = (SMOKE_GEOMETRY if smoke else GEOMETRY)[workload]
    return {
        "n_train": split.train.n_users,
        "n_items": split.train.n_items,
        "n_active": split.given.n_users,
        "given_n": GIVEN_N,
        "slate": geo.slate,
        "heldout_targets": split.heldout.n_ratings,
        "seconds": seconds,
        "setups": geo.setups,
        "open_loop_rps": OPEN_LOOP_RPS if workload == "warm-pairs" else None,
        "closed_loop_clients": n_clients() if workload == "warm-pairs" else 1,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def n_clients() -> int:
    return max(1, min(2, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def _build_front(workload: str, model: CFSF, given: RatingMatrix):
    service = PredictionService(model)
    if workload != "warm-pairs":
        return service, None
    batcher = MicroBatcher(service)
    for user in range(given.n_users):
        model.active_user_state(given, user)
    # Two pipelines' worth of (user, given item) requests, so concurrent
    # dispatch builds its lazy per-worker state now, not in the timed
    # phase.  Timed pairs are held-out items, never these.
    users = np.arange(2 * PIPELINE) % given.n_users
    items = [int(given.user_profile(int(u))[0][0]) for u in users]
    for future in [batcher.submit(given, int(u), i) for u, i in zip(users, items)]:
        future.result(timeout=60)
    return service, batcher


def setup(workload: str, split: GivenNSplit, n_setups: int):
    """Fit and build the serving front *n_setups* times; keep the last.

    Returns ``(model, service, batcher, blob, times)``.  ``blob`` pickles
    the last model straight after ``fit``, before any request or warm-up
    touched its caches; pickling is not timed.
    """
    times = []
    for run in range(n_setups):
        last = run == n_setups - 1
        t0 = time.perf_counter()
        model = CFSF().fit(split.train)
        t1 = time.perf_counter()
        blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL) if last else None
        t2 = time.perf_counter()
        service, batcher = _build_front(workload, model, split.given)
        t3 = time.perf_counter()
        times.append((t1 - t0) + (t3 - t2))
        if not last:
            if batcher is not None:
                batcher.close()
            del model, service, batcher
            gc.collect()
    return model, service, batcher, blob, times


def retained_mb(workload: str, blob: bytes, given: RatingMatrix) -> float:
    """MiB that a model unpickled from *blob* and its serving front, built
    as set-up builds it, hold once built (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = pickle.loads(blob)
        service, batcher = _build_front(workload, model, given)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    if batcher is not None:
        batcher.close(timeout=60)
    return (after - before) / MiB


# ----------------------------------------------------------------------
# Timed phases
# ----------------------------------------------------------------------
# Each workload's requests are planned from the seed before set-up's heap
# is frozen (see run), as NumPy arrays the collector never walks.
def plan_warm_pairs(split: GivenNSplit, rng, seconds: float):
    """Shuffled held-out pairs and the open loop's Poisson due times."""
    users, items, truth = split.targets_arrays()
    order = rng.permutation(users.size)
    open_s = OPEN_LOOP_SHARE * seconds
    due = np.cumsum(rng.exponential(1.0 / OPEN_LOOP_RPS,
                                    size=int(OPEN_LOOP_RPS * open_s * 1.5) + 16))
    due = due[: min(int(np.searchsorted(due, open_s)), users.size // 2)]
    return users[order], items[order], truth[order], due, seconds - open_s


def _batched_failed(res) -> bool:
    return res.fallback_level > 0 or res.degraded


class _Sink:
    """Per-request outcomes of submitted futures, filled by done-callbacks.

    The harness keeps no future alive after it completes: retained
    futures would grow the heap the garbage collector walks, and its
    pauses would show up as the benchmark's own latency.
    """

    def __init__(self, n: int) -> None:
        self.done = np.full(n, np.nan)
        self.values = np.full(n, np.nan)
        self.queue_wait = np.full(n, np.nan)
        self.failed = np.zeros(n, dtype=bool)
        self.submitted = 0
        self._completed = 0
        self._cond = threading.Condition()

    def submit(self, batcher, given, user: int, item: int, i: int, out: Outcome):
        """Submit request *i*; returns its future, or None when refused."""
        with self._cond:
            self.submitted += 1
        try:
            future = batcher.submit(given, user, item)
        except OverloadedError:
            self.failed[i] = True
            with self._cond:
                out.rejected += 1
                self._completed += 1
                self._cond.notify_all()
            return None
        future.add_done_callback(lambda f: self._record(i, f))
        return future

    def _record(self, i: int, future) -> None:
        self.done[i] = time.perf_counter()
        try:
            res = future.result()
        except Exception:  # noqa: BLE001 - every raised request counts as failed
            self.failed[i] = True
        else:
            self.values[i] = res.value
            self.queue_wait[i] = res.queue_wait
            self.failed[i] = _batched_failed(res)
        with self._cond:
            self._completed += 1
            self._cond.notify_all()

    def wait(self, timeout: float = 120.0) -> None:
        with self._cond:
            if not self._cond.wait_for(lambda: self._completed == self.submitted, timeout):
                raise RuntimeError("submitted requests did not complete")


def run_warm_pairs(split, batcher, plan) -> Outcome:
    users, items, truth, due, closed_s = plan
    given = split.given
    out = Outcome()

    # Open loop: requests sent at their due times whatever the backlog;
    # each is timed from its due time.
    n_open = due.size
    sink = _Sink(n_open)
    stats0 = batcher.stats()
    t_begin = time.perf_counter()
    due = t_begin + 0.002 + due
    late = np.empty(n_open)
    for i in range(n_open):
        now = time.perf_counter()
        if due[i] > now:
            time.sleep(due[i] - now)
            now = time.perf_counter()
        late[i] = now - due[i]
        sink.submit(batcher, given, int(users[i]), int(items[i]), i, out)
    sink.wait()
    lat = sink.done - due
    out.latencies_s = lat[~np.isnan(lat)].tolist()
    out.late_s = late.tolist()
    out.queue_wait_s = sink.queue_wait[~np.isnan(sink.queue_wait)].tolist()
    out.served.add(users[:n_open], items[:n_open], sink.values, truth[:n_open], sink.failed, 0)

    # Closed loop: pipelining clients over the remaining pairs.
    rest = slice(n_open, users.size)
    c_users, c_items, c_truth = users[rest], items[rest], truth[rest]
    sink = _Sink(c_users.size)
    cursor = iter(range(0, c_users.size, PIPELINE))
    lock = threading.Lock()
    stop_at = [0.0]
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_clients() + 1)

    def client():
        barrier.wait()
        try:
            while time.perf_counter() < stop_at[0]:
                with lock:
                    start = next(cursor, None)
                if start is None:
                    return
                window = [
                    sink.submit(batcher, given, int(c_users[j]), int(c_items[j]), j, out)
                    for j in range(start, min(start + PIPELINE, c_users.size))
                ]
                for future in window:
                    if future is not None:
                        future.exception(timeout=60)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=client, daemon=True) for _ in range(n_clients())]
    for thread in threads:
        thread.start()
    t0 = time.perf_counter()
    stop_at[0] = t0 + closed_s
    barrier.wait()
    for thread in threads:
        thread.join(timeout=120)
    sink.wait()
    t1 = time.perf_counter()
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("closed-loop clients did not finish")
    # Windows are taken in order and every taken window completes.
    n = sink.submitted
    out.exhausted = n == c_users.size
    out.phase_s = t1 - t0
    out.phase_predictions = int(np.count_nonzero(~sink.failed[:n]))
    out.queue_wait_s += sink.queue_wait[:n][~np.isnan(sink.queue_wait[:n])].tolist()
    out.served.add(c_users[:n], c_items[:n], sink.values[:n], c_truth[:n], sink.failed[:n], 0)
    out.timed_window = (t_begin, t1)
    stats1 = batcher.stats()
    out.batcher_stats = {k: stats1[k] - stats0[k] for k in
                         ("dispatched_batches", "dispatched_requests") if k in stats1}
    return out


def _serve_slate(service, given, users, items, out: Outcome):
    """One ``predict_many`` call; returns (values, failed flags)."""
    try:
        res = service.predict_many(given, users, items)
    except Exception:  # noqa: BLE001 - a raising call fails all its predictions
        out.failed_ops += 1
        return np.full(users.size, np.nan), np.ones(users.size, dtype=bool)
    # degraded covers fallback level > 0, invalid, sanitised and
    # deadline-deferred requests.
    return res.predictions, res.degraded


def plan_cold_slates(split: GivenNSplit, rng, slate: int):
    """Every active user once, in seeded order, each with a held-out slate."""
    order = rng.permutation(split.given.n_users)
    items = np.stack([
        np.sort(rng.choice(np.nonzero(split.heldout.mask[u])[0], size=slate, replace=False))
        for u in order
    ])
    return order, items, split.heldout.values[order[:, None], items]


def run_cold_slates(split, service, plan, seconds: float) -> Outcome:
    given = split.given
    order, slates, truths = plan
    out = Outcome()
    t0 = time.perf_counter()
    stop_at = t0 + seconds
    for user, items, truth in zip(order.tolist(), slates, truths):
        if time.perf_counter() >= stop_at:
            break
        users = np.full(items.size, user, dtype=np.intp)
        s = time.perf_counter()
        values, failed = _serve_slate(service, given, users, items, out)
        out.latencies_s.append(time.perf_counter() - s)
        out.served.add(users, items, values, truth, failed, 0)
    t1 = time.perf_counter()
    out.phase_s = t1 - t0
    out.phase_predictions = int(np.count_nonzero(~np.asarray(out.served.failed)))
    out.timed_window = (t0, t1)
    out.exhausted = t1 < stop_at
    return out


def plan_profile_writes(split: GivenNSplit, rng, n_ops: int, slate: int):
    """Reads and writes, as arrays ``(user, items, rating)`` per op.

    A read (``rating`` NaN) shows *items*, a slate of the user's held-out
    items; with probability ``REFRESH_P`` it re-shows the previous read's
    slate, as a page refresh does.  Every ``WRITE_EVERY``-th op is a
    write by the user last read (``items[0]`` rated ``rating``): it
    reveals a held-out rating never shown in slates, or re-rates an item
    the profile holds to another value.
    """
    lo, hi = split.given.rating_scale
    scale = np.arange(lo, hi + 1.0)
    n = split.given.n_users
    shown, revealable = [], []
    for u in range(n):
        held = rng.permutation(np.nonzero(split.heldout.mask[u])[0])
        revealable.append(held[: held.size // 3].tolist())
        shown.append(held[held.size // 3:])
    rated = [dict(zip(*map(np.ndarray.tolist, split.given.user_profile(u)))) for u in range(n)]
    op_user = np.empty(n_ops, dtype=np.intp)
    op_items = np.zeros((n_ops, slate), dtype=np.intp)
    op_rating = np.full(n_ops, np.nan)
    user, items = int(rng.integers(n)), None
    for k in range(n_ops):
        if k % WRITE_EVERY == WRITE_EVERY - 1:
            if revealable[user] and rng.random() < 0.5:
                item = revealable[user].pop()
                rating = float(split.heldout.values[user, item])
            else:
                item = int(rng.choice(list(rated[user])))
                rating = float(rng.choice(scale[scale != rated[user][item]]))
            rated[user][item] = rating
            op_user[k], op_items[k, 0], op_rating[k] = user, item, rating
            continue
        if items is None or rng.random() >= REFRESH_P:
            user = int(rng.integers(n))
            items = np.sort(rng.choice(shown[user], size=slate, replace=False))
        op_user[k], op_items[k] = user, items
    return op_user, op_items, op_rating, split.heldout.values[op_user[:, None], op_items]


def run_profile_writes(split, service, plan, seconds: float) -> Outcome:
    op_user, op_items, op_rating, op_truth = plan
    given = split.given
    out = Outcome()
    version = 0
    t0 = time.perf_counter()
    stop_at = t0 + seconds
    for k in range(op_user.size):
        if time.perf_counter() >= stop_at:
            break
        user, items = int(op_user[k]), op_items[k]
        if not np.isnan(op_rating[k]):
            write = (user, int(items[0]), float(op_rating[k]))
            s = time.perf_counter()
            try:
                given = given.with_ratings([write])
            except Exception:  # noqa: BLE001 - a failed write is counted, reads go on
                out.failed_ops += 1
                continue
            out.write_s.append(time.perf_counter() - s)
            out.writes.append(write)
            version += 1
            continue
        users = np.full(items.size, user, dtype=np.intp)
        s = time.perf_counter()
        values, failed = _serve_slate(service, given, users, items, out)
        out.latencies_s.append(time.perf_counter() - s)
        out.served.add(users, items, values, op_truth[k], failed, version)
    t1 = time.perf_counter()
    out.phase_s = t1 - t0
    out.phase_predictions = int(np.count_nonzero(~np.asarray(out.served.failed)))
    out.timed_window = (t0, t1)
    return out


def write_probe(given: RatingMatrix, rng) -> list[float]:
    """Time single-rating profile writes on *given* for ``WRITE_PROBE_S``."""
    times = []
    stop_at = time.perf_counter() + WRITE_PROBE_S
    while len(times) < 5 or time.perf_counter() < stop_at:
        user = int(rng.integers(given.n_users))
        item = int(rng.integers(given.n_items))
        s = time.perf_counter()
        given.with_ratings([(user, item, 3.0)])
        times.append(time.perf_counter() - s)
    return times


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_against_reference(blob: bytes, given0: RatingMatrix, writes, served: Served):
    """Per-prediction mismatch flags against fresh unpickled model copies.

    Versions are replayed in order from *given0* with the same writes;
    each version (and each ``REFERENCE_USERS`` users within it) gets its
    own freshly unpickled model, so no cache can carry answers across.
    Unanswered (NaN) predictions are already failures and are skipped.
    """
    users = np.asarray(served.users, dtype=np.intp)
    items = np.asarray(served.items, dtype=np.intp)
    values = np.asarray(served.values, dtype=np.float64)
    version = np.asarray(served.version, dtype=np.intp)
    mismatch = np.zeros(users.size, dtype=bool)
    answered = ~np.isnan(values)
    given = given0
    n_versions = int(version.max()) + 1 if version.size else 0
    for v in range(n_versions):
        if v:
            given = given.with_ratings([writes[v - 1]])
        idx = np.nonzero((version == v) & answered)[0]
        if not idx.size:
            continue
        idx = idx[np.argsort(users[idx], kind="stable")]
        distinct = np.unique(users[idx])
        for lo in range(0, distinct.size, REFERENCE_USERS):
            chunk_users = distinct[lo : lo + REFERENCE_USERS]
            sel = idx[np.isin(users[idx], chunk_users)]
            reference = pickle.loads(blob)
            expect = reference.predict_many(given, users[sel], items[sel])
            mismatch[sel] = ~(np.abs(expect - values[sel]) <= TOL)
            del reference
    return mismatch


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def run(workload: str, seed: int, seconds: float, *, part: int = 0, smoke: bool = False,
        tracer=None) -> dict:
    """Set up, serve, verify one part.  Returns its raw measurements."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    geo = (SMOKE_GEOMETRY if smoke else GEOMETRY)[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), part])
    split = make_data(workload, seconds, smoke=smoke)
    info = geometry_info(workload, split, seconds, smoke)
    info.update(workload=workload, seed=seed, part=part, smoke=smoke)

    if tracer is not None:
        tracer.enabled = True
    model, service, batcher, blob, setup_times = setup(workload, split, geo.setups)
    offline = model.offline_summary()

    if workload == "warm-pairs":
        plan = plan_warm_pairs(split, rng, seconds)
    elif workload == "cold-slates":
        plan = plan_cold_slates(split, rng, geo.slate)
    else:
        plan = plan_profile_writes(split, rng, int(6000 * seconds) + 100, geo.slate)
    # Freeze what set-up built (interpreter, corpus, fitted model, plan)
    # out of the collector's reach, as a pre-fork server does: full
    # collections then walk only objects created while serving, so their
    # pauses reflect the serving path instead of the size of the harness.
    gc.collect()
    gc.freeze()
    health0 = service.health()
    if workload == "warm-pairs":
        out = run_warm_pairs(split, batcher, plan)
        late_p99_ms = 1e3 * percentile(out.late_s, 99)
        if late_p99_ms > LATE_LIMIT_MS:
            batcher.close(timeout=60)
            gc.unfreeze()
            raise InvalidRun(
                f"open-loop generator ran {late_p99_ms:.1f} ms late at p99 "
                f"(limit {LATE_LIMIT_MS} ms); the schedule was not kept"
            )
    elif workload == "cold-slates":
        out = run_cold_slates(split, service, plan, seconds)
    else:
        out = run_profile_writes(split, service, plan, seconds)
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.service_health = (health0, service.health())
    out.model_stats = model.cache_stats()
    out.offline = offline
    out.setup_s = setup_times
    if batcher is not None:
        batcher.close(timeout=60)
    gc.unfreeze()
    del model, service, batcher
    gc.collect()
    if tracer is not None:
        if workload != "profile-writes":
            # data.matrix is a layer of every workload's per-layer table,
            # though only profile-writes serves writes.
            out.write_s = write_probe(split.given, rng)
        tracer.enabled = False

    model_mb = retained_mb(workload, blob, split.given)
    mismatch = check_against_reference(blob, split.given, out.writes, out.served)
    return {"info": info, "outcome": out, "mismatch": mismatch, "model_mb": model_mb}


def summarize(result: dict) -> dict:
    """The raw, JSON-ready measurements of one part that metrics pool."""
    out: Outcome = result["outcome"]
    served = out.served
    failed = np.asarray(served.failed, dtype=bool) | result["mismatch"]
    values = np.asarray(served.values, dtype=np.float64)
    truth = np.asarray(served.truth, dtype=np.float64)
    ok = ~failed & ~np.isnan(values)
    return {
        "setup_s": out.setup_s,
        "model_mb": result["model_mb"],
        "peak_rss_mb": out.peak_rss_mb,
        "latencies_s": out.latencies_s,
        "write_s": out.write_s,
        "phase_s": out.phase_s,
        "phase_predictions": out.phase_predictions,
        "abs_error_sum": float(np.abs(values[ok] - truth[ok]).sum()),
        "abs_error_n": int(ok.sum()),
        "attempted": len(served.values) + len(out.writes) + out.failed_ops,
        "failed": int(failed.sum()) + out.failed_ops,
        "mismatches": int(result["mismatch"].sum()),
        "exhausted": out.exhausted,
    }


def end_to_end(parts: list[dict]) -> tuple[dict, int, int]:
    """``(metrics, attempted, failed)`` pooled over the parts of a run.

    A latency percentile is the median of the parts' own percentiles, so
    one part's scheduling stall does not set the run's tail.  Throughput
    is over the summed phases, MAE over every answered prediction,
    set-up time the median of every set-up, peak RSS the highest part's.
    """
    def pooled(key):
        return [x for p in parts for x in p[key]]

    def latency_ms(q):
        return 1e3 * statistics.median(percentile(p["latencies_s"], q) for p in parts)

    phase_s = sum(p["phase_s"] for p in parts)
    n_err = sum(p["abs_error_n"] for p in parts)
    metrics = {
        "setup_s": (statistics.median(pooled("setup_s")), "s"),
        "model_mb": (statistics.median(p["model_mb"] for p in parts), "MB"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in parts), "MB"),
        "latency_p50_ms": (latency_ms(50), "ms"),
        "latency_p99_ms": (latency_ms(99), "ms"),
        "throughput_rps": (sum(p["phase_predictions"] for p in parts) / phase_s
                           if phase_s else 0.0, "predictions/s"),
        "mae": (sum(p["abs_error_sum"] for p in parts) / n_err if n_err else 0.0, "rating"),
    }
    if pooled("write_s"):   # served writes: profile-writes only
        metrics["write_p50_ms"] = (1e3 * percentile(pooled("write_s"), 50), "ms")
    return (metrics, sum(p["attempted"] for p in parts), sum(p["failed"] for p in parts))
