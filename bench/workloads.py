"""The four benchmark workloads.

Each workload builds its inputs in ``setup`` from the workload seed, then
runs closed-loop passes over them: every operation starts when the previous
one returns, in one process and one thread. A pass has a build phase
(producing circuits from inputs) and a use phase (executing or searching
them); both are timed per operation, and every output is checked outside
the timed region.

Times are CPU time of the benchmark's thread (``time.thread_time``),
scaled to a fixed reference speed (see ``REFERENCE_S``). The library is
single-threaded and computes in memory, so for it CPU time and elapsed time
agree on a quiet machine; on a shared one, CPU time leaves out the time the
thread waited for a processor, which varies from run to run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import shutil
import signal
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import thread_time

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))

# Per-call CPU-time limits, in seconds at the reference speed (see below).
# At the seed commit every call that finishes takes less than 0.4 of its
# limit (the slowest are the p53 isomorphism, 0.09 s, and a k=4 synthesis,
# 0.0074 s) and every call that hits it would need more than 8 s, so the
# count of hits repeats exactly. A cut-off synthesis holds memory in
# proportion to how far it got; its limit is kept low so that this memory,
# which moves with the timer's 4 ms tick, stays small beside the rest of
# the workload's.
CALL_LIMIT_S = {"colimits.is_isomorphic": 0.6, "nanddag.synth_family": 0.02}


# The processor speed a thread gets on a shared host drifts: the same pass
# of the same work has taken from 1.0 to 1.9 CPU seconds within one run.
# Operation times are therefore scaled by a reference loop of plain Python
# (none of it in the library) timed between operations, every
# REFERENCE_EVERY_S CPU seconds of operations, and are reported in CPU
# seconds at the speed at which that loop takes REFERENCE_S, a fixed unit:
# on a 2-vCPU x86_64 VM with Python 3.11.7 the loop took from 0.5 to 1.4 ms,
# depending on the phase. A change to the library moves the scaled times as
# it moves the raw ones. The loop reads and writes a dict of 20,000 string
# keys in scattered order and allocates as it goes, so, like the library's
# circuits, its working set (about 2.5 MB, present in every process) is
# larger than a core's private caches; a loop that fits in them tracked the
# workloads' speed half as well.
REFERENCE_S = 0.001
REFERENCE_EVERY_S = 0.05
REFERENCE_WINDOW = 7
REFERENCE_KEYS = [str(i * 7919) for i in range(20_000)]
REFERENCE_TABLE = dict.fromkeys(REFERENCE_KEYS, 0)
REFERENCE_STEP = 10


def time_reference() -> float:
    """CPU seconds of one pass of the reference loop, with the collector held off.

    The loop frees what it allocates, so it leaves the collector's counts as
    it found them.
    """
    keys, table, n = REFERENCE_KEYS, REFERENCE_TABLE, len(REFERENCE_KEYS)
    enabled = gc.isenabled()
    gc.disable()
    acc = 0
    t0 = thread_time()
    for j in range(0, n, REFERENCE_STEP):
        k = keys[(j * 2654435761) % n]
        acc += table[k]
        table[k] = acc & 7
        acc += len([k, (j, acc)])
    dt = thread_time() - t0
    if enabled:
        gc.enable()
    return dt


class ReferenceSpeed:
    """How slowly the thread runs now, from reference loops timed between operations."""

    def __init__(self):
        self.samples: list[float] = []  # CPU seconds of each reference loop
        self.since_sample = REFERENCE_EVERY_S  # sample before the first operation

    def sample_if_due(self) -> None:
        if self.since_sample >= REFERENCE_EVERY_S:
            self.samples.append(time_reference())
            self.since_sample = 0.0

    def elapsed(self, raw: float) -> None:
        """Count ``raw`` CPU seconds of operations; after a long one, sample at once."""
        self.since_sample += raw
        if raw >= REFERENCE_EVERY_S:
            self.sample_if_due()

    def factor(self) -> float:
        """CPU seconds the thread needs now for one at the reference speed.

        The median of the last REFERENCE_WINDOW samples over REFERENCE_S; as
        :meth:`elapsed` samples after a long operation, that operation's
        window reaches past it.
        """
        return statistics.median(self.samples[-REFERENCE_WINDOW:]) / REFERENCE_S

    def run_factor(self) -> float:
        """:meth:`factor` over every sample so far, for totals of a whole run."""
        return statistics.median(self.samples) / REFERENCE_S

    def scale(self, raw: float) -> float:
        """CPU seconds ``raw`` of an operation that just ended, at the reference speed."""
        self.elapsed(raw)
        return raw / self.factor()


class LimitHit(Exception):
    pass


class Workload:
    name = ""
    why = ""

    def teardown(self, st) -> None:
        pass


@dataclass
class PassResult:
    build: dict = field(default_factory=dict)  # operation -> seconds, producing circuits
    use: dict = field(default_factory=dict)  # operation -> seconds, executing or searching them
    ops: int = 0  # the workload's unit of throughput (vectors, calls, seeded runs)
    run: dict = field(default_factory=dict)  # vector -> seconds inside dynamics.run
    steps: int = 0


class Meter:
    """Times operations, switches tracing on around them, and counts failures."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.limit_hits: dict[str, int] = {}
        self.limit_calls: set[str] = set()
        self.messages: list[str] = []
        self.speed = ReferenceSpeed()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    def call(self, fn, *args):
        """Run one operation; returns (result or None, seconds, error or None)."""
        self.speed.sample_if_due()
        result, raw, err = self._timed(fn, args)
        return result, self.speed.scale(raw), err

    def call_limited(self, label: str, kind: str, fn, *args):
        """Like :meth:`call`, under the per-call CPU-time limit.

        The limit is an interval timer on this process's CPU time whose
        signal handler raises :class:`LimitHit`; no thread or process is
        started. The limit is at the reference speed, so a call that hits it
        gets as far whatever the speed of the moment, and is charged at the
        limit.
        """
        armed = [True]

        def on_timer(signum, frame):
            if armed[0]:
                raise LimitHit()

        self.speed.sample_if_due()
        previous = signal.signal(signal.SIGPROF, on_timer)
        limit = CALL_LIMIT_S[kind]
        raw_limit = limit * self.speed.factor()
        signal.setitimer(signal.ITIMER_PROF, raw_limit)
        try:
            result, raw, err = self._timed(fn, args)
        except LimitHit as e:  # fired after the call returned, before the timer was disarmed
            result, raw, err = None, raw_limit, e
        finally:
            armed[0] = False
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        if isinstance(err, LimitHit):
            self.limit_hits[kind] = self.limit_hits.get(kind, 0) + 1
            self.limit_calls.add(label)
            self.speed.elapsed(raw_limit)
            if self.tracer is not None:  # the signal may have cut a wrapper short
                self.tracer.stack.clear()
                self.tracer.op_depth = 0
            return None, limit, err
        return result, self.speed.scale(raw), err

    def _timed(self, fn, args):
        """Run ``fn`` traced; returns (result or None, CPU seconds, error or None)."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op()
        t0 = thread_time()
        try:
            result = fn(*args)
        except Exception as e:  # an operation that raises counts as failed
            return None, thread_time() - t0, e
        finally:
            if tracer is not None:
                tracer.end_op()
        return result, thread_time() - t0, None


# ---------------------------------------------------------------------------
# netlist workloads


def oracle_vectors(lib, netlists, seed: int):
    """Expected answers for every sampled vector of every netlist.

    ``netlists`` holds ``(netlist, vectors)`` pairs, a vector being an
    integer whose bit j feeds the j-th input in sorted order. Returns the
    vectors as ``(netlist index, vector, bits, eval_dag answer, step bound,
    execution seed)``. The workload seed only draws the execution seeds: the
    order of the work stays fixed, because allocation order moves peak
    memory by a fifth on nand_large.
    """
    nd = lib.nanddag
    exec_seeds = random.Random(seed)
    vectors = []
    for i, (d, sample) in enumerate(netlists):
        ins = d.inputs()
        bound = nd.longest_gate_path(d) + 1
        for x in sample:
            bits = {n: (x >> j) & 1 for j, n in enumerate(ins)}
            vectors.append((i, x, bits, nd.eval_dag(d, bits), bound, exec_seeds.getrandbits(63)))
    return vectors


def time_oracle(lib, st, loops: int) -> dict:
    """Median ``eval_dag`` time of each vector over ``loops`` loops across all vectors.

    The unwrapped function is timed with tracing off, so tracing leaves the
    figure all but unchanged, and at the reference speed, like ``dynamics.run``.
    """
    eval_dag = getattr(lib.nanddag.eval_dag, "__wrapped__", lib.nanddag.eval_dag)
    speed = ReferenceSpeed()
    samples = {(i, x): [] for i, x, *_ in st["vectors"]}
    for _ in range(loops):
        for i, x, bits, *_ in st["vectors"]:
            d = st["dags"][i]
            speed.sample_if_due()
            t0 = thread_time()
            eval_dag(d, bits)
            samples[(i, x)].append(speed.scale(thread_time() - t0))
    return {key: statistics.median(times) for key, times in samples.items()}


def execute(lib, d, c, bits, exec_seed: int, write_trace: bool):
    """One vector: lift the bits, run, optionally write the JSONL trace, read back."""
    dyn = lib.dynamics
    init = lib.nanddag.lift_inputs(d, bits)
    t0 = thread_time()
    tr = dyn.run(c, init, dyn.ExecConfig(seed=exec_seed))
    run_s = thread_time() - t0
    text = lib.serialize.trace_to_jsonl(tr) if write_trace else None
    return tr, text, lib.nanddag.read_outputs(d, tr), run_s


def run_vectors(workload: str, lib, st, meter: Meter, res: PassResult, circuits: dict, write_trace: bool, digest: bool):
    """Execute and check every vector; with ``digest``, check the traces' digest too.

    The digest is the SHA-256 of the per-trace SHA-256 digests, in (netlist,
    vector) order.
    """
    digests = {}
    for i, x, bits, want, bound, exec_seed in st["vectors"]:
        if i not in circuits:
            continue
        out, dt, err = meter.call(execute, lib, *circuits[i], bits, exec_seed, write_trace)
        if not meter.check(err is None, f"netlist {i} vector {x}: {err!r}"):
            continue
        tr, text, got, run_s = out
        res.use[(i, x)] = dt
        res.run[(i, x)] = run_s / meter.speed.factor()
        res.steps += len(tr.steps) - 1
        res.ops += 1
        meter.check(
            tr.outcome is lib.dynamics.Outcome.FINAL and tr.final_state.time <= bound and got == want,
            f"netlist {i} vector {x}: {tr.outcome.value} at t={tr.final_state.time} (bound {bound}), {got} != {want}",
        )
        if digest:
            text = lib.serialize.trace_to_jsonl(tr) if text is None else text
            digests[(i, x)] = hashlib.sha256(text.encode("utf-8")).digest()
    if digest:
        got = hashlib.sha256(b"".join(digests[k] for k in sorted(digests))).hexdigest()
        want = EXPECTED.get(workload, {}).get("trace_sha256")
        st["digest"] = got
        meter.attempted += 1
        meter.check(got == want, f"{workload}: trace digest {got} != recorded {want}")


class NandSweep(Workload):
    name = "nand_sweep"
    why = (
        "200 tiny netlists, 3928 vectors: fixed per-vector cost in dynamics and nanddag dominates; "
        "bit-slicing shows here, linear-time import barely does"
    )
    NETLISTS = 200
    NETLIST_SEED = 2024  # the seed of scripts/netlist_equivalence_sweep.py

    def setup(self, lib, seed):
        gen = random.Random(self.NETLIST_SEED)
        dags = [lib.nanddag.random_dag(gen, max_inputs=6, max_gates=15) for _ in range(self.NETLISTS)]
        vectors = oracle_vectors(lib, [(d, range(2 ** len(d.inputs()))) for d in dags], seed)
        return {"dags": dags, "vectors": vectors}

    def run_pass(self, lib, st, meter: Meter, first: bool) -> PassResult:
        res = PassResult()
        circuits = {}
        for i, d in enumerate(st["dags"]):
            out, dt, err = meter.call(lib.nanddag.to_control, d)
            res.build[i] = dt
            if meter.check(err is None, f"to_control netlist {i}: {err!r}"):
                circuits[i] = (d, out.circuit)
        run_vectors(self.name, lib, st, meter, res, circuits, write_trace=False, digest=first)
        return res


def deep_netlist_doc(n_gates: int, n_inputs: int, gen: random.Random) -> str:
    """Netlist document: a spine of gates, each also fed by a side gate of two inputs.

    Gates have fan-out one, so depth comes from the spine: ``n_gates`` gates
    give a longest gate path of about ``n_gates / 2``.
    """
    inputs = [f"x{i}" for i in range(n_inputs)]
    nodes = {x: "input" for x in inputs}
    edges = [["x0", "g0"], ["x1", "g0"]]
    nodes["g0"] = "gate"
    spine, k = "g0", 1
    while k + 2 <= n_gates:
        side, nxt = f"g{k}", f"g{k + 1}"
        a, b = gen.sample(inputs, 2)
        nodes[side] = nodes[nxt] = "gate"
        edges += [[a, side], [b, side], [spine, nxt], [side, nxt]]
        spine, k = nxt, k + 2
    nodes["y0"] = "output"
    edges.append([spine, "y0"])
    return json.dumps({"nodes": nodes, "edges": sorted(edges)}, indent=2, sort_keys=True) + "\n"


class NandLarge(Workload):
    name = "nand_large"
    why = (
        "deep narrow netlists of 200-800 gates, few vectors: quadratic is_sound and enabled_units "
        "rescans dominate; linear-time import and execution show here"
    )
    GENERATOR_SEED = 20250628
    # (gates, inputs, sampled input vectors)
    NETLISTS = ((200, 2, (0, 1, 2, 3)), (400, 3, (0, 3, 5, 6)), (800, 3, (1, 6)))

    def setup(self, lib, seed):
        gen = random.Random(self.GENERATOR_SEED)
        docs = [deep_netlist_doc(gates, n_in, gen) for gates, n_in, _ in self.NETLISTS]
        netlists = [(lib.serialize.loads_dag(doc), sample) for doc, (_, _, sample) in zip(docs, self.NETLISTS)]
        vectors = oracle_vectors(lib, netlists, seed)
        return {"docs": docs, "dags": [d for d, _ in netlists], "vectors": vectors}

    @staticmethod
    def _import(lib, doc):
        """The import-nand trip: netlist document to circuit document and back."""
        ser = lib.serialize
        d = ser.loads_dag(doc)
        res = lib.nanddag.to_control(d)
        return d, res.circuit, ser.loads_circuit(ser.dumps_circuit(res.circuit))

    def run_pass(self, lib, st, meter: Meter, first: bool) -> PassResult:
        res = PassResult()
        circuits = {}
        for i, doc in enumerate(st["docs"]):
            out, dt, err = meter.call(self._import, lib, doc)
            res.build[i] = dt
            if meter.check(err is None, f"import netlist {i}: {err!r}"):
                d, direct, c = out
                meter.check(c == direct, f"netlist {i}: circuit document does not read back")
                circuits[i] = (d, c)
        run_vectors(self.name, lib, st, meter, res, circuits, write_trace=True, digest=True)
        return res


# ---------------------------------------------------------------------------
# compose_deep: construction and search, nothing executed


def inverter_chain(lib, n: int):
    inv = lib.fixtures.build_not
    acc, c_out, b_out = inv(), "v3", "v4"
    for _ in range(n - 1):
        r = lib.operators.sequence(acc, inv(), [(c_out, "v1"), (b_out, "v2")])
        acc, c_out, b_out = r.circuit, r.right_leg.f_v["v3"], r.right_leg.f_v["v4"]
    return acc


def inverter_row(lib, n: int):
    inv = lib.fixtures.build_not
    acc = inv()
    for _ in range(n - 1):
        acc = lib.operators.parallel(acc, inv())
    return acc


def buffer_loop(lib):
    """The head iteration of tests/test_operators.py: three buffers and an eater."""
    fx = lib.fixtures
    w = lib.operators.IterationWiring(
        entry=fx.build_buffer(),
        body=fx.build_buffer(),
        end=fx.build_buffer(),
        exit=fx.build_eater(1),
        head=(("c_out", "c_out", "c_in", "v1"), ("b_out", "b_out", "b_in", "v2")),
        tail=(("c_out", "c_in"), ("b_out", "b_in")),
    )
    return lib.operators.iterate_head(w).circuit


def colour_histograms(a, b, rounds: int = 6):
    """Colour-refinement histograms of two circuits over one shared palette.

    Isomorphic circuits get equal histograms, so unequal ones prove that a
    pair is not isomorphic without calling the search under test.
    """
    palette: dict = {}

    def initial(c):
        vc = {v: (t.value,) for v, t in c.var_types.items()}
        return vc, {u: () for u in c.units}

    cols = [initial(a), initial(b)]
    for _ in range(rounds):
        nxt = []
        for c, (vc, uc) in zip((a, b), cols):
            ins = {u: [] for u in c.units}
            outs = {u: [] for u in c.units}
            prod = {v: [] for v in c.var_types}
            cons = {v: [] for v in c.var_types}
            for f in c.in_flows.values():
                ins[f.dst].append(vc[f.src])
                cons[f.src].append(uc[f.dst])
            for f in c.out_flows.values():
                outs[f.src].append(vc[f.dst])
                prod[f.dst].append(uc[f.src])
            nvc = {v: palette.setdefault(("v", vc[v], tuple(sorted(prod[v])), tuple(sorted(cons[v]))), len(palette)) for v in vc}
            nuc = {u: palette.setdefault(("u", uc[u], tuple(sorted(ins[u])), tuple(sorted(outs[u]))), len(palette)) for u in uc}
            nxt.append((nvc, nuc))
        cols = nxt
    return [sorted(vc.values()) + sorted(uc.values()) for vc, uc in cols]


def _all_tables(k: int):
    return [[(t >> row) & 1 for row in range(2**k)] for t in range(2 ** (2**k))]


SYNTH_TABLES = (
    [(0, t) for t in _all_tables(0)]
    + [(1, t) for t in _all_tables(1)]
    + [(2, t) for t in _all_tables(2)]
    + [
        (3, [0, 0, 0, 0, 0, 0, 0, 1]),
        (3, [1, 0, 0, 0, 0, 0, 0, 0]),
        (3, [0, 1, 0, 0, 0, 0, 1, 0]),
        (3, [0, 0, 0, 1, 1, 0, 0, 0]),
        (4, [0] * 15 + [1]),
        (4, [1] + [0] * 15),
        (4, [0, 1] + [0] * 13 + [1]),
        (4, [0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0]),
        (4, [0] + [1] * 15),  # all ones but one: doubly exponential at the seed
    ]
)


class ComposeDeep(Workload):
    name = "compose_deep"
    why = (
        "deep chains, a wide parallel, every fixture and a head iteration, then isomorphism and synthesis: "
        "pushout, validation and search dominate, dynamics is absent"
    )
    ISO_NETLIST_SEED = 61  # random_dag(Random(61), 6, 16): 16 gates, 88 variables and units
    # random_dag(Random(s), 4, 8) pairs with equal element counts and signatures
    NON_ISO_PAIRS = ((1003, 1049), (1003, 1079), (1003, 1215), (1004, 1173))

    def setup(self, lib, seed):
        nd = lib.nanddag
        netlist = nd.to_control(nd.random_dag(random.Random(self.ISO_NETLIST_SEED), 6, 16)).circuit
        pairs = []
        for s1, s2 in self.NON_ISO_PAIRS:
            a = nd.to_control(nd.random_dag(random.Random(s1), 4, 8)).circuit
            b = nd.to_control(nd.random_dag(random.Random(s2), 4, 8)).circuit
            ha, hb = colour_histograms(a, b)
            if ha == hb:
                raise RuntimeError(f"pair {s1}/{s2} is not provably non-isomorphic")
            pairs.append((f"{s1}/{s2}", a, b))
        builds = [
            ("chain50", lambda: inverter_chain(lib, 50), 50),
            ("chain100", lambda: inverter_chain(lib, 100), 100),
            ("chain200", lambda: inverter_chain(lib, 200), 200),
            ("chain10", lambda: inverter_chain(lib, 10), 10),
            ("chain12", lambda: inverter_chain(lib, 12), 12),
            ("row100", lambda: inverter_row(lib, 100), 100),
            ("buffer_loop", lambda: buffer_loop(lib), None),
        ]
        builds += [(f"fixture:{name}", builder, None) for name, builder in lib.fixtures.REGISTRY.items()]
        iso_subjects = ["chain10", "chain12", "row100", "buffer_loop", "netlist16"]
        iso_subjects += [f"fixture:{name}" for name in lib.fixtures.REGISTRY]
        order = random.Random(seed)
        order.shuffle(builds)
        order.shuffle(iso_subjects)
        searches = [("iso", name) for name in iso_subjects] + [("noniso", p) for p in pairs]
        order.shuffle(searches)
        return {
            "netlist": netlist,
            "builds": builds,
            "iso_subjects": iso_subjects,
            "searches": searches,
            "tables": SYNTH_TABLES,
            "members": {},
        }

    def run_pass(self, lib, st, meter: Meter, first: bool) -> PassResult:
        res = PassResult()
        # Synthesis runs first, in a fixed order, on the heap the previous
        # pass left behind. The memory a cut-off synthesis holds moves with
        # the limit timer's 4 ms tick; held while the pass's circuits are
        # alive, it set the peak and spread it by a twentieth between runs.
        for k, table in st["tables"]:
            self._synth(lib, st, meter, res, k, table)
        model = lib.model
        circuits = {"netlist16": st["netlist"]}
        for name, build, units in st["builds"]:
            c, dt, err = meter.call(build)
            res.build[name] = dt
            res.ops += 1
            if meter.check(err is None, f"build {name}: {err!r}"):
                circuits[name] = c
                meter.check(not model.circuit_violations(c), f"{name}: {model.circuit_violations(c)}")
                if units is not None:
                    meter.check(len(c.units) == units, f"{name}: {len(c.units)} units, expected {units}")
        copies = {}
        for name in st["iso_subjects"]:
            if name not in circuits:
                continue
            out, dt, err = meter.call(model.relabel, circuits[name])
            res.build[f"relabel:{name}"] = dt
            res.ops += 1
            if meter.check(err is None, f"relabel {name}: {err!r}"):
                copies[name] = out[0]
                meter.check(not model.circuit_violations(out[0]), f"relabelled {name} is invalid")
        for kind, item in st["searches"]:
            if kind == "iso":
                label, a, b = f"is_isomorphic({item}, relabel({item}))", circuits.get(item), copies.get(item)
                if a is None or b is None:
                    continue
            else:
                label, a, b = f"is_isomorphic(pair {item[0]})", item[1], item[2]
            w, dt, err = meter.call_limited(label, "colimits.is_isomorphic", lib.colimits.is_isomorphic, a, b)
            res.use[label] = dt
            res.ops += 1
            if isinstance(err, LimitHit):
                continue
            if not meter.check(err is None, f"{label}: {err!r}"):
                continue
            if kind == "noniso":
                meter.check(w is None, f"{label}: returned a witness for a non-isomorphic pair")
            elif meter.check(w is not None, f"{label}: no witness"):
                meter.check(_is_iso_witness(lib, w, a, b), f"{label}: witness fails validation")
        return res

    def _synth(self, lib, st, meter, res, k, table):
        label = f"synth_family(k={k}, table={''.join(map(str, table))})"
        fam, dt, err = meter.call_limited(label, "nanddag.synth_family", lib.nanddag.synth_family, {k: table})
        res.use[label] = dt
        res.ops += 1
        if isinstance(err, LimitHit) or not meter.check(err is None, f"{label}: {err!r}"):
            return
        member = fam.members[k]
        doc = lib.serialize.dumps_circuit(member.circuit)
        if label not in st["members"]:
            rows_ok = all(
                member.evaluate([(row >> i) & 1 for i in range(k)]) == table[row] for row in range(2**k)
            )
            meter.check(rows_ok, f"{label}: a row evaluates wrongly")
            st["members"][label] = doc
        else:
            meter.check(doc == st["members"][label], f"{label}: differs from the checked member")


def _is_iso_witness(lib, w, a, b) -> bool:
    try:
        lib.morphisms.validate_morphism(a, b, w.f_v, w.f_u, w.f_i, w.f_o)
    except Exception:
        return False
    return (
        len(set(w.f_v.values())) == len(b.var_types)
        and len(set(w.f_u.values())) == len(b.units)
        and len(set(w.f_i.values())) == len(b.in_flows)
        and len(set(w.f_o.values())) == len(b.out_flows)
        and len(a.var_types) == len(b.var_types)
    )


# ---------------------------------------------------------------------------
# fixture_exec: the command line as users drive it


class FixtureExec(Workload):
    name = "fixture_exec"
    why = (
        "ctrlcirc fixtures emit of every fixture, exec --runs 1000 on p53 and flipflop: competing groups draw "
        "from the RNG and a loop re-enables units; cli and serialize are measured"
    )
    RUNS = 1000
    INPUTS = {
        "p53": {"ctrl_in": "*", "p53_in": 1, "mdm2_in": 0},
        "flipflop": {"ctrl_in": "*", "r_in": 0, "q_in": 1, "s_in": 0},
    }
    MAX_STEPS = {"p53": 10_000, "flipflop": 600}

    def setup(self, lib, seed):
        OUT_DIR.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="fixture_exec-", dir=OUT_DIR))
        docs = {name: lib.serialize.dumps_circuit(build()) for name, build in sorted(lib.fixtures.REGISTRY.items())}
        emits = [(name, ["fixtures", "emit", name, "--out", str(tmp / f"{name}.circuit")]) for name in docs]
        for name, inputs in self.INPUTS.items():
            (tmp / f"{name}.json").write_text(json.dumps(inputs), encoding="utf-8")
        base = seed * self.RUNS
        execs = []
        for name in ("p53", "flipflop"):
            circuit, inputs = str(tmp / f"{name}.circuit"), str(tmp / f"{name}.json")
            common = [
                "exec", circuit, "--inputs", inputs, "--seed", str(base),
                "--max-steps", str(self.MAX_STEPS[name]), "--expect-final", "--format", "json-lines",
            ]
            execs.append((name, "runs", common + ["--runs", str(self.RUNS)]))
            execs.append((name, "trace", common + ["--trace", str(tmp / f"{name}.trace.jsonl")]))
        alternatives = {frozenset(units) for units in lib.fixtures.build_p53().alternatives.values()}
        return {"tmp": tmp, "docs": docs, "emits": emits, "execs": execs, "alternatives": alternatives}

    @staticmethod
    def _cli(lib, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(argv)
        return code, out.getvalue()

    def run_pass(self, lib, st, meter: Meter, first: bool) -> PassResult:
        res = PassResult()
        for name, argv in st["emits"]:
            out, dt, err = meter.call(self._cli, lib, argv)
            res.build[name] = dt
            if meter.check(err is None and out[0] == 0, f"fixtures emit {name}: {err!r} {out}"):
                text = Path(argv[-1]).read_text(encoding="utf-8")
                meter.check(text == st["docs"][name], f"fixtures emit {name}: document differs")
        for name, mode, argv in st["execs"]:
            out, dt, err = meter.call(self._cli, lib, argv)
            res.use[(name, mode)] = dt
            if not meter.check(err is None and out[0] == 0, f"exec {name} {mode}: {err!r} {out and out[0]}"):
                continue
            payload = json.loads(out[1].strip().splitlines()[-1])
            if mode == "runs":
                res.ops += self.RUNS
                ok = payload["runs"] == self.RUNS and payload["outcomes"] == {"final": self.RUNS}
                if name == "p53":
                    sets = payload["fired_unit_sets"]
                    ok = ok and sum(s["count"] for s in sets) == self.RUNS
                    ok = ok and all(frozenset(s["units"]) in st["alternatives"] for s in sets)
                meter.check(ok, f"exec {name} --runs: {payload}")
            else:
                res.ops += 1
                lines = [json.loads(line) for line in Path(argv[argv.index("--trace") + 1]).read_text().splitlines()]
                ok = payload["outcome"] == "final" and lines[-1] == {"outcome": "final"}
                if name == "p53":
                    fired = frozenset(u for rec in lines[:-1] for u in rec["ready"])
                    ok = ok and fired in st["alternatives"]
                meter.check(ok, f"exec {name} --trace: {payload['outcome']}")
        return res

    def teardown(self, st) -> None:
        shutil.rmtree(st["tmp"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (NandSweep(), NandLarge(), ComposeDeep(), FixtureExec())}
