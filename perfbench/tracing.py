"""Spans around the calls into gf2synth's modules, and per-layer metrics.

``Tracer.install`` replaces, for one child interpreter, the module-level
names that ``gf2synth.cli``, ``gf2synth.inverters``, ``gf2synth.fields`` and
``gf2synth.circuits`` look up at run time with wrappers that record a span
(name, start, end, parent, job, work count, extra count, RSS high-water).
Generators are drained in chunks inside the span so that generating gates
is timed apart from whoever consumes them. ``Circuit.__post_init__`` (the
single place a ``Circuit`` is validated) is wrapped on the class. Spans
stay in memory; the child writes them out once, when its jobs are done.

``layer_metrics`` turns spans into per-layer self times, counts, ratios
(each next to its base) and RSS high-water marks. A span's self time is its
duration minus that of its direct children, so self times partition the
traced time. The child's own root spans (``bench.setup``, ``bench.job``)
belong to no layer: their self time is time that no wrapped gf2synth
function claims, reported as ``trace.unattributed_s`` and left out of
``trace.coverage``. Probe spans (``host.probe``) belong to no layer either.
"""

from __future__ import annotations

import resource
import time
from itertools import chain, islice

LAYERS = ("fields", "gf2poly", "multipliers", "inverters", "circuits", "cli")
CHUNK = 1 << 12  # gates or lines drawn from a generator per span

NAME, START, END, PARENT, JOB, COUNT, EXTRA = range(7)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = "setup"
        self.generated = 0  # gates drawn from inverter_gates so far
        self.batch = 0  # patterns in the most recently packed batch
        self.high_kb = _maxrss_kb()
        self.raised_kb: dict[str, int] = {}  # layer -> high-water it raised last

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, 0, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, count: int = 0, extra: int = 0) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[COUNT] = count
        span[EXTRA] = extra
        self.stack.pop()
        rss = _maxrss_kb()
        if rss > self.high_kb:
            self.high_kb = rss
            self.raised_kb[span[NAME].split(".", 1)[0]] = rss

    # -- wrappers ---------------------------------------------------------

    def call(self, name, fn, count=None):
        """Span around a call; ``count(result, args)`` gives its work count."""

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            n = 0
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    n = count(out, args)
                return out
            finally:
                self.close(idx, n)

        return wrapper

    def chunked(self, name, gen_fn, size=None, on_chunk=None):
        """Drain a generator in chunks, one span per chunk.

        The consumer iterates the chunks through ``chain``, which hands out
        items in C, so tracing adds little per item.
        """

        def chunks(it):
            while True:
                idx = self.open(name)
                chunk = list(islice(it, CHUNK))
                self.close(idx, len(chunk), size(chunk) if size else 0)
                if on_chunk is not None:
                    on_chunk(len(chunk))
                if not chunk:
                    return
                yield chunk

        def wrapper(*args, **kwargs):
            return chain.from_iterable(chunks(gen_fn(*args, **kwargs)))

        return wrapper

    def install(self):
        """Wrap the public names gf2synth's modules call each other through,
        and the entry points the child calls: ``cli.main``, ``check_bounds``
        and the ``FieldSpec`` factories."""
        import gf2synth
        from gf2synth import circuits, cli, fields, inverters, multipliers

        modules = (cli, inverters, fields, multipliers, circuits)

        def patch(obj_name, wrapper_for):
            """Wrap a fields function in every module that imported it."""
            original = getattr(fields, obj_name)
            wrapped = wrapper_for(original)
            for mod in modules:
                if getattr(mod, obj_name, None) is original:
                    setattr(mod, obj_name, wrapped)

        one = lambda out, args: 1  # noqa: E731
        n_gates = lambda out, args: len(out.gates)  # noqa: E731

        # Parameter search: the normal-basis factories wherever they are looked
        # up, plus the CLI's own spec and support checks. The ghost-bit support
        # check inside fields is left alone: every ghost-bit oracle call runs it.
        for fn in ("find_gnb_type", "make_gnb_params", "validate_gnb_params"):
            patch(fn, lambda f: self.call("fields.params", f, one))
        for fn in ("_spec_from_args", "check_ghost_bit_support"):
            setattr(cli, fn, self.call("fields.params", getattr(cli, fn), one))
        for fn in ("gnb", "ghost_bit"):
            factory = getattr(fields.FieldSpec, fn).__func__
            setattr(fields.FieldSpec, fn, classmethod(self.call("fields.params", factory, one)))
        for fn in ("gnb_mult", "gbb_mult", "gnb_frobenius", "gbb_frobenius", "poly_inverse", "phi_retract"):
            patch(fn, lambda f: self.call("fields.oracle", f, one))
        fields.gf2_inv_mod = self.call("gf2poly.inverse", fields.gf2_inv_mod, one)

        for fn in ("synth_add", "synth_gbb_mult", "synth_gnb_mult", "synth_gbb_self_mult", "synth_gnb_self_mult"):
            setattr(cli, fn, self.call("multipliers.synth", getattr(cli, fn), n_gates))
        cli.synth_inverter = self.call("inverters.synth", cli.synth_inverter, n_gates)

        def drew(n):
            self.generated += n

        gen = self.chunked("inverters.generate", inverters.inverter_gates, on_chunk=drew)
        inverters.inverter_gates = cli.inverter_gates = gen

        measure = self.call("circuits.measure", circuits.measure_stream, lambda out, a: out.gate_count)
        circuits.measure_stream = inverters.measure_stream = cli.measure_stream = measure

        validate = circuits.Circuit.__post_init__

        def post_init(c):
            idx = self.open("circuits.validate")
            try:
                validate(c)
            finally:
                self.close(idx, len(c.gates) if hasattr(c.gates, "__len__") else 0)

        circuits.Circuit.__post_init__ = post_init

        cli.emit_lines = self.chunked(
            "circuits.emit", cli.emit_lines, size=lambda ls: sum(map(len, ls)) + len(ls)
        )
        cli.parse = self.call("circuits.parse", cli.parse, lambda out, a: a[0].count("\n"))

        run_packed = cli.run_packed

        def simulate(gates, state):
            idx = self.open("circuits.simulate")
            before = self.generated
            try:
                return run_packed(gates, state)
            finally:
                ops = len(gates) if hasattr(gates, "__len__") else self.generated - before
                self.close(idx, ops, self.batch)

        cli.run_packed = simulate

        pack = cli._pack_patterns

        def pack_patterns(*args):
            idx = self.open("cli.pack")
            try:
                state, count = pack(*args)
                self.batch = count
                return state, count
            finally:
                self.close(idx, self.batch)

        cli._pack_patterns = pack_patterns
        cli.verify_kind = self.call("cli.verify", cli.verify_kind)
        cli.main = self.call("cli.main", cli.main)
        bounds = self.call("inverters.check_bounds", inverters.check_bounds)
        gf2synth.check_bounds = inverters.check_bounds = bounds
        cli.cmd_synth = self.call("cli.synth_cmd", cli.cmd_synth)
        cli.cmd_verify = self.call("cli.verify_cmd", cli.cmd_verify)

        tracer = self

        class TimedReader:
            """File opened for reading whose ``read`` is a cli.read span."""

            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def read(self, *args):
                idx = tracer.open("cli.read")
                data = ""
                try:
                    data = self._fh.read(*args)
                    return data
                finally:
                    tracer.close(idx, len(data))

        def traced_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            return TimedReader(fh) if "r" in mode else fh

        cli.open = traced_open


def layer_metrics(spans, raised_kb, traced_wall_s, overhead_s):
    """Per-layer metrics from the spans of one traced round.

    ``traced_wall_s`` is the traced set-up and job time without host probes;
    ``overhead_s`` is how much longer the traced jobs took than untraced ones.
    """
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    extra: dict[str, int] = {}
    top_calls: dict[str, int] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        self_s[name] = self_s.get(name, 0.0) + (s[END] - s[START]) - child_time[i]
        count[name] = count.get(name, 0) + s[COUNT]
        extra[name] = extra.get(name, 0) + s[EXTRA]
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] != name:
            top_calls[name] = top_calls.get(name, 0) + 1

    def st(name):
        return self_s.get(name, 0.0)

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((v for k, v in self_s.items() if k.split(".", 1)[0] == layer), 0.0)
        m[f"{layer}.peak_rss_mb"] = raised_kb.get(layer, 0) / 1024
    m["fields.params_s"] = st("fields.params")
    m["fields.params_calls"] = top_calls.get("fields.params", 0)
    m["fields.oracle_s"] = st("fields.oracle")
    m["fields.oracle_calls"] = top_calls.get("fields.oracle", 0)
    m["fields.oracle_us_per_call"] = ratio(m["fields.oracle_s"], m["fields.oracle_calls"], 1e6)
    m["gf2poly.inverse_s"] = st("gf2poly.inverse")
    m["gf2poly.inverse_calls"] = top_calls.get("gf2poly.inverse", 0)
    m["multipliers.synth_s"] = st("multipliers.synth")
    m["multipliers.synth_calls"] = top_calls.get("multipliers.synth", 0)
    m["multipliers.gates"] = count.get("multipliers.synth", 0)
    m["multipliers.synth_ns_per_gate"] = ratio(m["multipliers.synth_s"], m["multipliers.gates"], 1e9)
    m["inverters.generate_s"] = st("inverters.generate")
    m["inverters.gates"] = count.get("inverters.generate", 0)
    m["inverters.generate_ns_per_gate"] = ratio(m["inverters.generate_s"], m["inverters.gates"], 1e9)
    m["circuits.validate_s"] = st("circuits.validate")
    m["circuits.validate_calls"] = top_calls.get("circuits.validate", 0)
    m["circuits.validate_gates"] = count.get("circuits.validate", 0)
    m["circuits.validate_ns_per_gate"] = ratio(m["circuits.validate_s"], m["circuits.validate_gates"], 1e9)
    m["circuits.measure_s"] = st("circuits.measure")
    m["circuits.measure_gates"] = count.get("circuits.measure", 0)
    m["circuits.measure_ns_per_gate"] = ratio(m["circuits.measure_s"], m["circuits.measure_gates"], 1e9)
    m["circuits.emit_s"] = st("circuits.emit")
    m["circuits.emit_bytes"] = extra.get("circuits.emit", 0)
    m["circuits.parse_s"] = st("circuits.parse")
    m["circuits.parse_lines"] = count.get("circuits.parse", 0)
    m["circuits.parse_ns_per_line"] = ratio(m["circuits.parse_s"], m["circuits.parse_lines"], 1e9)
    m["circuits.simulate_s"] = st("circuits.simulate")
    m["circuits.simulate_gate_ops"] = count.get("circuits.simulate", 0)
    m["circuits.simulate_patterns"] = extra.get("circuits.simulate", 0)
    m["circuits.simulate_ns_per_gate_op"] = ratio(
        m["circuits.simulate_s"], m["circuits.simulate_gate_ops"], 1e9
    )
    m["cli.verify_self_s"] = st("cli.verify") + st("cli.pack")
    m["cli.write_s"] = st("cli.synth_cmd")
    m["cli.read_s"] = st("cli.read")
    covered = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.wall_s"] = traced_wall_s
    m["trace.coverage"] = covered / traced_wall_s if traced_wall_s else 0.0
    m["trace.unattributed_s"] = sum((v for k, v in self_s.items() if k.startswith("bench.")), 0.0)
    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = n
    return m
