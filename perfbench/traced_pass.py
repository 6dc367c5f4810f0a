"""Run one powcov command in this process with a span around each layer call.

    python3 perfbench/traced_pass.py SUMMARY.json -- sweep --out r.csv

The command line after "--" is what `python -m powcov` would get.  Before it
runs, the public entry points of each layer are replaced, in every powcov
module that refers to them, by a wrapper that records a span: layer name,
parent span in the same thread, wall time and thread CPU time.  Helpers such as
closure or commutator_subgroup are not wrapped, so their time counts toward
the layer that called them.  Spans stay in memory; when the command ends,
tracing stops, every witness cover is re-checked with cover.verify_witness,
and SUMMARY.json receives per-layer totals, counters and check results.
The process exits with the command's own exit code.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

import powcov.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

from powcov import cache, cover, fileio, groups, lattice, sweep, verify  # noqa: E402

# (layer, module, attribute, patch every powcov module that refers to it)
ENTRY_POINTS = (
    ("cli", powcov.cli, "main", True),
    ("groups.construct", groups, "build_group", True),
    ("groups.construct", groups, "direct_product", True),
    ("groups.construct", groups, "quotient_group", True),
    ("groups.construct", groups, "subgroup_as_group", True),
    ("groups.series", groups, "nilpotence_class", True),
    ("groups.series", groups, "coclass", True),
    ("lattice.enumerate", lattice, "enumerate_subgroups", True),
    ("lattice.enumerate", lattice, "maximal_subgroups", True),
    # The flag predicates as lattice names them; callers elsewhere (such as
    # cover.verify_witness) keep the unwrapped functions.
    ("lattice.flags", lattice, "is_normal", False),
    ("lattice.flags", lattice, "is_powerful", False),
    ("lattice.flags", lattice, "is_powerfully_embedded", False),
    ("lattice.flags", lattice, "classify_small", False),
    ("cache.memo", cache, "memo_lattice", True),
    ("cache.get", cache.LatticeCache, "get", False),
    ("cache.put", cache.LatticeCache, "put", False),
    ("cover.query", cover, "covering_number", True),
    ("cover.instance", cover, "build_instance", True),
    ("cover.solve", cover, "solve_exact", True),
    ("cover.solve", cover, "solve_greedy", True),
    ("sweep.run", sweep, "run_sweep", True),
    ("sweep.entry", sweep, "sweep_entry", True),
    ("sweep.report", sweep, "rows_to_csv", True),
    ("sweep.report", sweep, "markdown_report", True),
    # run_sweep imports atomic_write_text from fileio when it writes the
    # reports; cache.put keeps its own reference, so its writes stay in put.
    ("sweep.report", fileio, "atomic_write_text", False),
    ("verify", verify, "run_suite", True),
    ("verify", verify, "format_report", True),
)

# Layers whose results feed a counter or a check after the pass.
RECORDED = {"sweep.run", "verify", "cache.get", "cache.put", "cache.memo",
            "lattice.enumerate", "cover.query", "cover.instance", "cover.solve"}


class Tracer:
    def __init__(self):
        self.enabled = True
        self.spans = []  # (id, parent, layer, wall, cpu); parent is in the same thread
        self.results = []  # (layer, args, result) of RECORDED layers
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))

    def wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall, cpu = time.perf_counter() - w0, time.thread_time() - c0
                stack.pop()
                self.spans.append((sid, parent, layer, wall, cpu))
            if layer in RECORDED:
                self.results.append((layer, args, result))
            return result

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "powcov" or name.startswith("powcov.")]
        for layer, owner, attr, everywhere in ENTRY_POINTS:
            original = getattr(owner, attr)
            wrapped = self.wrap(layer, original)
            setattr(owner, attr, wrapped)
            if everywhere:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def layer_totals(self):
        """Per layer: calls, self wall, self CPU, and inclusive wall and CPU of
        the spans with no ancestor of the same layer.  Self time subtracts
        only child spans of the same thread."""
        child_wall, child_cpu = {}, {}
        for _, parent, _, wall, cpu in self.spans:
            child_wall[parent] = child_wall.get(parent, 0.0) + wall
            child_cpu[parent] = child_cpu.get(parent, 0.0) + cpu
        layer_of = {sid: layer for sid, _, layer, _, _ in self.spans}
        parent_of = {sid: parent for sid, parent, _, _, _ in self.spans}
        totals = {}
        for sid, parent, layer, wall, cpu in self.spans:
            t = totals.setdefault(
                layer,
                {"calls": 0, "outer_calls": 0, "self_wall": 0.0, "self_cpu": 0.0,
                 "wall": 0.0, "cpu": 0.0},
            )
            t["calls"] += 1
            t["self_wall"] += wall - child_wall.get(sid, 0.0)
            t["self_cpu"] += cpu - child_cpu.get(sid, 0.0)
            up = parent
            while up and layer_of[up] != layer:
                up = parent_of[up]
            if not up:
                t["outer_calls"] += 1
                t["wall"] += wall
                t["cpu"] += cpu
        return totals


def counters(tracer):
    c = {
        "sweep.rows": 0,
        "verify.checks": 0,
        "cache.hits": 0,
        "cache.misses": 0,
        "cache.bytes_written": 0,
        "lattice.enumerations": 0,
        "lattice.subgroups": 0,
        "cover.candidates_in": 0,
        "cover.candidates_out": 0,
        "cover.nodes": 0,
    }
    lattices = {}
    queries = []
    for layer, args, result in tracer.results:
        if layer == "sweep.run":
            c["sweep.rows"] += len(result)
        elif layer == "verify" and isinstance(result, verify.SuiteReport):
            c["verify.checks"] += len(result.checks)
        elif layer == "cache.get":
            c["cache.hits" if result is not None else "cache.misses"] += 1
        elif layer == "cache.put" and result is not None:
            c["cache.bytes_written"] += os.path.getsize(result)
        elif layer == "lattice.enumerate" and isinstance(result, lattice.Lattice):
            c["lattice.enumerations"] += 1
            c["lattice.subgroups"] += len(result)
        elif layer == "cache.memo":
            lattices[result.group.descriptor] = len(result)
        elif layer == "cover.instance":
            lat, family = args[1], args[2]
            c["cover.candidates_in"] += sum(
                1 for s in lat.subgroups if s.is_proper and family.admits(s)
            )
            c["cover.candidates_out"] += len(result.candidates)
        elif layer == "cover.solve" and isinstance(result, cover.CoverResult):
            c["cover.nodes"] += result.nodes_explored
        elif layer == "cover.query":
            queries.append((args[0], args[1], result))
    return c, lattices, queries


def recheck_witnesses(queries):
    """verify_witness on every optimal answer; returns (checked, failures)."""
    failures = []
    checked = 0
    for g, family, res in queries:
        if not res.optimal:
            continue
        checked += 1
        if len(res.witness) != res.size or not cover.verify_witness(g, family, res.witness):
            failures.append(f"{g.descriptor} {family.sigma_label}: witness rejected")
    return checked, failures


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    summary_path, command = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = powcov.cli.main(command)
    finally:
        tracer.enabled = False
    c, lattices, queries = counters(tracer)
    checked, failures = recheck_witnesses(queries)
    summary = {
        "import_s": IMPORT_S,
        "layers": tracer.layer_totals(),
        "sweep_wait_s": sum(
            (wall - cpu for _, _, layer, wall, cpu in tracer.spans if layer == "sweep.entry"),
            0.0,
        ),
        "counters": c,
        "subgroup_counts": lattices,
        "witnesses_checked": checked,
        "witness_failures": failures,
    }
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
