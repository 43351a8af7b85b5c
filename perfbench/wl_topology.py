"""`topology`: connectivity questions and deployability verdicts.

A round asks every question below once, in a seeded order, so each run
measures the same mix whatever its seed.  Three classes:

- cut: edge_connectivity + node_connectivity with witnesses;
- feasible: verdicts that come with a witness, checked by verify_report;
- infeasible: verdicts whose expected failure_reason is known.

The budget class holds inputs that run far past any sensible time today
(ROADMAP item 4).  They run once per run under a deadline and are
reported as known defects, outside the timed mix.
"""

from __future__ import annotations

import random

import networkx as nx
from npcode import connectivity, construction, feasibility
from npcode.graph import Graph

from measure import Op, p50_ms, run_op

HARARY_CUT = tuple((k, n) for k in (3, 4, 6) for n in (20, 30, 40, 60))
RANDOM_SIZES = (20, 30, 40, 50)  # seeded connected graphs with 2n edges
SINGLE_SOURCE = ((3, 10), (4, 10), (3, 20), (4, 20), (3, 30), (4, 30))  # (k, n)
MULTI_PAIR_FEASIBLE = (8, 10, 12, 16, 20)  # H(3, n), pairs v_i -> v_{n/2+i}
WITNESSES = ((10, 3), (20, 4))  # (n, k), both build_minimal_witness modes
BRIDGED = tuple(range(6, 15))  # two H(3, m) blocks and one bridge: 19 -> 43 edges
MULTI_PAIR_INFEASIBLE = (10, 12)  # H(4, n), pairs v_i -> v_{n/2+i}
OP_DEADLINE = 30.0  # any op; keeps a run bounded if a change makes one hang
BUDGET_DEADLINE = 2.0  # the known hangs


def _multi_pair(n: int, k: int):
    half = n // 2
    return [f"v{i}" for i in range(k)], [f"v{half + i}" for i in range(k)]


def _bridged(m: int):
    g = Graph()
    for block in "ab":
        h = construction.harary(m, 3)
        for v in h.nodes:
            g.add_node("relay", f"{block}{v}")
        for u, v in h.edges.values():
            g.add_edge(f"{block}{u}", f"{block}{v}")
    g.add_edge("av0", "bv0")
    return g, ["av1"], ["av2", "av3", "bv1"]


def _complete_bipartite(a: int, b: int) -> Graph:
    g = Graph()
    left = [g.add_node("relay", f"a{i}") for i in range(a)]
    right = [g.add_node("relay", f"b{j}") for j in range(b)]
    for u in left:
        for v in right:
            g.add_edge(u, v)
    return g


def _random_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    edges = {(rng.randrange(i), i) for i in range(1, n)}  # a spanning tree
    while len(edges) < 2 * n:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


class Topology:
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.random_graphs = []  # (n, edges, (kappa_e, kappa_v) from networkx)
        for n in RANDOM_SIZES:
            edges = _random_edges(rng, n)
            ref = nx.Graph(edges)
            self.random_graphs.append(
                (n, edges, (nx.edge_connectivity(ref), nx.node_connectivity(ref))))
        self.cases = self._cases()

    def _cases(self):
        """(class, label, how to ask, expected answer), one per question."""
        cases = [("cut", f"H({k},{n})", "cut", (k, k)) for k, n in HARARY_CUT]
        cases += [("cut", f"random{n}", "cut", expect) for n, _, expect in self.random_graphs]
        cases += [("feasible", f"single H({k},{n})", "single", n <= 16) for k, n in SINGLE_SOURCE]
        cases += [("feasible", f"multi H(3,{n})", "multi", None) for n in MULTI_PAIR_FEASIBLE]
        cases += [("feasible", f"witness {mode} {n},{k}", "witness", (n, k, mode))
                  for n, k in WITNESSES for mode in ("single_source", "predetermined")]
        cases += [("feasible", "fig2 relaxed", "relaxed", None)]
        cases += [("infeasible", f"bridged {m}", "strict", feasibility.REASON_RECEIVER_TREE)
                  for m in BRIDGED]
        cases += [("infeasible", "fig2 strict", "strict", feasibility.REASON_RECEIVER_TREE)]
        cases += [("infeasible", f"multi H(4,{n})", "strict", feasibility.REASON_RECEIVER_TREE)
                  for n in MULTI_PAIR_INFEASIBLE]
        return cases

    def setup(self):
        """Builds every graph the questions ask about: label -> (graph, S, R)."""
        built = {}
        for k, n in HARARY_CUT:
            built[f"H({k},{n})"] = (construction.harary(n, k), None, None)
        for n, edges, _ in self.random_graphs:
            g = Graph()
            for i in range(n):
                g.add_node("relay", f"v{i}")
            for u, v in edges:
                g.add_edge(f"v{u}", f"v{v}")
            built[f"random{n}"] = (g, None, None)
        for k, n in SINGLE_SOURCE:
            g = construction.harary(n, k)
            receivers = [f"v{(i + 1) * n // (k + 1)}" for i in range(k)]
            built[f"single H({k},{n})"] = (g, ["v0"], receivers)
        for n in MULTI_PAIR_FEASIBLE:
            built[f"multi H(3,{n})"] = (construction.harary(n, 3), *_multi_pair(n, 3))
        for m in BRIDGED:
            built[f"bridged {m}"] = _bridged(m)
        fig2 = feasibility.build_fig2_fixture()
        built["fig2 relaxed"] = built["fig2 strict"] = (fig2.graph, fig2.sources, fig2.receivers)
        for n in MULTI_PAIR_INFEASIBLE:
            built[f"multi H(4,{n})"] = (construction.harary(n, 4), *_multi_pair(n, 4))
        built["budget K(7,9)"] = (_complete_bipartite(7, 9), ["a0"], ["b0", "b1", "b2"])
        built["budget multi H(4,16)"] = (construction.harary(16, 4), *_multi_pair(16, 4))
        return built

    def rounds(self, state):
        def round_ops(r: int):
            order = list(self.cases)
            random.Random(f"{self.seed}-{r}").shuffle(order)
            for case in order:
                yield self._op(state, *case)
        return round_ops

    def _op(self, state, cls, label, how, expect) -> Op:
        if how == "witness":
            n, k, mode = expect
            check_fn = (feasibility.check_single_source if mode == "single_source"
                        else feasibility.check_feasibility)

            def run_witness():
                inst = construction.build_minimal_witness(n, k, mode)
                return inst, check_fn(inst)

            def check_witness(out):
                inst, report = out
                if inst.graph.num_edges != n + k - 2:
                    return f"witness has {inst.graph.num_edges} edges, expected {n + k - 2}"
                return _feasible_problem(inst, report)

            return Op(cls, run_witness, check_witness, OP_DEADLINE, label=label)

        graph, sources, receivers = state[label]
        fresh = graph.copy()
        if how == "cut":
            return Op(cls, lambda: (connectivity.edge_connectivity(fresh),
                                    connectivity.node_connectivity(fresh)),
                      lambda out: _cut_problem(fresh, *out, expect), OP_DEADLINE, label=label)
        inst = feasibility.ProtectionInstance(fresh, sources, receivers)
        if how == "single":
            def check_single(report):
                if report.k_edge_connected is not True:
                    return "Harary graph not reported k-edge-connected"
                hamiltonian = True if expect else None  # decided for n <= 16 only
                if report.hamiltonian is not hamiltonian:
                    return f"hamiltonian={report.hamiltonian}, expected {hamiltonian}"
                return _feasible_problem(inst, report)

            return Op(cls, lambda: feasibility.check_single_source(inst), check_single,
                      OP_DEADLINE, label=label)
        if how in ("multi", "relaxed"):
            relaxed = how == "relaxed"
            return Op(cls, lambda: feasibility.check_feasibility(inst, relaxed=relaxed),
                      lambda report: _feasible_problem(inst, report), OP_DEADLINE, label=label)
        return Op(cls, lambda: feasibility.check_feasibility(inst),
                  lambda report: _infeasible_problem(report, expect), OP_DEADLINE, label=label)

    def diagnostics(self, records) -> dict:
        out = {}
        for cls, name in (("cut", "cut_p50_ms"), ("feasible", "verdict_feasible_p50_ms"),
                          ("infeasible", "verdict_infeasible_p50_ms")):
            secs = [r.seconds for r in records if r.kind == cls]
            out[name] = (p50_ms(secs), "ms", len(secs))
        return out

    def known_defects(self, state):
        """K(7,9) single source: Hamiltonicity backtracking does not end.
        H(4,16) multi-pair: the infeasible search takes about 23 s."""
        graph, sources, receivers = state["budget K(7,9)"]
        k79 = feasibility.ProtectionInstance(graph.copy(), sources, receivers)

        def check_k79(report):
            if report.hamiltonian is not False:
                return f"hamiltonian={report.hamiltonian} on K(7,9), expected False"
            return _feasible_problem(k79, report)

        graph, sources, receivers = state["budget multi H(4,16)"]
        h416 = feasibility.ProtectionInstance(graph.copy(), sources, receivers)
        ops = [
            ("topology budget: check_single_source on K(7,9)",
             Op("budget", lambda: feasibility.check_single_source(k79), check_k79,
                BUDGET_DEADLINE)),
            ("topology budget: multi-pair check_feasibility on H(4,16)",
             Op("budget", lambda: feasibility.check_feasibility(h416),
                lambda report: _infeasible_problem(report, feasibility.REASON_RECEIVER_TREE),
                BUDGET_DEADLINE)),
        ]
        return [(label, run_op(op)) for label, op in ops]


def _feasible_problem(inst, report) -> str | None:
    if not report.feasible:
        return f"infeasible ({report.failure_reason}), expected feasible"
    problems = feasibility.verify_report(inst, report)
    return "; ".join(problems) if problems else None


def _infeasible_problem(report, reason: str) -> str | None:
    if report.feasible:
        return "feasible, expected infeasible"
    if report.failure_reason != reason:
        return f"failure_reason {report.failure_reason!r}, expected {reason!r}"
    return None


def _cut_problem(g: Graph, ec, nc, expect) -> str | None:
    if (ec.value, nc.value) != expect:
        return f"kappa_e, kappa_v = {ec.value}, {nc.value}; expected {expect}"
    cut_edges = set(ec.witness)
    rest = nx.MultiGraph()
    rest.add_nodes_from(g.nodes)
    rest.add_edges_from(uv for e, uv in g.edges.items() if e not in cut_edges)
    if len(cut_edges) != ec.value or nx.is_connected(rest):
        return f"edge witness {sorted(cut_edges)} is not a cut of size {ec.value}"
    cut_nodes = set(nc.witness)
    rest = nx.Graph()
    rest.add_nodes_from(v for v in g.nodes if v not in cut_nodes)
    rest.add_edges_from((u, v) for u, v in g.edges.values()
                        if u not in cut_nodes and v not in cut_nodes)
    if len(cut_nodes) != nc.value or nx.is_connected(rest):
        return f"node witness {sorted(cut_nodes)} is not a separator of size {nc.value}"
    return None
