"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force and written from scratch so
that it shares no code path with the library: shift-and-reduce field
arithmetic, bipartition cut enumeration, full path/tree enumeration for
feasibility, and an isomorphism-free corpus of small connected graphs.
`auto_pairing_ref` and `every_order_reason_ref` alone run the library:
its fixed-pairing search, once per receiver order, as the reference for
auto pairing's hub search.
"""

from dataclasses import replace
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

# -- GF(2^m) references ------------------------------------------------------


def gf_mul_ref(a: int, b: int, poly: int, m: int) -> int:
    """Russian-peasant product followed by explicit polynomial reduction."""
    res = 0
    for i in range(m):
        if (b >> i) & 1:
            res ^= a << i
    for d in range(2 * m - 2, m - 1, -1):
        if (res >> d) & 1:
            res ^= poly << (d - m)
    return res


def gf_inv_ref(a: int, poly: int, m: int) -> int:
    """Exhaustive search for the multiplicative inverse."""
    for b in range(1, 1 << m):
        if gf_mul_ref(a, b, poly, m) == 1:
            return b
    raise AssertionError(f"no inverse for {a}")


def gf_order_ref(a: int, poly: int, m: int) -> int:
    """Multiplicative order of a nonzero a, by stepping through its powers."""
    x, order = a, 1
    while x != 1:
        x = gf_mul_ref(x, a, poly, m)
        order += 1
    return order


def is_irreducible_ref(poly: int) -> bool:
    """Trial division over GF(2) by every polynomial of degree 1..deg(poly)//2."""
    m = poly.bit_length() - 1
    if m < 1:
        return False
    for d in range(2, 1 << (m // 2 + 1)):
        rest, dd = poly, d.bit_length() - 1
        while rest and rest.bit_length() - 1 >= dd:
            rest ^= d << (rest.bit_length() - 1 - dd)
        if rest == 0:
            return False
    return True


def gf_dot_ref(xs, ys, poly, m):
    acc = 0
    for x, y in zip(xs, ys):
        acc ^= gf_mul_ref(x, y, poly, m)
    return acc


def rank_ref(rows, poly, m):
    """Row rank over GF(2^m) by from-scratch elimination on ints.

    Fraction-free: a row below the pivot row becomes p * row + f * pivot row,
    p the pivot and f the row's entry, which needs no inverse (so no
    exhaustive inverse search on wide fields) and keeps the rank.
    """
    work = [list(r) for r in rows]
    n_cols = len(work[0]) if work else 0
    rank = 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        p = work[rank][col]
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            if f:
                work[i] = [gf_mul_ref(p, x, poly, m) ^ gf_mul_ref(f, y, poly, m)
                           for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def gf_solve_ref(a, b, poly, m):
    """a^-1 b over GF(2^m), by Gauss-Jordan elimination on [a | b], for an
    invertible square a.

    Fraction-free, as in rank_ref: clearing a column sets every other row
    to p * row + f * pivot row, so the left block ends diagonal with no
    inverse taken.  Each row is then divided by its diagonal entry d_i,
    as a product with 1/(d_0 ... d_{n-1}) and the other d_j, so one
    exhaustive inverse serves the whole solve.
    """
    def mul(x, y):
        return gf_mul_ref(x, y, poly, m)

    n = len(a)
    work = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col]), None)
        if pivot is None:
            raise AssertionError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        p = work[col][col]
        for i in range(n):
            f = work[i][col]
            if i != col and f:
                work[i] = [mul(p, x) ^ mul(f, y) for x, y in zip(work[i], work[col])]
    diag = [work[i][i] for i in range(n)]
    total = 1
    for x in diag:
        total = mul(total, x)
    inv_total = gf_inv_ref(total, poly, m)
    out = []
    for i, row in enumerate(work):
        inv = inv_total
        for j, x in enumerate(diag):
            if j != i:
                inv = mul(inv, x)
        out.append([mul(inv, x) for x in row[n:]])
    return out


# -- plain-graph helpers -------------------------------------------------------
# Graphs are handled as (node list, [(edge_id, u, v)]) extracted from the
# library Graph object, so none of the library traversal code is reused.


def edge_list(g):
    return [(e, u, v) for e, (u, v) in g.edges.items()]


def degree_ref(g):
    """Node id -> its degree, each parallel edge counted, read from g.edges."""
    degree = dict.fromkeys(g.nodes, 0)
    for u, v in g.edges.values():
        degree[u] += 1
        degree[v] += 1
    return degree


def adjacency_ref(g):
    """Node id -> the set of its neighbours' ids, read from g.edges."""
    adjacent = {v: set() for v in g.nodes}
    for u, v in g.edges.values():
        adjacent[u].add(v)
        adjacent[v].add(u)
    return adjacent


def reachable_ref(start, edges, allowed=None):
    seen = {start}
    changed = True
    while changed:
        changed = False
        for eid, u, v in edges:
            if allowed is not None and eid not in allowed:
                continue
            if u in seen and v not in seen:
                seen.add(v)
                changed = True
            elif v in seen and u not in seen:
                seen.add(u)
                changed = True
    return seen


def connected_ref(terminals, edges, allowed=None):
    terms = list(terminals)
    if len(terms) <= 1:
        return True
    return set(terms) <= reachable_ref(terms[0], edges, allowed)


def brute_min_st_cut(nodes, edges, s, t):
    """Minimum s-t edge cut by enumerating vertex bipartitions."""
    rest = [v for v in nodes if v not in (s, t)]
    best = None
    best_witness = None
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            side = {s, *extra}
            crossing = [eid for eid, u, v in edges if (u in side) != (v in side)]
            if best is None or len(crossing) < best:
                best = len(crossing)
                best_witness = crossing
    return best, best_witness


def brute_global_min_cut(nodes, edges):
    """Global minimum edge cut over all proper bipartitions."""
    nodes = list(nodes)
    anchor, rest = nodes[0], nodes[1:]
    best = None
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            side = {anchor, *extra}
            if len(side) == len(nodes):
                continue
            crossing = sum(1 for _, u, v in edges if (u in side) != (v in side))
            if best is None or crossing < best:
                best = crossing
    return best


def brute_node_cut(nodes, edges):
    """Fewest node removals that disconnect or trivialize the graph."""
    nodes = list(nodes)
    for size in range(len(nodes)):
        for removed in combinations(nodes, size):
            keep = [v for v in nodes if v not in removed]
            if len(keep) <= 1:
                return size
            live = [(e, u, v) for e, u, v in edges if u in keep and v in keep]
            if not connected_ref(keep, live):
                return size
    return len(nodes) - 1


def all_simple_paths_ref(edges, s, t):
    """Every simple s-t path as (node tuple, edge-id tuple)."""
    incident = {}
    for eid, u, v in edges:
        incident.setdefault(u, []).append((eid, v))
        incident.setdefault(v, []).append((eid, u))
    out = []

    def rec(node, nodes, eids):
        if node == t:
            out.append((tuple(nodes), tuple(eids)))
            return
        for eid, other in incident.get(node, ()):
            if eid in eids or other in nodes:
                continue
            rec(other, nodes + [other], eids + [eid])

    rec(s, [s], [])
    return out


def brute_disjoint_path_sets(edges, pairs):
    """All mutually edge-disjoint assignments, one simple path per pair."""
    per_pair = [all_simple_paths_ref(edges, s, r) for s, r in pairs]
    results = []

    def rec(i, chosen, used):
        if i == len(pairs):
            results.append(list(chosen))
            return
        for nodes, eids in per_pair[i]:
            eset = set(eids)
            if eset & used:
                continue
            chosen.append((nodes, eids))
            rec(i + 1, chosen, used | eset)
            chosen.pop()

    rec(0, [], set())
    return results


def disjoint_path_sets_ref(edges, pairs, allowed=None):
    """Every mutually edge-disjoint path assignment, lazily, in search order.

    Pair by pair, each pair's simple paths are walked lowest-edge-id first
    in the edges the earlier pairs left over; a branch is dropped as soon
    as some later pair has no path at all.  This is the string-keyed
    enumeration the library used before it deduplicated by used-edge set,
    so it lists every path set, repeats of a used-edge set included.
    """
    incident = {}
    for eid, u, v in edges:
        incident.setdefault(u, []).append((eid, v))
        incident.setdefault(v, []).append((eid, u))
    pool = {e for e, _, _ in edges} if allowed is None else set(allowed)

    def reaches(s, r, avail):
        seen = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for eid, y in incident.get(x, ()):
                if eid in avail and y not in seen:
                    if y == r:
                        return True
                    seen.add(y)
                    stack.append(y)
        return False

    def paths(s, r, avail):
        nodes, eids = [s], []

        def rec():
            x = nodes[-1]
            if x == r:
                yield tuple(nodes), tuple(eids)
                return
            for eid, y in incident.get(x, ()):
                if eid in avail and y not in nodes:
                    nodes.append(y)
                    eids.append(eid)
                    yield from rec()
                    nodes.pop()
                    eids.pop()

        yield from rec()

    def rec(i, avail):
        if i == len(pairs):
            yield []
            return
        if not all(reaches(s, r, avail) for s, r in pairs[i:]):
            return
        for path in paths(*pairs[i], avail):
            for rest in rec(i + 1, avail - set(path[1])):
                yield [path] + rest

    yield from rec(0, pool)


def first_per_used_edge_set(path_sets):
    """Keep the first path set of each distinct used-edge set, in order."""
    seen = set()
    for chosen in path_sets:
        used = frozenset(e for _, eids in chosen for e in eids)
        if used not in seen:
            seen.add(used)
            yield chosen


def feasible_ref(g, sources, receivers, pairs, relaxed):
    """Exhaustive deployability oracle over (path set, tree, tree) splits."""
    edges = edge_list(g)
    all_ids = [e for e, _, _ in edges]
    for chosen in brute_disjoint_path_sets(edges, pairs):
        used = set()
        for _, eids in chosen:
            used.update(eids)
        spool = list(all_ids) if relaxed else [e for e in all_ids if e not in used]
        for mask in range(1 << len(spool)):
            a_side = {spool[i] for i in range(len(spool)) if (mask >> i) & 1}
            if not connected_ref(sources, edges, a_side):
                continue
            b_side = set(spool) - a_side
            if connected_ref(receivers, edges, b_side):
                return True
        if relaxed:
            break  # the relaxed pool is every edge, so every path set gives this answer
    return False


def auto_pairing_ref(inst, relaxed):
    """Auto pairing by trying every receiver order with the fixed pairing, the
    given order first: the first feasible report, with its pairing, or else a
    refusal with the given order's failure reason and no certificate."""
    from npcode.feasibility import FeasibilityReport, ProtectionInstance, check_feasibility

    first = None
    for perm in permutations(inst.receivers):
        report = check_feasibility(ProtectionInstance(inst.graph, inst.sources, perm), relaxed)
        if report.feasible:
            return replace(report, pairing=perm)
        if first is None:
            first = report
    return FeasibilityReport(False, failure_reason=first.failure_reason, relaxed=relaxed)


def every_order_reason_ref(inst):
    """The relaxed refusal reason that holds for every receiver order, none
    being feasible: `paths` when no order has its paths, else the tree reason
    of the orders that have them, which must all name the same one."""
    from npcode.feasibility import ProtectionInstance, check_feasibility

    reasons = {check_feasibility(ProtectionInstance(inst.graph, inst.sources, perm),
                                 relaxed=True).failure_reason
               for perm in permutations(inst.receivers)}
    assert None not in reasons and len(reasons - {"paths"}) <= 1, reasons
    return min(reasons - {"paths"}, default="paths")


def hamiltonian_ref(g):
    """Hamiltonian-cycle existence by permutation enumeration (small n)."""
    nodes = list(g.nodes)
    n = len(nodes)
    if n < 3:
        return False
    adjacent = adjacency_ref(g)
    first = nodes[0]
    for perm in permutations(nodes[1:]):
        cycle = (first, *perm)
        if all(cycle[(i + 1) % n] in adjacent[cycle[i]] for i in range(n)):
            return True
    return False


# -- isomorphism-free corpus of small connected graphs ---------------------------

# Known counts of connected graphs up to isomorphism (2..6 nodes).
CONNECTED_GRAPH_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


@lru_cache(maxsize=None)
def connected_graph_corpus(max_n: int = 6):
    """One labeled representative per isomorphism class of connected graphs.

    Returns a list of (n, edge_pairs) with edge_pairs a tuple of (u, v)
    integer pairs.  Canonical forms are minima of the edge bitmask over
    all node permutations, vectorized with numpy.
    """
    corpus = []
    for n in range(2, max_n + 1):
        pairs = list(combinations(range(n), 2))
        m = len(pairs)
        pair_index = {p: i for i, p in enumerate(pairs)}
        conn_masks = []
        for mask in range(1 << m):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            merged = 0
            for b, (u, v) in enumerate(pairs):
                if (mask >> b) & 1:
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[ru] = rv
                        merged += 1
            if merged == n - 1:
                conn_masks.append(mask)
        masks = np.array(conn_masks, dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(m)[None, :]) & 1).astype(np.int64)
        canon = None
        for perm in permutations(range(n)):
            weights = np.array(
                [1 << pair_index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs],
                dtype=np.int64,
            )
            vals = bits @ weights
            canon = vals if canon is None else np.minimum(canon, vals)
        for mask in sorted(set(int(x) for x in np.unique(canon))):
            chosen = tuple(pairs[b] for b in range(m) if (mask >> b) & 1)
            corpus.append((n, chosen))
    return corpus


def graph_from_pairs(n, pairs):
    """Build a library Graph (nodes x0..x{n-1}) from integer pairs."""
    from npcode.graph import Graph

    g = Graph()
    for i in range(n):
        g.add_node("relay", f"x{i}")
    for u, v in pairs:
        g.add_edge(f"x{u}", f"x{v}")
    return g


def harary_ref(n, k):
    """H_{k,n} by testing every node pair for ring distance at most k // 2,
    then the odd-k (near-)diameters, deduplicated through a set of pairs."""
    from npcode.graph import Graph

    if k < 2 or k >= n:
        raise ValueError(f"need 2 <= k < n, got k={k}, n={n}")
    g = Graph()
    for i in range(n):
        g.add_node("relay", f"v{i}")
    added = set()

    def connect(i, j):
        u, v = f"v{i % n}", f"v{j % n}"
        key = frozenset((u, v))
        if u != v and key not in added:
            added.add(key)
            g.add_edge(u, v)

    r = k // 2
    for i in range(n - 1):
        for j in range(i + 1, n):
            if j - i <= r or n + i - j <= r:
                connect(i, j)
    if k % 2 == 1:
        if n % 2 == 0:
            for i in range(n // 2):
                connect(i, i + n // 2)
        else:
            connect(0, (n - 1) // 2)
            connect(0, (n + 1) // 2)
            for i in range(1, (n - 3) // 2 + 1):
                connect(i, i + (n + 1) // 2)
    return g
