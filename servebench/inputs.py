"""Seeded, program-blind inputs for the serving benchmark.

Everything the server sees is made here, from the seed alone, before any
timing starts: the edge-list file and the update script. Nothing in this
module calls into the program, so a change to the program cannot change the
inputs it is measured on.

The graph has the shape of the notredame ``--scale full`` stand-in (36,000
vertices, about 127,000 edges): preferential attachment with pendants, triad
closure and neighbourhood copying, the three structures that decide
neighbourhood domination. Its structure is the same for every seed, because
on this benchmark's scale the work of a read, the snapshot size and the cost
of a repair differ by up to 25 % between generated graphs; that would drown
the differences between programs. The update scripts are drawn on that
structure too, from random streams of their own that the seed does not
touch: which batches a server can repair and which make it rebuild depends
on the edges they hit, and drawing them per seed moved a run's read rate by
more than a tenth. The seed shuffles the edge list, which gives the program
a different vertex numbering each time, and the scripts are renamed into
that numbering.
"""

import json
import random

# Shape of the notredame stand-in (n, avg_degree, pendant_fraction,
# triad_prob, copy_prob). "smoke" is a small graph for the smoke mode.
GRAPHS = {
    "full": (36000, 5.2, 0.68, 0.45, 0.35),
    "smoke": (3000, 5.2, 0.68, 0.45, 0.35),
}

UPDATES_PER_BATCH = 8  # 4 inserts of absent edges + 4 deletes of present
STRUCTURE_SEED = 101    # the graph structure every seed serves


def social_graph(n, avg_degree, pendant_fraction, triad_prob, copy_prob, rng):
    """Returns the edge list [(u, t), ...] with t < u, in arrival order."""
    m2 = (avg_degree / 2.0 - pendant_fraction) / (1.0 - pendant_fraction)
    m2_floor = int(m2)
    edges = []
    adj = [[] for _ in range(n)]
    pool = []  # endpoint pool: uniform pick = degree-proportional pick

    def add(u, t):
        edges.append((u, t))
        adj[u].append(t)
        adj[t].append(u)
        pool.append(u)
        pool.append(t)

    add(1, 0)
    add(2, 1)
    add(2, 0)
    for u in range(3, n):
        if rng.random() < copy_prob:
            proto = rng.randrange(u)
            picked = [x for x in adj[proto] if rng.random() < 0.9][:24]
            if picked:
                for x in picked:
                    add(u, x)
                continue
        m_v = 1
        if rng.random() >= pendant_fraction:
            m_v = m2_floor + (1 if rng.random() < m2 - m2_floor else 0)
        picked = []
        anchor = None
        for _ in range(m_v):
            for _attempt in range(32):
                if anchor is not None and adj[anchor] and rng.random() < triad_prob:
                    t = adj[anchor][rng.randrange(len(adj[anchor]))]
                else:
                    t = pool[rng.randrange(len(pool))]
                if t != u and t not in picked:
                    picked.append(t)
                    anchor = t
                    break
        if not picked:
            picked.append(rng.randrange(u))
        for t in picked:
            add(u, t)
    return edges


def script_text(batches):
    """Batches as '+ u v' / '- u v' lines, a blank line closing each."""
    return "".join("".join("%s %d %d\n" % ("+" if op == "insert" else "-",
                                           u, v) for op, u, v in batch)
                   + "\n" for batch in batches)


def write_scripts(path, scripts):
    """Several scripts, each closed by a '=' line."""
    with open(path, "w") as f:
        f.write("".join(script_text(s) + "=\n" for s in scripts))


class Inputs:
    """The seeded graph and update scripts of one benchmark run.

    Vertex ids are the program's: the edge-list loader numbers vertices in
    order of first appearance, and the edge list is written so that this
    numbering is the identity.
    """

    def __init__(self, seed, graph="full"):
        self.seed = seed
        n, avg, pendant, triad, copy = GRAPHS[graph]
        self.n = n
        # The structure's edges as (smaller, larger) structure ids.
        self._structure = [(t, u) for u, t in social_graph(
            n, avg, pendant, triad, copy, random.Random(STRUCTURE_SEED))]
        self._structure_set = set(self._structure)
        shuffled = list(self._structure)
        rng = random.Random(seed)
        rng.shuffle(shuffled)
        ids = {}
        for edge in shuffled:
            for v in (edge if rng.random() < 0.5 else edge[::-1]):
                ids.setdefault(v, len(ids))
        self._ids = ids  # structure id -> program id
        self.edges = [self._rename(e) for e in shuffled]

    def _rename(self, edge):
        u, v = self._ids[edge[0]], self._ids[edge[1]]
        return (min(u, v), max(u, v))

    @property
    def m(self):
        return len(self.edges)

    def write_edge_list(self, path):
        """Each edge as "smaller larger" id: ids then appear in order."""
        with open(path, "w") as f:
            f.write("# servebench seed %d: %d vertices, %d edges\n"
                    % (self.seed, self.n, self.m))
            f.write("".join("%d %d\n" % e for e in self.edges))

    def script(self, stream, batches):
        """`batches` update batches for a server that starts at epoch 0,
        drawn on the structure from random stream `stream` and renamed into
        this seed's numbering.

        Each batch deletes 4 edges of the initial graph and inserts 4 pairs
        that are not edges of it. No pair appears twice in a script, so
        every update is effective whatever prefix of the script a server has
        applied, and m stays constant.
        """
        rng = random.Random(STRUCTURE_SEED * 1000003 + stream * 7919 + 17)
        half = UPDATES_PER_BATCH // 2
        used = set()
        script = []
        for _ in range(batches):
            deletes = []
            while len(deletes) < half:
                e = self._structure[rng.randrange(self.m)]
                if e not in used:
                    deletes.append(e)
                    used.add(e)
            inserts = []
            while len(inserts) < half:
                u = rng.randrange(self.n)
                v = rng.randrange(self.n)
                e = (min(u, v), max(u, v))
                if u != v and e not in self._structure_set and e not in used:
                    inserts.append(e)
                    used.add(e)
            script.append(
                [("delete",) + e for e in sorted(map(self._rename, deletes))]
                + [("insert",) + e
                   for e in sorted(map(self._rename, inserts))])
        return script

    @staticmethod
    def post_body(batch):
        return json.dumps({"updates": [{"u": u, "v": v, "op": op}
                                       for op, u, v in batch]},
                          separators=(",", ":")).encode()
