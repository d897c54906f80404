"""Seeded inputs for the four workloads.

Every workload is a fixed list of ``Command``s built from ``--seed`` alone.
Sizes and shapes are fixed by a command's position in the list, and the seed
draws the contents (atoms, literals, connectives, priority edges, world
permutations), so the work of a run changes little from seed to seed while
the inputs do. Alongside
each command the generator keeps what the output checks need: the formulas
as tuples and the reference model (``ref``), never anything the engine
computed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import ref

T = ("T",)


@dataclass
class Command:
    argv: list[str]
    kind: str                       # induce | eval | check | trace | extract
    expect: dict = field(default_factory=dict)
    out: str | None = None          # the --out file, if any


# ---------------------------------------------------------------------------
# Formulas

def atoms_of(n: int) -> list[str]:
    return [f"a{i}" for i in range(n)]


def lit(rng, atoms):
    a = ("atom", rng.choice(atoms))
    return a if rng.random() < 0.5 else ("not", a)


def render(f) -> str:
    """Engine concrete syntax; binary connectives are always parenthesised."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "T":
        return "T"
    if tag == "not":
        return "~" + render(f[1])
    if tag in ("and", "or", "imp"):
        op = {"and": "&", "or": "|", "imp": "->"}[tag]
        return f"({render(f[1])} {op} {render(f[2])})"
    if tag in ("box", "dia"):
        _, order, strict, child = f
        rel = "<" if strict else "<="
        head = f"[{rel}{order}]" if tag == "box" else f"<{rel}{order}>>"
        return f"{head} {render(child)}"
    if tag == "mu":
        return f"mu_{f[1]} {render(f[2])}"
    if tag in ("B", "G", "AdmInt", "Int"):
        return f"{tag}({render(f[1])} | {render(f[2])})"
    if tag == "ann":
        return f"[!{render(f[1])}] {render(f[2])}"
    if tag in ("up", "drop"):
        return f"[{tag}_{f[1]} {render(f[2])}] {render(f[3])}"
    if tag == "plan":
        return f"[{f[1]}] {render(f[2])}"
    raise ValueError(f"cannot render {f!r}")


def small_prop(rng, atoms):
    """A literal or a two/three-literal combination."""
    shape = rng.randrange(5)
    if shape == 0:
        return lit(rng, atoms)
    a, b, c = (lit(rng, atoms) for _ in range(3))
    if shape == 1:
        return ("and", a, b)
    if shape == 2:
        return ("or", a, b)
    if shape == 3:
        return ("or", ("and", a, b), c)
    return ("imp", a, b)


def clause(rng, atoms, width: int):
    """Disjunction of literals over `width` distinct atoms."""
    chosen = rng.sample(atoms, width)
    f = None
    for a in chosen:
        x = ("atom", a) if rng.random() < 0.5 else ("not", ("atom", a))
        f = x if f is None else ("or", f, x)
    return f


# ---------------------------------------------------------------------------
# Plan libraries

def make_plan(name, pre, post_lits: dict):
    post_f = None
    for a in sorted(post_lits):
        x = ("atom", a) if post_lits[a] else ("not", ("atom", a))
        post_f = x if post_f is None else ("and", post_f, x)
    return {"name": name, "pre": pre, "post": dict(post_lits),
            "post_f": post_f or T}


def library(rng, m: ref.Model, size: int, adopt: int):
    """A library of `size` plans, the first up to `adopt` of them adoptable.

    An adoptable plan has precondition T and an admissible post-literal
    (true at every D-minimal world, possible, and not believed), so adopting
    it keeps the model P-consistent. The other plans alternate between a
    literal precondition and T, the last one always T. Executing a plan
    restricts the model to its precondition, and evaluating Int executes
    every plan of the library, so this pattern keeps the work the same for
    every seed.
    """
    atoms = list(m.atoms)
    min_p = m.orders["P"].min_set(m.live)
    min_d = m.orders["D"].min_set(m.live)
    admissible = []
    for a in atoms:
        for value in (True, False):
            sat = m.val[a] & m.live if value else m.live & ~m.val[a]
            if min_d & ~sat == 0 and sat and min_p & ~sat:
                admissible.append((a, value))
    rng.shuffle(admissible)
    plans, adopted = {}, []
    for i in range(size):
        name = f"pl{i}"
        if i < adopt and admissible:
            a, value = admissible.pop()
            plans[name] = make_plan(name, T, {a: value})
            adopted.append(name)
        else:
            pre = lit(rng, atoms) if i % 2 and i != size - 1 else T
            post = {a: rng.random() < 0.5 for a in rng.sample(atoms, 1 + i % 2)}
            plans[name] = make_plan(name, pre, post)
    return plans, adopted


def library_doc(plans: dict) -> dict:
    return {"plans": [
        {"name": p["name"], "pre": render(p["pre"]), "post": render(p["post_f"])}
        for p in plans.values()
    ]}


# ---------------------------------------------------------------------------
# Worlds and orders

def knowledge(rng, atoms, spec):
    """Knowledge formulas over disjoint atoms. In `spec` an int w stands for
    a clause of w literals and a tuple for the conjunction of such clauses.
    A clause of width w keeps 1 - 2^-w of the valuations, so the world count
    depends on the spec alone."""
    widths = [w for item in spec for w in (item if isinstance(item, tuple) else (item,))]
    chosen = rng.sample(atoms, sum(widths))
    clauses = []
    for w in widths:
        clauses.append(clause(rng, chosen[:w], w))
        chosen = chosen[w:]
    out = []
    for item in spec:
        f = clauses.pop(0)
        for _ in range(len(item) - 1 if isinstance(item, tuple) else 0):
            f = ("and", f, clauses.pop(0))
        out.append(f)
    return out


def worlds(n_atoms: int, formulas):
    """Atoms, world ids (valuation masks, bit i = atom i) satisfying every
    formula, and the valuation as masks over world positions."""
    atoms = atoms_of(n_atoms)
    every = range(1 << n_atoms)
    full = (1 << len(every)) - 1
    val = {a: sum(1 << v for v in every if v >> i & 1) for i, a in enumerate(atoms)}
    keep = full
    for f in formulas:
        keep &= ref.prop(f, val, full)
    ids = [v for v in every if keep >> v & 1]
    val = {a: sum(1 << p for p, v in enumerate(ids) if v >> i & 1)
           for i, a in enumerate(atoms)}
    return atoms, ids, val


def graph_nodes(rng, atoms, size: int) -> list:
    nodes = []
    while len(nodes) < size:
        f = small_prop(rng, atoms)
        if f not in nodes:
            nodes.append(f)
    return nodes


# Lexicographic orders of random graphs relate from a fifth to two thirds of
# all pairs, and six-node graphs split the worlds into 5-28 % as many tie
# classes. Graphs are redrawn until the order falls in these bands, so the
# relation (and with it the output, the extracted graph and the memory) has
# the same size for every seed.
LEX_DENSITY = (0.41, 0.44)
LEX_CLASSES = (0.12, 0.18)


def lex_graph(rng, atoms, val, live: int, size: int, ranked: bool, classes=None):
    """A priority graph document of `size` nodes and the up rows it induces;
    `classes` bounds the share of tie classes among the worlds."""
    n = live.bit_count()
    for _ in range(10_000):
        nodes = graph_nodes(rng, atoms, size)
        doc = {"nodes": [render(f) for f in nodes]}
        if ranked:
            doc["ranks"] = [rng.randrange(4) for _ in nodes]
            edges = [(i, j) for i in range(size) for j in range(size)
                     if doc["ranks"][i] < doc["ranks"][j]]
        else:
            edges = [(i, j) for i in range(size) for j in range(i + 1, size)
                     if rng.random() < 0.3]
            doc["edges"] = [list(e) for e in edges]
        up = ref.lex_order([ref.prop(f, val, live) for f in nodes],
                           ref.prec_closure(size, edges), live)
        density = sum(row.bit_count() for row in up) / n ** 2
        share = len(set(up[i] for i in ref.bits(live))) / n
        if LEX_DENSITY[0] <= density <= LEX_DENSITY[1] and (
                classes is None or classes[0] <= share <= classes[1]):
            return doc, up
    raise RuntimeError(f"no {size}-node graph in the bands {LEX_DENSITY}, {classes}")


def order_pairs(rng, shape: str, atoms, ids, val):
    """Generator pairs over positions for one order shape.

    chain: a random total order. weakK: K equal levels, tied inside.
    treeB: two roots and B children per world, parents better (a sparse
    partial order with O(W log W) closed pairs). lex: the order a random
    six-node priority graph induces, written out in full like induce's
    output.
    """
    n = len(ids)
    perm = list(range(n))
    rng.shuffle(perm)
    if shape == "chain":
        return [(perm[i], perm[i + 1]) for i in range(n - 1)]
    if shape.startswith("weak"):
        k = int(shape[4:])
        groups = [perm[n * i // k: n * (i + 1) // k] for i in range(k)]
        pairs = [(g[i], g[(i + 1) % len(g)]) for g in groups for i in range(len(g))]
        return pairs + [(groups[i][0], groups[i + 1][0]) for i in range(k - 1)]
    if shape.startswith("tree"):
        b = int(shape[4:])
        return [(perm[(i - 2) // b], perm[i]) for i in range(2, n)]
    if shape == "lex":
        _, up = lex_graph(rng, atoms, val, (1 << n) - 1, 6, False, LEX_CLASSES)
        return [(i, j) for i in range(n) for j in ref.bits(up[i])]
    raise ValueError(f"unknown order shape {shape!r}")


def model_doc(atoms, ids, p_pairs, d_pairs, intentions=()) -> dict:
    return {
        "atoms": list(atoms),
        "worlds": [{"id": w, "true_atoms": [a for i, a in enumerate(atoms) if w >> i & 1]}
                   for w in ids],
        "plausibility": [[ids[a], ids[b]] for a, b in p_pairs],
        "desirability": [[ids[a], ids[b]] for a, b in d_pairs],
        "intentions": sorted(intentions),
    }


def random_model(rng, n_atoms: int, widths, shapes):
    """A model document over the valuations a random knowledge set keeps."""
    atoms = atoms_of(n_atoms)
    atoms, ids, val = worlds(n_atoms, knowledge(rng, atoms, widths))
    pairs = [order_pairs(rng, shape, atoms, ids, val) for shape in shapes]
    doc = model_doc(atoms, ids, *pairs)
    return doc, ref.model_from_doc(doc)


def with_library(rng, doc, m, n_plans: int, adopt: int):
    plans, adopted = library(rng, m, n_plans, adopt)
    doc["intentions"] = sorted(adopted)
    return m.with_(intentions=adopted), plans


def write(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# Workloads. Each schedule row fixes one command's sizes; the seed draws the
# contents. World counts follow from the atoms and the knowledge spec.

def induce(rng, d: str) -> list[Command]:
    """Programs at 8-9 atoms and 144-224 worlds, graphs of 4-10 nodes.

    Five of the nine have 168 worlds, so the median command has the same
    size for every seed."""
    schedule = [  # atoms, knowledge spec, B nodes, D nodes, adopted plans, flags
        (8, (2, 3), 6, 5, 1, ""),            # 168 worlds
        (9, (2, (1, 3)), 5, 4, 0, "json"),   # 168
        (8, (2,), 8, 6, 2, ""),              # 192
        (9, (2, (1, 3)), 4, 6, 1, ""),       # 168
        (8, (2, 2), 10, 4, 3, "out"),        # 144
        (9, (1, 2), 6, 8, 2, "json"),        # 192
        (8, (2, 3), 5, 10, 0, "json"),       # 168
        (8, (3,), 7, 5, 3, "json out"),      # 224
        (9, (2, (1, 3)), 6, 6, 1, ""),       # 168
    ]
    cmds = []
    for k, (n, widths, n_b, n_d, adopt, flags) in enumerate(schedule):
        atoms = atoms_of(n)
        facts = knowledge(rng, atoms, widths)
        atoms, ids, val = worlds(n, facts)
        live = (1 << len(ids)) - 1
        graphs, orders = {}, {}
        for tag, size in (("B", n_b), ("D", n_d)):
            ranked = (k + (tag == "D")) % 2 == 1
            graphs[tag], up = lex_graph(rng, atoms, val, live, size, ranked)
            orders["P" if tag == "B" else "D"] = ref.Order(up, live)
        m = ref.Model(ids, atoms, val, orders, ())
        plans, adopted = library(rng, m, rng.randint(3, 5), adopt)
        prog = {"atoms": atoms, "K": [render(f) for f in facts],
                "B": graphs["B"], "D": graphs["D"], "I": adopted}
        argv = ["induce", "--program", write(f"{d}/induce{k}.json", prog),
                "--library", write(f"{d}/induce{k}.lib.json", library_doc(plans))]
        out = None
        if "json" in flags:
            argv.append("--json")
        if "out" in flags:
            out = f"{d}/induce{k}.out.json"
            argv += ["--out", out]
        cmds.append(Command(argv, "induce", {"model": m.with_(intentions=adopted)}, out))
    return cmds


def _families(rng, atoms, plan_names, up: str, drop: str):
    """One formula per family; x, y and z are shared between families.

    The orders the dynamic modalities rewrite (`up`, `drop`) are fixed by the
    caller: rewriting a dense order costs far more time and memory than
    rewriting a sparse one, so a seeded choice would swing both."""
    x, y = small_prop(rng, atoms), clause(rng, atoms, 2)
    z = small_prop(rng, atoms)
    phi = clause(rng, atoms, 2)
    plan = plan_names[-1]
    return {
        "bel": ("and", ("imp", ("B", x, y), ("G", x, y)), ("B", z, T)),
        "admint": ("or", ("AdmInt", x, y), ("AdmInt", ("not", z), T)),
        "int": ("imp", ("Int", x, y), ("B", x, y)),
        "dynamic": ("and", ("ann", phi, ("B", x, y)),
                    ("up", up, phi, ("G", z, y))),
        "contract": ("drop", drop, x, ("or", ("B", x, T), ("G", z, T))),
        "plan": ("imp", ("plan", plan, ("B", x, T)), ("dia", "P", True, z)),
        "box": ("box", "D", False, ("imp", ("mu", "P", y), x)),
        "goal": ("or", ("G", z, y), ("mu", "D", x)),
    }


def query(rng, d: str) -> list[Command]:
    """eval and check on 8-9-atom models (256-512 worlds) the benchmark writes.

    The commands fall into three tiers of cost: heavy ones (Int, dynamic and
    plan modalities, check) on the 512-world model, light ones on the
    256-world model, and in between twelve evaluations of cheap attitude
    formulas on three 384-world models. The median command lies in the
    middle of that tier for every seed; a median that fell between two
    clusters of costs would jump from seed to seed."""
    schedule = [  # atoms, knowledge spec, order shapes, plans, adopted, commands
        (9, (), ("weak6", "tree2"), 5, 1, ("int", "dynamic", "plan", "check")),     # 512 worlds
        (9, (2,), ("chain", "weak8"), 3, 1, ("bel", "admint", "box", "goal")),      # 384
        (9, (2,), ("weak8", "chain"), 4, 2, ("goal", "bel", "admint", "box")),      # 384
        (8, (), ("lex", "weak8"), 2, 1, ("dynamic", "contract", "int", "check")),   # 256
        (9, (2,), ("chain", "weak6"), 3, 1, ("admint", "goal", "bel", "box")),      # 384
    ]
    cmds = []
    for k, (n, widths, shapes, n_plans, adopt, kinds) in enumerate(schedule):
        doc, m = random_model(rng, n, widths, shapes)
        m, plans = with_library(rng, doc, m, n_plans, adopt)
        mpath = write(f"{d}/query{k}.model.json", doc)
        lpath = write(f"{d}/query{k}.lib.json", library_doc(plans))
        families = _families(rng, list(m.atoms), sorted(plans), "PD"[k % 2], "DP"[k % 2])
        for j, kind in enumerate(kinds):
            argv = ["check" if kind == "check" else "eval", "--model", mpath, "--library", lpath]
            expect = {"model": m, "plans": plans}
            if kind != "check":
                expect["formula"] = families[kind]
                argv += ["--formula", render(families[kind])]
            if (k + j) % 2:
                argv.append("--json")
            cmds.append(Command(argv, argv[0], expect))
    return cmds


# (operation, target order); a script of n steps runs the first n. Targets
# are fixed so that which order gets rewritten does not vary with the seed.
STEPS = (("announce", None), ("upgrade", "P"), ("contract", "D"), ("update", None),
         ("upgrade", "D"), ("filter", None), ("contract", "P"), ("assert", None),
         ("upgrade", "P"), ("announce", None), ("contract", "D"), ("assert", None))


def _balanced_literal(rng, m: ref.Model):
    """A literal true at as close to half of the live worlds as any."""
    half = m.count() / 2
    gap = {a: abs((m.val[a] & m.live).bit_count() - half) for a in m.atoms}
    a = rng.choice([a for a in m.atoms if gap[a] == min(gap.values())])
    return ("atom", a) if rng.random() < 0.5 else ("not", ("atom", a))


def _script(rng, m: ref.Model, plans: dict, steps: int):
    """(text, op) pairs; every step leaves worlds and every assert holds.

    Upgrades promote a literal that splits the worlds about in half and
    contractions take a two-literal clause, so the rewritten orders have
    about the same size for every seed.
    """
    atoms = list(m.atoms)
    ops, cur = [], m
    for kind, tag in STEPS[:steps]:
        if kind == "announce":
            # of a few 3-clauses, the one keeping closest to 7/8 of the
            # worlds: after an update some atoms are constant, and a clause
            # over them would keep far more or fewer
            cands = [clause(rng, atoms, 3) for _ in range(8)]
            gap = [abs(ref.prop(c, cur.val, cur.live).bit_count() - cur.count() * 7 / 8)
                   for c in cands]
            phi = cands[gap.index(min(gap))]
            op, text = ("announce", phi), f"announce {render(phi)}"
        elif kind in ("upgrade", "contract"):
            phi = _balanced_literal(rng, cur) if kind == "upgrade" else clause(rng, atoms, 2)
            op, text = (kind, tag, phi), f"{kind} {tag} {render(phi)}"
        elif kind == "update":
            # the plan whose precondition keeps the most worlds, so the
            # model's size after the step does not hinge on the seed
            keeps = {p: ref.prop(plans[p]["pre"], cur.val, cur.live).bit_count()
                     for p in sorted(plans)}
            name = rng.choice([p for p in keeps if keeps[p] == max(keeps.values())])
            op, text = ("update", name), f"update {name}"
        elif kind == "filter":
            op, text = ("filter",), "filter"
        else:
            x, y = small_prop(rng, atoms), clause(rng, atoms, 2)
            ev = ref.Evaluator(cur, plans)
            f = next(c for c in (("B", x, y), ("G", x, y), ("not", ("B", x, y)))
                     if ev.holds(c))
            op, text = ("assert", f), f"assert {render(f)}"
        cur = apply(cur, op, plans)
        ops.append((text, op))
    return ops


def apply(m: ref.Model, op, plans: dict) -> ref.Model:
    kind = op[0]
    if kind == "announce":
        return ref.announce(m, op[1])
    if kind == "upgrade":
        return ref.upgrade(m, op[1], op[2])
    if kind == "contract":
        return ref.contract(m, op[1], op[2])
    if kind == "update":
        return ref.product_update(m, plans[op[1]])
    if kind == "filter":
        return ref.filter_intentions(m, plans)
    return m


def revise(rng, d: str) -> list[Command]:
    """trace scripts of 6-12 steps on 8-9-atom models (224-288 worlds)."""
    schedule = [  # atoms, knowledge spec, order shapes, plans, adopted, steps, flags
        (9, (2, 2), ("chain", "weak8"), 4, 2, 8, "json out"),      # 288
        (8, (), ("weak6", "tree2"), 3, 1, 12, ""),                 # 256
        (9, (1, 3), ("tree3", "chain"), 5, 2, 6, "out"),           # 224
        (8, (), ("weak10", "weak4"), 3, 1, 10, "json"),            # 256
        (9, (1,), ("chain", "tree2"), 4, 2, 9, "out"),             # 256
        (9, (1, 3), ("tree2", "weak8"), 3, 1, 7, "json"),          # 224
        (8, (3,), ("lex", "chain"), 4, 2, 11, ""),                 # 224
        (9, (2, 2), ("weak5", "lex"), 3, 1, 6, ""),                # 288
        (8, (), ("tree3", "weak6"), 5, 2, 12, "json"),             # 256
        (9, (1, 3), ("chain", "tree3"), 4, 1, 8, "out"),           # 224
    ]
    cmds = []
    for k, (n, widths, shapes, n_plans, adopt, steps, flags) in enumerate(schedule):
        doc, m = random_model(rng, n, widths, shapes)
        m, plans = with_library(rng, doc, m, n_plans, adopt)
        ops = _script(rng, m, plans, steps)
        argv = ["trace", "--model", write(f"{d}/revise{k}.model.json", doc),
                "--library", write(f"{d}/revise{k}.lib.json", library_doc(plans)),
                "--script", write_text(f"{d}/revise{k}.script",
                                       "".join(t + "\n" for t, _ in ops))]
        out = None
        if "json" in flags:
            argv.append("--json")
        if "out" in flags:
            out = f"{d}/revise{k}.out.json"
            argv += ["--out", out]
        cmds.append(Command(argv, "trace", {"model": m, "plans": plans, "ops": ops}, out))
    return cmds


def extract(rng, d: str) -> list[Command]:
    """extract on injective 6-8-atom models (64-144 worlds); ids are distinct valuations."""
    schedule = [  # atoms, knowledge spec, order shapes
        (7, (), ("chain", "lex")),             # 128 worlds
        (8, (2, 2), ("lex", "tree2")),         # 144
        (7, (3,), ("weak4", "chain")),         # 112
        (8, (1, 3), ("lex", "weak6")),         # 112
        (7, (), ("tree3", "lex")),             # 128
        (8, (2, 2), ("chain", "weak8")),       # 144
        (6, (), ("weak8", "tree2")),           # 64
        (8, (2, 2), ("lex", "chain")),         # 144
        (7, (), ("tree2", "lex")),             # 128
        (8, (1, 2), ("chain", "tree3")),       # 96
        (7, (3,), ("weak6", "lex")),           # 112
        (8, (1,), ("lex", "weak4")),           # 128
    ]
    cmds = []
    for k, (n, widths, shapes) in enumerate(schedule):
        doc, m = random_model(rng, n, widths, shapes)
        argv = ["extract", "--model", write(f"{d}/extract{k}.model.json", doc)]
        if k % 2:
            argv.append("--json")
        cmds.append(Command(argv, "extract", {"model": m}))
    return cmds


WORKLOADS = {"induce": induce, "query": query, "revise": revise, "extract": extract}


def build(workload: str, seed: int, d: str) -> list[Command]:
    os.makedirs(d, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), d)
