"""Definition-level oracles used to derive expected test values.

Everything here works on plain frozensets of pairs and dict valuations,
applying the defining conditions by exhaustive enumeration; none of it
shares code with the package's bit-row machinery or its evaluator.
"""


def holds_at(f, true_atoms) -> bool:
    """Truth of a propositional formula tree where exactly true_atoms hold.

    The tree is read by node class name and fields only.
    """
    kind = type(f).__name__
    if kind == "Atom":
        return f.name in true_atoms
    if kind in ("Top", "Bottom"):
        return kind == "Top"
    if kind == "Not":
        return not holds_at(f.child, true_atoms)
    left, right = holds_at(f.left, true_atoms), holds_at(f.right, true_atoms)
    return {"And": left and right, "Or": left or right,
            "Implies": not left or right}[kind]


def closure(worlds, pairs):
    """Reflexive-transitive closure of a pair set."""
    rel = set(pairs) | {(w, w) for w in worlds}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


def strict(pairs):
    return frozenset((w, u) for (w, u) in pairs if (u, w) not in pairs)


def min_of(pairs, subset):
    st = strict(pairs)
    return frozenset(
        w for w in subset if not any((u, w) in st for u in subset)
    )


def settles(pairs, worlds, sat) -> bool:
    """Every minimal world of the order lies in sat: B(x|T) read on the
    plausibility pairs, G(x|T) on the desirability pairs."""
    return min_of(pairs, worlds) <= sat


def admissible(plaus, des, worlds, sat) -> bool:
    """AdmInt(x|T): x is desired, possible and not already believed."""
    return (settles(des, worlds, sat) and bool(sat)
            and not settles(plaus, worlds, sat))


def p_consistent(plaus, des, worlds, pre_sat, post_sat) -> bool:
    """An adopted plan's condition: believed pre, admissible post."""
    return (settles(plaus, worlds, pre_sat)
            and admissible(plaus, des, worlds, post_sat))


def induced(worlds, node_exts, prec_pairs):
    """Lexicographic order: node_exts lists satisfying-world sets, ordered;
    prec_pairs are (higher, lower) index pairs."""
    def le(w, u):
        for i, ext in enumerate(node_exts):
            if u in ext and w not in ext:
                wins = [
                    j for (j, k) in prec_pairs if k == i
                    and w in node_exts[j] and u not in node_exts[j]
                ]
                if not wins:
                    return False
        return True

    return frozenset((w, u) for w in worlds for u in worlds if le(w, u))


def announce_pairs(worlds, pairs, keep):
    return frozenset((w, u) for (w, u) in pairs if w in keep and u in keep)


def upgrade_pairs(worlds, pairs, sat):
    removed = {(w, u) for (w, u) in pairs if w not in sat and u in sat}
    added = {(w, u) for w in worlds for u in worlds
             if w in sat and u not in sat}
    return frozenset((set(pairs) - removed) | added)


def contract_pairs(worlds, pairs, counter):
    """counter: the worlds falsifying the contracted formula."""
    min_all = min_of(pairs, worlds)
    min_counter = min_of(pairs, counter)
    return frozenset(
        (w, u) for w in worlds for u in worlds
        if w in min_all or w in min_counter
        or ((w, u) in pairs and u not in min_counter)
    )


def product_update_valuation(worlds, valuation, keep, post_literals):
    """valuation: atom -> world set; post_literals: atom -> bool."""
    out = {}
    for atom, ws in valuation.items():
        if atom in post_literals:
            out[atom] = frozenset(keep) if post_literals[atom] else frozenset()
        else:
            out[atom] = frozenset(ws) & frozenset(keep)
    return out
