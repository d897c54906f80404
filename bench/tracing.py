"""Per-layer tracing, installed from outside the engine.

``Tracer.install`` replaces public functions of the engine's modules (module
and class attributes) with wrappers that record a span per call: name,
start, end, parent span and command id. Counters are taken at the same
boundaries. Spans stay in memory; ``layer_metrics`` turns them into
per-layer figures: the self time of each span name (its duration minus the
time its child spans cover), call counts and sizes. Every timed span name
maps to one ``*_s`` metric, so the ``*_s`` figures together account for the
whole time spent inside ``cli.main``.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter


def count_nodes(f) -> int:
    """AST nodes of an engine formula, walked without recursion."""
    n, stack = 0, [f]
    while stack:
        g = stack.pop()
        n += 1
        for name in ("child", "left", "right", "consequent", "condition",
                     "argument", "body"):
            sub = getattr(g, name, None)
            if sub is not None:
                stack.append(sub)
    return n


def order_pairs(order) -> int:
    """Pairs in a Preorder, read from its bit rows."""
    return sum(row.bit_count() for row in order._up.values())


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []     # (name, start, end, parent, command)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.command = 0
        self._saved: list[tuple] = []
        self._extension_depth = 0

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.command)
                tracer.counts[name + ".calls"] += 1
            if after is not None:
                # Counting walks are the tracer's own work: give them a span
                # so they come out of the parent's self time.
                after(args, return_value)
                tracer.spans.append(("tracer", end, perf_counter(), parent, tracer.command))
            return return_value

        return traced

    def _patch(self, owner, attr: str, name: str, after=None, kind=None):
        original = owner.__dict__[attr]
        fn = original.__func__ if kind is classmethod else original
        wrapped = self._wrap(name, fn, after)
        setattr(owner, attr, classmethod(wrapped) if kind is classmethod else wrapped)
        self._saved.append((owner, attr, original))

    def install(self, engine):
        """Wrap the layer boundaries of the engine package ``engine``."""
        fm, md, pg = engine.formulas, engine.models, engine.pgraph
        pl, dy, ck, cli = engine.plans, engine.dynamics, engine.checker, engine.cli
        counts = self.counts

        def desugared(args, f):
            counts["formulas.desugar_nodes"] += count_nodes(f)

        def model_pairs(m):
            counts["models.relation_pairs"] += order_pairs(m.plausibility) + order_pairs(m.desirability)
            counts["models.orders"] += 2

        def dumped(args, doc):
            counts["models.relation_pairs"] += len(doc["plausibility"]) + len(doc["desirability"])
            counts["models.orders"] += 2

        def extracted(args, graph):
            counts["pgraph.graph_formula_nodes"] += sum(count_nodes(n) for n in graph.nodes)

        self._patch(fm, "parse", "formulas.parse")
        self._patch(fm, "render", "formulas.render")
        self._patch(fm, "desugar", "formulas.desugar", desugared)
        self._patch(md.Preorder, "__init__", "models.preorder")
        self._patch(md.Preorder, "from_pairs", "models.from_pairs", kind=classmethod)
        self._patch(md.AgentModel, "restrict", "models.restrict")
        self._patch(md, "load_model", "models.load_model", lambda a, m: model_pairs(m))
        self._patch(md, "dump_model", "models.dump_model", dumped)
        self._patch(pg, "load_program", "pgraph.load_program")
        self._patch(pg, "induced_order", "pgraph.induced_order")
        self._patch(pg, "extract_graph", "pgraph.extract_graph", extracted)
        self._patch(pl, "load_library", "plans.load_library")
        self._patch(pl, "check_p_consistency", "plans.p_consistency")
        for op in ("announce", "upgrade", "contract", "product_update"):
            self._patch(dy, op, f"dynamics.{op}")
        self._patch(dy, "filter_intentions", "dynamics.filter_intentions")
        self._patch_extension(ck)
        self._patch(ck, "holds", "checker.holds")
        self._patch(cli, "_read_json", "cli.read")
        self._patch(cli, "_dump_json", "cli.render")
        self._patch(cli, "main", "cli.main")

    def _patch_extension(self, ck):
        """extension, counting the calls made while another one runs."""
        original = ck.extension
        traced = self._wrap("checker.extension", original)
        tracer = self

        @functools.wraps(original)
        def extension(*args, **kwargs):
            if tracer._extension_depth:
                tracer.counts["checker.nested_models"] += 1
            tracer._extension_depth += 1
            try:
                return traced(*args, **kwargs)
            finally:
                tracer._extension_depth -= 1

        ck.extension = extension
        self._saved.append((ck, "extension", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reporting --------------------------------------------------------

    def self_times(self) -> Counter:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer figures per round of the command list."""
        own, c = self.self_times(), self.counts
        dyn = ("dynamics.announce", "dynamics.upgrade", "dynamics.contract",
               "dynamics.product_update")
        times = {
            "formulas.parse_s": own["formulas.parse"],
            "formulas.desugar_s": own["formulas.desugar"],
            "formulas.render_s": own["formulas.render"],
            "models.preorder_s": own["models.preorder"],
            "models.from_pairs_s": own["models.from_pairs"],
            "models.restrict_s": own["models.restrict"],
            "models.load_model_s": own["models.load_model"],
            "models.dump_model_s": own["models.dump_model"],
            "pgraph.load_program_s": own["pgraph.load_program"],
            "pgraph.induced_order_s": own["pgraph.induced_order"],
            "pgraph.extract_graph_s": own["pgraph.extract_graph"],
            "plans.load_library_s": own["plans.load_library"],
            "plans.p_consistency_s": own["plans.p_consistency"],
            **{f"{name}_s": own[name] for name in dyn},
            "dynamics.filter_intentions_s": own["dynamics.filter_intentions"],
            "checker.extension_s": own["checker.extension"],
            "checker.holds_s": own["checker.holds"],
            "cli.read_s": own["cli.read"],
            "cli.render_s": own["cli.render"],
            "cli.self_s": own["cli.main"],
            "trace.bookkeeping_s": own["tracer"],
        }
        counts = {
            "formulas.desugar_nodes": c["formulas.desugar_nodes"],
            "models.preorder_builds": c["models.preorder.calls"],
            "models.restrict_calls": c["models.restrict.calls"],
            "models.dump_model_calls": c["models.dump_model.calls"],
            "pgraph.induced_order_calls": c["pgraph.induced_order.calls"],
            "pgraph.graph_formula_nodes": c["pgraph.graph_formula_nodes"],
            "plans.p_consistency_calls": c["plans.p_consistency.calls"],
            "dynamics.ops": sum(c[name + ".calls"] for name in dyn),
            "checker.extension_calls": c["checker.extension.calls"],
            "checker.nested_models": c["checker.nested_models"],
            "checker.holds_calls": c["checker.holds.calls"],
        }
        out = {k: (v / rounds, "s") for k, v in times.items()}
        out.update({k: (v // rounds, "count") for k, v in counts.items()})
        # a mean over every order loaded or dumped, so not divided by rounds
        out["models.relation_pairs"] = (
            c["models.relation_pairs"] // max(c["models.orders"], 1), "count")
        return out
