import dataclasses
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindcheck import formulas as fm
from mindcheck import plans as pl

import strategies as gen


def unshared(f):
    """A structurally equal copy of f in which no object occurs twice."""
    return type(f)(*(unshared(v) if dataclasses.is_dataclass(v) else v
                     for v in (getattr(f, x.name) for x in dataclasses.fields(f))))


@st.composite
def shared_contexts(draw):
    """Formulas that hold one sub-formula object in several render contexts:
    left of '|', right of '&', on either side of '->', under '~', and in
    both the consequent and the condition of B(...), bare and inside a
    disjunction."""
    s = draw(gen.formulas(max_depth=3))
    other = draw(gen.formulas(max_depth=2))
    contexts = [fm.Or(s, other), fm.And(other, s), fm.Implies(s, other),
                fm.Implies(other, s), fm.Not(s), fm.Bel(s, s),
                fm.Bel(fm.Or(other, s), fm.Implies(s, other))]
    return draw(st.lists(st.sampled_from(contexts), min_size=1, max_size=8))


def lib_ab():
    return pl.load_library({"plans": [
        {"name": "alpha", "pre": "T", "post": "p"},
        {"name": "beta", "pre": "q", "post": "~p"},
    ]})


class TestParse:
    def test_conjunction_with_negation(self):
        assert fm.parse("p & ~q") == fm.And(fm.Atom("p"), fm.Not(fm.Atom("q")))

    def test_conditional_belief(self):
        assert fm.parse("B(q|p)") == fm.Bel(fm.Atom("q"), fm.Atom("p"))

    def test_nested_dynamic_modality(self):
        f = fm.parse("[up_P p] B(p|T)")
        assert f == fm.DynMod("upgrade", "P", fm.Atom("p"),
                              fm.Bel(fm.Atom("p"), fm.Top()))

    def test_unbalanced_parenthesis(self):
        with pytest.raises(fm.ParseError):
            fm.parse("B(p")

    def test_unknown_operator(self):
        with pytest.raises(fm.ParseError, match="unknown operator"):
            fm.parse("Foo & p")

    def test_error_carries_position(self):
        with pytest.raises(fm.ParseError) as exc:
            fm.parse("p & )")
        assert exc.value.line == 1
        assert exc.value.column == 5
        assert exc.value.expected

    def test_unconditional_sugar_defaults_to_top(self):
        assert fm.parse("B(p)") == fm.Bel(fm.Atom("p"), fm.Top())
        assert fm.parse("Int(p)") == fm.Int(fm.Atom("p"), fm.Top())

    def test_precedence_chain(self):
        # ~ > & > | > ->, with -> right-associative
        f = fm.parse("~p & q | r -> s -> t")
        p, q, r, s, t = (fm.Atom(n) for n in "pqrst")
        assert f == fm.Implies(fm.Or(fm.And(fm.Not(p), q), r),
                               fm.Implies(s, t))

    def test_prefix_binds_tighter_than_binary(self):
        f = fm.parse("A p & q")
        assert f == fm.And(fm.A(fm.Atom("p")), fm.Atom("q"))

    def test_modalities(self):
        assert fm.parse("[<=P] p") == fm.Box("P", False, fm.Atom("p"))
        assert fm.parse("[<D] p") == fm.Box("D", True, fm.Atom("p"))
        assert fm.parse("<<=D>> p") == fm.Diamond("D", False, fm.Atom("p"))
        assert fm.parse("<<P>> p") == fm.Diamond("P", True, fm.Atom("p"))
        assert fm.parse("mu_D p") == fm.Mu("D", fm.Atom("p"))

    def test_announcement_has_no_order_tag(self):
        f = fm.parse("[!p & q] A q")
        assert f == fm.DynMod("announce", None,
                              fm.And(fm.Atom("p"), fm.Atom("q")),
                              fm.A(fm.Atom("q")))

    def test_plan_modality_and_intends(self):
        assert fm.parse("[alpha] p") == fm.PlanMod("alpha", fm.Atom("p"))
        assert fm.parse("I(alpha)") == fm.Intends("alpha")

    def test_dynamic_argument_must_be_propositional(self):
        with pytest.raises(fm.ParseError, match="propositional"):
            fm.parse("[!A p] q")

    def test_bar_inside_condition_is_disjunction(self):
        f = fm.parse("B(q|a|b)")
        assert f == fm.Bel(fm.Atom("q"), fm.Or(fm.Atom("a"), fm.Atom("b")))

    def test_parenthesised_disjunctive_consequent(self):
        f = fm.parse("B((a|b)|c)")
        assert f == fm.Bel(fm.Or(fm.Atom("a"), fm.Atom("b")), fm.Atom("c"))

    @pytest.mark.parametrize("make", [
        lambda n: "~" * n + "p",
        lambda n: "(" * n + "p" + ")" * n,
        lambda n: "[!p] " * n + "p",
        lambda n: "B(" * n + "p" + ")" * n,
        lambda n: " -> ".join(["p"] * (n + 1)),
    ])
    def test_nesting_is_capped(self, make):
        depth = fm.MAX_NESTING - 1
        assert fm.parse(make(depth)) == fm.parse(fm.render(fm.parse(make(depth))))
        with pytest.raises(fm.ParseError, match="nested deeper than"):
            fm.parse(make(fm.MAX_NESTING))
        with pytest.raises(fm.ParseError, match="nested deeper than"):
            fm.parse(make(3000))

    def test_flat_chains_are_not_nesting(self):
        f = fm.parse(" | ".join(["p"] * (2 * fm.MAX_NESTING)))
        assert isinstance(f, fm.Or)


class TestRender:
    def test_examples(self):
        assert fm.render(fm.And(fm.Atom("p"), fm.Atom("q"))) == "p & q"
        assert fm.render(fm.Mu("P", fm.Atom("p"))) == "mu_P p"
        assert fm.render(fm.Intends("alpha")) == "I(alpha)"

    def test_disjunctive_consequent_is_guarded(self):
        f = fm.Bel(fm.Or(fm.Atom("a"), fm.Atom("b")), fm.Atom("c"))
        assert fm.parse(fm.render(f)) == f

    @settings(max_examples=300)
    @given(gen.formulas(max_depth=6))
    def test_round_trip(self, f):
        assert fm.parse(fm.render(f)) == f

    @settings(max_examples=300)
    @given(shared_contexts())
    def test_shared_table_keeps_text(self, fs):
        whole = reduce(fm.And, fs)
        memo = {}
        shared = [fm.render(f, memo) for f in fs + [whole]]
        assert shared == [fm.render(unshared(f)) for f in fs + [whole]]
        assert fm.parse(shared[-1]) == whole

    def test_long_flat_chain_renders(self):
        text = " | ".join(["p"] * 900)
        assert fm.render(fm.parse(text)) == text


class TestDesugar:
    def test_belief_expansion(self):
        p, q = fm.Atom("p"), fm.Atom("q")
        expected = fm.A(fm.Implies(
            fm.And(p, fm.Not(fm.Diamond("P", True, p))), q))
        assert fm.desugar(fm.Bel(q, p)) == expected

    def test_mu_of_top(self):
        t = fm.Top()
        assert fm.desugar(fm.Mu("D", t)) == fm.And(
            t, fm.Not(fm.Diamond("D", True, t)))

    def test_int_expansion_single_plan(self):
        lib = pl.load_library(
            {"plans": [{"name": "alpha", "pre": "T", "post": "p"}]})
        p, top = fm.Atom("p"), fm.Top()
        admint = fm.desugar(fm.AdmInt(p, top))
        backing = fm.And(
            fm.Intends("alpha"),
            fm.desugar(fm.Bel(fm.And(top, fm.PlanMod("alpha", p)), top), lib),
        )
        assert fm.desugar(fm.Int(p, top), lib) == fm.And(admint, backing)

    def test_int_requires_library(self):
        with pytest.raises(fm.UnknownPlanError):
            fm.desugar(fm.Int(fm.Atom("p"), fm.Top()))

    def test_unknown_plan_symbol(self):
        with pytest.raises(fm.UnknownPlanError):
            fm.desugar(fm.Intends("gamma"), lib_ab())

    def test_int_over_empty_library_is_unachievable(self):
        f = fm.desugar(fm.Int(fm.Atom("p"), fm.Top()), pl.EMPTY_LIBRARY)
        assert isinstance(f, fm.And)
        assert f.right == fm.Bottom()

    @settings(max_examples=200)
    @given(gen.formulas(max_depth=4))
    def test_output_is_sugar_free(self, f):
        assert fm.is_sugar_free(fm.desugar(f, lib_ab()))

    @settings(max_examples=200)
    @given(gen.formulas(max_depth=4))
    def test_idempotent(self, f):
        lib = lib_ab()
        once = fm.desugar(f, lib)
        assert fm.desugar(once, lib) == once


class TestPredicates:
    def test_propositional(self):
        assert fm.is_propositional(fm.parse("p & (q -> ~r)"))
        assert not fm.is_propositional(fm.parse("A p"))
        assert not fm.is_propositional(fm.parse("B(p)"))

    def test_atom_name_validation(self):
        with pytest.raises(fm.FormulaError):
            fm.Atom("P")
        with pytest.raises(fm.FormulaError):
            fm.Atom("")

    def test_dynmod_invariants(self):
        with pytest.raises(fm.FormulaError):
            fm.DynMod("announce", "P", fm.Atom("p"), fm.Atom("q"))
        with pytest.raises(fm.FormulaError):
            fm.DynMod("upgrade", None, fm.Atom("p"), fm.Atom("q"))
        with pytest.raises(fm.FormulaError):
            fm.DynMod("announce", None, fm.A(fm.Atom("p")), fm.Atom("q"))
