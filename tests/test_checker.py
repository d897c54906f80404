import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindcheck import checker, dynamics
from mindcheck import formulas as fm
from mindcheck import models as md
from mindcheck import plans as pl

import strategies as gen
from common import running_library, running_model, world_set


def ext(m, text, lib=None):
    return checker.extension(m, lib or pl.EMPTY_LIBRARY, fm.parse(text))


def holds(m, text, lib=None):
    return checker.holds(m, lib or pl.EMPTY_LIBRARY, fm.parse(text))


class TestBasics:
    def test_top_holds_everywhere(self):
        m = running_model()
        assert holds(m, "T", running_library())

    def test_atom_extension(self):
        m = running_model()
        assert world_set(ext(m, "p")) == {1, 3}
        assert world_set(ext(m, "~p & ~q")) == {0}

    def test_one_world_universal(self):
        worlds = 0b10
        m = md.AgentModel(
            ("p",), worlds, md.Preorder.identity(worlds),
            md.Preorder.identity(worlds), {"p": 0b10})
        assert holds(m, "A p")

    def test_empty_model_rejected(self):
        m = running_model().restrict(0)
        with pytest.raises(checker.EmptyModelError):
            ext(m, "T")

    def test_unknown_atom(self):
        with pytest.raises(md.UnknownAtomError):
            ext(running_model(), "z")

    def test_unknown_plan(self):
        with pytest.raises(fm.UnknownPlanError):
            ext(running_model(), "I(ghost)", running_library())


class TestMinimality:
    def test_mu_top_is_global_minimum(self):
        m = running_model()
        lib = running_library()
        assert ext(m, "mu_P T", lib) == m.plausibility.min_set(m.worlds)
        assert ext(m, "mu_D T", lib) == m.desirability.min_set(m.worlds)

    @settings(max_examples=150)
    @given(gen.agent_models(), gen.prop_formulas(max_depth=3))
    def test_mu_equals_min_set_of_extension(self, m, phi):
        phi_atoms = fm.atoms_of(phi)
        if not phi_atoms <= set(m.atoms):
            phi = fm.Top()
        for tag in ("P", "D"):
            got = checker.extension(m, pl.EMPTY_LIBRARY, fm.Mu(tag, phi))
            sat = checker.extension(m, pl.EMPTY_LIBRARY, phi)
            assert got == m.order(tag).min_set(sat)


class TestAttitudes:
    def test_belief_in_q_global(self):
        m = running_model()
        assert ext(m, "B(q|T)", running_library()) == m.worlds

    def test_belief_in_p_fails(self):
        assert not holds(running_model(), "B(p|T)", running_library())

    def test_admissible_intention_example(self):
        m = running_model()
        lib = running_library()
        assert holds(m, "G(p)", lib)
        assert holds(m, "E p", lib)
        assert not holds(m, "B(p)", lib)
        assert holds(m, "AdmInt(p)", lib)
        assert not holds(m, "AdmInt(q)", lib)

    def test_intention_proper_backed_by_plan(self):
        assert holds(running_model(), "Int(p)", running_library())

    @settings(max_examples=120)
    @given(gen.model_with_props(count=2))
    def test_belief_matches_min_set_inclusion(self, case):
        m, psi, phi = case
        lib = pl.EMPTY_LIBRARY
        sat_phi = checker.extension(m, lib, phi)
        sat_psi = checker.extension(m, lib, psi)
        expect_b = not m.plausibility.min_set(sat_phi) & ~sat_psi
        expect_g = not m.desirability.min_set(sat_phi) & ~sat_psi
        assert checker.holds(m, lib, fm.Bel(psi, phi)) == expect_b
        assert checker.holds(m, lib, fm.Goal(psi, phi)) == expect_g

    @settings(max_examples=120)
    @given(gen.model_with_props(count=2))
    def test_admint_decomposes(self, case):
        m, psi, phi = case
        lib = pl.EMPTY_LIBRARY
        expected = (
            checker.holds(m, lib, fm.Goal(psi, phi))
            and checker.holds(m, lib, fm.E(fm.And(psi, phi)))
            and not checker.holds(m, lib, fm.Bel(psi, phi))
        )
        assert checker.holds(m, lib, fm.AdmInt(psi, phi)) == expected

    @settings(max_examples=120)
    @given(gen.model_with_props(count=2))
    def test_attitudes_are_globally_uniform(self, case):
        m, psi, phi = case
        lib = pl.EMPTY_LIBRARY
        for node in (fm.Bel, fm.Goal, fm.AdmInt):
            e = checker.extension(m, lib, node(psi, phi))
            assert e in (0, m.worlds)

    @settings(max_examples=120)
    @given(gen.agent_models(), gen.prop_formulas(max_depth=2),
           gen.prop_formulas(max_depth=2))
    def test_universal_modality_monotone(self, m, phi, psi):
        if not (fm.atoms_of(phi) | fm.atoms_of(psi)) <= set(m.atoms):
            return
        lib = pl.EMPTY_LIBRARY
        if checker.holds(m, lib, fm.A(phi)):
            assert checker.holds(m, lib, fm.A(fm.Or(phi, psi)))


class TestDynamicModalities:
    def test_truthful_announcement_is_known(self):
        m = running_model()
        assert ext(m, "[!q] A q", running_library()) == m.worlds

    def test_vacuous_at_removed_worlds(self):
        m = running_model()
        # worlds falsifying q satisfy [!q] F vacuously
        assert world_set(ext(m, "[!q] F", running_library())) == {0, 1}

    def test_announcing_falsum_everywhere_vacuous(self):
        m = running_model()
        assert ext(m, "[!F] F", running_library()) == m.worlds

    def test_plan_modality_forces_post(self):
        m = running_model()
        assert ext(m, "[alpha] p", running_library()) == m.worlds

    def test_plan_modality_vacuous_where_not_executable(self):
        lib = pl.load_library(
            {"plans": [{"name": "beta", "pre": "q", "post": "p"}]})
        m = running_model()
        # non-q worlds cannot run beta, so they satisfy [beta] F
        assert world_set(ext(m, "[beta] F", lib)) == {0, 1}

    def test_intends(self):
        m = running_model()
        assert ext(m, "I(alpha)", running_library()) == m.worlds

    @settings(max_examples=100)
    @given(gen.model_with_props(count=2))
    def test_agrees_with_two_step_evaluation(self, case):
        m, arg, body = case
        lib = pl.EMPTY_LIBRARY
        # announcement: survivors checked in the pruned model, rest vacuous
        survivors = checker.extension(m, lib, arg)
        got = checker.extension(m, lib, fm.DynMod("announce", None, arg, body))
        if survivors:
            inner = checker.extension(dynamics.announce(m, arg), lib, body)
            assert got == (m.worlds & ~survivors) | inner
        else:
            assert got == m.worlds
        # upgrade and contraction keep the world set
        for op, tag in (("upgrade", "P"), ("upgrade", "D"),
                        ("contract", "P"), ("contract", "D")):
            got = checker.extension(m, lib, fm.DynMod(op, tag, arg, body))
            transformed = (dynamics.upgrade(m, tag, arg) if op == "upgrade"
                           else dynamics.contract(m, tag, arg))
            assert got == checker.extension(transformed, lib, body)


class TestProposition1:
    def test_running_example_ok(self):
        assert checker.check_proposition1(
            running_model(), running_library()) is None

    def test_no_intentions_vacuously_ok(self):
        m = running_model()
        m = md.AgentModel(
            m.atoms, m.worlds, m.plausibility, m.desirability, m.valuation,
            frozenset())
        assert checker.check_proposition1(m, running_library()) is None

    def test_reports_failing_plan(self):
        # hand-built model that skips construction-time checks: alpha's
        # precondition is not believed
        lib = pl.load_library(
            {"plans": [{"name": "alpha", "pre": "~q", "post": "p"}]})
        m = running_model()
        m = md.AgentModel(
            m.atoms, m.worlds, m.plausibility, m.desirability, m.valuation,
            frozenset({"alpha"}))
        failure = checker.check_proposition1(m, lib)
        assert failure is not None
        assert failure.plan == "alpha"
        assert failure.reason == "precondition-not-believed"


class TestMasksStayInsideTheWorlds:
    """Every world mask the engine returns is a non-negative subset of the
    model's worlds, on sparse ids where a stray bit would not be another
    world's."""

    @staticmethod
    def assert_inside(mask, worlds):
        assert mask >= 0 and not mask & ~worlds, (bin(mask), bin(worlds))

    @settings(max_examples=150)
    @given(gen.agent_models(sparse=True), st.data())
    def test_extensions_min_sets_and_restrictions(self, m, data):
        a, z = m.atoms[0], m.atoms[-1]
        lib = pl.load_library({"plans": [
            {"name": "alpha", "pre": "T", "post": a},
            {"name": "beta", "pre": z, "post": f"~{a}"}]})
        f = data.draw(gen.formulas(names=m.atoms, max_depth=4))
        phi = data.draw(gen.prop_formulas(m.atoms))
        sat = md.satisfying_worlds(phi, m.worlds, m.valuation)
        self.assert_inside(sat, m.worlds)
        e = checker.extension(m, lib, f)
        self.assert_inside(e, m.worlds)
        for keep in (e, sat):
            for tag in ("P", "D"):
                self.assert_inside(m.order(tag).min_set(keep), keep)
            r = m.restrict(keep)
            self.assert_inside(r.worlds, m.worlds)
            for ws in r.valuation.values():
                self.assert_inside(ws, keep)
            for tag in ("P", "D"):
                order = r.order(tag)
                assert order.carrier == keep
                for strict in (False, True):
                    rows = order.down_rows(strict)
                    assert set(rows) == world_set(keep)
                    for row in rows.values():
                        self.assert_inside(row, keep)
