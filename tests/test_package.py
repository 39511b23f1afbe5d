"""The package surface: the names ``hfcone`` exports, resolved on first use."""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import hfcone
from hfcone import cfk, cli, cone, exactla, obstruct, profiles
from hfcone.profiles import InputError

# the names and order of __all__, as the package has always exported them
PUBLIC = """
AbelianGroup Arrow CONSISTENT CfkComplex EliminationOverflow ConeTooLarge Framing
FramingError Generator InvalidComplexError LocalData NOT_APPLICABLE ProfileError
ProfileParseError SliceComplex SpincClassification SpincEntry StaircaseError
SurgeryProfile SurgeryReport TAU_EXTREMAL_BOTH TAU_EXTREMAL_FIRST TorsionError Verdict
VIOLATED Window ahat bhat classify_spinc ell_formula_lspace figure_eight
first_kind_brute first_kind_closed_form genus_inequality gz_lower_bound homology
k_family k_family_obstruction lspace_knot mirror pair_obstruction parse phi serialize
smith_normal_form spinc_group spinc_runs staircase_from_alexander surgery_report
tau_extremal to_profile truncation_window unknot validate
""".split()


def test_star_import_binds_the_public_names_in_order():
    namespace = {}
    exec("from hfcone import *", namespace)
    del namespace["__builtins__"]
    assert len(PUBLIC) == 54
    assert hfcone.__all__ == PUBLIC
    assert list(namespace) == PUBLIC


def test_each_name_is_the_object_of_its_home_module():
    for name in PUBLIC:
        home = importlib.import_module(f"hfcone.{hfcone._HOMES[name]}")
        value = getattr(hfcone, name)
        assert value is getattr(home, name), name
        # a class or function is found where it is defined
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_dir_lists_the_public_names():
    assert set(PUBLIC) <= set(dir(hfcone))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        hfcone.no_such_name  # noqa: B018
    assert not hasattr(hfcone, "no_such_name")


def test_submodules_resolve_as_attributes():
    for name in ("cfk", "cone", "exactla", "obstruct", "profiles"):
        assert getattr(hfcone, name) is importlib.import_module(f"hfcone.{name}")


def test_complex_errors_are_one_class_each():
    for name in ("InvalidComplexError", "TorsionError", "StaircaseError", "ComplexTooLarge"):
        error = getattr(cfk, name)
        assert error.__module__ == "hfcone.cfk", name
        assert issubclass(error, InputError), name
        assert not hasattr(exactla, name), name
    assert cfk.TorsionError is hfcone.TorsionError
    # d x = 2 y + 3 z: H(B) = Z, but no unit arrow gives a basis
    gens = tuple(cfk.Generator(x, 0) for x in "xyz")
    c = cfk.CfkComplex(gens, (cfk.Arrow(0, 1, 0, 2), cfk.Arrow(0, 2, 0, 3)), (0, 1, 2))
    try:
        cfk.to_profile(c)
    except cfk.TorsionError as e:
        assert isinstance(e, hfcone.TorsionError)
    else:
        pytest.fail("to_profile accepted a slice with no unit basis")


def test_every_input_data_refusal_is_an_input_error():
    # cli.main exits 65 on InputError alone: every refusal of input data is one
    for error in (
        profiles.ProfileError, profiles.ProfileParseError, cone.FramingError,
        cone.ConeTooLarge, cfk.StaircaseError, cfk.InvalidComplexError,
        cfk.TorsionError, cfk.ComplexTooLarge,
    ):
        assert issubclass(error, InputError), error
    assert cli.InputError is InputError
    assert not hasattr(cli, "InputDataError")
    assert not issubclass(exactla.EliminationOverflow, InputError)
    assert not issubclass(cli.UsageError, InputError)


def test_submodule_resolves_through_the_hook_in_a_fresh_interpreter():
    # here every submodule is imported already, so hfcone.obstruct is a
    # plain attribute; a fresh interpreter reaches it through __getattr__
    code = """
import sys
import hfcone
assert "hfcone.obstruct" not in sys.modules and "obstruct" not in vars(hfcone)
assert hfcone.obstruct is sys.modules["hfcone.obstruct"]
"""
    path = [str(Path(hfcone.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")


def _trefoil():
    return cfk.staircase_from_alexander([1, -1, 1])


# each value type: (the value, the same value built by keywords, the fields
# that compare and hash, the repr the package has always printed)
VALUES = {
    "AbelianGroup": lambda: (
        exactla.AbelianGroup(3, (2, 4)), exactla.AbelianGroup(torsion=(2, 4), free_rank=3),
        (3, (2, 4)), "AbelianGroup(free_rank=3, torsion=(2, 4))",
    ),
    "LocalData": lambda: (
        profiles.LocalData(1, (0,), (1,)), profiles.LocalData(h=(1,), v=(0,), rank=1),
        (1, (0,), (1,)), "LocalData(rank=1, v=(0,), h=(1,))",
    ),
    "SurgeryProfile": lambda: (
        profiles.figure_eight(),
        profiles.SurgeryProfile(
            overrides={0: profiles.LocalData(3, (1, 0, 0), (1, 0, 0))}, genus=1, name="fig8"
        ),
        (1, (0, 1), (profiles.LEFT_EDGE, profiles.LocalData(3, (1, 0, 0), (1, 0, 0)),
                     profiles.RIGHT_EDGE)),
        "SurgeryProfile(name='fig8', genus=1, cuts=(0, 1), pieces=(LocalData(rank=1, v=(0,),"
        " h=(1,)), LocalData(rank=3, v=(1, 0, 0), h=(1, 0, 0)), LocalData(rank=1, v=(1,),"
        " h=(0,))))",
    ),
    "Framing": lambda: (
        cone.Framing(3, -2), cone.Framing(q=2, p=-3), (-3, 2), "Framing(p=-3, q=2)",
    ),
    "Window": lambda: (
        cone.Window(-1, 2, 0, 2), cone.Window(a_lo=-1, a_hi=2, b_lo=0, b_hi=2), (-1, 2, 0, 2),
        "Window(a_lo=-1, a_hi=2, b_lo=0, b_hi=2)",
    ),
    "SpincEntry": lambda: (
        cone.SpincEntry(0, exactla.AbelianGroup(1), True),
        cone.SpincEntry(is_l_structure=True, group=exactla.AbelianGroup(1), i=0),
        (0, exactla.AbelianGroup(1), True),
        "SpincEntry(i=0, group=AbelianGroup(free_rank=1, torsion=()), is_l_structure=True)",
    ),
    "SurgeryReport": lambda: (
        cone.surgery_report(profiles.figure_eight(), cone.Framing(-2)),
        cone.SurgeryReport(
            total_rank=4, ell=1, framing=cone.Framing(-2),
            runs=((range(0, 1), exactla.AbelianGroup(3)), (range(1, 2), exactla.AbelianGroup(1))),
        ),
        (cone.Framing(-2), ((range(0, 1), exactla.AbelianGroup(3)),
                            (range(1, 2), exactla.AbelianGroup(1))), 1, 4),
        "SurgeryReport(framing=Framing(p=-2, q=1), runs=((range(0, 1), AbelianGroup(free_rank=3,"
        " torsion=())), (range(1, 2), AbelianGroup(free_rank=1, torsion=()))), ell=1,"
        " total_rank=4)",
    ),
    "Generator": lambda: (
        cfk.Generator("x", 1), cfk.Generator(alexander=1, name="x"), ("x", 1),
        "Generator(name='x', alexander=1)",
    ),
    "Arrow": lambda: (
        cfk.Arrow(1, 0, 2, -1), cfk.Arrow(coeff=-1, u_power=2, target=0, source=1), (1, 0, 2, -1),
        "Arrow(source=1, target=0, u_power=2, coeff=-1)",
    ),
    "CfkComplex": lambda: (
        _trefoil(),
        cfk.CfkComplex(conj=(2, 1, 0), arrows=_trefoil().arrows, generators=_trefoil().generators),
        (_trefoil().generators, _trefoil().arrows, (2, 1, 0)),
        "CfkComplex(generators=(Generator(name='x0', alexander=1), Generator(name='x1',"
        " alexander=0), Generator(name='x2', alexander=-1)), arrows=(Arrow(source=1, target=2,"
        " u_power=0, coeff=1), Arrow(source=1, target=0, u_power=1, coeff=1)), conj=(2, 1, 0))",
    ),
    "SliceComplex": lambda: (
        cfk.bhat(_trefoil()),
        cfk.SliceComplex(differential=({}, {2: 1}, {}), basis=((0, 0), (1, 0), (2, 0))),
        (((0, 0), (1, 0), (2, 0)), ({}, {2: 1}, {})),
        "SliceComplex(basis=((0, 0), (1, 0), (2, 0)), differential=({}, {2: 1}, {}))",
    ),
    "SliceHomology": lambda: (
        cfk.homology(cfk.bhat(_trefoil())),
        cfk.SliceHomology(
            _survivors=(0,), _steps=((1, 2, 1, {}, {}),), group=exactla.AbelianGroup(1)
        ),
        (exactla.AbelianGroup(1), ((1, 2, 1, {}, {}),), (0,)),
        "SliceHomology(group=AbelianGroup(free_rank=1, torsion=()), _steps=((1, 2, 1, {}, {}),),"
        " _survivors=(0,))",
    ),
    "Verdict": lambda: (
        obstruct.Verdict(obstruct.NOT_APPLICABLE, detail="d"),
        obstruct.Verdict(detail="d", status="not_applicable", rhs=None),
        ("not_applicable", None, None, "d"),
        "Verdict(status='not_applicable', lhs=None, rhs=None, detail='d')",
    ),
    "SpincClassification": lambda: (
        obstruct.classify_spinc(1, 5, 1),
        obstruct.SpincClassification(second_kind={0: (0, 0)}, first_kind=frozenset({1, 2, 3, 4})),
        (frozenset({1, 2, 3, 4}), {0: (0, 0)}),
        "SpincClassification(first_kind=frozenset({1, 2, 3, 4}), second_kind={0: (0, 0)})",
    ),
}


class _Other(exactla.Record):
    """A record of another class, given the same fields."""


@pytest.mark.parametrize("name", VALUES)
def test_value_types_are_frozen_records(name):
    value, by_keywords, fields, text = VALUES[name]()
    assert type(value).__name__ == name
    assert isinstance(value, exactla.Record)
    # equal only within a class: not to the tuple of its fields, nor to a
    # record of another class with the same fields
    assert value == by_keywords and not value != by_keywords
    assert value != fields and not value == fields
    other = _Other.__new__(_Other)
    other.__dict__.update(value.__dict__)
    assert value != other and not value == other
    try:
        expected = hash(fields)
    except TypeError:  # a dict among the fields, as the dataclasses had
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(by_keywords) == expected
    assert repr(value) == repr(by_keywords) == text
    field = next(iter(value.__dict__))
    before = dict(value.__dict__)
    with pytest.raises(AttributeError, match=repr(field)):
        setattr(value, field, 0)
    with pytest.raises(AttributeError, match=repr(field)):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.new_field = 0
    assert value.__dict__ == before
    for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value)
        assert copied == value and repr(copied) == text


def test_record_defaults():
    assert exactla.AbelianGroup(1) == exactla.AbelianGroup(1, ())
    assert cone.Framing(5) == cone.Framing(5, 1) == cone.Framing(p=5)
    assert cone.Framing(3, 2) != (3, 2)
    verdict = obstruct.Verdict(obstruct.VIOLATED, detail="x")
    assert (verdict.lhs, verdict.rhs, verdict.detail) == (None, None, "x")
    assert obstruct.Verdict("s").detail == ""


# a value that keeps a cache beside its fields: (a maker, the cache's name in
# __dict__, a read that fills it, and what that read gives)
CACHED = {
    "report": (
        lambda: cone.surgery_report(profiles.figure_eight(), cone.Framing(-3)),
        "spinc", lambda report: len(report.spinc), 3,
    ),
    "profile": (
        profiles.figure_eight, "plans",
        lambda profile: cone.surgery_report(profile, cone.Framing(-1, 3)) and len(profile.plans), 1,
    ),
    "complex": (_trefoil, "genus", lambda complex_: complex_.genus, 1),
}


@pytest.mark.parametrize("name", CACHED)
def test_value_compares_the_same_after_its_cache_is_filled(name):
    make, cache, fill, filled = CACHED[name]
    value, fresh = make(), make()
    key, text = hash(value), repr(value)
    assert fill(value) == filled and cache in value.__dict__
    assert value == fresh and not value != fresh
    assert hash(value) == key == hash(fresh)
    assert repr(value) == repr(fresh) == text
    for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert copied == value and not copied != value
        assert hash(copied) == key and repr(copied) == text


def test_profile_equality_ignores_name_and_plans():
    profile = profiles.figure_eight()
    renamed = profiles.SurgeryProfile("other", profile.genus, profile.overrides)
    cone.surgery_report(profile, cone.Framing(-1, 3))
    assert profile.plans and not renamed.plans
    assert profile == renamed and not profile != renamed
    assert hash(profile) == hash(renamed)
    assert "plans" not in repr(profile) and repr(renamed).startswith("SurgeryProfile(name='other'")
    assert profile != profiles.lspace_knot(1) and profile != profile.pieces
