"""The package surface: the names ``hfcone`` exports, resolved on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hfcone
from hfcone import cfk, cli, cone, exactla, profiles
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
