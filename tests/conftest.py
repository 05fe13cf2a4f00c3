import os
from pathlib import Path

import pytest

from kq.chain_algebra import ChainAlgebra, GradedModule

# the CLI subprocesses (python -m kq) import the package from this checkout
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def make_massey_algebra():
    """The worked fixture: F2 letters a,b,c with x,y killing ab and bc.

    The triple product <a,b,c> is the class of a*y + x*c in H_1 degree 3.
    """
    elements = [
        ("1", 0, 0),
        ("a", 1, 0),
        ("b", 1, 0),
        ("c", 1, 0),
        ("ab", 2, 0),
        ("bc", 2, 0),
        ("abc", 3, 0),
        ("x", 2, 1),
        ("y", 2, 1),
        ("ay", 3, 1),
        ("xc", 3, 1),
    ]
    diff = {
        "x": {"ab": 1},
        "y": {"bc": 1},
        "ay": {"abc": 1},
        "xc": {"abc": 1},
    }
    mul = {
        ("a", "b"): {"ab": 1},
        ("b", "c"): {"bc": 1},
        ("a", "bc"): {"abc": 1},
        ("ab", "c"): {"abc": 1},
        ("a", "y"): {"ay": 1},
        ("x", "c"): {"xc": 1},
    }
    return ChainAlgebra(2, 1, 4, elements, "1", diff, mul)


def make_unit_algebra(m=2, n=1, r_max=2):
    return ChainAlgebra(m, n, r_max, [("1", 0, 0)], "1", {}, {})


def make_z4_algebra():
    """Small Z/4 algebra with torsion homology: dx = 2b, a*a = b."""
    elements = [("1", 0, 0), ("a", 1, 0), ("b", 2, 0), ("x", 2, 1)]
    diff = {"x": {"b": 2}}
    mul = {("a", "a"): {"b": 1}}
    return ChainAlgebra(4, 1, 4, elements, "1", diff, mul)


def make_fourfold_algebra():
    """2-truncated F2 algebra with a nonzero fourfold product <a,b,c,d>.

    The letters kill consecutive products twice over: dx_i kill ab, bc, cd,
    and w_1, w_2 kill the triple products a*x2 + x1*c and b*x3 + x2*d.  The
    fourfold bracket is the class of a*w2 + x1*x3 + w1*d in H_2 degree 4.
    """
    elements = [
        ("1", 0, 0),
        ("a", 1, 0), ("b", 1, 0), ("c", 1, 0), ("d", 1, 0),
        ("ab", 2, 0), ("bc", 2, 0), ("cd", 2, 0),
        ("abc", 3, 0), ("bcd", 3, 0),
        ("abcd", 4, 0),
        ("x1", 2, 1), ("x2", 2, 1), ("x3", 2, 1),
        ("ax2", 3, 1), ("x1c", 3, 1), ("bx3", 3, 1), ("x2d", 3, 1),
        ("abx3", 4, 1), ("ax2d", 4, 1), ("x1cd", 4, 1),
        ("w1", 3, 2), ("w2", 3, 2),
        ("aw2", 4, 2), ("x1x3", 4, 2), ("w1d", 4, 2),
    ]
    diff = {
        "x1": {"ab": 1}, "x2": {"bc": 1}, "x3": {"cd": 1},
        "ax2": {"abc": 1}, "x1c": {"abc": 1}, "bx3": {"bcd": 1}, "x2d": {"bcd": 1},
        "abx3": {"abcd": 1}, "ax2d": {"abcd": 1}, "x1cd": {"abcd": 1},
        "w1": {"ax2": 1, "x1c": 1}, "w2": {"bx3": 1, "x2d": 1},
        "aw2": {"abx3": 1, "ax2d": 1},
        "x1x3": {"abx3": 1, "x1cd": 1},
        "w1d": {"ax2d": 1, "x1cd": 1},
    }
    mul = {
        ("a", "b"): {"ab": 1}, ("b", "c"): {"bc": 1}, ("c", "d"): {"cd": 1},
        ("a", "bc"): {"abc": 1}, ("ab", "c"): {"abc": 1},
        ("b", "cd"): {"bcd": 1}, ("bc", "d"): {"bcd": 1},
        ("a", "bcd"): {"abcd": 1}, ("ab", "cd"): {"abcd": 1}, ("abc", "d"): {"abcd": 1},
        ("a", "x2"): {"ax2": 1}, ("x1", "c"): {"x1c": 1},
        ("b", "x3"): {"bx3": 1}, ("x2", "d"): {"x2d": 1},
        ("a", "bx3"): {"abx3": 1}, ("ab", "x3"): {"abx3": 1},
        ("a", "x2d"): {"ax2d": 1}, ("ax2", "d"): {"ax2d": 1},
        ("x1", "cd"): {"x1cd": 1}, ("x1c", "d"): {"x1cd": 1},
        ("a", "w2"): {"aw2": 1}, ("x1", "x3"): {"x1x3": 1}, ("w1", "d"): {"w1d": 1},
    }
    return ChainAlgebra(2, 2, 5, elements, "1", diff, mul)


def make_fourfold_algebra_mod3():
    """The fourfold fixture over Z/3 with Koszul-consistent signs.

    d(a*x2) = d(x1*c) = abc forces dw1 = a*x2 - x1*c, and likewise for w2
    and the three degree-(4,2) products.
    """
    q2 = make_fourfold_algebra()
    elements = [(x, q2.bidegree[x][0], q2.bidegree[x][1]) for x in q2.names]
    diff = {a: dict(row) for a, row in q2.diff.items()}
    diff["w1"] = {"ax2": 1, "x1c": 2}
    diff["w2"] = {"bx3": 1, "x2d": 2}
    diff["aw2"] = {"abx3": 1, "ax2d": 2}
    diff["w1d"] = {"ax2d": 1, "x1cd": 2}
    diff["x1x3"] = {"abx3": 1, "x1cd": 2}
    return ChainAlgebra(3, 2, 5, elements, "1", diff, q2.mul)


def make_two_level_algebra():
    """2-truncated algebra with H_2 of order 2 in upper degree 3."""
    elements = [("1", 0, 0), ("a", 1, 0), ("b", 2, 0), ("c", 3, 0), ("x", 2, 1), ("z", 3, 2)]
    diff = {"x": {"b": 1}}
    mul = {}
    return ChainAlgebra(2, 2, 4, elements, "1", diff, mul)


@pytest.fixture
def massey_algebra():
    return make_massey_algebra()


@pytest.fixture
def unit_algebra():
    return make_unit_algebra()


@pytest.fixture
def z4_algebra():
    return make_z4_algebra()


@pytest.fixture
def two_level_algebra():
    return make_two_level_algebra()


def single_gen_module(name, r):
    return GradedModule.of([(name, r)])
