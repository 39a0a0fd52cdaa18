"""The import contract: ``import dhbox`` loads the level-1 core only.

Each check runs in a fresh interpreter, since this one has long since
imported numpy and every study.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

LEVEL1_CORE = r"""
import sys
from array import array

import dhbox
from dhbox import (
    DHInstance,
    Escrow,
    GroupElement,
    IdentityOracle,
    PrimeModulus,
    brute_force_secret,
    ddh_decide_level1,
    honest_cdh_oracle,
    secret_from_cdh,
)
from dhbox.blackbox import first_on_line

HEAVY = ("numpy", "dhbox.adversary", "dhbox.experiments", "dhbox.grover_sim")


def loaded():
    return [name for name in HEAVY if name in sys.modules]


def quadruple(p, s, dh):
    # g, h, k with two moving coordinates each, so the decision asks the
    # roots of a degree-two polynomial; label(l) = label(h)label(k)/label(g)
    # on a DH-quadruple and one more otherwise.
    pm = PrimeModulus(p)
    g, h, k = (GroupElement(c, pm) for c in ((3, 5), (7, 11), (13, 17)))
    label = lambda e: (e.coords[0] + s * e.coords[1]) % p
    want = label(h) * label(k) * pow(label(g), -1, p) + (0 if dh else 1)
    return DHInstance(g, h, k, GroupElement((want - 19 * s, 19), pm))


assert loaded() == [], loaded()
s = 123456789
for p in (2**61 - 1, 27 * 2**56 + 1):
    for dh in (1, 0):
        oracle = IdentityOracle.level1(PrimeModulus(p), s)
        assert ddh_decide_level1(oracle, quadruple(p, s, dh)) == dh, (p, dh)
        assert 2 <= oracle.queries <= 3
    cdh = honest_cdh_oracle(oracle, Escrow())
    assert secret_from_cdh(cdh, oracle).value == s
oracle = IdentityOracle.level1(PrimeModulus(1009), 1000)
assert brute_force_secret(oracle).value == 1000
assert oracle.queries == 1001
assert loaded() == [], loaded()

# A tuple and a memoryview are scanned query by query, as an iterator is:
# the same hit and charge, and no numpy loaded.
values = array("q", [5, 1009 + 3, 700 + 2 * 1009, 700, 9])
scans = []
for candidates in (iter(values), tuple(values), memoryview(values)):
    oracle = IdentityOracle.level1(PrimeModulus(1009), 700)
    scans.append((first_on_line(oracle, candidates), oracle.queries))
assert scans == [(700 + 2 * 1009, 3)] * 3, scans
assert loaded() == [], loaded()
"""

STUDY_NAMES = r"""
import sys

import dhbox

assert "dhbox.grover_sim" not in sys.modules
assert dhbox.grover_search is dhbox.grover_sim.grover_search
assert "dhbox.adversary" not in sys.modules
namespace = {}
exec("from dhbox import *", namespace)
assert set(dhbox.__all__) <= set(namespace)
assert all(namespace[name] is getattr(dhbox, name) for name in dhbox.__all__)
assert set(dhbox.__all__) <= set(dir(dhbox))
assert dhbox.adversary.adversary_bounds is dhbox.adversary_bounds
try:
    dhbox.no_such_name
except AttributeError as e:
    assert "no_such_name" in str(e)
else:
    raise AssertionError("an unknown attribute was found")
"""

ADVERSARY_WITHOUT_NUMPY = r"""
import sys

import dhbox
from dhbox.adversary import case_count_extremes

report = dhbox.adversary_bounds(31, force=True)
extremes = case_count_extremes(31)
assert (str(report.worst_ratio_randomized), extremes) == ("15", (2, 31)), (report, extremes)
assert "numpy" not in sys.modules, "the adversary study loaded numpy"
"""


def _run_fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_only_the_level1_core():
    # The DDH decision at both bench moduli, the CDH reduction, a brute
    # force over a range, and the query-by-query scans of a tuple and a
    # memoryview run without numpy or any study module.
    _run_fresh(LEVEL1_CORE)


def test_study_names_load_on_first_access():
    # Every name of __all__ is reachable, by attribute, by dir() and by a
    # star import, and each study name is its module's own object.
    _run_fresh(STUDY_NAMES)


def test_adversary_study_runs_without_numpy():
    # The adversary bounds and the case counts are closed forms in plain
    # integers, so neither loads numpy.
    _run_fresh(ADVERSARY_WITHOUT_NUMPY)
