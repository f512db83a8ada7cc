"""What a CLI process pays for outside its command: the modules it loads, the
BLAS pin of the entry point, and the GC freeze at exit."""

import gc
import importlib
import json
import os
import subprocess
import sys

import pytest

import toricext

# the public names of the package and the submodule defining each
PUBLIC = {
    "abreu": [
        "AffineFit", "SymplecticPotential", "abreu_scalar_curvature",
        "extremality_residual",
    ],
    "bridge": [
        "BridgeCheckReport", "KahlerPotential", "PRESETS", "F_of_t",
        "bridge_cross_check", "calabi_scalar_curvature", "flat_potential",
        "fubini_study_potential", "induced_t_potential", "s_of_t", "t_of_s",
    ],
    "calabi": [
        "build_extremal_metric", "extremal_F_second",
        "extremal_scalar_curvature", "h_second",
    ],
    "errors": [
        "BoundaryIdentityViolation", "DegenerateMetric", "DegeneratePointSet",
        "DimensionMismatch", "DomainViolation", "EmptyRegion", "GeometryError",
        "InvalidParameters",
        "NonInteriorPoint", "NonpositiveDerivative", "NotInvertible",
        "OutOfRange", "PositivityViolation", "PotentialPole",
        "SingularSystem", "StencilExitsDomain", "ZeroDenominator",
    ],
    "exact": [
        "ExtremalCoefficients", "closed_form_coefficients",
        "coefficient_cross_check", "positivity_certificate",
        "solve_coefficients",
    ],
    "polytope": [
        "BlowupPolytope", "build_blowup_polytope", "facet_values",
        "interior_distance", "sample_interior",
    ],
    "radial": ["TPotential", "inverse_hessian", "radial_scalar_curvature"],

}


def _python(code: str, *args: str, env=None) -> subprocess.CompletedProcess:
    r = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=240, env=env,
    )
    assert r.returncode == 0, r.stderr
    return r


# runs ``python -m toricext *argv`` (argv as JSON in sys.argv[1]; null for a
# bare ``import toricext``), then prints the loaded modules on stderr's last line
_FOOTPRINT = """
import json, runpy, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import toricext
else:
    sys.argv = ["toricext", *argv]
    try:
        runpy.run_module("toricext", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert not exc.code, exc.code
print("\\n" + json.dumps(sorted(sys.modules)), file=sys.stderr)
"""

# derive and example run on the exact layer alone, profile on it and table;
# no command but bridge-check loads numpy, nor dataclasses' inspect
_EXACT_ONLY = {
    "numpy", "inspect", "toricext.abreu", "toricext.bridge", "toricext.calabi",
    "toricext.numdiff", "toricext.polytope", "toricext.radial",
}
# numpy.random and the OpenSSL-backed hashing it pulls in; no command uses them
_NEVER = {"numpy.random", "secrets", "hashlib", "_hashlib"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (None, {"numpy", "scipy",
                *(f"toricext.{m}" for m in [*PUBLIC, "cli", "numdiff", "table"])}),
        (["derive"], _EXACT_ONLY | {"toricext.table"}),
        (["example"], _EXACT_ONLY | {"toricext.table"}),
        (["profile"], _EXACT_ONLY),
        (["profile", "--format", "json"], _EXACT_ONLY),
        (
            ["bridge-check", "--samples", "3"],
            {"toricext.calabi", "toricext.abreu", "toricext.polytope", "fractions"},
        ),
        (["verify", "--points", "10"], {"numpy", "inspect", "toricext.bridge"}),
    ],
    ids=["import toricext", "derive", "example", "profile", "profile json",
         "bridge-check", "verify"],
)
def test_import_footprint(argv, absent):
    r = _python(_FOOTPRINT, json.dumps(argv))
    loaded = set(json.loads(r.stderr.splitlines()[-1]))
    assert "toricext" in loaded
    assert not (absent | _NEVER) & loaded
    if argv is not None:
        assert "toricext.cli" in loaded
        # every command that does not refuse numpy needs it
        assert "numpy" in absent or "numpy" in loaded


def test_public_namespace_is_the_eager_one():
    names = [name for names in PUBLIC.values() for name in names]
    assert sorted(toricext.__all__) == sorted(names)
    assert toricext.__version__ == "0.1.0"
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"toricext.{module}")
        assert getattr(toricext, module) is mod
        for name in names:
            assert getattr(toricext, name) is getattr(mod, name), name
    for module in ("numdiff", "table"):
        assert getattr(toricext, module) is importlib.import_module(f"toricext.{module}")
    # calabi still answers for the names that moved to exact
    for name in PUBLIC["exact"]:
        assert getattr(toricext.calabi, name) is getattr(toricext.exact, name)
    assert set(names) | set(PUBLIC) <= set(dir(toricext))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        toricext.nonexistent


# the value of OPENBLAS_NUM_THREADS each time numpy is looked up, recorded by a
# meta-path finder installed before the entry point is imported; bridge-check
# is a command that loads numpy
_SPY = """
import contextlib, io, json, os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
from toricext.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["bridge-check", "--samples", "3"]) == 0
print(json.dumps(seen))
"""


def test_entry_point_pins_blas_to_one_thread_before_numpy():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="3")
    assert json.loads(_python(_SPY, env=env).stdout) == ["1"]


def test_entry_point_freezes_the_heap_after_the_command(capsys):
    from toricext import __main__ as entry

    try:
        assert entry.main(["derive"]) == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert json.loads(capsys.readouterr().out)["n"] == 2
