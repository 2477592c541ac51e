import re
from pathlib import Path

import numpy as np
import pytest

import fredreg
from fredreg.assembly import assemble_gram, galerkin_matrix
from fredreg.haar import exp_haar_matrix, exp_t_haar_matrix

from _oracles import run_python

PUBLIC = {
    "NoiseSpec",
    "OperatorCache",
    "PAPER_NOISE_LEVELS",
    "SolverConfig",
    "add_noise",
    "avg_error",
    "error_budget",
    "exact_problem",
    "exp_haar_matrix",
    "project",
    "rank_schedule",
    "rows_from_csv",
    "run_adaptive",
    "run_fixed",
    "run_table",
    "sample_grid",
    "simpson_rule",
    "trapezoid_norm",
}


def test_public_names():
    assert len(fredreg.__all__) == len(PUBLIC) == 18
    assert set(fredreg.__all__) == PUBLIC
    for name in fredreg.__all__:
        assert getattr(fredreg, name) is not None, name


_SAMPLES = np.ones(len(fredreg.sample_grid(3)))

# Every public entry that takes a level, a level cap or an iteration
# count, as (least accepted value, the name its message gives, call with a
# fresh OperatorCache and the level). This is the one statement of the
# level rule in the tests: a new entry that takes a level adds one row.
LEVEL_ENTRIES = {
    "simpson_rule": (1, "simpson_rule level", lambda ops, m: fredreg.simpson_rule(m)),
    "sample_grid": (0, "sample grid level", lambda ops, m: fredreg.sample_grid(m)),
    "error_budget": (1, "error budget level", lambda ops, m: fredreg.error_budget(m)),
    "assemble_gram": (1, "gram level", lambda ops, m: assemble_gram(m)),
    "galerkin_matrix": (1, "galerkin level", lambda ops, m: galerkin_matrix(m)),
    "exp_haar_matrix": (0, "level", lambda ops, m: exp_haar_matrix([0.5], m)[0]),
    "exp_t_haar_matrix": (0, "level", lambda ops, m: exp_t_haar_matrix([0.5], m)),
    "project": (0, "level", lambda ops, m: fredreg.project(lambda t: t, m)),
    "rank_schedule": (
        1, "m_cap", lambda ops, m: fredreg.rank_schedule(1e-6, 16.0 / 180.0, 10.0, m_cap=m)
    ),
    "SolverConfig.m_cap": (1, "m_cap", lambda ops, m: fredreg.SolverConfig(m_cap=m)),
    "SolverConfig.max_iter": (1, "max_iter", lambda ops, m: fredreg.SolverConfig(max_iter=m)),
    "run_fixed": (
        1, "fixed level",
        lambda ops, m: fredreg.run_fixed(ops, _SAMPLES, 1e-3, fredreg.SolverConfig(), m),
    ),
    "OperatorCache.gram": (1, "gram level", lambda ops, m: ops.gram(m)),
    "OperatorCache.galerkin": (1, "galerkin level", lambda ops, m: ops.galerkin(m)),
    "OperatorCache.factor": (1, "factor level", lambda ops, m: ops.factor(m, 0.1)),
    "OperatorCache.factor_galerkin": (
        1, "factor level", lambda ops, m: ops.factor(m, 0.1, galerkin=True)
    ),
    "OperatorCache.rhs": (1, "adjoint partition level", lambda ops, m: ops.rhs(_SAMPLES, m)),
    "OperatorCache.data": (0, "level", lambda ops, m: ops.data(_SAMPLES, m)),
}


def _call(entry, ops, level):
    return LEVEL_ENTRIES[entry][2](ops, level)


@pytest.mark.parametrize("entry", LEVEL_ENTRIES)
def test_every_level_entry_rejects_the_level_below_its_minimum(entry):
    minimum, name, _ = LEVEL_ENTRIES[entry]
    ops = fredreg.OperatorCache()
    message = f"^{re.escape(name)} must be an integer >= {minimum}, got {minimum - 1}$"
    with pytest.raises(ValueError, match=message):
        _call(entry, ops, minimum - 1)
    assert not ops._store


@pytest.mark.parametrize("level", [2.5, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("entry", LEVEL_ENTRIES)
def test_every_level_entry_rejects_a_non_integer(entry, level):
    # 2.5 passes an `m >= 1` check alone (error_budget would give level
    # 2.5's bounds) and "2" fails it with TypeError, not exit 2
    ops = fredreg.OperatorCache()
    with pytest.raises(ValueError, match="integer"):
        _call(entry, ops, level)
    # a cache checks a level before it looks it up, so it stores nothing
    assert not ops._store


CACHE_ENTRIES = [name for name in LEVEL_ENTRIES if name.startswith("OperatorCache.")]


@pytest.mark.parametrize("level", [2.5, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("entry", CACHE_ENTRIES)
def test_every_level_entry_rejects_a_non_integer_on_a_warm_cache(entry, level):
    # True == 1 and hash(True) == hash(1): a lookup that checked only on a
    # miss returned the stored level-1 entry for True
    ops = fredreg.OperatorCache()
    _call(entry, ops, 1)
    with pytest.raises(ValueError, match="integer"):
        _call(entry, ops, level)


ROOT = Path(__file__).resolve().parents[1]
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), flags=re.MULTILINE | re.DOTALL
)
EXAMPLES = {f"readme-{i}": ["-c", block] for i, block in enumerate(README_BLOCKS)}
EXAMPLES.update({f"demos/{p.name}": [str(p)] for p in sorted((ROOT / "demos").glob("*.py"))})


@pytest.mark.parametrize("args", list(EXAMPLES.values()), ids=list(EXAMPLES))
def test_readme_python_examples_run(tmp_path, args):
    # the README's library examples and the demos are the public API as a
    # reader meets it: a deleted or renamed name, a new warning or a file
    # left in the temp directory fails here
    temp = tmp_path / "tmp"
    temp.mkdir()
    done = run_python(["-W", "error", *args], cwd=tmp_path, env={"TMPDIR": str(temp)})
    assert done.returncode == 0, done.stderr
    assert list(temp.iterdir()) == []
