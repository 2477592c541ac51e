import importlib.machinery
import importlib.util
import os
import re

import numpy as np
import pytest
from scipy.linalg import lapack

from fredreg import assembly
from fredreg.assembly import (
    assemble_gram,
    factor_spd_shifted,
    solve_spd_shifted,
)

from _oracles import run_python


def random_psd(rng, n):
    b = rng.standard_normal((n, n))
    return b @ b.T


def factor_and_solve(a, shift, b):
    return solve_spd_shifted(factor_spd_shifted(a, shift), b)


def test_zero_matrix_diagonal_system():
    x = factor_and_solve(np.zeros((2, 2)), 2.0, np.array([1.0, 0.0]))
    np.testing.assert_allclose(x, [0.5, 0.0], atol=1e-16)


def test_identity_matrix():
    x = factor_and_solve(np.eye(2), 1.0, np.array([3.0, 3.0]))
    np.testing.assert_allclose(x, [1.5, 1.5], atol=1e-15)


def test_solution_norm_bounded_by_rhs_over_shift():
    rng = np.random.default_rng(0)
    a = random_psd(rng, 8)
    b = rng.standard_normal(8)
    x = factor_and_solve(a, 1e-3, b)
    assert np.linalg.norm(x) <= np.linalg.norm(b) / 1e-3


def test_residual_is_small():
    rng = np.random.default_rng(1)
    for n in (4, 16, 64):
        a = random_psd(rng, n)
        b = rng.standard_normal(n)
        shift = 10.0 ** rng.uniform(-4, 0)
        x = factor_and_solve(a, shift, b)
        resid = np.linalg.norm((a + shift * np.eye(n)) @ x - b)
        assert resid <= 1e-12 * (shift + np.linalg.norm(a, 2)) * np.linalg.norm(x)


def test_deterministic():
    rng = np.random.default_rng(2)
    a = random_psd(rng, 12)
    b = rng.standard_normal(12)
    x1 = factor_and_solve(a, 0.1, b)
    x2 = factor_and_solve(a.copy(), 0.1, b.copy())
    np.testing.assert_array_equal(x1, x2)


def test_continuity_in_rhs():
    rng = np.random.default_rng(3)
    a = random_psd(rng, 10)
    shift = 0.05
    for _ in range(20):
        b1 = rng.standard_normal(10)
        b2 = b1 + 1e-4 * rng.standard_normal(10)
        x1 = factor_and_solve(a, shift, b1)
        x2 = factor_and_solve(a, shift, b2)
        assert np.linalg.norm(x1 - x2) <= np.linalg.norm(b1 - b2) / shift * (1 + 1e-12)


def test_gram_matrix_accepted_directly():
    gram = assemble_gram(2)
    rhs = np.ones(len(gram))
    x = factor_and_solve(gram, 0.5, rhs)
    resid = (gram + 0.5 * np.eye(len(gram))) @ x - rhs
    assert np.linalg.norm(resid) < 1e-12


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        factor_spd_shifted(np.eye(2), 0.0)
    with pytest.raises(ValueError):
        factor_spd_shifted(np.eye(2), -1.0)
    for shift in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            factor_spd_shifted(np.eye(2), shift)
    with pytest.raises(ValueError):
        factor_spd_shifted(np.ones((2, 3)), 1.0)
    with pytest.raises(ValueError):
        solve_spd_shifted(factor_spd_shifted(np.eye(3), 1.0), np.ones(2))


def test_factorization_failure_reports_pivot():
    # violates the PSD contract: eigenvalues -2 and 1, shift too small
    bad = np.array([[1.0, 0.0], [0.0, -2.0]])
    with pytest.raises(np.linalg.LinAlgError, match="pivot 2"):
        factor_spd_shifted(bad, 0.5)


def test_cli_import_loads_no_scipy_package():
    # the LAPACK extension is loaded by file; scipy/__init__ and the
    # scipy.linalg package (and what they import) must not run
    code = "import sys, fredreg.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = run_python(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['scipy.linalg._flapack']"


def test_loaded_lapack_is_scipy_linalg_lapack():
    # _flapack is a single-phase extension, cached once per process: the
    # loader's routines and scipy.linalg.lapack's are the same objects, so
    # every factor and solve is bit-identical by construction
    assert assembly.dpotrf is lapack.dpotrf
    assert assembly.dpotrs is lapack.dpotrs


def test_lapack_loader_names_the_directory_it_searched(monkeypatch, tmp_path):
    scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy_spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy_spec)
    with pytest.raises(ImportError, match=re.escape(os.path.join(str(tmp_path), "linalg"))):
        assembly._load_flapack()


def test_lapack_loader_says_why_the_extension_did_not_load(monkeypatch):
    def refuse(spec):
        raise ImportError("DLL load failed")

    monkeypatch.setattr(importlib.util, "module_from_spec", refuse)
    with pytest.raises(ImportError, match="could not be loaded without running scipy's package"):
        assembly._load_flapack()


def test_lapack_loader_without_scipy(monkeypatch):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy is not installed"):
        assembly._load_flapack()
