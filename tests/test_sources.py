"""Source checks: no BLAS matrix product in the modules whose sums reach a
report, so a later edit cannot bring one back unnoticed. A BLAS library may
split a product across its threads and sum it in another order, which
einsum's fixed order rules out."""

import ast
import os

import pytest

import gammadep

FIXED_ORDER_MODULES = ["kernels.py", "metric.py", "ustat.py", "variance.py"]
BLAS_CALLS = {"dot", "vdot", "matmul", "inner", "tensordot"}

# The jackknife display keeps its two BLAS dots: as einsums, r @ c moves the
# benchmark's seed-0 cli-ghsic-wide sigma0_sq 9.4e-10 off its reference,
# past the 1e-10 gate, so that reference has to be re-derived first.
ALLOWED = {"variance.py": ["g @ g", "r @ c"]}


def blas_products(source):
    """(line, what, text) for each matrix product in a module's source: an
    ``@`` or ``@=``, or a call named like numpy's products, bare or as an
    attribute. Docstrings and comments are not code, so they never match."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@", ast.get_source_segment(source, node)))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in BLAS_CALLS:
                found.append((node.lineno, name, ast.get_source_segment(source, node)))
    return found


def test_the_check_finds_every_form():
    source = "a @ b\nc @= d\nnp.dot(a, b)\nmatmul(a, b)\nx.inner(y)\nnp.linalg.tensordot(a, b)\n"
    source += "np.vdot(a, b)\n'a @ b, np.dot(a, b)'\nnp.einsum('ij,j->i', a, b)\n"
    assert [what for _, what, _ in blas_products(source)] == [
        "@", "@", "dot", "matmul", "inner", "tensordot", "vdot",
    ]
    assert sorted(text for _, _, text in blas_products("a @ b\nc @= d\n")) == ["a @ b", "c @= d"]


@pytest.mark.parametrize("module", FIXED_ORDER_MODULES)
def test_no_matrix_product(module):
    path = os.path.join(os.path.dirname(gammadep.__file__), module)
    with open(path, encoding="utf-8") as fh:
        found = sorted(text for _, _, text in blas_products(fh.read()))
    assert found == ALLOWED.get(module, [])
