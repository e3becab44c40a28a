"""The names the benchmark in ``perfbench/`` binds to still resolve.

The benchmark's tracer wraps these attributes by name (``Tree.steiner``,
``CycNum.__mul__``, ...) and its workloads call the CLI helpers directly.
The tier-1 suite does not run ``perfbench/``, so without this test a change
that drops or renames one of them would break ``perfbench/run.py --trace 1``
unnoticed.

The tracer names a module-level function ``<layer>.<name>`` after the module
that defines it, and its per-layer metrics read those names back; a renamed
or moved function would not fail the traced run but would read as 0 calls
and 0 s.
"""

import importlib

import steinerdh
from steinerdh import CycNum, RatMatrix, SparsePoly, Tree, cli, numeric_search, path_tree

# every "<layer>.<function>" the per-layer metrics, leaf set, namers and
# counters of perfbench/tracing.py look up
TRACED_FUNCTIONS = (
    "trees.random_tree", "trees.prufer_decode",
    "scalar.euler_phi",
    "forms.gradient_direct", "forms.hessian_direct", "forms.steiner_form",
    "forms.divide_by_linear",
    "nullspace.numeric_search", "nullspace.verify_nullvector",
    "nullspace.verify_form_nullvector",
    "hypermatrix.build_steiner", "hypermatrix.export_json", "hypermatrix.import_json",
    "distmatrix.determinant_exact", "distmatrix.gl_inverse",
    "smalldet.verify_k2_no_nullvector", "smalldet.two_vertex_nullvector_witness",
)


def test_benchmark_bindings_resolve():
    for owner, attrs in ((Tree, ("__init__", "steiner")),
                         (RatMatrix, ("__matmul__",)),
                         (CycNum, ("__mul__", "__rmul__")),
                         (SparsePoly, ("__mul__", "__rmul__"))):
        for attr in attrs:
            assert callable(owner.__dict__[attr]), (owner.__name__, attr)
    for attr in ("certify_case", "identity_rows"):
        assert callable(getattr(cli, attr)), attr
    assert isinstance(cli.SCHEMA, str) and cli.EXIT_OK == 0
    assert callable(steinerdh.steiner_distance_bruteforce)
    (candidate,) = numeric_search(path_tree(3), 3, 1, 1)
    assert all(len(c.to_json()) == 2 for c in candidate.point)


def test_traced_function_names_resolve():
    for name in TRACED_FUNCTIONS:
        layer, attr = name.split(".")
        module = importlib.import_module(f"steinerdh.{layer}")
        obj = getattr(module, attr, None)
        assert callable(obj) and obj.__module__ == module.__name__, name
