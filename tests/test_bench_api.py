"""The names the benchmark in ``perfbench/`` binds to still resolve.

The benchmark's tracer wraps these attributes by name (``Tree.steiner``,
``CycNum.__mul__``, ...) and its workloads call the CLI helpers directly.
The tier-1 suite does not run ``perfbench/``, so without this test a change
that drops or renames one of them would break ``perfbench/run.py --trace 1``
unnoticed.  The class bindings are checked by a real round trip through the
tracer: ``instrument`` fails on any attribute it cannot find, and ``restore``
must put every original back.

The tracer names a module-level function ``<layer>.<name>`` after the module
that defines it, and its per-layer metrics read those names back; a renamed
or moved function would not fail the traced run but would read as 0 calls
and 0 s.
"""

import importlib
import importlib.util
from pathlib import Path

import steinerdh
from steinerdh import cli, errors, numeric_search, path_tree

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# every "<layer>.<function>" the per-layer metrics, leaf set, namers and
# counters of perfbench/tracing.py look up
TRACED_FUNCTIONS = (
    "trees.random_tree", "trees.prufer_decode",
    "scalar.euler_phi",
    "forms.gradient_direct", "forms.hessian_direct", "forms.steiner_form",
    "nullspace.numeric_search", "nullspace.verify_nullvector",
    "nullspace.verify_form_nullvector",
    "hypermatrix.build_steiner", "hypermatrix.export_json", "hypermatrix.import_json",
    "distmatrix.gl_inverse",
    "smalldet.verify_k2_no_nullvector", "smalldet.two_vertex_nullvector_witness",
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(owner, attr):
    """What the tracer replaces: a class's own attribute, or a module's."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_benchmark_bindings_resolve():
    tracing = _load_tracing()
    modules = (steinerdh, errors, *tracing.LAYERS.values())
    namespaces = [(module, dict(vars(module))) for module in modules]
    methods = [(owner, attr, _binding(owner, attr)) for owner, attr, *_ in tracing._METHODS]
    try:
        restore = tracing.instrument(tracing.Tracer())
        wrapped = [_binding(owner, attr) is not original for owner, attr, original in methods]
        restore()
        back = [_binding(owner, attr) is original for owner, attr, original in methods]
        back += [vars(module).get(attr) is obj
                 for module, names in namespaces for attr, obj in names.items()]
    finally:   # a failed round trip must not leave wrappers for later tests
        for module, names in namespaces:
            vars(module).update(names)
        for owner, attr, original in methods:
            setattr(owner, attr, original)
    assert all(wrapped) and all(back)
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
