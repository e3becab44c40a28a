"""The names the benchmark in ``perfbench/`` binds to still resolve.

The benchmark's tracer wraps these attributes by name (``Tree.steiner``,
``CycNum.__mul__``, ...) and its workloads call the CLI helpers directly.
The tier-1 suite does not run ``perfbench/``, so without this test a change
that drops or renames one of them would break ``perfbench/run.py --trace 1``
unnoticed.
"""

import steinerdh
from steinerdh import CycNum, RatMatrix, SparsePoly, Tree, cli, numeric_search, path_tree


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
