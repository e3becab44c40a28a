"""Numeric probing of even orders, where no vanishing certificate is known.

Gauss-Newton on the gradient system from seeded random starts, constrained to
the unit sphere: 128-bit points and residuals, float64 steps.  At odd orders
the residual collapses to the working precision (nullvectors exist); at even
orders every restart stalls at a residual floor far above zero.  The floors are evidence only -- the search
never claims exactness or nonexistence.
"""

from steinerdh import numeric_search, path_tree, prufer_decode, random_tree

RESTARTS = 15


def floor_of(t, k):
    return numeric_search(t, k, seed=2024, restarts=RESTARTS)[0].residual


def main():
    print(f"{RESTARTS} restarts each, 128-bit residuals, float64 steps\n")
    rows = [
        ("path on 3, k=3 (certified zero)", path_tree(3), 3),
        ("path on 3, k=2 (det = 4 != 0)", path_tree(3), 2),
        ("two vertices, k=4", prufer_decode(2, []), 4),
        ("random n=4, k=4", random_tree(4, 9), 4),
        ("random n=4, k=5 (certified zero)", random_tree(4, 9), 5),
    ]
    for label, t, k in rows:
        print(f"  {label:38s} min residual = {floor_of(t, k):.3e}")

    print("\nodd orders converge to ~0; even orders sit many orders of"
          "\nmagnitude higher -- consistent with vanishing iff k is odd,"
          "\nbut only a certificate (exact nullvector) ever settles it.")


if __name__ == "__main__":
    main()
