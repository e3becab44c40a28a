"""Distance matrices of trees: exact determinants, the closed-form inverse,
and the row vector that sums every row of D to 1.

The punch line: det(D) depends on the tree only through its vertex count.
"""

from fractions import Fraction

import numpy as np

from steinerdh import (det_order2, gl_inverse, graham_pollak_value, path_tree,
                       random_tree, star_tree)


def show(t, name):
    D = t.distances().tolist()
    det = det_order2(t)
    predicted = graham_pollak_value(t.n)
    print(f"{name} (n={t.n})")
    for row in D:
        print("   ", row)
    print(f"    det = {det}, closed form -(n-1)(-2)^(n-2) = {predicted}",
          "OK" if det == predicted else "MISMATCH")

    num, den = gl_inverse(t)   # the inverse is num / den, den = 2(n-1)
    print("    degree/adjacency inverse * D == I:",
          np.array_equal(num @ t.distances(), den * np.eye(t.n, dtype=np.int64)))

    c = [Fraction(2 - t.degrees[r], t.n - 1) for r in range(1, t.n + 1)]
    print(f"    c = {[str(x) for x in c]}")
    print("    c * D == all-ones row:",
          [sum(ci * row[j] for ci, row in zip(c, D)) for j in range(t.n)] == [1] * t.n,
          f"; sum(c) = {sum(c)} = 2/(n-1)")
    print()


def main():
    print("=== determinants that only see the vertex count ===\n")
    show(path_tree(3), "path 1-2-3")
    show(star_tree(4), "star K_{1,3}")
    show(path_tree(6), "path on 6")

    print("same n, different shapes, same determinant:")
    for seed in range(4):
        t = random_tree(9, seed)
        det = det_order2(t)
        degs = sorted(t.degrees[1:], reverse=True)
        print(f"    seed {seed}: degree sequence {degs}  det = {det}")
    print(f"    closed form for n=9: {graham_pollak_value(9)}")


if __name__ == "__main__":
    main()
