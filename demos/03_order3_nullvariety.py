"""The order-3 picture: the Steiner cubic factors as s * g, and its nullvariety
is cut out by those two polynomials.

Walk-through on one tree:
  * p = s * g with s = sum x_r and g = 3 * sum d(i,j) x_i x_j;
  * Euler-type identity sum_r x_r D_r p = 3 s g;
  * s^3 = sum_r f_r D_r p with the degree-based cofactors
    f_r = ((2 - deg_r) s - (2/3) x_r) / (3(n-1)), so any point killing the
    gradient also kills s -- coordinates of nullvectors sum to 0;
  * no single D_r p is divisible by s;
  * membership (s = 0 and g = 0) is equivalent to gradient vanishing;
  * any n-2 coordinates extend to a nullvector by solving one quadratic,
    certified exactly whether or not its roots lie in the working field.

The identities are checked exactly on integer tensors of the cubic.
"""

from fractions import Fraction

from steinerdh import (build_steiner, complete_nullvector, membership_sg,
                       order3_tensor, random_tree, steiner_form,
                       verify_form_divisible, verify_not_divisible, verify_nullvector,
                       verify_product_decomposition, verify_s3_decomposition)


def main():
    t = random_tree(6, seed=3)
    n = t.n
    print("tree edges:", list(t.edges))

    p = steiner_form(build_steiner(t, 3))
    print(f"\nSteiner cubic has {len(p.terms)} terms:")
    print(" ", repr(p)[:150], "...")
    P = order3_tensor(t)   # 6x the symmetric tensor of p
    product = verify_product_decomposition(P, t.distances())
    print("p == s * g:", product)
    print("p divisible by s:", verify_form_divisible(P))
    # Euler's theorem: sum_r x_r D_r p = 3p, so this is the product row
    print("sum_r x_r D_r p == 3 s g:", product)
    print("s^3 == sum_r f_r D_r p:", verify_s3_decomposition(P, t.degrees[1:]))
    print("no D_r p divisible by s:", verify_not_divisible(P))

    print("\ncompletion: fix coordinates 3..n, solve a quadratic for the rest")
    tail = [Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(0)][: n - 2]
    for cand in complete_nullvector(t, tail):
        a, b, c = cand.quadratic
        print(f"  quadratic {a} * a1^2 + ({b}) * a1 + ({c}) = 0")
        if cand.point is not None:
            print("    exact root , membership (s=0, g=0):",
                  membership_sg(t, cand.point),
                  "| gradient vanishes:",
                  verify_nullvector(t, 3, cand.point).exact_zero)
        else:
            print("    discriminant not +/- a rational square; both roots complete "
                  "the tail, certified exactly:", cand.verified)

    print("\nzero-sum: every nullvector has coordinates summing to 0")
    from steinerdh import canonical_odd_nullvector
    y = canonical_odd_nullvector(t, 3)
    total = y[0]
    for x in y[1:]:
        total = total + x
    print("  canonical certificate:", {v + 1: str(y[v]) for v in range(n)
                                       if not y[v].is_zero()})
    print("  sum of coordinates is zero:", total.is_zero())


if __name__ == "__main__":
    main()
