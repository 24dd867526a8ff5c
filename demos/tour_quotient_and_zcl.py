"""Build a quotient ring, inspect it, and find its zero-divisor cup-length.

Run with:  python3 demos/tour_quotient_and_zcl.py
"""

from w23.poly import deg
from w23.quotient import brute_heights, build_quotient
from w23.verify import graded_piece
from w23.zcl import witness, zcl_closed_form, zcl_search


def main() -> None:
    n = 21
    q = build_quotient(n)
    print(f"W_{n} = Z/2[w2, w3] / (g_{n - 2}, g_{n - 1}, g_{n})")
    print(f"  {len(q.basis)} basis monomials, top degree {q.max_degree}")
    print()

    rows = q.by_degree()
    counts = [len(rows.get(d, ())) for d in range(q.max_degree + 1)]
    print(f"  dimensions by degree, 0..{q.max_degree}:")
    print(f"    {' '.join(map(str, counts))}")
    print()

    h2, h3 = brute_heights(q)
    print(f"  heights: w2^{h2} != 0 but w2^{h2 + 1} = 0; w3^{h3} != 0 but w3^{h3 + 1} = 0")
    print()

    print("Zero-divisor cup-length: the longest nonzero product of elements")
    print("z(a) = a(x)1 + 1(x)a in W_n (x) W_n.  Products of z(w2) and z(w3)")
    print("powers suffice, so the search walks the (beta, gamma) staircase.")
    res = zcl_search(q)
    print(f"  zcl(W_{n}) = {res.value}, witness z(w2)^{res.beta} * z(w3)^{res.gamma}")
    print(f"  closed form gives {zcl_closed_form(n)}")
    print()

    beta, gamma = res.beta, res.gamma
    r, _ = witness(q, beta, gamma)
    piece = graded_piece(q, beta, gamma, r)
    print(f"The witness survives in left degree {r}: that graded piece of")
    print(f"z(w2)^{beta} * z(w3)^{gamma} is")
    for m1, m2 in sorted(piece.element.pairs):
        left = f"w2^{m1[0]}*w3^{m1[1]}"
        right = f"w2^{m2[0]}*w3^{m2[1]}"
        print(f"  {left} (x) {right}   degrees ({deg(m1)}, {deg(m2)})")
    print()

    print("Raising either exponent by one kills the product:")
    from w23.zcl import zero_divisor_product_nonzero

    for db, dg in ((1, 0), (0, 1)):
        alive = zero_divisor_product_nonzero(q, beta + db, gamma + dg)
        print(f"  z(w2)^{beta + db} * z(w3)^{gamma + dg} nonzero: {alive}")


if __name__ == "__main__":
    main()
