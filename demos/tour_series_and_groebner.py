"""Walk through the g-series and the closed-form Groebner bases.

Run with:  python3 demos/tour_series_and_groebner.py
"""

from w23.groebner import basis_for, binary_profile, buchberger, reduce_basis
from w23.gseries import g_recurrence
from w23.verify import g_explicit


def main() -> None:
    print("The series g_r in Z/2[w2, w3]")
    print("  g_0 = 1, g_1 = 0, g_2 = w2, then g_r = w2*g_{r-2} + w3*g_{r-3}")
    print()
    for r in range(13):
        print(f"  g_{r:<2} = {g_recurrence(r)}")
    print()

    print("A closed form picks out the surviving terms by binomial parity;")
    print("it agrees with the recurrence everywhere we care to look:")
    ok = all(g_recurrence(r) == g_explicit(r) for r in range(256))
    print(f"  g_recurrence(r) == g_explicit(r) for r < 256: {ok}")
    print()

    zeros = [r for r in range(256) if not g_recurrence(r)]
    print(f"g_r vanishes exactly when r + 3 is a power of two: {zeros}")
    print()

    print("For every n >= 2 the ideal (g_{n-2}, g_{n-1}, g_n) has a Groebner basis")
    print("F_n = (f_0, ..., f_{t-1}) given in closed form, one polynomial per")
    print("bit of n + 1 below the leading bit.  Its leading monomials form a")
    print("staircase that starts on the w2 axis and ends on the w3 axis.")
    print()
    for n in (3, 6, 7, 21, 30, 64):
        prof = binary_profile(n)
        gb = basis_for(n)
        stairs = ", ".join(f"w2^{b}*w3^{c}" for b, c in gb.lms)
        print(f"  n = {n}: t = {prof.t}, alpha = {prof.alpha}")
        print(f"    staircase: {stairs}")
    print()

    print("The closed form is checked against Buchberger's algorithm run on")
    print("the raw generators, then reduced; F_n is already the reduced basis,")
    print("so the comparison is exact:")
    for n in (3, 6, 7, 21, 30, 64):
        raw = buchberger(
            [g_recurrence(n - 2), g_recurrence(n - 1), g_recurrence(n)], n=n
        )
        same = reduce_basis(raw).polys == basis_for(n).polys
        print(f"  n = {n}: F_n equals the reduced Buchberger basis: {same}")


if __name__ == "__main__":
    main()
