"""From cup-lengths in W_n to bounds for the oriented Grassmannian invariants.

Run with:  python3 demos/tour_bounds.py
"""

from w23.bounds import bounds_row, exceptional_degrees, tc_table_rows
from w23.verify import failures, verify_ineq_arithmetic
from w23.zcl import zcl_closed_form


def main() -> None:
    print("zcl(W_n) pins zcl of the oriented Grassmannian into a width-2 window:")
    print("  1 + zcl(W_n) <= zcl <= 2 + zcl(W_n),   TC >= 2 + zcl(W_n).")
    print("The lower end is attained exactly on two sub-bands of each level;")
    print("elsewhere it is the conjectured value.")
    print()

    for n in (15, 22, 30):
        row = bounds_row(n, zcl_closed_form(n))
        if row.zcl_oriented_exact is not None:
            status = f"= {row.zcl_oriented_exact} (established)"
        else:
            status = f"in [{row.zcl_oriented_lo}, {row.zcl_oriented_hi}]"
        print(f"  n = {n}: zcl(W_n) = {row.zcl_wn}, oriented zcl {status},")
        print(f"          TC >= {row.tc_lower}")
    print()

    print("Exactness at the lower end rides on one or two exceptional")
    print("cohomology classes; their degrees:")
    for n in (15, 20, 24):
        a, b = exceptional_degrees(n)
        tail = f"|b| = {b}" if b is not None else "no second class"
        print(f"  n = {n}: |a| = {a}, {tail}")
    print()

    print("The key inequality behind the upper exactness band,")
    print("  6n + height(z(w2)) < 3*(|a| + zcl(W_n)) + 16,")
    print("holds across entire levels; scanning t = 4..10:")
    checks = [c for t in range(4, 11) for c in verify_ineq_arithmetic(t)]
    bad = failures(checks)
    print(f"  {len(checks)} level scans, {len(bad)} violations")
    print()

    print("TC lower bounds for the level t = 4 (n = 15..30), by band:")
    for band in tc_table_rows(4):
        sign = "=" if band.exact else ">="
        span = (
            f"n = {band.n_first}..{band.n_last}"
            if band.n_first != band.n_last
            else f"n = {band.n_first}"
        )
        print(
            f"  {span:<12} zcl(W_n) = {band.zcl_wn:>3}   "
            f"oriented zcl {sign} {band.zcl_oriented_lo:>3}   "
            f"TC >= {band.tc_lower}"
        )


if __name__ == "__main__":
    main()
