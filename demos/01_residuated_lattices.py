"""Tour of the lattice and monoid layer.

Builds the corpus lattices, runs the axiom batteries, computes residua, and
shows how a broken table is caught with a concrete witness.
"""

from fuzztop import (build_lattice, boolean, chain, diamond, pentagon,
                     check_infinite_distributivity, meet_tensor,
                     lukasiewicz_tensor, join_cotensor, check_gl_monoid,
                     check_co_gl_monoid, residuum, co_implication, classify,
                     Tensor)


def main():
    print("== lattices ==")
    c3 = chain(3)
    print(f"3-chain: top={c3.top} bot={c3.bot} join(0,2)={c3.join2(0, 2)}")

    m2 = diamond()
    print("diamond join of the two atoms:", m2.join2(1, 2), "(the top)")

    print("\ndistributivity verdicts:")
    for name, lat in [("3-chain", c3), ("boolean", boolean()),
                      ("diamond", diamond()), ("pentagon", pentagon())]:
        rep = check_infinite_distributivity(lat)
        print(f"  {name}: {'pass' if rep.passed else 'FAIL'}")
        for axiom in rep.failures():
            print(f"    witness: {rep.verdicts[axiom].witness}")

    print("\n== monoidal structure ==")
    godel = meet_tensor(c3)
    luk = lukasiewicz_tensor(c3)
    for name, t in [("Goedel (meet)", godel), ("Lukasiewicz", luk)]:
        rep = check_gl_monoid(t)
        r = residuum(t)
        tags = ", ".join(sorted(classify(t, r))) or "plain"
        print(f"  {name}: battery {'pass' if rep.passed else 'FAIL'}, "
              f"class: {tags}")
        print(f"    residuum(mid -> bot) = {r.app(1, 0)}")

    co = join_cotensor(c3)
    print("  join cotensor battery:",
          "pass" if check_co_gl_monoid(co).passed else "FAIL")
    print("    co-implication(top |> mid) =", co_implication(co).app(2, 1))

    print("\n== a broken table is caught ==")
    table = [list(r) for r in c3.meet]
    table[1][2] = 0  # mid tensor top should be mid: breaks integrality
    bad = Tensor(base=c3, table=tuple(tuple(r) for r in table))
    rep = check_gl_monoid(bad)
    for axiom in rep.failures():
        print(f"  {axiom} fails, witness {rep.verdicts[axiom].witness}")


if __name__ == "__main__":
    main()
